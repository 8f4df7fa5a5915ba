"""Exact Fibonacci/Lucas arithmetic and golden-ratio power utilities.

Sequence values are produced in exact (arbitrary-precision) integer
arithmetic via fast doubling, so they stay usable as oracles at large
indices.  Floating point enters only at the edges, e.g. when a power of
the golden ratio is assembled from exact F_r, L_r:

    alpha^r = (L_r + F_r*sqrt(5)) / 2,   beta^r = (L_r - F_r*sqrt(5)) / 2.

Negative indices follow F_{-n} = (-1)^(n-1) F_n and L_{-n} = (-1)^n L_n.
All functions are pure; values are plain ints/floats and freely shareable.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

MAX_INDEX = 10_000
MAX_GOLDEN_POWER = 40

SQRT5 = math.sqrt(5.0)
ALPHA = (1.0 + SQRT5) / 2.0
BETA = (1.0 - SQRT5) / 2.0
LN_ALPHA = math.log(ALPHA)


def _fib_pair(m: int) -> tuple[int, int]:
    """(F_m, F_{m+1}) for m >= 0 by fast doubling, O(log m) multiplies."""
    a, b = 0, 1
    for bit in bin(m)[2:]:
        c = a * (2 * b - a)
        d = a * a + b * b
        if bit == "1":
            a, b = d, c + d
        else:
            a, b = c, d
    return a, b


def _check_index(n: int) -> None:
    if not isinstance(n, int):
        raise TypeError(f"sequence index must be an int, got {type(n).__name__}")
    if abs(n) > MAX_INDEX:
        raise ValueError(f"index {n} outside supported range |n| <= {MAX_INDEX}")


def fib(n: int) -> int:
    """Fibonacci number F_n for any signed index with |n| <= 10000."""
    _check_index(n)
    if n >= 0:
        return _fib_pair(n)[0]
    m = -n
    f = _fib_pair(m)[0]
    return f if m % 2 == 1 else -f


def lucas(n: int) -> int:
    """Lucas number L_n for any signed index with |n| <= 10000."""
    _check_index(n)
    m = abs(n)
    a, b = _fib_pair(m)
    lm = 2 * b - a  # L_m = 2 F_{m+1} - F_m
    if n >= 0 or m % 2 == 0:
        return lm
    return -lm


class GoldenPair(NamedTuple):
    """Matched binary64 powers (alpha^r, beta^r) of the golden-ratio roots."""

    alpha_pow: float
    beta_pow: float


@lru_cache(maxsize=None, typed=True)  # errors are not cached: only |r| <= 40 is kept
def golden_powers(r: int) -> GoldenPair:
    """(alpha^r, beta^r) assembled from exact F_r, L_r; |r| <= 40.

    The dominant root is (L_r + |F_r| sqrt5)/2, a sum of positive terms
    with no cancellation; the small root comes from the exact product
    alpha^r beta^r = (-1)^r.  Forming the small root as (L_r - F_r sqrt5)/2
    instead would lose every digit once beta^r drops below eps * L_r.
    """
    if not isinstance(r, int):
        raise TypeError(f"power index must be an int, got {type(r).__name__}")
    if abs(r) > MAX_GOLDEN_POWER:
        raise ValueError(f"power {r} outside supported range |r| <= {MAX_GOLDEN_POWER}")
    fr = fib(r)
    lr = lucas(r)
    if r >= 0:
        alpha_pow = (lr + fr * SQRT5) / 2.0
        return GoldenPair(alpha_pow, (-1.0) ** r / alpha_pow)
    # r < 0: |beta^r| > 1 dominates; beta^r = (L_r - F_r sqrt5)/2 with F_r
    # alternating in sign, so the subtraction is again cancellation-free
    beta_pow = (lr - fr * SQRT5) / 2.0
    return GoldenPair((-1.0) ** r / beta_pow, beta_pow)


__all__ = [
    "ALPHA", "BETA", "LN_ALPHA", "SQRT5", "MAX_INDEX", "MAX_GOLDEN_POWER",
    "GoldenPair", "fib", "lucas", "golden_powers",
]
