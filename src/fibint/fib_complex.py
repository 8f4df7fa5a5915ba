"""Complex-valued Fibonacci and Lucas functions and their derivatives.

The real-argument interpolations

    f(x) = (alpha^x - beta^x) / sqrt(5),    l(x) = alpha^x + beta^x

need a branch choice because beta < 0.  We use the principal branch
throughout, writing beta^x = (-beta)^x * exp(i*pi*x), which reduces to
F_j, L_j at integer arguments.  Their first derivatives then split into
a real part proportional to ln(alpha) and an imaginary part proportional
to pi * beta^x:

    f'(x) = ( l(x) ln(alpha) - i pi b(x) ) / sqrt(5)
    l'(x) = sqrt(5) f(x) ln(alpha) + i pi b(x)

with b(x) the principal-branch beta^x.  At integer j this gives
Re f'(j) = L_j ln(alpha)/sqrt(5), Im f'(j) = -pi beta^j / sqrt(5), and
the analogous Lucas forms.  lemma2_check checks these closed forms
against central differences at integer j, the paper's fundamental lemma.
All functions are pure and thread-safe.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .exact_seq import ALPHA, BETA, LN_ALPHA, SQRT5

MAX_ARG = 200.0


def _check_arg(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("argument must be finite")
    if abs(x) > MAX_ARG:
        raise ValueError(f"argument {x} outside supported range |x| <= {MAX_ARG}")
    return x


def _beta_pow(x: float) -> complex:
    # principal branch: (-beta)^x = exp(-x ln alpha) since -beta = 1/alpha
    return cmath.rect(math.exp(-x * LN_ALPHA), math.pi * x)


def _guard(z: complex) -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise OverflowError("complex Fibonacci/Lucas value overflowed binary64")
    return z


def fib_fn(x: float) -> complex:
    """f(x) = (alpha^x - beta^x)/sqrt(5), principal branch; f(j) = F_j."""
    x = _check_arg(x)
    return _guard((math.exp(x * LN_ALPHA) - _beta_pow(x)) / SQRT5)


def lucas_fn(x: float) -> complex:
    """l(x) = alpha^x + beta^x, principal branch; l(j) = L_j."""
    x = _check_arg(x)
    return _guard(math.exp(x * LN_ALPHA) + _beta_pow(x))


def fib_fn_deriv(x: float) -> complex:
    """Closed-form derivative f'(x) = (l(x) ln(alpha) - i pi beta^x)/sqrt(5)."""
    x = _check_arg(x)
    b = _beta_pow(x)
    lx = math.exp(x * LN_ALPHA) + b
    return _guard((lx * LN_ALPHA - 1j * math.pi * b) / SQRT5)


def lucas_fn_deriv(x: float) -> complex:
    """Closed-form derivative l'(x) = sqrt(5) f(x) ln(alpha) + i pi beta^x."""
    x = _check_arg(x)
    b = _beta_pow(x)
    fx = (math.exp(x * LN_ALPHA) - b) / SQRT5
    return _guard(SQRT5 * fx * LN_ALPHA + 1j * math.pi * b)


def central_difference(fn, x: float, h: float) -> complex:
    """Second-order central difference (fn(x+h) - fn(x-h)) / (2h)."""
    if h <= 0.0:
        raise ValueError("step h must be positive")
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def deriv_residual(x: float, h: float = 1e-5) -> tuple[float, float]:
    """|FD - closed form| for (f', l') at x; Richardson-style oracle hook."""
    rf = abs(central_difference(fib_fn, x, h) - fib_fn_deriv(x))
    rl = abs(central_difference(lucas_fn, x, h) - lucas_fn_deriv(x))
    return rf, rl


class Lemma2Residual(NamedTuple):
    j: int
    fib_resid: float
    lucas_resid: float


def lemma2_check(j_lo: int, j_hi: int, h: float = 1e-5) -> list[Lemma2Residual]:
    """Central-difference residuals of the closed-form derivatives.

    For each integer j, |FD(f)(j) - f'(j)| and |FD(l)(j) - l'(j)| in
    complex modulus; second-order in h.
    """
    if not (1e-7 <= h <= 1e-3):
        raise ValueError(f"h must lie in [1e-7, 1e-3], got {h}")
    if j_lo > j_hi:
        raise ValueError("empty index interval")
    out = []
    for j in range(j_lo, j_hi + 1):
        rf, rl = deriv_residual(float(j), h)
        out.append(Lemma2Residual(j, rf, rl))
    return out


__all__ = [
    "ALPHA",
    "BETA",
    "LN_ALPHA",
    "MAX_ARG",
    "fib_fn",
    "lucas_fn",
    "fib_fn_deriv",
    "lucas_fn_deriv",
    "central_difference",
    "deriv_residual",
    "Lemma2Residual",
    "lemma2_check",
]
