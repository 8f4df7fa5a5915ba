"""Shared numeric building blocks for the identity catalog.

Closed-form right sides are assembled from exact Fibonacci/Lucas integers
(converted to binary64 late), golden-ratio powers built from those exact
integers, and the special-function evaluators.  No right side is a
quadrature value, so binding an instance never loads fibint.quad.
Algebraically equivalent but cancellation-free rewrites are preferred
where the printed form would subtract nearly equal quantities, e.g.
1 - sqrt(5) F_r / L_r is computed as 2 beta^r / L_r.

Most golden families come as an even and an odd branch in r.  A Branch
holds what differs between the two as data: the parameter domain; A_r,
the constant of the kernels A_r +- 2 cos 2x (L_r for even r, sqrt5 F_r
for odd r); B_r, the other of the two; their squares A2 and B2; sigma =
(-1)^r as +-1.0, so that sigma beta^r = |beta|^r and a factor 1 -+ beta^r
reads 1.0 - sigma * b; and lsq, the sign and function of the kernel
L_r^2 - 4 cos^2 (even r) or L_r^2 + 4 sin^2 (odd r).  Each family is
written once, with its kernel sign and its branch as arguments, as is each
shared kernel or closed-form core (pi3_li2(e) = pi^3/3 + pi Li2(e)), and each
catalog module ends in a table of rows that name them: case(...) is
registry.IdentityCase, with its default tolerance by strategy, and P is
ParamSpec.  A row's builder and closed form take its parameters by name,
as def _pair_a_rhs(n, r) or lambda r: ..., and a row without parameters
has lambda: c; a helper shared by several rows takes the same names.
A row whose integral is another instance's at some of its points names
that instance in shares=, as lambda k, n: (id, assignment), whether its
own form is that instance's bit for bit or another way to write it: there
the registry binds the named instance's kernel, and a row that shares at
every point has no builder (None).  A .PART row, a general row id5 at one
point, is part(id5, "S7.ID5.PART", anchor, closed form, r=2).  The
instance named declares no shares of its own.

Folding signs this way keeps every result bit, because negation and
scaling by +-1.0 or 2.0 are exact: a + s * c with s = -2.0 rounds as
a - 2.0 * c, 1.0 - sigma * b as 1.0 -+ b, and 2.0 * (u + v) as
2.0 * u + 2.0 * v.  Nothing else is reassociated (5 F_r^2 is never
(sqrt5 F_r)^2, and c**2 is never c * c), so an integrand performs
exactly the operations of its written-out form.

An integrand's call does only its x-dependent float work, and each piece
of it once: a sin x or cos 2x that the formula names twice is computed
once, which is bit-exact because libm is deterministic.  Integer
exponents, the kernel power k, the coefficient order of a polynomial
numerator and constant subexpressions (q * q, sqrt5 / 3) are bound when
the integrand is built.  Only subexpressions that Python evaluates as a
unit are bound, so no operation moves.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

from ..exact_seq import ALPHA, BETA, LN_ALPHA, SQRT5, fib, lucas, golden_powers  # noqa: F401
from ..registry import FINITE, HALF_LINE, TAN_HALFPI, IdentityCase, ParamSpec  # noqa: F401
from ..specfun import CATALAN, LN2, cl2, li2_real  # noqa: F401

PI = math.pi
PI2 = PI * PI
PI3 = PI * PI2
SQRT2 = math.sqrt(2.0)
LA2 = LN_ALPHA * LN_ALPHA

HALF_PI = PI / 2.0
FULL = FINITE(0.0, PI)
HALF = FINITE(0.0, HALF_PI)
MID = (HALF_PI,)
QUARTS = (PI / 4.0, 3.0 * PI / 4.0)

li2 = li2_real


# a pass asks for ~60 distinct indices thousands of times, mostly from right sides;
# typed, so F(2.0) misses F(2) and raises, and errors are not cached
@lru_cache(maxsize=None, typed=True)
def F(n: int) -> float:
    return float(fib(n))


@lru_cache(maxsize=None, typed=True)
def L(n: int) -> float:
    return float(lucas(n))


def apow(r: int) -> float:
    return golden_powers(r).alpha_pow


def bpow(r: int) -> float:
    return golden_powers(r).beta_pow


def li2_odd(s: float) -> float:
    """Li2(s) - Li2(-s)."""
    return li2(s) - li2(-s)


def cl_pair(t: float) -> float:
    """Cl2(t) + Cl2(pi - t)."""
    return cl2(t) + cl2(PI - t)


def pi3_li2(e: float) -> float:
    """pi^3/3 + pi Li2(e)."""
    return PI3 / 3.0 + PI * li2(e)


# c = 1 closes sin x on (0, pi/2), and c = pi x sin x on (0, pi), as the kernels are symmetric about pi/2


def log_l(c: float, r: int) -> float:
    """c int_0^{pi/2} sin x/(5F_r^2 + L_r^2 sin^2 x), a logarithm in rl = sqrt(L_2r)."""
    rl = math.sqrt(L(2 * r))
    return c * SQRT2 / (2.0 * L(r) * rl) * math.log((SQRT2 * bpow(r) + rl) / (SQRT2 * apow(r) - rl))


def log_f(c: float, r: int) -> float:
    """c int_0^{pi/2} sin x/(L_r^2 + 5F_r^2 sin^2 x), a logarithm in rl = sqrt(L_2r)."""
    rl = math.sqrt(L(2 * r))
    return c * math.sqrt(10.0) / (10.0 * F(r) * rl) * math.log((-SQRT2 * bpow(r) + rl) / (SQRT2 * apow(r) - rl))


case = IdentityCase  # the short names the catalog tables use
P = ParamSpec


NO_PARAMS: tuple[ParamSpec, ...] = ()


def part(of: IdentityCase, id: str, anchor: str, rhs_eval: Callable[[], float], **assignment: int) -> IdentityCase:
    """The row that is of at assignment: of's strategy and splits, and a share of that instance's integral, or of
    the one it shares."""
    named = (of.shares and of.shares(**assignment)) or (of.id, assignment)
    return IdentityCase(id, anchor, of.strategy, NO_PARAMS, None, rhs_eval, splits=of.splits, shares=lambda: named)


def qgrid(values: tuple[float, ...]) -> tuple[tuple[ParamSpec, ...], Callable[[int], float]]:
    """The 1-based index parameter k over a grid of real values, and its lookup, which takes k."""

    def pick(k: int) -> float:
        return values[k - 1]

    return (P("k", 1, len(values)),), pick


class Branch(NamedTuple):
    """One parity branch of a golden family (see the module docstring); its
    functions take r, so a row's builder passes its own r on."""

    params: tuple[ParamSpec, ...]
    A: Callable[[int], float]
    B: Callable[[int], float]
    A2: Callable[[int], float]  # A_r^2, as L_r**2 or 5.0 * F_r**2
    B2: Callable[[int], float]
    sigma: float
    lsq: tuple[float, Callable[[float], float]]  # L_r^2 + s trig^2: (-4, cos) for even r, (4, sin) for odd r


def _sqrt5_fib(r: int) -> float:
    return F(r) * SQRT5


def _lucas_sq(r: int) -> float:
    return L(r) ** 2


def _five_fib_sq(r: int) -> float:
    return 5.0 * F(r) ** 2


EVEN = Branch((P("r", 2, 10, "even"),), L, _sqrt5_fib, _lucas_sq, _five_fib_sq, 1.0, (-4.0, math.cos))
ODD = Branch((P("r", 1, 9, "odd"),), _sqrt5_fib, L, _five_fib_sq, _lucas_sq, -1.0, (4.0, math.sin))


def parity(r: int) -> Branch:
    return EVEN if r % 2 == 0 else ODD


# Kernels, as closures over constants fixed when an instance is built.


def cos2x_kernel(a: float, s: float, k: int = 1) -> Callable[[float], float]:
    """x^2 / (a + s cos 2x)^k, k = 1 or 2."""
    if k == 1:
        return lambda x: x * x / (a + s * math.cos(2.0 * x))
    return lambda x: x * x / (a + s * math.cos(2.0 * x)) ** 2


def xcos_kernel(a: float, s: float, k: int = 1) -> Callable[[float], float]:
    """x^2 cos x / (a + s cos 2x)^k, k = 1 or 2."""
    if k == 1:
        return lambda x: x * x * math.cos(x) / (a + s * math.cos(2.0 * x))
    return lambda x: x * x * math.cos(x) / (a + s * math.cos(2.0 * x)) ** 2


def trig_sq_kernel(a: float, s: float, trig: Callable[[float], float], k: int = 1) -> Callable[[float], float]:
    """x^2 / (a + s trig(2x)^2)^k; trig is math.cos or math.sin, k = 1 or 2."""
    if k == 1:
        return lambda x: x * x / (a + s * trig(2.0 * x) ** 2)
    return lambda x: x * x / (a + s * trig(2.0 * x) ** 2) ** 2
