"""Dilogarithm, Clausen's function and named constants.

li2_real covers every real argument x <= 1, including large negative x.
On [-1, 1/2] it sums the Bernoulli series in u = -ln(1-x),

    Li2(x) = u - u^2/4 + sum_k B_2k u^(2k+1)/(2k+1)!,

which converges like (u/2pi)^2k, so ten terms reach rounding at
|u| <= ln 2.  The reflection Li2(x) + Li2(1-x) = pi^2/6 - ln(x)ln(1-x)
maps (1/2, 1] onto [0, 1/2), and the inversion
Li2(x) = -pi^2/6 - ln^2(-x)/2 - Li2(1/x) maps x < -1 onto (-1, 0).

cl2 evaluates Clausen's function Cl2(t) = sum sin(n t)/n^2 through two
Bernoulli-type expansions, one about t = 0 (leading behaviour
t - t*ln|t|) and one about t = pi, after odd/2pi-periodic reduction.
The defining sine series alone converges far too slowly for 1e-12 work.

The coefficient tables of both functions are float literals; a test
rebuilds every bit of them from exact Bernoulli numbers.

Catalan's constant G = sum (-1)^j/(2j+1)^2 is the literal CATALAN, its
correctly rounded binary64 value.  constants() returns one read-only
record of it and the golden-ratio constants of exact_seq, built at import.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exact_seq import ALPHA, BETA, LN_ALPHA, SQRT5

PI = math.pi
PI2_6 = PI * PI / 6.0
LN2 = math.log(2.0)


_SERIES_TOL = 1e-16  # the Clausen series stop at their first term below this


# li2 on [-1, 1/2]:  Li2 = u - u^2/4 + sum_k b_k u^(2k+1), with b_k = B_2k / (2k+1)!, u = -ln(1-x)
# k = 1 .. 10; each entry is its exact rational rounded once to binary64
_LI2_B = (
    0.027777777777777776, -0.0002777777777777778, 4.72411186696901e-06, -9.185773074661964e-08,
    1.8978869988971e-09, -4.0647616451442256e-11, 8.921691020456452e-13, -1.9939295860721074e-14,
    4.518980029619918e-16, -1.0356517612181247e-17,
)


# cl2 about 0:   Cl2(t) = t - t ln t + sum_n c0_n t^{2n+1}, with c0_n = (-1)^(n+1) B_2n / (2 (2n)! n (2n+1))
# cl2 about pi:  Cl2(pi - p) = p ln 2 - sum_m cp_m p^{2m+1}, with cp_m = (4^m - 1) c0_m
# n, m = 1 .. 20; each entry is its exact rational rounded once to binary64
_CL2_C0 = (
    0.013888888888888888, 6.944444444444444e-05, 7.873519778281683e-07, 1.1482216343327455e-08,
    1.8978869988971e-10, 3.387301370953521e-12, 6.372636443183181e-14, 1.2462059912950672e-15,
    2.5105444608999545e-17, 5.178258806090623e-19, 1.0887357368300849e-20, 2.325744114302087e-22,
    5.03519521314739e-24, 1.1026499294381215e-25, 2.4386585509007344e-27, 5.440142678856253e-29,
    1.2228340131217352e-30, 2.767263468967951e-32, 6.3000905918320136e-34, 1.4420868388418476e-35,
)
_CL2_CP = (
    0.041666666666666664, 0.0010416666666666667, 4.96031746031746e-05, 2.927965167548501e-06,
    1.941538399871733e-07, 1.3870999114054669e-08, 1.0440290284867003e-09, 8.167010963952224e-11,
    6.5812165661369675e-12, 5.429792727596475e-13, 4.5664875671936356e-14, 3.901950904063069e-15,
    3.3790622573736396e-16, 2.9599033551444004e-17, 2.618489678118693e-18, 2.336523488582129e-19,
    2.1008128377954317e-20, 1.9016489757535847e-21, 1.7317557154340702e-22, 1.5855912475679037e-23,
)


def _li2_core(x: float) -> float:
    """Li2 on [-1, 1/2], where |u| <= ln 2: the Bernoulli series, in Horner form in u^2."""
    u = -math.log1p(-x)
    u2 = u * u
    p = 0.0
    for b in reversed(_LI2_B):
        p = p * u2 + b
    return u - 0.25 * u2 + u * u2 * p


def li2_real(x: float) -> float:
    """Real dilogarithm Li2(x) for x <= 1."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("argument must be finite")
    if x > 1.0:
        raise ValueError(f"li2_real requires x <= 1, got {x}")
    if x == 1.0:
        return PI2_6
    if x > 0.5:
        # reflection onto [0, 1/2)
        y = 1.0 - x
        return PI2_6 - math.log(x) * math.log(y) - _li2_core(y)
    if x >= -1.0:
        return _li2_core(x)
    # inversion onto (-1, 0)
    return -PI2_6 - 0.5 * math.log(-x) ** 2 - _li2_core(1.0 / x)


def _cl2_core(t: float) -> float:
    """Cl2 on [0, pi] via the expansion about 0 or about pi."""
    if t == 0.0 or t == PI:
        return 0.0
    if t <= 0.5 * PI:
        t2 = t * t
        acc = t - t * math.log(t)
        tp = t * t2
        for cn in _CL2_C0:
            term = cn * tp
            acc += term
            if abs(term) < _SERIES_TOL:
                break
            tp *= t2
        return acc
    p = PI - t
    p2 = p * p
    acc = p * LN2
    pp = p * p2
    for cm in _CL2_CP:
        term = cm * pp
        acc -= term
        if abs(term) < _SERIES_TOL:
            break
        pp *= p2
    return acc


def cl2(theta: float) -> float:
    """Clausen's function Cl2(theta); odd, 2*pi-periodic, Cl2(pi/2) = G."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("argument must be finite")
    t = theta % (2.0 * PI)  # in [0, 2 pi): float % takes the sign of the divisor
    if t > PI:
        return -_cl2_core(2.0 * PI - t)
    return _cl2_core(t)


CATALAN = 0.915965594177219  # Catalan's G, correctly rounded (0x1.d4f9713e8135dp-1)


class Constants(NamedTuple):
    alpha: float
    beta: float
    ln_alpha: float
    sqrt5: float
    catalan: float


_CONSTANTS = Constants(alpha=ALPHA, beta=BETA, ln_alpha=LN_ALPHA, sqrt5=SQRT5, catalan=CATALAN)


def constants() -> Constants:
    """Named constants, as one read-only record."""
    return _CONSTANTS


__all__ = [
    "CATALAN",
    "Constants",
    "constants",
    "li2_real",
    "cl2",
]
