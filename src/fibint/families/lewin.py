"""Baseline dilogarithm identities (the registry's sanity layer).

These eight rows exercise quadrature and the special functions jointly
before any Fibonacci/Lucas structure enters; the q/Q grids mix plain
rationals with golden-ratio powers.
"""

from __future__ import annotations

from ._helpers import (
    ALPHA, BETA, FULL, HALF, HALF_LINE, MID, PI, PI2, PI3, TAN_HALFPI,
    case, cos2x_kernel, li2, li2_odd, math, pi3_li2, qgrid, xcos_kernel,
)

B2 = BETA * BETA  # beta^2 = 0.3819...
MB = -BETA  # -beta = 0.6180...

K7, Q7 = qgrid(tuple(ALPHA**r for r in range(1, 5)) + tuple(MB**r for r in range(1, 5)))
K8, Q8 = qgrid((0.25, 0.5, 1.0, 2.0, 3.0, ALPHA))
K9, Q9 = qgrid((0.5, 1.0, 2.0, 3.0, 1.0 / ALPHA, ALPHA))
K10, Q10 = qgrid((0.2, 0.5, -0.4, 0.8, B2, MB))
K11, Q11 = qgrid((0.3, -0.5, 0.7, -0.8, B2, MB))
# closed forms select the |q| < 1 root of the Q(q) maps (Q is q <-> 1/q invariant)
K12, Q12 = qgrid((-0.7, -0.5, 0.3, 0.6, B2, MB))
K13, Q13 = qgrid((-0.85, -0.8, -0.3, 0.4, 0.7, B2))
K14, Q14 = qgrid((0.1, 0.3, 0.5, 0.7, B2, MB))


def _dup_q(q):
    """Q = 2q/(1+q^2)."""
    return 2.0 * q / (1.0 + q * q)


def _e7(k):
    c = Q7(k) ** 2
    return lambda t: li2(-c * t * t)


def _e8(k):
    q = Q8(k)
    return lambda x: math.atan(q * x) / (1.0 + x * x)


def _e8_rhs(k):
    q = Q8(k)
    w = (1.0 - q) / (1.0 + q)
    return PI2 / 8.0 - 0.5 * li2(w) + 0.5 * li2(-w)


def _e9(k):
    q = Q9(k)
    return lambda x: math.atan(q / math.sin(x))


def _e9_rhs(k):
    q = Q9(k)
    s = math.hypot(1.0, q)
    return PI2 / 4.0 - li2(s - q) + li2(q - s)


def _e10(k):
    q = Q10(k)
    c = 2.0 * q / (1.0 - q * q)
    return lambda x: x * math.atan(c * math.sin(x))


def _e11_rhs(k):
    q = Q11(k)
    return (1.0 + q * q) / (1.0 - q * q) * (PI3 / 24.0 + 0.5 * PI * li2(-q))


def _e12(k):
    s = -(4.0 * Q12(k) / (1.0 + Q12(k)) ** 2)
    return lambda x: x * x / (1.0 + s * math.cos(x) ** 2)


def _e12_rhs(k):
    q = Q12(k)
    return (1.0 + q) / (1.0 - q) * pi3_li2(q)


def _e13_rhs(k):
    q = Q13(k)
    return (1.0 + q * q) / (1.0 - q * q) * pi3_li2(q)


def _e14_rhs(k):
    q = Q14(k)
    rq = math.sqrt(q)
    return -PI * (1.0 + q * q) / (1.0 - q) * li2_odd(rq) / rq


def cases():
    return [
        # E7: integral of Li2(-q^2 tan^2 x) over (0, pi/2) equals 2 pi Li2(-q)
        case("LEWIN.E7", "eq. (nx3w40i)", TAN_HALFPI, K7, _e7, lambda k: 2.0 * PI * li2(-Q7(k))),
        # E8: arctan(q x)/(1+x^2) over the half line
        case("LEWIN.E8", "eq. (yjqd44q)", HALF_LINE, K8, _e8, _e8_rhs),
        # E9: arctan(Q csc x) on (0, pi/2)
        case("LEWIN.E9", "eq. (qk18ai6)", HALF, K9, _e9, _e9_rhs),
        # E10: x arctan(2q/(1-q^2) sin x) on (0, pi)
        case("LEWIN.E10", "eq. (sjcljni)", FULL, K10, _e10, lambda k: PI * li2(Q10(k)) - PI * li2(-Q10(k))),
        # E11: x^2/(1 - Q cos 2x) on (0, pi/2), Q = 2q/(1+q^2)
        case("LEWIN.E11", "eq. (11)", HALF, K11, lambda k: cos2x_kernel(1.0, -_dup_q(Q11(k))), _e11_rhs),
        # E12: x^2/(1 - Q cos^2 x) on (0, pi), Q = 4q/(1+q)^2
        case("LEWIN.E12", "eq. (n71rwsq)", FULL, K12, _e12, _e12_rhs, splits=MID),
        # E13: x^2/(1 - Q cos 2x) on (0, pi), Q = 2q/(1+q^2)
        case("LEWIN.E13", "eq. (lh0gp48)", FULL, K13, lambda k: cos2x_kernel(1.0, -_dup_q(Q13(k))), _e13_rhs, splits=MID),
        # E14: x^2 cos x/(1 - Q cos 2x) on (0, pi), Q = 2q/(1+q^2), 0 < q < 1
        case("LEWIN.E14", "eq. (b1e7nal)", FULL, K14, lambda k: xcos_kernel(1.0, -_dup_q(Q14(k))), _e14_rhs, splits=MID),
    ]
