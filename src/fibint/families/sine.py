"""Sine-kernel identities on (0, pi/2): log-ratio kernels evaluating to
Clausen values, and sin x/(A + B sin^2 x) families whose antiderivative
collapses to a single logarithm through neighbour-product identities.
"""

from __future__ import annotations

from ._helpers import (
    ALPHA, BETA, CATALAN, EVEN, HALF, LN_ALPHA, NO_PARAMS, ODD, SQRT5,
    F, L, P, case, cl_pair, log_f, log_l, math, qgrid,
)

KC, QC = qgrid((0.2, 0.5, 0.8, 1.0, BETA * BETA, -BETA))
KT, QT = qgrid((0.5, 1.0, 2.0, 2.0 / 3.0, ALPHA, 3.0))


def _log_ratio_kernel(amp: float):
    """x -> ln((amp + sin x)/(amp - sin x)), stable at amp == 1."""
    if abs(amp - 1.0) < 1e-12:
        return lambda x: 2.0 * math.log((1.0 + math.sin(x)) / math.cos(x))

    def f(x):
        s = math.sin(x)
        return math.log((amp + s) / (amp - s))

    return f


def _cl_rhs(k):
    q = QC(k)
    t = math.atan(q)
    return 2.0 * cl_pair(2.0 * t) + 4.0 * t * math.log(q)


def _j7h(br):
    """ln((A_r/2 + sin x)/(A_r/2 - sin x)): Clausen pair at arctan(2/B_r)."""

    def rhs(r):
        t = math.atan(2.0 / br.B(r))
        return 2.0 * cl_pair(t) - 2.0 * r * t * LN_ALPHA

    return br.params, lambda r: _log_ratio_kernel(br.A(r) / 2.0), rhs


def _tk_rhs(k):
    q = QT(k)
    s = math.hypot(1.0, q)
    return math.log((1.0 - q + s) / (1.0 + q - s)) / s


def _sin_kernel(a, b):
    """sin x/(a + b sin^2 x)."""

    def f(x):
        s = math.sin(x)
        return s / (a + b * s ** 2)

    return f


def _sin34_rhs(seq, c):
    """log((S_{r-2} + rt)/(S_{r+1} - rt))/(S_r rt), rt = sqrt(c F_{2r-1}): S = F, c = 1 or S = L, c = 5."""

    def rhs(r):
        rt = math.sqrt(c * F(2 * r - 1))
        return math.log((seq(r - 2) + rt) / (seq(r + 1) - rt)) / (seq(r) * rt)

    return rhs


def _sin5_rhs(k, r):
    rt = math.sqrt(F(r) * F(2 * k + r))
    return math.log((F(k + r) - F(k) + rt) / (F(k + r) + F(k) - rt)) / (F(k + r) * rt)


def _sin7(r):
    b = L(r) ** 2

    def f(x):
        s = math.sin(x)
        return s ** 3 / (4.0 + b * s ** 2) ** 2

    return f


def _sin7_rhs(r):
    f2 = F(2 * r)
    return (2.0 * r * L(2 * r) / (SQRT5 * f2) * LN_ALPHA - 1.0) / (10.0 * f2 * f2)


def _sin5_shares(k, r):
    if r == 1:
        return "S5.SIN3", {"r": k + 1}
    return ("S5.SIN4", {"r": 2}) if (k, r) == (1, 3) else None


def cases():
    r10, r2_10 = (P("r", 1, 10),), (P("r", 2, 10),)
    return [
        # generic Clausen-valued log kernel, 0 < q <= 1
        case("S5.CL66RLS", "eq. (cl66rls)", HALF, KC, lambda k: _log_ratio_kernel((1.0 + QC(k) * QC(k)) / (2.0 * QC(k))),
             _cl_rhs, shares=lambda k: ("S5.FOURG", {}) if k == 4 else None),  # q = 1: the Catalan kernel
        # golden instances of the log kernel
        case("S5.J7HZXMA.E", "thm. (j7hzxma), even branch", HALF, *_j7h(EVEN)),
        case("S5.J7HZXMA.O", "thm. (j7hzxma), odd branch", HALF, *_j7h(ODD)),
        # the Catalan special value
        case("S5.FOURG", "special value 4G", HALF, NO_PARAMS, lambda: _log_ratio_kernel(1.0), lambda: 4.0 * CATALAN),
        # sin x/(sin^2 x + Q^2), as Q^2 + 1.0 * sin^2 x: the same bits
        # Q = 1 and 2 are SIN3's kernel at r = 2 and SIN6's at r = 1
        case("S5.TKZY7WR", "eq. (tkzy7wr)", HALF, KT, lambda k: _sin_kernel(QT(k) ** 2, 1.0), _tk_rhs,
             shares=lambda k: {2: ("S5.SIN3", {"r": 2}), 3: ("S5.SIN6", {"r": 1})}.get(k)),
        # golden instances of the sine kernel
        case("S5.SIN1", "eq. (Fib_sin_id1)", HALF, r10, lambda r: _sin_kernel(5.0 * F(r) ** 2, L(r) ** 2),
             lambda r: log_l(1.0, r)),
        case("S5.SIN2", "eq. (Fib_sin_id2)", HALF, r10, lambda r: _sin_kernel(L(r) ** 2, 5.0 * F(r) ** 2),
             lambda r: log_f(1.0, r)),
        # Catalan-identity instances
        case("S5.SIN3", "eq. (Fib_sin_id3)", HALF, r2_10, lambda r: _sin_kernel(F(r - 1) ** 2, F(r) ** 2),
             _sin34_rhs(F, 1.0)),
        case("S5.SIN4", "eq. (Fib_sin_id4)", HALF, r2_10, lambda r: _sin_kernel(L(r - 1) ** 2, L(r) ** 2),
             _sin34_rhs(L, 5.0)),
        # shifted-index generalization, r odd
        # r = 1 is SIN3 at r = k + 1, and F_1, F_4 = L_1, L_2 make k = 1, r = 3 SIN4 at r = 2
        case("S5.SIN5GEN", "eq. (Fib_sin_id5_gen)", HALF, (P("k", 1, 4), P("r", 1, 5, "odd")),
             lambda k, r: _sin_kernel(F(k) ** 2, F(k + r) ** 2), _sin5_rhs, shares=_sin5_shares),
        # kernel 4 + L_r^2 sin^2 x, r odd
        case("S5.SIN6", "eq. (Fib_sin_id6)", HALF, ODD.params, lambda r: _sin_kernel(4.0, L(r) ** 2),
             lambda r: r / (SQRT5 * F(2 * r)) * LN_ALPHA),
        case("S5.SIN7", "eq. (Fib_sin_id7)", HALF, ODD.params, _sin7, _sin7_rhs),
    ]
