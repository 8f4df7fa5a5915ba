"""x sin x kernels on (0, pi): logarithmic and inverse-tangent closed
forms, their squared-kernel derivatives, and the half-interval relation

    int_0^{pi/2} sin^(2m-1)x/(1+Q^2 sin^2 x)^m = (1/pi) int_0^pi x sin^(2m-1)x/(...)^m,

which is registered as a property row: its left side is integrated, and
its closed form is the rational integral that u = cos x makes of it.
"""

from __future__ import annotations

from ._helpers import (
    ALPHA, BETA, EVEN, FULL, HALF, LN_ALPHA, MID, ODD, PI, SQRT2, SQRT5,
    F, L, P, apow, bpow, case, math, part, qgrid,
)

RDJ_NOTE = (
    "source text prints sin^2 in the kernel; the logarithmic closed form "
    "belongs to the cos^2 kernel (the sin^2 kernel carries the arctan form)"
)


def _xsin(a, s, trig, k=1):
    """x sin x/(a + s trig(x)^2)^k, trig = math.cos or math.sin, k = 1 or 2."""
    if k == 1:
        return lambda x: x * math.sin(x) / (a + s * trig(x) ** 2)
    return lambda x: x * math.sin(x) / (a + s * trig(x) ** 2) ** 2


def _four_cubed(r, fib):
    """4 A^3 with A = sqrt5 F_r (fib) or L_r, as the closed forms print it."""
    return 20.0 * SQRT5 * F(r) ** 3 if fib else 4.0 * L(r) ** 3


def _log_rows(br, k):
    """x sin x/(L_r^2 - 4 cos^2 x)^k for even r, x sin x/(L_r^2 + 4 sin^2 x)^k for odd r."""

    def rhs(r):
        a, b = br.A(r), br.B(r)
        lg = math.log(b / (a - 2.0) if br is EVEN else (a + 2.0) / b)
        if k == 1:
            return PI / (2.0 * a) * lg
        return PI / _four_cubed(r, br is ODD) * lg + PI / (10.0 * F(2 * r) ** 2)

    return br.params, lambda r: _xsin(L(r) ** 2, *br.lsq, k), rhs


def _atan_rows(br, k):
    """x sin x/(A_r^2 - 4 sin^2 x)^k: arctan(2/B_r)."""

    def rhs(r):
        b = br.B(r)
        if k == 1:
            return PI / 2.0 / b * math.atan(2.0 / b)
        return PI / _four_cubed(r, br is EVEN) * math.atan(2.0 / b) + PI / (10.0 * F(2 * r) ** 2)

    return br.params, lambda r: _xsin(br.A2(r), -4.0, math.sin, k), rhs


def _u6_rhs(q):
    return PI / 2.0 * (1.0 - q * q) ** 2 / (q * (1.0 + q * q)) * math.log(abs((1.0 + q) / (1.0 - q)))


def _cube(r):
    b = 5.0 * F(2 * r) ** 2

    def f(x):
        s = math.sin(x)
        return x * s ** 3 / (4.0 + b * s ** 2) ** 2

    return f


def _cube_rhs(r):
    f4 = F(4 * r)
    return -PI / (10.0 * f4 * f4) + 2.0 * PI * SQRT5 / 25.0 * L(4 * r) / f4**3 * r * LN_ALPHA


def _gj_rhs(q):
    s = math.hypot(1.0, q)
    return PI / (q * s) * math.log(q + s)


def _sc3_rhs(r):
    rl = math.sqrt(L(2 * r))
    return PI * SQRT2 / (2.0 * L(r) * rl) * math.log((bpow(r) * SQRT2 + rl) / (apow(r) * SQRT2 - rl))


def _qo3_rhs(r):
    rl = math.sqrt(L(2 * r))
    return PI * math.sqrt(10.0) / (10.0 * F(r) * rl) * math.log((-bpow(r) * SQRT2 + rl) / (apow(r) * SQRT2 - rl))


def _pg_rhs(q):
    s = math.sqrt(1.0 - q * q)
    return PI / (q * s) * math.atan(q / s)


def _quartic(c, cube):
    """x sin x/(1 - c sin^4 x), or x sin^3 x/(...) when cube."""

    def f(x):
        s = math.sin(x)
        return x * s / (1.0 - c * s ** 4)

    def f3(x):
        s = math.sin(x)
        return x * s ** 3 / (1.0 - c * s ** 4)

    return f3 if cube else f


def _quartic_rhs(q, cube):
    sm = math.sqrt(1.0 - q * q)
    sp = math.hypot(1.0, q)
    if cube:
        q3 = q**3
        return PI / (2.0 * q3 * sm) * math.atan(q / sm) - PI / (2.0 * q3 * sp) * math.log(q + sp)
    return PI / (2.0 * q * sm) * math.atan(q / sm) + PI / (2.0 * q * sp) * math.log(q + sp)


def _fm_q2(k):
    return (0.5, 1.0, 2.0)[k - 1] ** 2


def _fm_kernel(k, m):
    q2 = _fm_q2(k)
    e = 2 * m - 1

    def g(x):
        s = math.sin(x)
        return s ** e / (1.0 + q2 * s * s) ** m

    return g


def _fm_rhs(k, m):
    """With u = cos x and p^2 = (1 + Q^2)/Q^2 the integral is Q^(-2m) sum_{j<m} C(m-1, j) (-1/Q^2)^j I_{j+1},
    I_j = int_0^1 du/(p^2 - u^2)^j: I_1 = artanh(1/p)/p, I_{j+1} = (Q^(2j) + (2j-1) I_j)/(2j p^2)."""
    q2 = _fm_q2(k)
    p2 = (1.0 + q2) / q2
    p = math.sqrt(p2)
    i = math.atanh(1.0 / p) / p
    total = 0.0
    for j in range(1, m + 1):
        total += math.comb(m - 1, j - 1) * (-1.0 / q2) ** (j - 1) * i
        i = (q2**j + (2 * j - 1) * i) / (2 * j * p2)
    return total / q2**m


def cases():
    k6, q6 = qgrid((0.3, -0.4, 0.6, -0.7, BETA * BETA, -BETA))
    kg, qg = qgrid((1.0 / 3.0, 0.5, 1.0, 2.0, 3.0, ALPHA))
    kp, qp = qgrid((0.3, 0.5, 0.8, BETA * BETA, -BETA))
    kq, qq = qgrid((0.3, 0.5, 0.7, BETA * BETA, -BETA))
    r16, r18 = (P("r", 1, 6),), (P("r", 1, 8),)
    return [
        # generic log form at parameter q, q^2 < 1
        case("S6.U6JQLAY", "eq. (u6jqlay)", FULL, k6,
             lambda k: _xsin(1.0, (2.0 * q6(k) / (1.0 - q6(k) * q6(k))) ** 2, math.sin), lambda k: _u6_rhs(q6(k))),
        # golden instances: r odd, kernel L_r^2 + 4 sin^2 x; r even, kernel L_r^2 - 4 cos^2 x
        case("S6.CPWMQ60", "eq. (cpwmq60)", FULL, *_log_rows(ODD, 1)),
        case("S6.RDJRA1D", "eq. (rdjra1d)", FULL, *_log_rows(EVEN, 1), note=RDJ_NOTE),
        # squared kernels
        case("S6.SQ.A", "squared cor. of eq. (cpwmq60)", FULL, *_log_rows(ODD, 2)),
        case("S6.SQ.B", "squared cor. of eq. (rdjra1d)", FULL, *_log_rows(EVEN, 2)),
        # kernel 4 + 5 F_{2r}^2 sin^2 x
        case("S6.RLJJ8TO", "eq. (rljj8to)", FULL, r16, lambda r: _xsin(4.0, 5.0 * F(2 * r) ** 2, math.sin),
             lambda r: 2.0 * PI * r * SQRT5 / (5.0 * F(4 * r)) * LN_ALPHA),
        case("S6.SIN3CUBE", "cor. of eq. (rljj8to)", FULL, r16, _cube, _cube_rhs),
        # generic log and arctan forms in Q
        # Q = 2 is CPWMQ60's kernel at r = 1, 1 + 4 sin^2 x
        case("S6.GJNEYFK", "eq. (gjneyfk)", FULL, kg, lambda k: _xsin(1.0, qg(k) ** 2, math.sin), lambda k: _gj_rhs(qg(k)),
             shares=lambda k: ("S6.CPWMQ60", {"r": 1}) if k == 4 else None),
        # golden instances with cos^2 kernels
        case("S6.SC3T62N", "eq. (sc3t62n)", FULL, r18, lambda r: _xsin(2.0 * L(2 * r), -L(r) ** 2, math.cos), _sc3_rhs),
        case("S6.QO33H5M", "eq. (qo33h5m)", FULL, r18,
             lambda r: _xsin(2.0 * L(2 * r), -5.0 * F(r) ** 2, math.cos), _qo3_rhs),
        # arctan form, Q^2 < 1
        case("S6.PGLRQHP", "eq. (pglrqhp)", FULL, kp, lambda k: _xsin(1.0, -qp(k) ** 2, math.sin),
             lambda k: _pg_rhs(qp(k)), splits=MID),
        # golden arctan instances
        case("S6.FMK6KRX.E", "thm. (fmk6krx), even branch", FULL, *_atan_rows(EVEN, 1), splits=MID),
        fmk_odd := case("S6.FMK6KRX.O", "thm. (fmk6krx), odd branch", FULL, *_atan_rows(ODD, 1), splits=MID),
        part(fmk_odd, "S6.FMK6KRX.PART", "special value (pi/2) arctan 2", lambda: PI / 2.0 * math.atan(2.0), r=1),
        case("S6.FMK6SQ.E", "squared cor. of thm. (fmk6krx), even", FULL, *_atan_rows(EVEN, 2), splits=MID),
        case("S6.FMK6SQ.O", "squared cor. of thm. (fmk6krx), odd", FULL, *_atan_rows(ODD, 2), splits=MID),
        # quartic sine kernels, Q^2 < 1
        case("S6.QUARTIC.A", "remark pair, first", FULL, kq, lambda k: _quartic(qq(k) ** 4, False),
             lambda k: _quartic_rhs(qq(k), False), splits=MID),
        case("S6.QUARTIC.B", "remark pair, second", FULL, kq, lambda k: _quartic(qq(k) ** 4, True),
             lambda k: _quartic_rhs(qq(k), True), splits=MID),
        # half-interval equals full-interval/pi, including the power form
        case("S6.FM2DODR", "eq. (fm2dodr) and its power form", HALF, (P("m", 1, 3), P("k", 1, 3)), _fm_kernel, _fm_rhs,
             default_tol=1e-9),
    ]
