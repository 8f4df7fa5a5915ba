"""x^2 kernels on (0, pi) built on cos(2x), cos^2(2x) and sin^2(2x),
with closed forms mixing pi^3 terms, dilogarithms at golden-ratio powers,
and Clausen values at arctan(2/(F_r sqrt5)) or arctan(2/L_r).

Kernels whose denominator dips at interior abscissae declare those points
so the quadrature pre-splits there (pi/2 for cos(2x)-type, pi/4 and
3 pi/4 for +cos^2(2x)-type).
"""

from __future__ import annotations

from ._helpers import (
    BETA, EVEN, FULL, LA2, LN_ALPHA, MID, NO_PARAMS, ODD, PI, PI3, QUARTS, SQRT5,
    F, L, P, bpow, case, cl2, cl_pair, cos2x_kernel, li2, li2_odd, math, parity, part, pi3_li2, qgrid,
    trig_sq_kernel,
)

R_ANY = (P("r", 1, 10),)


def _cos2x_rows(br, sg, k):
    """x^2/(A_r + 2 sg cos 2x)^k, sg = +-1.0: pi^3/3 + pi Li2(-sg sigma beta^r) over B_r, or its derivative."""

    def rhs(r):
        e = -sg * br.sigma * bpow(r)
        if k == 1:
            return pi3_li2(e) / br.B(r)
        b3 = 5.0 * F(r) ** 3 * SQRT5 if br is EVEN else L(r) ** 3
        return -PI / br.B2(r) * math.log1p(-e) + br.A(r) / b3 * pi3_li2(e)

    return br.params, lambda r: cos2x_kernel(br.A(r), 2.0 * sg, k), rhs


def _c2x(a, s, k):
    """x^2 cos 2x/(a + s cos^2 2x)^k, k = 1 or 2."""
    if k == 1:

        def f(x):
            c = math.cos(2.0 * x)
            return x * x * c / (a + s * c * c)

        return f

    def f(x):
        c = math.cos(2.0 * x)
        return x * x * c / (a + s * c * c) ** 2

    return f


def _paired(a):
    """x^2 (a + 4 cos^2 2x)/(a - 4 cos^2 2x)^2."""

    def f(x):
        c2 = math.cos(2.0 * x) ** 2
        return x * x * (a + 4.0 * c2) / (a - 4.0 * c2) ** 2

    return f


def _golden5_part(k):
    """x^2 cos 2x/(5 - 4 cos^2 2x)^k, written with the power as printed."""

    def f1(x):
        c = math.cos(2.0 * x)
        return x * x * c / (5.0 - 4.0 * c ** 2)

    def f2(x):
        c = math.cos(2.0 * x)
        return x * x * c / (5.0 - 4.0 * c ** 2) ** 2

    return f1 if k == 1 else f2


def _dup(r, k):
    """x^2/(L_r^2 - 4 cos^2 2x)^k for even r, x^2/(L_r^2 + 4 sin^2 2x)^k for odd r."""
    return trig_sq_kernel(L(r) ** 2, *parity(r).lsq, k, True)


def _plus_cos_sq(r, k):
    """x^2/(B_r^2 + 4 cos^2 2x)^k."""
    return trig_sq_kernel(parity(r).B2(r), 4.0, math.cos, k, True)


def _dup_rhs(sign, k):
    """Closed form at Li2(sign beta^{2r}) of the duplication kernels."""

    def rhs(r):
        e = sign * bpow(2 * r)
        if k == 1:
            return (PI3 / 3.0 + 0.25 * PI * li2(e)) / (F(2 * r) * SQRT5)
        f2 = F(2 * r)
        return L(2 * r) / (5.0 * f2**3 * SQRT5) * (PI3 / 3.0 + 0.25 * PI * li2(e)) - PI / (20.0 * f2 * f2) * math.log1p(-e)

    return rhs


def _ise(r, k):
    """x^2 cos 2x/(5F_r^2 + 4 sin^2 2x)^k for even r, x^2 cos 2x/(5F_r^2 - 4 cos^2 2x)^k for odd r."""
    a = 5.0 * F(r) ** 2
    if r % 2 == 1:
        return _c2x(a, -4.0, k)
    if k == 1:

        def f(x):
            s = math.sin(2.0 * x)
            return x * x * math.cos(2.0 * x) / (a + 4.0 * s * s)

        return f

    def f(x):
        s = math.sin(2.0 * x)
        return x * x * math.cos(2.0 * x) / (a + 4.0 * s * s) ** 2

    return f


def _ise_rhs(r):
    br = parity(r)
    return br.sigma * 0.25 * PI * li2_odd(bpow(r)) / br.B(r)


def _ezy_rhs(r):
    br = parity(r)
    b = bpow(r)
    lead = PI / (8.0 * F(2 * r) * SQRT5) * math.log((1.0 + b) / (1.0 - b))
    return br.sigma * (lead + PI / (8.0 * br.B2(r)) * li2_odd(b)) / br.B(r)


def _sincos(br, num, plus):
    """x^2 num(x)^2 over the duplication kernel of branch br, num = math.cos or math.sin."""
    s, trig = br.lsq

    def lhs(r):
        a = L(r) ** 2

        def f(x):
            t = num(x)
            return x * x * t * t / (a + s * trig(2.0 * x) ** 2)

        return f

    def rhs(r):
        base = (PI3 / 6.0 + 0.125 * PI * li2(bpow(2 * r))) / (F(2 * r) * SQRT5)
        corr = PI / (8.0 * br.B(r)) * li2_odd(bpow(r))
        return base + corr if plus else base - corr

    return br.params, lhs, rhs


def _sincos_part(num):
    return lambda: lambda x: x * x * num(x) ** 2 / (1.0 + 4.0 * math.sin(2.0 * x) ** 2)


def _clausen(br):
    """x^2 cos 2x/(B_r^2 + 4 cos^2 2x): Clausen pair at arctan(2/B_r)."""

    def rhs(r):
        a, t = br.A(r), math.atan(2.0 / br.B(r))
        return PI / (4.0 * a) * cl_pair(t) - PI * r / (4.0 * a) * t * LN_ALPHA

    return br.params, lambda r: _c2x(br.B2(r), 4.0, 1), rhs


def _frl_rhs(r):
    return -PI / (10.0 * F(r) ** 2) * math.log(bpow(r) * F(r) * SQRT5) + L(r) / (
        20.0 * F(r) ** 3 * SQRT5
    ) * (4.0 * PI3 / 3.0 + PI * li2(bpow(2 * r)))


def _vxz_rhs(r):
    return -PI / (2.0 * L(r) ** 2) * math.log(-bpow(r) * L(r)) + F(r) * SQRT5 / (
        4.0 * L(r) ** 3
    ) * (4.0 * PI3 / 3.0 + PI * li2(bpow(2 * r)))


def _s7j_rhs(r):
    b = bpow(r)
    return PI / (40.0 * F(r) ** 2 * L(r)) * math.log((1.0 + b) / (1.0 - b)) + PI / (
        40.0 * F(r) ** 3 * SQRT5
    ) * li2_odd(b)


def _nt2_rhs(r):
    b = bpow(r)
    return PI / (8.0 * L(r) ** 2 * F(r) * SQRT5) * math.log((1.0 - b) / (1.0 + b)) - PI / (
        8.0 * L(r) ** 3
    ) * li2_odd(b)


KA, QA = qgrid((0.25, 0.5, 0.75, BETA * BETA, -BETA))
KX, QX = qgrid((0.2, 0.4, 0.6, BETA * BETA, -BETA))


def _aria_c(q):
    return 2.0 * q / (1.0 + q * q)


def _xit_c(q):
    return 2.0 * q / (1.0 - q * q)


def _aria_rhs(k):
    q = QA(k)
    return (1.0 + q * q) / (1.0 - q * q) * (PI3 / 3.0 + 0.25 * PI * li2(q * q))


def _ru2(k):
    c = _aria_c(QA(k))
    return _c2x(1.0, -c * c, 1)


def _ru2_rhs(k):
    q = QA(k)
    return PI / (2.0 * _aria_c(q)) * (1.0 + q * q) / (1.0 - q * q) * li2_odd(q)


def _xit_rhs(k):
    q = QX(k)
    return (1.0 - q * q) / (1.0 + q * q) * (PI3 / 3.0 + 0.25 * PI * li2(-q * q))


def _d64(k):
    c = _xit_c(QX(k))
    return _c2x(1.0, c * c, 1)


def _d64_rhs(k):
    q = QX(k)
    t = math.atan(q)
    inner = t * math.log(q) + 0.5 * cl2(2.0 * t) + 0.5 * cl2(PI - 2.0 * t)
    return PI / _xit_c(q) * (1.0 - q * q) / (1.0 + q * q) * inner


def cases():
    sq5_value = 3.0 * PI / (8.0 * SQRT5) * LN_ALPHA + PI3 / 48.0 - 3.0 * PI / 16.0 * LA2
    return [
        # plain cos 2x kernels: one row per sign/parity combination
        g8_pe := case("S9.G8UGNY7.PE", "eq. (g8ugny7), even, upper sign", FULL, *_cos2x_rows(EVEN, -1.0, 1)),
        case("S9.G8UGNY7.ME", "eq. (g8ugny7), even, lower sign", FULL, *_cos2x_rows(EVEN, 1.0, 1), splits=MID),
        g8_po := case("S9.G8UGNY7.PO", "eq. (g8ugny7), odd, upper sign", FULL, *_cos2x_rows(ODD, 1.0, 1), splits=MID),
        g8_mo := case("S9.G8UGNY7.MO", "eq. (g8ugny7), odd, lower sign", FULL, *_cos2x_rows(ODD, -1.0, 1)),
        part(g8_po, "S9.G8UGNY7.PART1", "special value at kernel sqrt5 + 2 cos 2x",
             lambda: 4.0 * PI3 / 15.0 + 0.5 * PI * LA2, r=1),
        part(g8_mo, "S9.G8UGNY7.PART2", "special value at kernel sqrt5 - 2 cos 2x",
             lambda: 13.0 * PI3 / 30.0 - PI * LA2, r=1),
        part(g8_pe, "S9.G8UGNY7.PART3", "special value at kernel 3 - 2 cos 2x",
             lambda: (2.0 * PI3 / 5.0 - PI * LA2) / SQRT5, r=2),
        # squared cos 2x kernels
        kn_m := case("S9.KNIIJOY.M", "eq. (kniijoy), upper sign", FULL, *_cos2x_rows(EVEN, -1.0, 2)),
        case("S9.KNIIJOY.P", "eq. (kniijoy), lower sign", FULL, *_cos2x_rows(EVEN, 1.0, 2), splits=MID),
        m64_p := case("S9.M64M49C.P", "eq. (m64m49c), upper sign", FULL, *_cos2x_rows(ODD, 1.0, 2), splits=MID),
        m64_m := case("S9.M64M49C.M", "eq. (m64m49c), lower sign", FULL, *_cos2x_rows(ODD, -1.0, 2)),
        part(kn_m, "S9.KNIIJOY.PART1", "special value at squared kernel 3 - 2 cos 2x",
             lambda: PI / 5.0 * LN_ALPHA + 6.0 * PI3 / (25.0 * SQRT5) - 3.0 * PI / (5.0 * SQRT5) * LA2, r=2),
        part(m64_p, "S9.KNIIJOY.PART2", "special value at squared kernel sqrt5 + 2 cos 2x",
             lambda: -PI * LN_ALPHA + 4.0 * PI3 / (3.0 * SQRT5) + PI * SQRT5 / 2.0 * LA2, r=1),
        part(m64_m, "S9.KNIIJOY.PART3", "special value at squared kernel sqrt5 - 2 cos 2x",
             lambda: 2.0 * PI * LN_ALPHA + 13.0 * PI3 / (6.0 * SQRT5) - PI * SQRT5 * LA2, r=1),
        # squared cos^2(2x) kernels, paired numerators
        case("S9.FRLTBQE", "eq. (frltbqe)", FULL, EVEN.params, lambda r: _paired(EVEN.A2(r)), _frl_rhs, splits=MID),
        case("S9.S7JKWMS", "eq. (s7jkwms)", FULL, EVEN.params, lambda r: _c2x(EVEN.A2(r), -4.0, 2), _s7j_rhs,
             splits=MID, shares=lambda r: ("S9.EZYW57R", {"r": r}) if r == 10 else None),
        vxz := case("S9.VXZM3GU", "eq. (vxzm3gu)", FULL, ODD.params, lambda r: _paired(ODD.A2(r)), _vxz_rhs,
                    splits=MID),
        case("S9.NT2NOAN", "eq. (nt2noan)", FULL, ODD.params, lambda r: _c2x(ODD.A2(r), -4.0, 2), _nt2_rhs, splits=MID,
             shares=lambda r: ("S9.EZYW57R", {"r": r})),
        part(vxz, "S9.FRLT.PART1", "special value at kernel (5 - 4cos^2 2x)^2, paired numerator",
             lambda: 0.5 * PI * LN_ALPHA + 7.0 * PI3 / (4.0 * SQRT5) - PI * SQRT5 / 4.0 * LA2, r=1),
        frlt2 := case("S9.FRLT.PART2", "special value at kernel (5 - 4cos^2 2x)^2, cos 2x numerator", FULL, NO_PARAMS,
             lambda: _golden5_part(2), lambda: sq5_value, splits=MID),
        # generic duplication pair: Q = 2q/(1+q^2)
        case("S9.ARIA0WT", "eq. (aria0wt)", FULL, KA, lambda k: trig_sq_kernel(1.0, -_aria_c(QA(k)) ** 2, math.cos, 1, True),
             _aria_rhs, splits=MID),
        case("S9.RU2AYAB", "eq. (ru2ayab)", FULL, KA, _ru2, _ru2_rhs, splits=MID),
        # golden instances of the duplication pair (parity-split kernels)
        jiv := case("S9.JIVTZPL", "eq. (jivtzpl)", FULL, R_ANY, lambda r: _dup(r, 1), _dup_rhs(1.0, 1), splits=MID),
        case("S9.ISEKZ49", "eq. (isekz49)", FULL, R_ANY, lambda r: _ise(r, 1), _ise_rhs, splits=MID),
        part(jiv, "S9.JIVTZPL.PART1", "special value at kernel 1 + 4 sin^2 2x",
             lambda: (7.0 * PI3 / 20.0 - 0.25 * PI * LA2) / SQRT5, r=1),
        case("S9.JIVTZPL.PART2", "special value at kernel 5 - 4 cos^2 2x, cos 2x numerator", FULL, NO_PARAMS,
             lambda: _golden5_part(1), lambda: PI3 / 24.0 - 3.0 * PI / 8.0 * LA2, splits=MID),
        # sin^2/cos^2 numerators from adding/subtracting the pair
        case("S9.SINCOS.1", "cor. quadruple, even cos^2", FULL, *_sincos(EVEN, math.cos, True), splits=MID),
        case("S9.SINCOS.2", "cor. quadruple, even sin^2", FULL, *_sincos(EVEN, math.sin, False), splits=MID),
        case("S9.SINCOS.3", "cor. quadruple, odd sin^2", FULL, *_sincos(ODD, math.sin, True), splits=MID),
        case("S9.SINCOS.4", "cor. quadruple, odd cos^2", FULL, *_sincos(ODD, math.cos, False), splits=MID),
        case("S9.SINCOS.PART1", "special value x^2 sin^2 x/(1 + 4 sin^2 2x)", FULL, NO_PARAMS, _sincos_part(math.sin),
             lambda: (-SQRT5 / 40.0 + 3.0 / 16.0) * PI * LA2 + (7.0 * SQRT5 / 200.0 - 1.0 / 48.0) * PI3, splits=MID),
        case("S9.SINCOS.PART2", "special value x^2 cos^2 x/(1 + 4 sin^2 2x)", FULL, NO_PARAMS, _sincos_part(math.cos),
             lambda: -(SQRT5 / 40.0 + 3.0 / 16.0) * PI * LA2 + (7.0 * SQRT5 / 200.0 + 1.0 / 48.0) * PI3, splits=MID),
        # squared duplication kernels
        pxi := case("S9.PXI3HD5", "eq. (pxi3hd5)", FULL, R_ANY, lambda r: _dup(r, 2), _dup_rhs(1.0, 2), splits=MID),
        case("S9.EZYW57R", "eq. (ezyw57r)", FULL, R_ANY, lambda r: _ise(r, 2), _ezy_rhs, splits=MID),
        part(pxi, "S9.PXI3HD5.PART1", "special value at squared kernel 1 + 4 sin^2 2x",
             lambda: 21.0 / 100.0 * PI3 / SQRT5 - 3.0 * PI / (20.0 * SQRT5) * LA2 + PI / 20.0 * LN_ALPHA, r=1),
        part(frlt2, "S9.PXI3HD5.PART2", "special value at squared kernel 5 - 4 cos^2 2x, cos 2x numerator",
             lambda: sq5_value),
        # imaginary-parameter pair: R = 2q/(1-q^2)
        case("S9.XITQGR6", "eq. (xitqgr6)", FULL, KX, lambda k: trig_sq_kernel(1.0, _xit_c(QX(k)) ** 2, math.cos, 1, True),
             _xit_rhs, splits=QUARTS),
        case("S9.D64V4ZE", "eq. (d64v4ze)", FULL, KX, _d64, _d64_rhs, splits=QUARTS),
        # golden instances with +cos^2(2x) kernels
        case("S9.EUNBS0S", "eq. (eunbs0s)", FULL, R_ANY, lambda r: _plus_cos_sq(r, 1), _dup_rhs(-1.0, 1), splits=QUARTS),
        case("S9.EUNBS0S.SQ", "squared thm. of eq. (eunbs0s)", FULL, R_ANY, lambda r: _plus_cos_sq(r, 2), _dup_rhs(-1.0, 2),
             splits=QUARTS),
        # Clausen-valued rows
        case("S9.CLAUSEN.E", "final theorem, even branch", FULL, *_clausen(EVEN), splits=QUARTS),
        case("S9.CLAUSEN.O", "final theorem, odd branch", FULL, *_clausen(ODD), splits=QUARTS),
    ]
