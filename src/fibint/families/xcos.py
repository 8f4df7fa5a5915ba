"""x^2 cos x and x^2 cos 3x kernels on (0, pi): closed forms in
Li2(+-sqrt(beta^r)) and Clausen values at 2 arctan(sqrt(beta^r)), with the
square roots taken of beta^r for even r and of -beta^r for odd r, so no
complex quantity ever enters.

Also registers the two structural rows whose right side is itself a
quadrature value: the partial-fraction recombination of the (a -+ 2cos2x)
kernels and its cos 3x companion (which requires 2 cos x cos 2x =
cos 3x + cos x).
"""

from __future__ import annotations

from ._helpers import (
    EVEN, FULL, LA2, LN_ALPHA, MID, NO_PARAMS, ODD, PI, PI2, PI3, SQRT5,
    F, P, bpow, case, cl_pair, li2, li2_odd, math, quad_rhs, xcos_kernel,
)

CLSQ_NOTE = (
    "source text prints the Clausen pair with a minus; differentiating the interpolated form gives the sum, "
    "which is what verifies"
)


def _minus(br, k):
    """x^2 cos x/(A_r - 2 cos 2x)^k: dilogarithms at +-sqrt(|beta|^r)."""

    def rhs(p):
        r = p["r"]
        u = br.sigma * bpow(r)
        s = math.sqrt(u)
        if k == 1:
            return PI * s / (1.0 - u) * (li2(-s) - li2(s))
        b, w = br.B(r), s / (1.0 - u)
        return -PI / b * w * (0.5 + u / (1.0 - u)) * li2_odd(s) - PI / (2.0 * b) * w * math.log((1.0 + s) / (1.0 - s))

    return br.params, lambda p: xcos_kernel(br.A(p["r"]), -2.0, k), rhs


def _plus(br, k):
    """x^2 cos x/(A_r + 2 cos 2x)^k: Clausen values at 2 arctan sqrt(|beta|^r)."""

    def rhs(p):
        r = p["r"]
        u = br.sigma * bpow(r)
        s = math.sqrt(u)
        if k == 1:
            w = PI * s / (1.0 + u)
            return -w * 2.0 * math.atan(s) * math.log(s) - w * cl_pair(2.0 * math.atan(s))
        b, w, g = br.B(r), s / (1.0 + u), 0.5 - u / (1.0 + u)
        return (
            -2.0 * PI / b * w * g * math.atan(s) * math.log(s)
            - PI / b * w * g * cl_pair(2.0 * math.atan(s))
            - PI / (2.0 * b) * w * math.atan(2.0 * s / (1.0 - u))
        )

    return br.params, lambda p: xcos_kernel(br.A(p["r"]), 2.0, k), rhs


def _recombined(a, triple):
    """x^2 cos x/(a - 4 cos^2 2x), or x^2 cos 3x/(...) when triple."""
    if triple:

        def f(x):
            c = math.cos(2.0 * x)
            return x * x * math.cos(3.0 * x) / (a - 4.0 * c * c)

        return f

    def f(x):
        c = math.cos(2.0 * x)
        return x * x * math.cos(x) / (a - 4.0 * c * c)

    return f


def _recombined_rows(br, triple):
    """x^2 cos x or x^2 cos 3x over A_r^2 - 4 cos^2 2x."""

    def rhs(p):
        r = p["r"]
        u = br.sigma * bpow(r)
        s = math.sqrt(u)
        a = br.A(r)
        if triple:
            v = 1.0 / a
            return (
                (v - 1.0) * PI / 2.0 * s / (1.0 - u) * li2_odd(s)
                + (v + 1.0) * PI / 2.0 * s / (1.0 + u) * cl_pair(2.0 * math.atan(s))
                + (v + 1.0) * PI * s / (1.0 + u) * math.atan(s) * math.log(s)
            )
        return (
            -PI / (2.0 * a) * s / (1.0 - u) * li2_odd(s)
            - PI / (2.0 * a) * s / (1.0 + u) * cl_pair(2.0 * math.atan(s))
            - PI / a * s / (1.0 + u) * math.atan(s) * math.log(s)
        )

    return br.params, lambda p: _recombined(br.A2(p["r"]), triple), rhs


def _qvb_lhs(p):
    a = F(p["r"]) * SQRT5
    w = 1.0 / (2.0 * a)

    def f(x):
        c = 2.0 * math.cos(2.0 * x)
        return w * x * x * math.cos(x) * (1.0 / (a - c) + 1.0 / (a + c))

    return f


def _a40q_lhs(p):
    a = F(p["r"]) * SQRT5

    def f(x):
        c = 2.0 * math.cos(2.0 * x)
        return 0.5 * x * x * math.cos(x) * (1.0 / (a - c) - 1.0 / (a + c))

    return f


def _a40q_rhs_kernel(a):
    def g(x):
        c = math.cos(2.0 * x)
        return x * x * (math.cos(x) + math.cos(3.0 * x)) / (a - 4.0 * c * c)

    return g


def _by_quadrature(kernel):
    """Right side of a structural row: 1e-12 quadrature of kernel(5 F_r^2)."""
    return lambda p: quad_rhs(kernel(5.0 * F(p["r"]) ** 2), MID)


def cases():
    r16 = (P("r", 1, 6),)
    t = math.atan(2.0)
    return [
        case("S10.RI9NKKO", "eq. (ri9nkko)", FULL, *_minus(EVEN, 1)),
        case("S10.UJHMYEF", "eq. (ujhmyef)", FULL, *_minus(ODD, 1)),
        case("S10.RI9NKKO.PART", "special value -pi^3/6 + (3pi/2) ln^2 alpha", FULL, NO_PARAMS,
             lambda p: xcos_kernel(3.0, -2.0), lambda p: -PI3 / 6.0 + 1.5 * PI * LA2),
        # squared minus-kernels
        case("S10.SQ.E", "squared thm., even branch", FULL, *_minus(EVEN, 2)),
        case("S10.SQ.O", "squared thm., odd branch", FULL, *_minus(ODD, 2)),
        case("S10.SQ.PART", "special value at squared kernel 3 - 2 cos 2x", FULL, NO_PARAMS,
             lambda p: xcos_kernel(3.0, -2.0, 2),
             lambda p: -PI / 4.0 * (PI2 / 3.0 - 3.0 * LA2) - 3.0 * PI / (2.0 * SQRT5) * LN_ALPHA),
        # plus-kernels: Clausen forms
        case("S10.PI7I3YL", "eq. (pi7i3yl)", FULL, *_plus(EVEN, 1), splits=MID),
        case("S10.A40FGGG", "eq. (a40fggg)", FULL, *_plus(ODD, 1), splits=MID),
        case("S10.PI7I3YL.PART", "special value at kernel 3 + 2 cos 2x", FULL, NO_PARAMS,
             lambda p: xcos_kernel(3.0, 2.0), lambda p: PI / SQRT5 * t * LN_ALPHA - PI / SQRT5 * cl_pair(t), splits=MID),
        # squared plus-kernels
        case("S10.CLSQ.E", "squared Clausen thm., even branch", FULL, *_plus(EVEN, 2), splits=MID, note=CLSQ_NOTE),
        case("S10.CLSQ.O", "squared Clausen thm., odd branch", FULL, *_plus(ODD, 2), splits=MID, note=CLSQ_NOTE),
        # structural rows: right side evaluated by quadrature
        case("S10.QVB6JUR", "recombination lemma, first relation", FULL, r16, _qvb_lhs,
             _by_quadrature(lambda a: _recombined(a, False)), default_tol=1e-9, splits=MID),
        case("S10.A40QD9A", "recombination lemma, cos 3x relation", FULL, r16, _a40q_lhs,
             _by_quadrature(_a40q_rhs_kernel), default_tol=1e-9, splits=MID,
             note="source text adds the two half-kernels; the cos 3x relation requires their "
             "difference (verified numerically and consistent with the derived theorems)"),
        # recombined kernels
        case("S10.Y4DQFP7", "eq. (y4dqfp7)", FULL, *_recombined_rows(ODD, False), splits=MID),
        case("S10.GG6A1VX", "eq. (gg6a1vx)", FULL, *_recombined_rows(ODD, True), splits=MID),
        case("S10.V11U6JR", "eq. (v11u6jr)", FULL, *_recombined_rows(EVEN, False), splits=MID),
        case("S10.PADU4YO", "eq. (padu4yo)", FULL, *_recombined_rows(EVEN, True), splits=MID),
        case("S10.PART9", "special value at kernel 9 - 4 cos^2 2x", FULL, NO_PARAMS,
             lambda p: lambda x: x * x * math.cos(x) / (9.0 - 4.0 * math.cos(2.0 * x) ** 2),
             lambda p: -PI / 6.0 * (PI2 / 6.0 - 1.5 * LA2) + PI / (6.0 * SQRT5) * t * LN_ALPHA
             - PI / (6.0 * SQRT5) * cl_pair(t), splits=MID),
    ]
