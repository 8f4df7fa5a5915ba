"""x^2 cos x and x^2 cos 3x kernels on (0, pi): closed forms in
Li2(+-sqrt(beta^r)) and Clausen values at 2 arctan(sqrt(beta^r)), with the
square roots taken of beta^r for even r and of -beta^r for odd r, so no
complex quantity ever enters.

The recombined kernels over a^2 - 4 cos^2 2x share one closed form in
u, the small root of u + 1/u = a (u = |beta|^r at a = A_r).  So do the
two structural rows, the partial-fraction recombination of the
(a -+ 2 cos 2x) kernels and its cos 3x companion (which requires
2 cos x cos 2x = cos 3x + cos x), at a = sqrt5 F_r for every r.
"""

from __future__ import annotations

from ._helpers import (
    EVEN, FULL, LA2, LN_ALPHA, MID, NO_PARAMS, ODD, PI, PI2, PI3, SQRT5,
    F, P, bpow, case, cl_pair, li2, li2_odd, math, part, xcos_kernel,
)

CLSQ_NOTE = (
    "source text prints the Clausen pair with a minus; differentiating the interpolated form gives the sum, "
    "which is what verifies"
)


def _minus(br, k):
    """x^2 cos x/(A_r - 2 cos 2x)^k: dilogarithms at +-sqrt(|beta|^r)."""

    def rhs(r):
        u = br.sigma * bpow(r)
        s = math.sqrt(u)
        if k == 1:
            return PI * s / (1.0 - u) * (li2(-s) - li2(s))
        b, w = br.B(r), s / (1.0 - u)
        return -PI / b * w * (0.5 + u / (1.0 - u)) * li2_odd(s) - PI / (2.0 * b) * w * math.log((1.0 + s) / (1.0 - s))

    return br.params, lambda r: xcos_kernel(br.A(r), -2.0, k), rhs


def _plus(br, k):
    """x^2 cos x/(A_r + 2 cos 2x)^k: Clausen values at 2 arctan sqrt(|beta|^r)."""

    def rhs(r):
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

    return br.params, lambda r: xcos_kernel(br.A(r), 2.0, k), rhs


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


def _recombined_rhs(u, cx, cy):
    """cx X + cy Y in u < 1, u + 1/u = a.  Over a^2 - 4 cos^2 2x, x^2 cos x integrates to -(X + Y)/a,
    x^2 cos 3x to (1/a - 1) X + (1/a + 1) Y and their sum to Y - X, where, with s = sqrt u and
    t = arctan s, X = (pi/2) s/(1-u) (Li2(s) - Li2(-s)) and Y = (pi/2) s/(1+u) (Cl2(2t) + Cl2(pi-2t) + 2t ln s)."""
    s = math.sqrt(u)
    t = math.atan(s)
    return cx * PI / 2.0 * s / (1.0 - u) * li2_odd(s) + cy * PI / 2.0 * s / (1.0 + u) * (
        cl_pair(2.0 * t) + 2.0 * t * math.log(s)
    )


def _recombined_rows(br, triple):
    """x^2 cos x or x^2 cos 3x over A_r^2 - 4 cos^2 2x."""

    def rhs(r):
        v = 1.0 / br.A(r)
        u = br.sigma * bpow(r)
        return _recombined_rhs(u, v - 1.0, v + 1.0) if triple else _recombined_rhs(u, -v, -v)

    return br.params, lambda r: _recombined(br.A2(r), triple), rhs


def _qvb_lhs(r):
    a = F(r) * SQRT5
    w = 1.0 / (2.0 * a)

    def f(x):
        c = 2.0 * math.cos(2.0 * x)
        return w * x * x * math.cos(x) * (1.0 / (a - c) + 1.0 / (a + c))

    return f


def _a40q_lhs(r):
    a = F(r) * SQRT5

    def f(x):
        c = 2.0 * math.cos(2.0 * x)
        return 0.5 * x * x * math.cos(x) * (1.0 / (a - c) - 1.0 / (a + c))

    return f


def _root(r):
    """u < 1 with u + 1/u = a, a = sqrt5 F_r the constant of the structural rows' kernels."""
    a = F(r) * SQRT5
    return 2.0 / (a + math.sqrt(a * a - 4.0))


def _qvb_rhs(r):
    v = 1.0 / (F(r) * SQRT5)
    return _recombined_rhs(_root(r), -v, -v)


def _r2_is_r1(case_id):
    return lambda r: (case_id, {"r": 1}) if r == 2 else None


def cases():
    r16 = (P("r", 1, 6),)
    t = math.atan(2.0)
    return [
        ri9 := case("S10.RI9NKKO", "eq. (ri9nkko)", FULL, *_minus(EVEN, 1)),
        case("S10.UJHMYEF", "eq. (ujhmyef)", FULL, *_minus(ODD, 1)),
        part(ri9, "S10.RI9NKKO.PART", "special value -pi^3/6 + (3pi/2) ln^2 alpha",
             lambda: -PI3 / 6.0 + 1.5 * PI * LA2, r=2),
        # squared minus-kernels
        sq_even := case("S10.SQ.E", "squared thm., even branch", FULL, *_minus(EVEN, 2)),
        case("S10.SQ.O", "squared thm., odd branch", FULL, *_minus(ODD, 2)),
        part(sq_even, "S10.SQ.PART", "special value at squared kernel 3 - 2 cos 2x",
             lambda: -PI / 4.0 * (PI2 / 3.0 - 3.0 * LA2) - 3.0 * PI / (2.0 * SQRT5) * LN_ALPHA, r=2),
        # plus-kernels: Clausen forms
        pi7 := case("S10.PI7I3YL", "eq. (pi7i3yl)", FULL, *_plus(EVEN, 1), splits=MID),
        case("S10.A40FGGG", "eq. (a40fggg)", FULL, *_plus(ODD, 1), splits=MID),
        part(pi7, "S10.PI7I3YL.PART", "special value at kernel 3 + 2 cos 2x",
             lambda: PI / SQRT5 * t * LN_ALPHA - PI / SQRT5 * cl_pair(t), r=2),
        # squared plus-kernels
        case("S10.CLSQ.E", "squared Clausen thm., even branch", FULL, *_plus(EVEN, 2), splits=MID, note=CLSQ_NOTE),
        case("S10.CLSQ.O", "squared Clausen thm., odd branch", FULL, *_plus(ODD, 2), splits=MID, note=CLSQ_NOTE),
        # structural rows: the recombined forms at a = sqrt5 F_r; F_1 = F_2, so r = 2 repeats r = 1
        case("S10.QVB6JUR", "recombination lemma, first relation", FULL, r16, _qvb_lhs, _qvb_rhs,
             default_tol=1e-9, splits=MID, shares=_r2_is_r1("S10.QVB6JUR")),
        case("S10.A40QD9A", "recombination lemma, cos 3x relation", FULL, r16, _a40q_lhs,
             lambda r: _recombined_rhs(_root(r), -1.0, 1.0), default_tol=1e-9, splits=MID,
             shares=_r2_is_r1("S10.A40QD9A"),
             note="source text adds the two half-kernels; the cos 3x relation requires their "
             "difference (verified numerically and consistent with the derived theorems)"),
        # recombined kernels
        case("S10.Y4DQFP7", "eq. (y4dqfp7)", FULL, *_recombined_rows(ODD, False), splits=MID),
        case("S10.GG6A1VX", "eq. (gg6a1vx)", FULL, *_recombined_rows(ODD, True), splits=MID),
        case("S10.V11U6JR", "eq. (v11u6jr)", FULL, *_recombined_rows(EVEN, False), splits=MID),
        case("S10.PADU4YO", "eq. (padu4yo)", FULL, *_recombined_rows(EVEN, True), splits=MID),
        case("S10.PART9", "special value at kernel 9 - 4 cos^2 2x", FULL, NO_PARAMS,
             lambda: lambda x: x * x * math.cos(x) / (9.0 - 4.0 * math.cos(2.0 * x) ** 2),
             lambda: -PI / 6.0 * (PI2 / 6.0 - 1.5 * LA2) + PI / (6.0 * SQRT5) * t * LN_ALPHA
             - PI / (6.0 * SQRT5) * cl_pair(t), splits=MID),
    ]
