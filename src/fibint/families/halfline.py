"""Rational half-line families: both members of each double equality

    int x^(2m+1) / ((1+x^2)(A + B x^2)^(m+1))  =  int x / ((1+x^2)(B + A x^2)^(m+1))

are registered as separate instances sharing one closed form.  The m-fold
derivative closed form at generic q,

    1/2 sum_j (-1)^(m-j)/j / (q^j (1-q)^(m-j+1)) + (-1)^(m-1)/2 ln(q)/(1-q)^(m+1),

specializes through 1 -+ q factorizations into products of neighbouring
Fibonacci/Lucas numbers.
"""

from __future__ import annotations

from ._helpers import EVEN, F, HALF_LINE, L, ODD, P, case, math


_PD_Q = (0.5, 1.5, 2.0, 3.0, 5.0)


def _generic_rhs(q: float, m: int) -> float:
    acc = 0.0
    for j in range(1, m + 1):
        acc += ((-1.0) ** (m - j) / j) / (q**j * (1.0 - q) ** (m - j + 1))
    return 0.5 * acc + 0.5 * (-1.0) ** (m - 1) * math.log(q) / (1.0 - q) ** (m + 1)


def _pair(base_id, anchor, params, ab_of, rhs, note=""):
    def lhs_a(p):
        a, b = ab_of(p)
        m = p["m"]
        k, e = 2 * m + 1, m + 1

        def f(x):
            x2 = x * x
            return x ** k / ((1.0 + x2) * (a + b * x2) ** e)

        return f

    def lhs_b(p):
        a, b = ab_of(p)
        e = p["m"] + 1

        def f(x):
            x2 = x * x
            return x / ((1.0 + x2) * (b + a * x2) ** e)

        return f

    return [
        case(base_id, anchor, HALF_LINE, params, lhs_a, rhs, note=note),
        case(base_id + ".B", anchor + ", second member", HALF_LINE, params, lhs_b, rhs, note=note),
    ]


def _neighbour(q_of, d_of):
    """The m-fold form at q = q_of(r), with q - 1 = d_of(r) a neighbour product."""

    def rhs(p):
        m, r = p["m"], p["r"]
        q, d = q_of(r), d_of(r)
        acc = sum(1.0 / (j * q**j * d ** (m - j + 1)) for j in range(1, m + 1))
        return -0.5 * acc + 0.5 * math.log(q) / d ** (m + 1)

    return lambda p: (1.0, q_of(p["r"])), rhs


def _kj_q(r):
    return F(2 * r)


def _kj_d(r):
    return F(r - 1) * L(r + 1) if r % 2 == 1 else L(r - 1) * F(r + 1)


def _dp_q(r):
    return F(2 * r + 1)


def _dp_d(r):
    return L(r) * F(r + 1) if r % 2 == 1 else F(r) * L(r + 1)


def _q2_q(r):
    return L(2 * r + 1)


def _q2_d(r):
    return L(r) * L(r + 1) if r % 2 == 1 else 5.0 * F(r) * F(r + 1)


def _lf2_rhs(p):
    m, r = p["m"], p["r"]
    f2 = 5.0 * F(r) ** 2
    acc = sum((-1.0) ** (r + (r + 1) * (m - j)) / j * (4.0 / f2) ** j for j in range(1, m + 1))
    logterm = (-1.0) ** ((r + 1) * (m + 1)) * math.log(f2 / L(r) ** 2)
    return (acc + logterm) / 2.0 ** (2 * m + 3)


def _four_rhs(a_of, b_of):
    """Kernel pair (b_of(r), 4) and its closed form; a_of(r) is the other of the squares 5 F_r^2 and L_r^2."""

    def rhs(p):
        m, r = p["m"], p["r"]
        a = a_of(r)
        acc = sum((-1.0) ** (m - j) / j * (a / 4.0) ** j for j in range(1, m + 1))
        return (acc + (-1.0) ** (m - 1) * math.log(4.0 / b_of(r))) / (2.0 * a ** (m + 1))

    return lambda p: (b_of(p["r"]), 4.0), rhs


def _f4r1_rhs(p):
    # F_{4r+1} - 1 = F_{2r} L_{2r+1}
    m, r = p["m"], p["r"]
    q = F(4 * r + 1)
    d = F(2 * r) * L(2 * r + 1)
    acc = sum((d / q) ** j / j for j in range(1, m + 1))
    return (math.log(q) - acc) / (2.0 * d ** (m + 1))


def cases():
    m04 = P("m", 0, 4)
    r18 = (m04, P("r", 1, 8))
    return [
        # kernels F_{2r}, F_{2r+1} and L_{2r+1}, split by their q - 1 factorizations
        *_pair("S4.KJ2W249", "eq. (kj2w249)", (m04, P("r", 2, 9)), *_neighbour(_kj_q, _kj_d)),
        *_pair("S4.DPBN6CY", "eq. (dpbn6cy)", r18, *_neighbour(_dp_q, _dp_d)),
        *_pair("S4.Q2NVIQW", "eq. (q2nviqw)", r18, *_neighbour(_q2_q, _q2_d)),
        # generic positive q, m-fold derivative form
        *_pair("S4.PDJJQGD", "eq. (pdjjqgd)", (m04, P("k", 1, len(_PD_Q))), lambda p: (1.0, _PD_Q[p["k"] - 1]),
               lambda p: _generic_rhs(_PD_Q[p["k"] - 1], p["m"])),
        # kernel pair (L_r^2, 5 F_r^2); closed form uses L^2 - 5F^2 = 4(-1)^r
        *_pair("S4.LF2", "theorem with kernel pair (L_r^2, 5F_r^2)", r18, lambda p: (L(p["r"]) ** 2, 5.0 * F(p["r"]) ** 2),
               _lf2_rhs, note="source text prints the sum base as 4/(5F_r); verified as 4/(5F_r^2)"),
        *_pair("S4.EVEN4", "theorem with kernel pair (L_r^2, 4), r even", (m04, P("r", 2, 8, "even")),
               *_four_rhs(EVEN.B2, EVEN.A2)),
        *_pair("S4.ODD4", "theorem with kernel pair (5F_r^2, 4), r odd", (m04, P("r", 1, 7, "odd")),
               *_four_rhs(ODD.B2, ODD.A2)),
        *_pair("S4.F4R1", "theorem with kernel F_{4r+1}", (m04, P("r", 1, 5)), lambda p: (1.0, F(4 * p["r"] + 1)),
               _f4r1_rhs),
    ]
