"""Rational half-line families: both members of each double equality

    int x^(2m+1) / ((1+x^2)(A + B x^2)^(m+1))  =  int x / ((1+x^2)(B + A x^2)^(m+1))

are registered as separate instances sharing one closed form.  The second
member is the first under x -> 1/x, which the half-line map pairs node for
node, so the .B rows integrate the first member (test_registry checks the
map at every node a run reaches at --tol 1e-13).  The m-fold derivative
closed form at generic q,

    1/2 sum_j (-1)^(m-j)/j / (q^j (1-q)^(m-j+1)) + (-1)^(m-1)/2 ln(q)/(1-q)^(m+1),

specializes through 1 -+ q factorizations into products of neighbouring
Fibonacci/Lucas numbers.  Each sum is a loop in j order, as sum() rounds
differently across interpreters.
"""

from __future__ import annotations

from ._helpers import EVEN, F, HALF_LINE, L, ODD, P, case, math


_PD_Q = (0.5, 1.5, 2.0, 3.0, 5.0)


def _generic_rhs(q: float, m: int) -> float:
    acc = 0.0
    for j in range(1, m + 1):
        acc += ((-1.0) ** (m - j) / j) / (q**j * (1.0 - q) ** (m - j + 1))
    return 0.5 * acc + 0.5 * (-1.0) ** (m - 1) * math.log(q) / (1.0 - q) ** (m + 1)


def _pair(base_id, anchor, params, ab_of, rhs, note="", shares=None):
    """Both members of a row; ab_of takes the row's parameters other than m and returns the kernel's (A, B).
    shares names an instance of another pair, whose integral the row's is.  The .B row's x/((1+x^2)(B + A x^2)^(m+1))
    is x^-2 f_A(1/x): it integrates f_A, the first member, and shares what its base instance names, or that instance."""

    def lhs_a(m, **p):
        a, b = ab_of(**p)
        k, e = 2 * m + 1, m + 1

        def f(x):
            x2 = x * x
            return x ** k / ((1.0 + x2) * (a + b * x2) ** e)

        return f

    return [
        case(base_id, anchor, HALF_LINE, params, lhs_a, rhs, note=note, shares=shares),
        case(base_id + ".B", anchor + ", second member", HALF_LINE, params, None, rhs, note=note,
             shares=lambda **p: (shares and shares(**p)) or (base_id, p)),
    ]


def _neighbour(q_of, d_of):
    """The m-fold form at q = q_of(r), with q - 1 = d_of(r) a neighbour product."""

    def rhs(m, r):
        q, d = q_of(r), d_of(r)
        acc = 0.0
        for j in range(1, m + 1):
            acc += 1.0 / (j * q**j * d ** (m - j + 1))
        return -0.5 * acc + 0.5 * math.log(q) / d ** (m + 1)

    return lambda r: (1.0, q_of(r)), rhs


_PD_SHARED = {3: ("S4.DPBN6CY", 1), 4: ("S4.KJ2W249", 2), 5: ("S4.DPBN6CY", 2)}  # k -> (row, r) of its kernel


def _pd_shares(m, k):
    target = _PD_SHARED.get(k)
    return target and (target[0], {"m": m, "r": target[1]})


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


def _lf2_rhs(m, r):
    f2 = 5.0 * F(r) ** 2
    acc = 0.0
    for j in range(1, m + 1):
        acc += (-1.0) ** (r + (r + 1) * (m - j)) / j * (4.0 / f2) ** j
    logterm = (-1.0) ** ((r + 1) * (m + 1)) * math.log(f2 / L(r) ** 2)
    return (acc + logterm) / 2.0 ** (2 * m + 3)


def _four_rhs(a_of, b_of):
    """Kernel pair (b_of(r), 4) and its closed form; a_of(r) is the other of the squares 5 F_r^2 and L_r^2."""

    def rhs(m, r):
        a = a_of(r)
        acc = 0.0
        for j in range(1, m + 1):
            acc += (-1.0) ** (m - j) / j * (a / 4.0) ** j
        return (acc + (-1.0) ** (m - 1) * math.log(4.0 / b_of(r))) / (2.0 * a ** (m + 1))

    return lambda r: (b_of(r), 4.0), rhs


def _f4r1_rhs(m, r):
    # F_{4r+1} - 1 = F_{2r} L_{2r+1}
    q = F(4 * r + 1)
    d = F(2 * r) * L(2 * r + 1)
    acc = 0.0
    for j in range(1, m + 1):
        acc += (d / q) ** j / j
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
        # q = 2, 3 and 5 are F_3, F_4 and F_5, the kernels of DPBN6CY r=1, KJ2W249 r=2 and DPBN6CY r=2
        *_pair("S4.PDJJQGD", "eq. (pdjjqgd)", (m04, P("k", 1, len(_PD_Q))), lambda k: (1.0, _PD_Q[k - 1]),
               lambda m, k: _generic_rhs(_PD_Q[k - 1], m), shares=_pd_shares),
        # kernel pair (L_r^2, 5 F_r^2); closed form uses L^2 - 5F^2 = 4(-1)^r
        *_pair("S4.LF2", "theorem with kernel pair (L_r^2, 5F_r^2)", r18, lambda r: (L(r) ** 2, 5.0 * F(r) ** 2),
               _lf2_rhs, note="source text prints the sum base as 4/(5F_r); verified as 4/(5F_r^2)",
               shares=lambda m, r: ("S4.DPBN6CY", {"m": m, "r": 2}) if r == 1 else None),
        *_pair("S4.EVEN4", "theorem with kernel pair (L_r^2, 4), r even", (m04, P("r", 2, 8, "even")),
               *_four_rhs(EVEN.B2, EVEN.A2)),
        *_pair("S4.ODD4", "theorem with kernel pair (5F_r^2, 4), r odd", (m04, P("r", 1, 7, "odd")),
               *_four_rhs(ODD.B2, ODD.A2)),
        *_pair("S4.F4R1", "theorem with kernel F_{4r+1}", (m04, P("r", 1, 5)), lambda r: (1.0, F(4 * r + 1)),
               _f4r1_rhs, shares=lambda m, r: ("S4.DPBN6CY", {"m": m, "r": 2 * r}) if r <= 4 else None),
    ]
