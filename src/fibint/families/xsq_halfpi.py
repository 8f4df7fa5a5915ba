"""x^2 kernels on (0, pi/2) with cos(2x) denominators, closed forms built
from pi^3/24 + (pi/2) Li2(argument) and its kernel-derivatives.
"""

from __future__ import annotations

from ._helpers import (
    EVEN, HALF, LN2, LN_ALPHA, NO_PARAMS, ODD, PI, PI3, SQRT5,
    F, L, P, apow, bpow, case, cos2x_kernel, li2, math, part,
)

R_EVEN8 = (P("r", 2, 8, "even"),)
R_GE2 = (P("r", 2, 10),)


def _core(r: int) -> float:
    return PI3 / 24.0 + 0.5 * PI * li2(bpow(r))


def _id_rows(br, k):
    """x^2/(A_r + 2 sigma cos 2x)^k: (pi^3/24 + (pi/2) Li2(beta^r))/B_r, or its derivative."""

    def rhs(r):
        if k == 1:
            return _core(r) / br.B(r)
        return br.A(r) / br.B(r) ** 3 * _core(r) - 0.5 * PI * math.log1p(-bpow(r)) / br.B2(r)

    return br.params, lambda r: cos2x_kernel(br.A(r), 2.0 * br.sigma, k), rhs


def _id6(a, b):
    """x^2 (b + a cos 2x)/(a + b cos 2x)^2."""

    def f(x):
        c = math.cos(2.0 * x)
        return x * x * (b + a * c) / (a + b * c) ** 2

    return f


def _id6_rhs(r):
    # 1 - sqrt5 F_r/L_r = 2 beta^r / L_r, cancellation-free
    return PI / (2.0 * SQRT5 * F(2 * r)) * math.log(2.0 * bpow(r) / L(r))


def _id7(r):
    lr = L(r)
    return cos2x_kernel(lr * lr + 4.0, 4.0 * lr)


def _id8(r):
    lr = L(r)
    a = lr * lr + 4.0

    def f(x):
        c = math.cos(2.0 * x)
        return x * x * (lr + 2.0 * c) / (a + 4.0 * lr * c) ** 2

    return f


def _id8_part(x):
    c = math.cos(2.0 * x)
    return x * x * (2.0 + c) / (5.0 + 4.0 * c) ** 2


def _id8_rhs(r):
    lr = L(r)
    d = lr * lr - 4.0
    core = PI3 / 24.0 + 0.5 * PI * li2(2.0 / lr)
    return lr / d**2 * core - 0.25 * PI / (lr * d) * math.log1p(-2.0 / lr)


def cases():
    return [
        # kernel L_r + 2 cos 2x, r even; kernel sqrt5 F_r - 2 cos 2x, r odd
        id1 := case("S7.ID1", "eq. (id1_from_eleven)", HALF, *_id_rows(EVEN, 1)),
        id2 := case("S7.ID2", "eq. (id2_from_eleven)", HALF, *_id_rows(ODD, 1)),
        part(id1, "S7.ID12.PART1", "special value at kernel 3 + 2 cos 2x",
             lambda: (3.0 * PI3 / 40.0 - 0.5 * PI * LN_ALPHA**2) / SQRT5, r=2),
        part(id2, "S7.ID12.PART2", "special value at kernel sqrt5 - 2 cos 2x",
             lambda: PI3 / 120.0 + 0.25 * PI * LN_ALPHA**2, r=1),
        # squared kernels
        id3 := case("S7.ID3", "eq. (id3_from_eleven)", HALF, *_id_rows(EVEN, 2)),
        id4 := case("S7.ID4", "eq. (id4_from_eleven)", HALF, *_id_rows(ODD, 2)),
        part(id3, "S7.ID34.PART1", "special value at squared kernel 3 + 2 cos 2x",
             lambda: 3.0 / (5.0 * SQRT5) * (3.0 * PI3 / 40.0 - 0.5 * PI * LN_ALPHA**2) + PI / 10.0 * LN_ALPHA, r=2),
        part(id4, "S7.ID34.PART2", "special value at squared kernel sqrt5 - 2 cos 2x",
             lambda: SQRT5 * (PI3 / 120.0 + 0.25 * PI * LN_ALPHA**2) - 0.5 * PI * LN_ALPHA, r=1),
        # kernel L_{2r} + sqrt5 F_{2r} cos 2x, r even >= 2
        id5 := case("S7.ID5", "eq. (id5_from_eleven)", HALF, R_EVEN8,
                    lambda r: cos2x_kernel(L(2 * r), SQRT5 * F(2 * r)),
                    lambda r: PI3 / 48.0 + 0.25 * PI * li2(SQRT5 * F(r) / L(r))),
        part(id5, "S7.ID5.PART", "special value at kernel 7 + 3 sqrt5 cos 2x",
             lambda: PI3 / 48.0 + 0.25 * PI * li2(SQRT5 / 3.0), r=2),
        id6 := case("S7.ID6", "eq. (id6_from_eleven)", HALF, R_EVEN8, lambda r: _id6(L(2 * r), SQRT5 * F(2 * r)),
                    _id6_rhs),
        part(id6, "S7.ID6.PART", "special value ln(2/(3 alpha^2))",
             lambda: PI / (6.0 * SQRT5) * math.log(2.0 / (3.0 * apow(2))), r=2),
        # kernel L_r^2 + 4 + 4 L_r cos 2x, r >= 2
        case("S7.ID7", "eq. (id7_from_eleven)", HALF, R_GE2, _id7,
             lambda r: (PI3 / 24.0 + 0.5 * PI * li2(2.0 / L(r))) / (L(r) ** 2 - 4.0)),
        case("S7.ID7.PART", "special value pi^3/36 - (pi/12) ln^2 2", HALF, NO_PARAMS,
             lambda: cos2x_kernel(5.0, 4.0), lambda: PI3 / 36.0 - PI / 12.0 * LN2**2),
        case("S7.ID8", "eq. (id8_from_eleven)", HALF, R_GE2, _id8, _id8_rhs),
        case("S7.ID8.PART", "special value pi^3/54 - (pi/18) ln^2 2 + (pi/24) ln 2", HALF, NO_PARAMS, lambda: _id8_part,
             lambda: PI3 / 54.0 - PI / 18.0 * LN2**2 + PI / 24.0 * LN2),
    ]
