"""Tangent-kernel identities on (0, pi/2): log-quartic kernels, their
differentiated rational forms, and the iterated-derivative families with
binomial polynomial numerators.

All rows use the tan x = t substitution, so integrands are written
directly as functions of t and the quartic 1 + L_{2r} t^2 + t^4 factors
as (alpha^{2r} + t^2)(beta^{2r} + t^2).
"""

from __future__ import annotations

from ._helpers import (
    ALPHA, BETA, LN_ALPHA, PI, SQRT5, TAN_HALFPI,
    F, L, P, apow, bpow, case, math, parity, part,
)

ROK_Q = (F(4) / F(3), L(3) / L(2), F(5) / L(2), L(4) / F(5), F(6) / F(4), L(5) / L(3))
K2_NOTE = (
    "source text labels both branches odd and carries a stray 1+ in the "
    "squared factor; verified against pi*r*ln(alpha) for odd r, even branch as printed"
)


def _sum_poly(n: int, qsq: float) -> list[float]:
    # sum over even binomial slots: C(n,2k) (-1)^k/(2k+1) (u/qsq)^k
    return [
        math.comb(n, 2 * k) * (-1.0) ** k / ((2 * k + 1) * qsq**k)
        for k in range(n // 2 + 1)
    ]


def _quartic_poly(n: int, r: int, seq) -> list[float]:
    # numerator of the combined alpha/(-beta) instance: polynomial in u = t^2
    deg: dict[int, float] = {}
    for k in range(n // 2 + 1):
        ck = math.comb(n, 2 * k) * (-1.0) ** k / (2 * k + 1)
        for j in range(n + 2):
            c = ck * math.comb(n + 1, j) * seq(2 * n + 2 * k - 2 * j + r + 2)
            deg[k + j] = deg.get(k + j, 0.0) + c
    return [deg.get(d, 0.0) for d in range(max(deg) + 1)]


# kernels over the quartic 1 + (l2r + t^2) t^2
def _log_quartic(l2r):
    return lambda t: math.log(1.0 + (l2r + t * t) * t * t)


def _tan2(l2r):
    return lambda t: t * t / (1.0 + (l2r + t * t) * t * t)


def _recip(l2r):
    return lambda t: 1.0 / (1.0 + (l2r + t * t) * t * t)


def _k2(r):
    a2 = apow(2 * r)
    l2r = L(2 * r)

    def f(t):
        u = t * t
        return math.log((a2 + u) ** 2 / (1.0 + (l2r + u) * u))

    return f


def _k2_rhs(r):
    if r % 2 == 1:
        return PI * r * LN_ALPHA
    return PI * math.log((1.0 + apow(r)) ** 2 / (L(r) + 2.0))


def _tan2_rhs(r):
    a = parity(r).A(r)
    return PI / 2.0 / (a * (a + 2.0))


def _recip_rhs(r):
    l2r = L(2 * r)
    a = parity(r).A(r)
    return PI / 2.0 / (l2r * (a + 2.0)) * (l2r + a - 2.0 / a)


def _poly_kernel(n, a, b):
    """The n-fold derivative family's integrand: its binomial numerator at q^2 = a/b over (a + b t^2)^(n+1)."""
    rc = tuple(reversed(_sum_poly(n, a / b)))
    e = n + 1

    def f(t):
        u = t * t
        acc = 0.0
        for c in rc:
            acc = acc * u + c
        return acc / (a + b * u) ** e

    return f


def _rok(n, k):
    q = ROK_Q[k - 1]
    return _poly_kernel(n, q * q, 1.0)  # q*q/1.0 and 1.0*u are exact


def _rok_rhs(n, k):
    q = ROK_Q[k - 1]
    return PI / (2.0 * (n + 1)) * (1.0 / q ** (2 * n + 1) - q / (q * (q + 1.0)) ** (n + 1))


def _pair(swap):
    """n-fold derivative family at q^2 = a/b, (a, b) = (L_r^2, 5 F_r^2), or swapped."""

    def lhs(n, r):
        a, b = L(r) ** 2, 5.0 * F(r) ** 2
        return _poly_kernel(n, b, a) if swap else _poly_kernel(n, a, b)

    return lhs


def _pair_a_rhs(n, r):
    lr = L(r)
    return PI / (2.0 * (n + 1)) / (lr**n * F(r) * SQRT5) * (1.0 / lr ** (n + 1) - 1.0 / (2.0 * apow(r)) ** (n + 1))


def _pair_b_rhs(n, r):
    s = F(r) * SQRT5
    return PI / (2.0 * (n + 1)) / (s**n * L(r)) * (1.0 / s ** (n + 1) - 1.0 / (2.0 * apow(r)) ** (n + 1))


def _quartic(seq):
    """Combined golden-power instance with numerator coefficients from seq (L or F)."""

    def lhs(n, r):
        rc = tuple(reversed(_quartic_poly(n, r, seq)))
        e = n + 1

        def f(t):
            u = t * t
            if u > 1e30:  # tail below 1e-60; avoids float-pow overflow in the kernel
                return 0.0
            acc = 0.0
            for c in rc:
                acc = acc * u + c
            return acc / (1.0 + (3.0 + u) * u) ** e

        return f

    return lhs


def _quartic_l_rhs(n, r):
    return PI / (2.0 * (n + 1)) * (F(2 * n + r + 1) * SQRT5 - apow(r - 1) + (-1.0) ** (n + 1) * bpow(3 * n + r + 2))


def _quartic_f_rhs(n, r):
    return PI / (2.0 * SQRT5 * (n + 1)) * (L(2 * n + r + 1) - apow(r - 1) + (-1.0) ** n * bpow(3 * n + r + 2))


def cases():
    r_any, r8 = (P("r", 1, 10),), (P("r", 1, 8),)
    nr, nrq = (P("n", 0, 3), P("r", 1, 8)), (P("n", 0, 3), P("r", -3, 6))
    return [
        # log of the quartic kernel
        case("S3.M6BI7TA", "eq. (m6bi7ta)", TAN_HALFPI, r_any, lambda r: _log_quartic(L(2 * r)),
             lambda r: PI * math.log(parity(r).A(r) + 2.0)),
        # log of (alpha^{2r}+t^2)^2 over the quartic kernel
        case("S3.K2XKUE3", "eq. (k2xkue3)", TAN_HALFPI, r_any, _k2, _k2_rhs, note=K2_NOTE),
        # tan^2 over the quartic kernel
        tan2 := case("S3.TAN2", "cor. after eq. (m6bi7ta)", TAN_HALFPI, r_any, lambda r: _tan2(L(2 * r)), _tan2_rhs),
        # reciprocal of the quartic kernel
        recip := case("S3.RECIP", "cor. after eq. (t2k7wzu)", TAN_HALFPI, r_any, lambda r: _recip(L(2 * r)),
                      _recip_rhs),
        # n-fold derivative family at generic positive q
        case("S3.ROKBVU0", "eq. (rokbvu0)", TAN_HALFPI, (P("n", 0, 4), P("k", 1, len(ROK_Q))), _rok, _rok_rhs),
        # the same family at q = L_r/(F_r sqrt5) and its reciprocal; at n = 1 the special cases below
        case("S3.LFPAIR.A", "theorem after eq. (rokbvu0), first member", TAN_HALFPI, nr, _pair(False), _pair_a_rhs,
             shares=lambda n, r: ("S3.SPECIAL1", {"r": r}) if n == 1 else None),
        case("S3.LFPAIR.B", "theorem after eq. (rokbvu0), second member", TAN_HALFPI, nr, _pair(True), _pair_b_rhs,
             shares=lambda n, r: ("S3.SPECIAL2", {"r": r}) if n == 1 else None),
        # squared special cases of the pair, 1/(a + b t^2)^2: they bind its kernel at n = 1
        special1 := case("S3.SPECIAL1", "n=1 special case, first member", TAN_HALFPI, r8, lambda r: _pair(False)(1, r),
                         lambda r: PI / 4.0 / (F(2 * r) * SQRT5) * (1.0 / L(r) ** 2 - 1.0 / (4.0 * apow(2 * r)))),
        special2 := case("S3.SPECIAL2", "n=1 special case, second member", TAN_HALFPI, r8, lambda r: _pair(True)(1, r),
                         lambda r: PI / 4.0 / (F(2 * r) * SQRT5) * (1.0 / (5.0 * F(r) ** 2) - 1.0 / (4.0 * apow(2 * r)))),
        part(special1, "S3.SPECIAL1.PART", "special value pi*alpha/16", lambda: PI * ALPHA / 16.0, r=1),
        part(special2, "S3.SPECIAL2.PART", "special value (pi/400)(2+7/alpha^2)",
             lambda: PI / 400.0 * (2.0 + 7.0 / ALPHA**2), r=1),
        # combined golden-power instances with Lucas/Fibonacci numerators
        quartic_l := case("S3.QUARTIC.L", "quartic theorem, Lucas member", TAN_HALFPI, nrq, _quartic(L), _quartic_l_rhs),
        # at n = 0, r = 0 the Fibonacci member is 1/(1 + 3t^2 + t^4), RECIP's kernel at r = 1
        case("S3.QUARTIC.F", "quartic theorem, Fibonacci member", TAN_HALFPI, nrq, _quartic(F), _quartic_f_rhs,
             shares=lambda n, r: ("S3.RECIP", {"r": 1}) if (n, r) == (0, 0) else None),
        part(quartic_l, "S3.QUARTIC.PART1", "special value -pi*beta^3/2", lambda: -PI * BETA**3 / 2.0, n=0, r=-1),
        part(recip, "S3.QUARTIC.PART2", "special value pi*beta^2/sqrt5", lambda: PI * BETA**2 / SQRT5, r=1),
        part(tan2, "S3.QUARTIC.PART3", "special value -pi*beta^3/(2 sqrt5)",
             lambda: -PI * BETA**3 / (2.0 * SQRT5), r=1),
    ]
