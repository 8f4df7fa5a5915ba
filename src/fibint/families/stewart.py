"""Polynomial-kernel representations and their log-weighted complements.

Covers the (L_k + F_k x sqrt5)^(n-1) family on (-1, 1), the
(1 + sqrt5/3 cos x)^(n-1) sin x family on (0, pi), and the complements
obtained by differentiating their interpolated forms: an extra linear
factor, an extra x factor, and an extra logarithm respectively.
"""

from __future__ import annotations

from ._helpers import FINITE, FULL, LN_ALPHA, SQRT5, F, L, P, bpow, case, math

LN_2_3 = math.log(2.0 / 3.0)
PM1 = FINITE(-1.0, 1.0)


def _stewart(k, n):
    lk, fk = L(k), F(k)
    e = n - 1
    return lambda x: (lk + fk * x * SQRT5) ** e


def _bju(k, n):
    lk, fk = L(k), F(k)
    e = n - 2
    return lambda x: (lk + fk * x * SQRT5) ** e * (fk * SQRT5 + lk * x)


def _bju_rhs(k, n):
    fk = F(k)
    return 2.0**n / ((n - 1) * SQRT5) * (L(k * n) / fk - F(k * n) * L(k) / (n * fk * fk))


def _xsn_rhs(k, n):
    return 2.0**n / ((n - 1) * F(k) * SQRT5) * (-bpow((n - 1) * k) + F(n * k) / (n * F(k)))


def _xsn(k, n):
    lk, fk = L(k), F(k)
    e = n - 2
    return lambda x: (lk + fk * x * SQRT5) ** e * (1.0 - x)


def _compl2(k, n):
    lk, fk = L(k), F(k)
    e = n - 2
    return lambda x: (lk + fk * x * SQRT5) ** e * x


def _compl2_rhs(k, n):
    return 2.0**n / ((n - 1) * SQRT5 * F(k)) * (L((n - 1) * k) / 2.0 - F(n * k) / (n * F(k)))


def _dilcher(n):
    e = n - 1
    c = SQRT5 / 3.0
    return lambda x: (1.0 + c * math.cos(x)) ** e * math.sin(x)


def _djf(n):
    e = n - 1
    c = SQRT5 / 3.0

    def f(x):
        base = 1.0 + c * math.cos(x)
        return base**e * math.log(base) * math.sin(x)

    return f


def _djf_rhs(n):
    w = (2.0 / 3.0) ** n
    return 6.0 / (n * SQRT5) * w * L(2 * n) * LN_ALPHA + (-1.0 / n + LN_2_3) * w * 3.0 / n * F(2 * n)


def _k_free(case_id, n0):
    """shares of a row whose kernel has (L_k + F_k x sqrt5)^0 at n = n0, so that there its integrand does
    not depend on k: each k names k = 1."""
    return lambda k, n: (case_id, {"k": 1, "n": n}) if n == n0 and k > 1 else None


def cases():
    kn, kn2, n18 = (P("k", 1, 5), P("n", 1, 8)), (P("k", 1, 5), P("n", 2, 8)), (P("n", 1, 8),)
    return [
        # F_{kn}/F_k = (n/2^n) * integral of (L_k + F_k x sqrt5)^(n-1)
        case("S1.STEWART", "eq. (1)", PM1, kn, _stewart, lambda k, n: (2.0 ** n / n) * F(k * n) / F(k),
             shares=_k_free("S1.STEWART", 1)),
        # F_{2n} = (n/2)(3/2)^(n-1) * integral of (1 + sqrt5/3 cos x)^(n-1) sin x
        case("S1.DILCHER", "eq. (3)", FULL, n18, _dilcher, lambda n: F(2 * n) * (2.0 / n) * (2.0 / 3.0) ** (n - 1)),
        # complement with the linear factor (F_k sqrt5 + L_k x)
        case("S2.BJU5530", "eq. (bju5530)", PM1, kn2, _bju, _bju_rhs),
        # complement with the factor (1 - x)
        case("S2.XSN0TMC", "eq. (xsn0tmc)", PM1, kn2, _xsn, _xsn_rhs, shares=_k_free("S2.XSN0TMC", 2)),
        # complement with the bare x factor
        case("S2.COMPL2", "eq. (stewart_compl2)", PM1, kn2, _compl2, _compl2_rhs, shares=_k_free("S2.COMPL2", 2)),
        # log-weighted complement of the cosine-kernel representation
        case("S2.DJFHEP4", "eq. (djfhep4)", FULL, n18, _djf, _djf_rhs),
    ]
