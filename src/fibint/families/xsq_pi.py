"""x^2 kernels on (0, pi) with cos^2 x / sin^2 x denominators, closed
forms built from pi^3/3 + pi Li2(argument); includes the generic
derivative form with the x^2 cos^2 x numerator.
"""

from __future__ import annotations

from ._helpers import (
    BETA, EVEN, FULL, LN_ALPHA, MID, ODD, PI, PI3, SQRT5,
    F, L, P, bpow, case, li2, math, parity, part, pi3_li2, qgrid, trig_sq_kernel,
)


def _lsq(br, k):
    """x^2/(L_r^2 - 4 cos^2 x)^k for even r, x^2/(L_r^2 + 4 sin^2 x)^k for odd r."""
    return br.params, lambda r: trig_sq_kernel(L(r) ** 2, *br.lsq, k)


def _ae_rhs(r):
    return pi3_li2(bpow(2 * r)) / (F(2 * r) * SQRT5)


def _m86(r, e, lg):
    """Squared-kernel closed form at Li2(e), with lg the logarithm of its last term."""
    w = SQRT5 * L(2 * r) / F(2 * r) ** 3
    return PI3 * w / 75.0 + PI * w / 25.0 * li2(e) - PI / (5.0 * F(2 * r) ** 2) * lg


def _m86_rhs(r):
    arg = bpow(r) * F(r) * SQRT5 if r % 2 == 0 else -bpow(r) * L(r)
    return _m86(r, bpow(2 * r), math.log(arg))


def _wbn(r, k):
    """x^2/(L_r^2 - 4 (-1)^r cos^2 x)^k."""
    return trig_sq_kernel(L(r) ** 2, -4.0 * parity(r).sigma, math.cos, k)


def _wbn_rhs(r):
    return pi3_li2((-1.0) ** r * bpow(2 * r)) / (F(2 * r) * SQRT5)


def _wbnsq_rhs(r):
    e = (-1.0) ** r * bpow(2 * r)
    return _m86(r, e, math.log1p(-e))


def _ef4(r):
    a = L(r) ** 2
    s = 4.0 * (-1.0) ** r

    def f(x):
        c = math.cos(x)
        return x * x * c * c / (a - s * c * c) ** 2

    return f


def _ef4_rhs(r):
    sgn = (-1.0) ** r
    f2 = F(2 * r)
    pref = -PI / (10.0 * F(r) * f2 * bpow(r)) + PI * SQRT5 / 20.0 * sgn / f2
    tail = PI3 * SQRT5 / (150.0 * f2 * F(r) ** 2) + PI * SQRT5 / (50.0 * f2 * F(r) ** 2) * li2(sgn * bpow(2 * r))
    return pref * math.log1p(-sgn * bpow(2 * r)) + tail


# the |q| < 1 root of Q = 4q/(1+q)^2, as in the kernel's source identity
KR, QR = qgrid((-0.7, -0.5, 0.3, 0.6, BETA * BETA, -BETA))


def _rm(k):
    q = QR(k)
    c = 4.0 * q / (1.0 + q) ** 2

    def f(x):
        cc = math.cos(x) ** 2
        return x * x * cc / (1.0 - c * cc) ** 2

    return f


def _rm_rhs(k):
    q = QR(k)
    return -PI / 4.0 * (1.0 + q) ** 4 / (1.0 - q) ** 2 * math.log1p(-q) / q + 0.5 * (
        (1.0 + q) / (1.0 - q)
    ) ** 3 * pi3_li2(q)


def cases():
    r10 = (P("r", 1, 10),)
    return [
        # kernel L_r^2 - 4 cos^2 x (r even) / L_r^2 + 4 sin^2 x (r odd)
        case("S8.AEKFMPM.E", "eq. (aekfmpm), even branch", FULL, *_lsq(EVEN, 1), _ae_rhs),
        ae_odd := case("S8.AEKFMPM.O", "eq. (aekfmpm), odd branch", FULL, *_lsq(ODD, 1), _ae_rhs),
        part(ae_odd, "S8.AEKFMPM.PART", "special value at kernel 1 + 4 sin^2 x",
             lambda: 2.0 * PI3 / (5.0 * SQRT5) - PI * LN_ALPHA**2 / SQRT5, r=1),
        # squared kernels
        case("S8.M86SKX9.E", "cor. (m86skx9), even branch", FULL, *_lsq(EVEN, 2), _m86_rhs),
        m86_odd := case("S8.M86SKX9.O", "cor. (m86skx9), odd branch", FULL, *_lsq(ODD, 2), _m86_rhs),
        part(m86_odd, "S8.M86SKX9.PART", "special value at squared kernel 1 + 4 sin^2 x",
             lambda: 6.0 * PI3 * SQRT5 / 125.0 - 3.0 * PI * SQRT5 / 25.0 * LN_ALPHA**2 + PI / 5.0 * LN_ALPHA, r=1),
        # sign-resolved kernel L_r^2 - 4(-1)^r cos^2 x
        case("S8.WBNQDEF", "eq. (wbnqdef)", FULL, r10, lambda r: _wbn(r, 1), _wbn_rhs, splits=MID),
        case("S8.WBNQ.SQ", "squared cor. of eq. (wbnqdef)", FULL, r10, lambda r: _wbn(r, 2), _wbnsq_rhs, splits=MID),
        # x^2 cos^2 x numerator over the squared sign-resolved kernel
        case("S8.EF4NKHY", "eq. (ef4nkhy)", FULL, (P("r", 1, 8),), _ef4, _ef4_rhs, splits=MID),
        # generic q-derivative remark form
        case("S8.REMARK", "remark after eq. (ef4nkhy)", FULL, KR, _rm, _rm_rhs, splits=MID),
    ]
