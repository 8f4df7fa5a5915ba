"""The paper's fundamental lemma: derivatives of the complex Fibonacci and Lucas functions.

The real-argument interpolations

    f(x) = (alpha^x - beta^x) / sqrt(5),    l(x) = alpha^x + beta^x

need a branch choice because beta < 0.  The principal branch writes
beta^x = (-beta)^x * exp(i*pi*x), which reduces to F_j, L_j at integer
arguments.  The first derivatives then split into a real part
proportional to ln(alpha) and an imaginary part proportional to pi * beta^x:

    f'(x) = ( l(x) ln(alpha) - i pi b(x) ) / sqrt(5)
    l'(x) = sqrt(5) f(x) ln(alpha) + i pi b(x)

with b(x) the principal-branch beta^x.  At integer j this gives
Re f'(j) = L_j ln(alpha)/sqrt(5), Im f'(j) = -pi beta^j / sqrt(5), and the
analogous Lucas forms.  These tests check the closed forms against exact
sequence values and against central differences; no command runs them,
so the functions live here.  `deriv_residual` also serves the acceptance
suite's criterion 7.
"""

import cmath
import math

import pytest

from fibint.exact_seq import LN_ALPHA, SQRT5, fib, golden_powers, lucas


def _powers(x: float) -> tuple[float, complex]:
    """(alpha^x, beta^x), beta^x on the principal branch: (-beta)^x = exp(-x ln alpha) since -beta = 1/alpha."""
    return math.exp(x * LN_ALPHA), cmath.rect(math.exp(-x * LN_ALPHA), math.pi * x)


def _f(x: float) -> complex:
    """f(x) = (alpha^x - beta^x)/sqrt(5); f(j) = F_j."""
    a, b = _powers(x)
    return (a - b) / SQRT5


def _l(x: float) -> complex:
    """l(x) = alpha^x + beta^x; l(j) = L_j."""
    a, b = _powers(x)
    return a + b


def _f_deriv(x: float) -> complex:
    """f'(x) = (l(x) ln(alpha) - i pi beta^x)/sqrt(5)."""
    a, b = _powers(x)
    return ((a + b) * LN_ALPHA - 1j * math.pi * b) / SQRT5


def _l_deriv(x: float) -> complex:
    """l'(x) = sqrt(5) f(x) ln(alpha) + i pi beta^x."""
    a, b = _powers(x)
    return SQRT5 * ((a - b) / SQRT5) * LN_ALPHA + 1j * math.pi * b


def _central_difference(fn, x: float, h: float) -> complex:
    """Second-order central difference (fn(x+h) - fn(x-h)) / (2h)."""
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def deriv_residual(x: float, h: float) -> tuple[float, float]:
    """|central difference - closed form| for (f', l') at x, in complex modulus."""
    rf = abs(_central_difference(_f, x, h) - _f_deriv(x))
    rl = abs(_central_difference(_l, x, h) - _l_deriv(x))
    return rf, rl


def test_integer_values():
    assert _f(7) == pytest.approx(13 + 0j, abs=1e-9)
    assert _f(0) == pytest.approx(0j, abs=1e-12)
    assert _l(4) == pytest.approx(7 + 0j, abs=1e-9)
    assert _l(0) == pytest.approx(2 + 0j, abs=1e-12)
    assert _l(-3) == pytest.approx(-4 + 0j, abs=1e-9)


def test_interpolates_sequences_on_range():
    for j in range(-20, 21):
        f = _f(j)
        l = _l(j)
        assert abs(f.real - fib(j)) < 1e-8 and abs(f.imag) < 1e-8
        assert abs(l.real - lucas(j)) < 1e-8 and abs(l.imag) < 1e-8


def test_half_integer_consistency():
    # l^2 - 5 f^2 = 4 (alpha beta)^x = 4 e^{i pi x} under the principal branch
    x = 0.5
    val = _l(x) ** 2 - 5.0 * _f(x) ** 2
    assert val == pytest.approx(4.0 * cmath.exp(1j * math.pi * x), abs=1e-10)


def test_derivative_closed_forms_at_integers():
    d0 = _f_deriv(0)
    assert d0.real == pytest.approx(2.0 * LN_ALPHA / SQRT5, abs=1e-12)
    assert d0.imag == pytest.approx(-math.pi / SQRT5, abs=1e-12)

    l0 = _l_deriv(0)
    assert l0.real == pytest.approx(0.0, abs=1e-12)
    assert l0.imag == pytest.approx(math.pi, abs=1e-12)

    b2 = golden_powers(2).beta_pow
    assert _f_deriv(2).imag == pytest.approx(-math.pi * b2 / SQRT5, abs=1e-12)

    l3 = _l_deriv(3)
    assert l3.real == pytest.approx(2.0 * SQRT5 * LN_ALPHA, abs=1e-12)
    assert l3.imag == pytest.approx(math.pi * golden_powers(3).beta_pow, abs=1e-12)

    for j in range(0, 11):
        df = _f_deriv(j)
        dl = _l_deriv(j)
        bj = golden_powers(j).beta_pow
        assert df.real == pytest.approx(lucas(j) * LN_ALPHA / SQRT5, rel=1e-12, abs=1e-12)
        assert df.imag == pytest.approx(-math.pi * bj / SQRT5, rel=1e-12, abs=1e-12)
        assert dl.real == pytest.approx(fib(j) * SQRT5 * LN_ALPHA, rel=1e-12, abs=1e-12)
        assert dl.imag == pytest.approx(math.pi * bj, rel=1e-12, abs=1e-12)


def test_finite_difference_oracle():
    # the lemma at j = 0..12: both residuals within 1e-6 at h = 1e-5
    for j in range(0, 13):
        for h in (1e-4, 1e-5, 1e-6):
            rf, rl = deriv_residual(float(j), h)
            assert rf <= 1e-6 or rf <= 10.0 * h * h * abs(_f(j))
            assert rf < 1e-4 and rl < 1e-4
        rf5, rl5 = deriv_residual(float(j), 1e-5)
        assert rf5 <= 1e-6 and rl5 <= 1e-6


def test_second_order_convergence():
    # halving h shrinks the central-difference residual about 4x until rounding
    for j in (0, 3, 7):
        r1, _ = deriv_residual(float(j), 1e-4)
        r2, _ = deriv_residual(float(j), 5e-5)
        assert r2 == pytest.approx(r1 / 4.0, rel=0.15)
    for j in range(0, 11):
        coarse, _ = deriv_residual(float(j), 1e-4)
        fine, _ = deriv_residual(float(j), 5e-5)
        if coarse > 1e-12:
            assert fine == pytest.approx(coarse / 4.0, rel=0.2)


def test_branch_continuity():
    # no jumps along the real axis at step 1e-3
    h = 1e-3
    x = -5.0
    prev = _f(x)
    while x < 5.0:
        x += h
        cur = _f(x)
        bound = 10.0 * h * abs(_f_deriv(x)) + 1e-9
        assert abs(cur - prev) <= bound
        prev = cur


def test_central_difference_helper():
    d = _central_difference(_f, 2.0, 1e-6)
    assert abs(d - _f_deriv(2.0)) < 1e-8
