import math
import random
from fractions import Fraction

import pytest

from fibint import specfun
from fibint.exact_seq import fib, golden_powers, lucas
from fibint.quad import Integrand, integrate_finite
from fibint.specfun import (
    ALPHA,
    BETA,
    LN_ALPHA,
    cl2,
    constants,
    li2_real,
)

PI = math.pi


def _li2_series_oracle(x, terms=5000):
    return sum(x**k / (k * k) for k in range(1, terms + 1))


def test_li2_special_points():
    assert li2_real(0.0) == 0.0
    assert li2_real(1.0) == pytest.approx(PI * PI / 6.0, abs=1e-15)
    assert li2_real(-1.0) == pytest.approx(-PI * PI / 12.0, abs=1e-14)


def test_li2_closed_values():
    b = BETA
    assert li2_real(0.5) == pytest.approx(PI * PI / 12.0 - 0.5 * math.log(2.0) ** 2, abs=1e-12)
    assert li2_real(b * b) == pytest.approx(PI * PI / 15.0 - LN_ALPHA**2, abs=1e-12)
    assert li2_real(-b) == pytest.approx(PI * PI / 10.0 - LN_ALPHA**2, abs=1e-12)
    assert li2_real(b) == pytest.approx(-PI * PI / 15.0 + 0.5 * LN_ALPHA**2, abs=1e-12)


def test_li2_matches_brute_force_series():
    x = -0.95
    while x <= 0.95:
        assert li2_real(x) == pytest.approx(_li2_series_oracle(x), abs=1e-12)
        x += 0.05


def test_li2_matches_defining_integral():
    # Li2(x) = -int_0^x ln(1-t)/t dt, an oracle independent of the series path
    for x in (-30.0, -2.0, -0.7, 0.3, 0.9):
        def f(u, _x=x):
            return -math.log1p(-_x * u) / u

        res = integrate_finite(Integrand(f), 0.0, 1.0, 1e-12)
        assert res.converged
        assert li2_real(x) == pytest.approx(res.value, abs=5e-12)


def test_li2_domain():
    with pytest.raises(ValueError):
        li2_real(1.0 + 1e-9)
    with pytest.raises(ValueError):
        li2_real(math.nan)


def test_li2_duplication_fixed_points():
    for x in (0.1, 0.3, BETA * BETA, -BETA):
        assert 0.5 * li2_real(x * x) - li2_real(x) - li2_real(-x) == pytest.approx(0.0, abs=1e-12)


def test_li2_duplication_property():
    # 120 seeded points and both ends of [-0.99, 0.99]
    rng = random.Random(0)
    for x in [-0.99, 0.99] + [rng.uniform(-0.99, 0.99) for _ in range(120)]:
        assert 0.5 * li2_real(x * x) - li2_real(x) - li2_real(-x) == pytest.approx(0.0, abs=1e-12), x


def _bernoulli(n):
    """B_0 .. B_n (B_1 = -1/2) from the defining recurrence, in exact arithmetic."""
    bern = [Fraction(1)]
    for m in range(1, n + 1):
        bern.append(-sum(math.comb(m + 1, k) * bern[k] for k in range(m)) / (m + 1))
    return bern


def test_li2_table_is_the_exact_rationals_rounded_once():
    bern = _bernoulli(20)
    exact = [bern[2 * k] / math.factorial(2 * k + 1) for k in range(1, 11)]
    assert list(map(float.hex, specfun._LI2_B)) == [float(c).hex() for c in exact]


def test_cl2_tables_are_the_exact_rationals_rounded_once():
    bern = _bernoulli(40)
    about0 = [(-1) ** (n + 1) * bern[2 * n] / (2 * math.factorial(2 * n) * n * (2 * n + 1)) for n in range(1, 21)]
    about_pi = [(4**m - 1) * c for m, c in enumerate(about0, 1)]
    assert list(map(float.hex, specfun._CL2_C0)) == [float(c).hex() for c in about0]
    assert list(map(float.hex, specfun._CL2_CP)) == [float(c).hex() for c in about_pi]


def test_cl2_zeros_and_catalan():
    assert cl2(0.0) == 0.0
    assert cl2(PI) == pytest.approx(0.0, abs=1e-15)
    assert cl2(2.0 * PI) == pytest.approx(0.0, abs=1e-12)
    assert cl2(PI / 2.0) == pytest.approx(constants().catalan, abs=1e-13)
    assert cl2(3.0 * PI / 2.0) == pytest.approx(-constants().catalan, abs=1e-13)


def test_cl2_oddness():
    for t in (0.3, 1.1, 2.9):
        assert cl2(t) + cl2(2.0 * PI - t) == pytest.approx(0.0, abs=1e-12)
    for k in range(1, 100):
        t = PI * k / 100.0
        assert cl2(t) + cl2(-t) == pytest.approx(0.0, abs=1e-12)


def test_cl2_duplication_grid():
    for k in range(1, 100):
        t = PI * k / 100.0
        assert 0.5 * cl2(2.0 * t) - cl2(t) + cl2(PI - t) == pytest.approx(0.0, abs=1e-12)


def test_cl2_matches_defining_integral():
    # Cl2(t) = -int_0^t ln|2 sin(u/2)| du
    for t in (0.4, PI / 2.0, 2.2, 3.0):
        res = integrate_finite(Integrand(lambda u: -math.log(2.0 * math.sin(0.5 * u))), 0.0, t, 1e-12)
        assert res.converged
        assert cl2(t) == pytest.approx(res.value, abs=1e-11)


def test_cl2_periodicity():
    # 100 seeded points and both ends of [-20, 20]
    rng = random.Random(0)
    for t in [-20.0, 20.0] + [rng.uniform(-20.0, 20.0) for _ in range(100)]:
        assert cl2(t + 2.0 * PI) == pytest.approx(cl2(t), abs=1e-11), t


def test_arctan_beta_power_relations():
    for s in (2, 4, 6, 8):
        b = golden_powers(s).beta_pow
        assert math.atan(b) == pytest.approx(0.5 * math.atan(2.0 / (fib(s) * math.sqrt(5.0))), abs=1e-14)
    for s in (1, 3, 5, 7):
        b = golden_powers(s).beta_pow
        assert math.atan(-b) == pytest.approx(0.5 * math.atan(2.0 / lucas(s)), abs=1e-14)


def test_half_angle_triple_parity_split():
    # cos z = F_r sqrt5/L_r and sin z = 2 i^r/L_r, handled as a real check per parity
    sqrt5 = math.sqrt(5.0)
    for r in range(1, 9):
        b = golden_powers(r).beta_pow
        lr = lucas(r)
        fr = fib(r)
        if r % 2 == 0:
            z = 2.0 * math.atan(b)
            assert math.cos(z) == pytest.approx(fr * sqrt5 / lr, abs=1e-12)
            assert abs(math.sin(z)) == pytest.approx(2.0 / lr, abs=1e-12)
        else:
            # algebraic forms with q^2 = i^{2r} = -1
            b2 = golden_powers(2 * r).beta_pow
            assert (1.0 + b2) / (1.0 - b2) == pytest.approx(fr * sqrt5 / lr, abs=1e-12)
            assert 2.0 * b / (b2 - 1.0) == pytest.approx(2.0 / lr, abs=1e-12)


def test_constants_record():
    c = constants()
    assert c.alpha == pytest.approx(1.6180339887498949, abs=1e-15)
    assert c.beta == pytest.approx(-0.6180339887498949, abs=1e-15)
    assert c.ln_alpha == pytest.approx(0.48121182505960347, abs=1e-15)
    assert c.sqrt5 == math.sqrt(5.0)
    # oracle: accelerated alternating series against the direct partial sum bound
    direct = sum((-1.0) ** j / (2 * j + 1) ** 2 for j in range(200000))
    assert c.catalan == pytest.approx(direct, abs=1e-10)
    assert c.alpha == ALPHA
