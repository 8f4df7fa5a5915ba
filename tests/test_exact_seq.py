import math

import pytest

from fibint.exact_seq import MAX_GOLDEN_POWER, MAX_INDEX, SQRT5, fib, golden_powers, lucas


def _fib_naive(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _lucas_naive(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_initial_values():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(10) == 55
    assert lucas(0) == 2
    assert lucas(1) == 1


def test_negative_index_rules():
    assert fib(-4) == -3
    assert lucas(-4) == 7
    assert lucas(-3) == -4
    for n in range(1, 30):
        assert fib(-n) == (-1) ** (n - 1) * fib(n)
        assert lucas(-n) == (-1) ** n * lucas(n)


def test_matches_recurrence_oracle():
    for n in range(0, 90):
        assert fib(n) == _fib_naive(n)
        assert lucas(n) == _lucas_naive(n)


def test_recurrence_holds_at_large_index():
    n = 2500
    assert fib(n) == fib(n - 1) + fib(n - 2)
    assert lucas(n) == lucas(n - 1) + lucas(n - 2)


def test_index_range_checked():
    fib(MAX_INDEX)
    with pytest.raises(ValueError):
        fib(MAX_INDEX + 1)
    with pytest.raises(ValueError):
        lucas(-MAX_INDEX - 1)
    # validation still runs once the integer index is cached: 2.0 == 2 and
    # both hash alike, so a cache keyed by value alone could serve 2.0
    fib(2), lucas(2), golden_powers(2)
    for fn in (fib, lucas, golden_powers):
        with pytest.raises(TypeError):
            fn(2.0)
    with pytest.raises(ValueError):
        golden_powers(MAX_GOLDEN_POWER + 1)


def test_decimal_string_round_trip():
    v = fib(1000)
    assert int(str(v)) == v


def test_float_conversion():
    # exact below 2^53, correctly rounded above
    assert float(fib(78)) == fib(78)  # F_78 < 2^53
    big = fib(200)
    assert abs(float(big) - big) <= big * 2.0**-53


def test_fundamental_identity_exact():
    for n in range(-50, 51):
        assert lucas(n) ** 2 - 5 * fib(n) ** 2 == 4 * (-1) ** n


def test_catalan_identity_exact():
    for r in range(2, 31):
        assert fib(r - 1) ** 2 - fib(r) * fib(r - 2) == (-1) ** r


def test_doubling_shift_identities_exact():
    # F_{2r}-1, F_{2r+1}-1 and L_{2r+1}-1 factor into neighbour products
    for r in range(1, 21):
        if r % 2 == 1:
            assert fib(2 * r) - 1 == fib(r - 1) * lucas(r + 1)
            assert fib(2 * r + 1) - 1 == lucas(r) * fib(r + 1)
            assert lucas(2 * r + 1) - 1 == lucas(r) * lucas(r + 1)
        else:
            assert fib(2 * r) - 1 == lucas(r - 1) * fib(r + 1)
            assert fib(2 * r + 1) - 1 == fib(r) * lucas(r + 1)
            assert lucas(2 * r + 1) - 1 == 5 * fib(r) * fib(r + 1)


def test_golden_powers_basic():
    gp = golden_powers(0)
    assert gp.alpha_pow == 1.0 and gp.beta_pow == 1.0
    gp1 = golden_powers(1)
    assert gp1.alpha_pow == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-15)
    assert gp1.beta_pow == pytest.approx((1 - math.sqrt(5)) / 2, rel=1e-15)
    gp2 = golden_powers(2)
    assert gp2.alpha_pow * gp2.beta_pow == pytest.approx(1.0, rel=1e-12)


def test_golden_powers_invariants():
    for r in range(-MAX_GOLDEN_POWER, MAX_GOLDEN_POWER + 1):
        gp = golden_powers(r)
        assert gp.alpha_pow * gp.beta_pow == pytest.approx((-1.0) ** r, rel=1e-12)
        # the dominant root is checked against its cancellation-free half-sum
        # form; the small root then follows from the product identity
        if r >= 0:
            assert gp.alpha_pow == pytest.approx((lucas(r) + fib(r) * SQRT5) / 2, rel=1e-12)
        else:
            assert gp.beta_pow == pytest.approx((lucas(r) - fib(r) * SQRT5) / 2, rel=1e-12)
        # cross-check both roots against exponentials of r ln(alpha)
        assert gp.alpha_pow == pytest.approx(math.exp(r * math.log((1 + SQRT5) / 2)), rel=1e-12)
        assert abs(gp.beta_pow) == pytest.approx(math.exp(-r * math.log((1 + SQRT5) / 2)), rel=1e-12)
    with pytest.raises(ValueError):
        golden_powers(MAX_GOLDEN_POWER + 1)


def test_one_minus_beta_power_parity_split():
    # 1 -+ beta^{2r} collapses to beta^r F_r sqrt5 / -beta^r L_r by parity
    for r in range(1, 21):
        b = golden_powers(r).beta_pow
        b2 = golden_powers(2 * r).beta_pow
        if r % 2 == 0:
            assert b * fib(r) * SQRT5 - (1.0 - b2) == pytest.approx(0.0, abs=1e-10)
            assert b * lucas(r) - (1.0 + b2) == pytest.approx(0.0, abs=1e-10)
        else:
            assert -b * lucas(r) - (1.0 - b2) == pytest.approx(0.0, abs=1e-10)
            assert -b * fib(r) * SQRT5 - (1.0 + b2) == pytest.approx(0.0, abs=1e-10)


def test_cassini_and_lucas_bridge():
    for n in range(-200, 201):
        assert fib(n + 1) * fib(n - 1) - fib(n) ** 2 == (-1) ** n
        assert lucas(n) == fib(n - 1) + fib(n + 1)
