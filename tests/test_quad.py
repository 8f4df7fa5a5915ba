import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibint import quad, registry, verifier
from fibint.quad import (
    Integrand,
    QuadResult,
    integrate_finite,
    integrate_half_line,
    integrate_tan_halfpi,
)
from fibint.specfun import ALPHA, BETA, LN_ALPHA, li2_real

PI = math.pi
SQRT5 = math.sqrt(5.0)

# (integrand, a, b, exact value) with hand-checked antiderivatives
FINITE_BATTERY = [
    (lambda x: x * math.sin(x), 0.0, PI, PI),
    (lambda x: 1.0 + SQRT5 * x, -1.0, 1.0, 2.0),
    (lambda x: x**7 - 3 * x**2, 0.0, 2.0, 2.0**8 / 8 - 8.0),
    (lambda x: math.exp(-x), 0.0, 5.0, 1.0 - math.exp(-5.0)),
    (lambda x: math.log(x), 0.0, 1.0, -1.0),
    (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 2.0),
    (lambda x: math.sqrt(1.0 - x * x), -1.0, 1.0, PI / 2.0),
    (lambda x: 1.0 / (1.0 + x * x), -3.0, 5.0, math.atan(5.0) + math.atan(3.0)),
    (lambda x: math.cos(x) ** 2, 0.0, 2.0 * PI, PI),
    (lambda x: x * math.exp(-x * x), 0.0, 3.0, 0.5 * (1.0 - math.exp(-9.0))),
    (lambda x: math.sin(x) / (2.0 + math.cos(x)), 0.0, PI, math.log(3.0)),
    (lambda x: math.log(x) ** 2, 0.0, 1.0, 2.0),
    (lambda x: x * math.log(x), 0.0, 1.0, -0.25),
    (lambda x: 1.0 / (1.0 + math.exp(x)), 0.0, 1.0, 1.0 - math.log(0.5 * (1.0 + math.e))),
    (lambda x: math.cosh(x), -1.0, 2.0, math.sinh(2.0) + math.sinh(1.0)),
    (lambda x: 1.0 / x, 1.0, math.e, 1.0),
    (lambda x: math.tan(x), 0.0, 1.0, -math.log(math.cos(1.0))),
    (lambda x: 1.0 / (math.sqrt(x) * (1.0 + x)), 0.0, 1.0, PI / 2.0),
    (lambda x: math.sin(10.0 * x), 0.0, PI, (1.0 - math.cos(10.0 * PI)) / 10.0),
    (lambda x: abs(math.sin(3.0 * x)), 0.0, PI, 2.0),
]


def test_battery_values_and_error_honesty():
    # converged values land within tol always; the estimate bounds the truth
    # within a factor of 10 in at least 95% of cases
    honest = 0
    for i, (f, a, b, exact) in enumerate(FINITE_BATTERY):
        splits = (PI / 3.0, 2.0 * PI / 3.0) if i == len(FINITE_BATTERY) - 1 else ()
        res = integrate_finite(Integrand(f, splits), a, b, 1e-10)
        err = abs(res.value - exact)
        assert res.converged, f"integrand {i} did not converge"
        assert err <= 1e-10, f"integrand {i}: err {err}"
        assert res.err_est <= 1e-10
        if err <= 10.0 * res.err_est:
            honest += 1
    assert honest >= 0.95 * len(FINITE_BATTERY)


# (integrate(tol), exact value) over every map the driver serves
HONESTY_CASES = [
    pytest.param(
        lambda tol: integrate_finite(lambda x: x**3 * math.cos(x), 0.0, 2.0, tol),
        6.0 * math.cos(2.0) - 4.0 * math.sin(2.0) + 6.0,
        id="poly_trig",
    ),
    pytest.param(lambda tol: integrate_finite(math.log, 0.0, 1.0, tol), -1.0, id="log_endpoint"),
    pytest.param(
        lambda tol: integrate_finite(lambda x: x**-0.5, 0.0, 1.0, tol),
        2.0,
        id="inv_sqrt_endpoint",
        marks=pytest.mark.xfail(
            strict=True,
            reason="no node lies below x ~ 5e-29 (_DELTA_MIN): the ~1.4e-14 of the integral "
            "there is never sampled, and err_est, floored at rounding, does not include it",
        ),
    ),
    pytest.param(
        lambda tol: integrate_finite(lambda x: (x - 1.0) ** -0.5, 1.0, 2.0, tol),
        2.0,
        id="inv_sqrt_shifted_endpoint",
        marks=pytest.mark.xfail(
            strict=True,
            reason="nodes whose abscissa 1 + c*delta rounds onto the endpoint are dropped, so nothing below "
            "x - 1 ~ 1e-16 is sampled: the ~2.2e-8 left out there exceeds err_est at 1e-6 and 1e-9, and at "
            "1e-12 the rule does not converge",
        ),
    ),
    pytest.param(
        lambda tol: integrate_half_line(lambda x: 1.0 / (1.0 + x * x), tol), PI / 2.0, id="half_line_rational"
    ),
    pytest.param(
        lambda tol: integrate_half_line(lambda x: math.exp(-x) if x < 745.0 else 0.0, tol), 1.0, id="half_line_exp"
    ),
    pytest.param(
        lambda tol: integrate_tan_halfpi(lambda t: 1.0 / (1.0 + 5.0 * t * t) ** 2, tol),
        PI * ALPHA / 16.0,
        id="tan_rational",
    ),
]


@pytest.mark.parametrize("run, exact", HONESTY_CASES)
@pytest.mark.parametrize("tol", (1e-6, 1e-9, 1e-12))
def test_error_estimate_bounds_true_error(run, exact, tol):
    # the stop trusts a predicted error one level early; it must not claim
    # more accuracy than it reached
    res = run(tol)
    assert res.converged
    assert abs(res.value - exact) <= res.err_est + 4.0 * math.ulp(exact)


def test_converged_implies_estimate_below_tol():
    for tol in (1e-6, 1e-9, 1e-12):
        res = integrate_finite(lambda x: math.exp(x) * math.sin(3 * x), 0.0, 2.0, tol)
        assert res.converged and res.err_est <= tol


def test_open_rule_never_touches_endpoints():
    cases = [
        (0.0, 1.0, lambda x: math.log(x) * math.log(1.0 - x), 1e-10, 2.0 - PI * PI / 6.0, 1e-10),
        # abscissae near 1e12 are 1.2e-4 apart: body nodes round onto the
        # endpoints, so every node is walked per side, and accuracy is limited
        (1e12, 1e12 + 1.0, lambda x: math.sqrt((x - 1e12) * (1e12 + 1.0 - x)), 1e-6, PI / 8.0, 1e-5),
    ]
    for a, b, f, tol, exact, accuracy in cases:
        seen = []

        def probe(x, f=f):
            seen.append(x)
            return f(x)

        res = integrate_finite(Integrand(probe), a, b, tol)
        assert res.converged
        assert all(a < x < b for x in seen)
        assert res.value == pytest.approx(exact, abs=accuracy)


def test_bisection_stops_at_the_float_grid():
    # floats near 1e12 are 1.2e-4 apart, so the rounded abscissae keep the
    # one tanh-sinh pass over (a, b) from converging, and nothing bisects it
    # (bisecting to depth 12 once made 4.6M calls).  The DE table of (a, b)
    # is unpaired, so the Fejer pass is skipped: its rounded nodes could
    # agree with each other and be accepted
    res = integrate_finite(lambda x: 1.0 + (x - 1e12), 1e12, 1e12 + 1.0, 1e-4)
    assert not res.converged
    assert res.evals <= 30000
    assert res.rule == "tanh-sinh"


# (value.hex(), err_est.hex()) of the bump, as tanh-sinh alone gives them
BUMP_BITS = {
    1e-13: ("0x1.30807bd629aadp-26", "0x1.66529bea3e48ap-65"),
    1e-10: ("0x1.30807bd1d60edp-26", "0x1.67c4c4a436391p-36"),
}


@pytest.mark.parametrize("tol", sorted(BUMP_BITS))
def test_narrow_bump_in_the_tail_is_not_cut(tol):
    # the bump sits at delta ~ 6e-8, below the tail split; the tail nodes
    # between it and the body return exactly 0.0, which must not cut off
    # the bump once earlier levels have sampled it.  Every Fejer node
    # misses it, so the first two rules agree exactly (both 0.0) and the
    # pass declines after 7 calls
    def bump(x):
        return math.exp(-(((x - 3e-8) / 1e-8) ** 2))

    exact = 0.5e-8 * math.sqrt(PI) * (1.0 + math.erf(3.0))
    res = integrate_finite(bump, 0.0, 1.0, tol)
    assert res.converged
    assert abs(res.value - exact) <= res.err_est
    assert (res.value.hex(), res.err_est.hex()) == BUMP_BITS[tol]
    assert res.rule == "tanh-sinh"


# T_m is aliased onto a lower T_j at the nodes of the first rules.  T_32 is
# T_0 on n = 4, 8 and 16, so those rules agree exactly and the pass
# declines.  T_38 is T_6 on n = 8 and 16, T_58 and T_70 on n = 8, 16 and
# 32, each after a first rule that differs, so the difference of two rules
# falls to rounding and only the off-grid sample shows that the nodes miss
# part of the polynomial
ALIASED = {32: "tanh-sinh", 38: "fejer", 58: "fejer", 70: "fejer"}


@pytest.mark.parametrize("tol", (1e-6, 1e-9, 1e-13))
@pytest.mark.parametrize("m", sorted(ALIASED))
def test_chebyshev_polynomial_aliased_on_fejer_nodes(m, tol):
    res = integrate_finite(lambda x: math.cos(m * math.acos(x)), -1.0, 1.0, tol)
    assert res.converged
    assert abs(res.value - (-2.0 / (m * m - 1))) <= res.err_est
    assert res.rule == ALIASED[m]


@pytest.mark.parametrize("m", (58, 70))
def test_aliased_polynomial_under_a_converging_part(m):
    # T_m adds the same T_6 to the rules n = 8, 16 and 32, so the
    # differences are those of 1/(2 - x), which is still converging there:
    # d1 falls within tol at n = 32 and only the off-grid sample sees T_m
    res = integrate_finite(lambda x: 1.0 / (2.0 - x) + math.cos(m * math.acos(x)), -1.0, 1.0, 1e-9)
    assert res.converged
    assert abs(res.value - (math.log(3.0) - 2.0 / (m * m - 1))) <= res.err_est


_SIN3CUBE_UNDERSTATED = pytest.mark.xfail(
    strict=True,
    reason="the pass accepts r = 6 at n = 32, where d1 = 7.3e-12 follows 3.5e-10 and precedes 4.4e-11, "
    "so err_est 7.3e-12 understates the true 4.2e-11; `fibint verify --filter S6.SIN3CUBE --tol 3e-11` fails",
)


@pytest.mark.parametrize(
    "r, quad_tol",
    [
        pytest.param(5, None, id="5"),
        pytest.param(6, None, id="6"),
        pytest.param(5, 7.5e-12, id="5-7.5e-12"),
        pytest.param(6, 7.5e-12, id="6-7.5e-12", marks=_SIN3CUBE_UNDERSTATED),
        pytest.param(5, 1e-11, id="5-1e-11"),
        pytest.param(6, 1e-11, id="6-1e-11", marks=_SIN3CUBE_UNDERSTATED),
    ],
)
def test_fejer_err_est_bounds_the_catalog_error(r, quad_tol):
    # the Fejer differences of S6.SIN3CUBE do not fall monotonically (r = 6:
    # 3.5e-10 at n = 16, 7.3e-12 at n = 32, 4.4e-11 at n = 64), so a rule
    # accepted on a small difference could understate its error: at n = 32
    # it claims 7.3e-12 against a true 4.2e-11.  None is the catalog tolerance
    inst = registry.instantiate("S6.SIN3CUBE", {"r": r})
    tol = quad_tol or verifier._quad_tol(verifier.pass_threshold(inst.tol, inst.rhs))
    res = integrate_finite(inst.integrand, inst.strategy.a, inst.strategy.b, tol)
    assert res.converged and res.rule == "fejer"
    assert res.err_est >= abs(res.value - inst.rhs)


def test_linearity():
    base = integrate_finite(lambda x: math.exp(-x) * math.sin(x), 0.0, 4.0, 1e-12).value
    for c in (2.0, -3.0, 0.5):
        scaled = integrate_finite(lambda x, _c=c: _c * math.exp(-x) * math.sin(x), 0.0, 4.0, 1e-12).value
        assert scaled == pytest.approx(c * base, rel=1e-12)


def test_interval_additivity():
    f = lambda x: x * math.sin(x)
    whole = integrate_finite(f, 0.0, PI, 1e-11)
    left = integrate_finite(f, 0.0, 1.0, 1e-11)
    right = integrate_finite(f, 1.0, PI, 1e-11)
    assert abs(whole.value - (left.value + right.value)) <= (
        whole.err_est + left.err_est + right.err_est + 1e-13
    )


def test_singular_point_presplit():
    res = integrate_finite(Integrand(lambda x: abs(x - 0.5), (0.5,)), 0.0, 1.0, 1e-12)
    assert res.converged
    assert res.value == pytest.approx(0.25, abs=1e-12)
    # a point declared twice splits the interval once, and is never evaluated
    seen = []

    def probe(x):
        seen.append(x)
        return 1.0 / math.sqrt(abs(x - 0.5))

    once = integrate_finite(Integrand(probe, (0.5,)), 0.0, 1.0, 1e-8)
    twice = integrate_finite(Integrand(probe, (0.5, 0.5)), 0.0, 1.0, 1e-8)
    assert twice == once
    assert 0.5 not in seen


def test_undeclared_interior_kink_reports_nonconvergence():
    # nothing bisects the panel, so the one tanh-sinh pass ends at MAX_LEVEL
    # without claiming the tolerance, and its err_est still covers its error
    res = integrate_finite(lambda x: abs(x - 1.0 / PI), 0.0, 1.0, 1e-13)
    assert not res.converged
    assert abs(res.value - ((1 / PI) ** 2 / 2 + (1 - 1 / PI) ** 2 / 2)) <= res.err_est


def test_max_level_below_three_reports_nonconvergence(monkeypatch):
    # the stopping rule starts at level 3; a pass that ends earlier is unconverged, with its calls counted
    monkeypatch.setattr(quad, "MAX_LEVEL", 2)
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return 1.0 / (1.0 + x * x)

    res = integrate_half_line(f, 1e-10)
    assert not res.converged and res.evals == calls > 0
    assert abs(res.value - PI / 2.0) <= res.err_est < math.inf


def test_half_line_examples():
    assert integrate_half_line(lambda x: 1.0 / (1.0 + x * x), 1e-10).value == pytest.approx(
        PI / 2.0, abs=1e-10
    )
    got = integrate_half_line(lambda x: x / ((1.0 + x * x) * (1.0 + 2.0 * x * x)), 1e-9)
    assert got.value == pytest.approx(math.log(2.0) / 2.0, abs=1e-9)
    got = integrate_half_line(lambda x: x / ((1.0 + x * x) * (3.0 + x * x)), 1e-9)
    assert got.value == pytest.approx(math.log(3.0) / 4.0, abs=1e-9)


def test_tan_halfpi_examples():
    assert integrate_tan_halfpi(lambda t: 1.0, 1e-10).value == pytest.approx(PI / 2.0, abs=1e-10)
    got = integrate_tan_halfpi(lambda t: t * t / (1.0 + 3.0 * t * t + t**4), 1e-9)
    assert got.value == pytest.approx(-PI * BETA**3 / (2.0 * SQRT5), abs=1e-9)
    got = integrate_tan_halfpi(lambda t: 1.0 / (1.0 + 5.0 * t * t) ** 2, 1e-9)
    assert got.value == pytest.approx(PI * ALPHA / 16.0, abs=1e-9)


@pytest.mark.parametrize(
    "g",
    [
        lambda t: 1.0,
        lambda t: t * t / (1.0 + 3.0 * t * t + t**4),
        lambda t: 1.0 / (1.0 + 5.0 * t * t) ** 2,
        lambda t: t / (2.0 + t**3),
        lambda t: 1.0 / (1.0 + t) ** 2,
    ],
)
@pytest.mark.parametrize("tol", (1e-6, 1e-9, 1e-12))
def test_tan_weights_match_the_half_line_of_g_over_1_plus_t2(g, tol):
    # the tan map folds 1/(1+t^2) into its weights; it must sample the
    # nodes the half line does and differ from it only in rounding
    tan = integrate_tan_halfpi(g, tol)
    half = integrate_half_line(lambda t: g(t) / (1.0 + t * t), tol)
    assert tan.converged and half.converged
    assert tan.evals == half.evals
    assert abs(tan.value - half.value) <= 4.0 * math.ulp(half.value)


def test_finite_spec_examples():
    res = integrate_finite(lambda x: x * x / (3.0 - 2.0 * math.cos(2.0 * x)), 0.0, PI, 1e-10)
    assert res.value == pytest.approx((2.0 * PI**3 / 5.0 - PI * LN_ALPHA**2) / SQRT5, abs=1e-10)
    # dilogarithm integrand with log^2 endpoint growth after the substitution
    q = ALPHA
    res = integrate_tan_halfpi(lambda t: li2_real(-q * q * t * t), 5e-9)
    assert res.value == pytest.approx(2.0 * PI * li2_real(-q), abs=5e-8)


def test_parameter_validation():
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, 1.0, 0.0, 1e-9)
    for a, b in ((0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)):  # an infinite bound or width
        with pytest.raises(ValueError):
            integrate_finite(lambda x: math.exp(-x * x) if math.isfinite(x) else 0.0, a, b, 1e-8)
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, 0.0, 1.0, 1e-2)
    with pytest.raises(ValueError):
        integrate_half_line(lambda x: x, 1e-14)


def test_half_line_fallback_on_interior_kink():
    # |x - 1| * exp(-x) has a kink at x = 1, which sits mid-interval after
    # the s = x/(1+x) map; with no split to fall back to, the one pass must
    # report that it did not converge, with an err_est that covers its error.
    # int_0^1 (1-x)e^-x = 1/e and int_1^inf (x-1)e^-x = 1/e.
    exact = 2.0 / math.e
    res = integrate_half_line(_half_line_kink, 1e-9)
    assert not res.converged
    assert abs(res.value - exact) <= res.err_est


def test_bad_integrand_is_a_result_not_a_crash():
    res = integrate_finite(lambda x: float("nan"), 0.0, 1.0, 1e-9)
    assert not res.converged
    res = integrate_half_line(lambda x: 1.0 / 0.0, 1e-9)
    assert not res.converged


def _raises_on_call(n, f):
    calls = 0

    def g(x):
        nonlocal calls
        calls += 1
        if calls == n:
            raise ZeroDivisionError("division by zero mid-level")
        return f(x)

    return g


def _undeclared_kink(x):
    return abs(x - 1.0 / PI)


def _half_line_kink(x):
    return abs(x - 1.0) * math.exp(-x) if x < 700 else 0.0


# One integrand per driver path with its (value.hex(), err_est.hex(), evals,
# converged), bit for bit.  A change that moves any of them changes the
# verifier's results and must say why.  Each run takes a wrapper that it
# applies to its integrand.  finite_bisection and half_line_head_tail are
# kinks that no longer have a fallback: each ends in one unconverged pass
# (for the finite one, after the Fejer pass declines at n = 256).
PINNED_PATHS = {
    "finite": (
        lambda wrap: integrate_finite(wrap(lambda x: x * math.sin(x)), 0.0, PI, 1e-10),
        ("0x1.921fb54442d18p+1", "0x1.921fb54442d18p-48", 32, True),
    ),
    "finite_bisection": (
        lambda wrap: integrate_finite(wrap(_undeclared_kink), 0.0, 1.0, 1e-10),
        ("0x1.21cdaa026761cp-2", "0x1.aff20bba80000p-21", 3484, False),
    ),
    "finite_singular_split": (
        lambda wrap: integrate_finite(Integrand(wrap(lambda x: abs(x - 0.5)), (0.5,)), 0.0, 1.0, 1e-12),
        ("0x1.fffffffffffffp-3", "0x1.ffffffffffffep-52", 114, True),
    ),
    "half_line": (
        lambda wrap: integrate_half_line(wrap(lambda x: 1.0 / (1.0 + x * x)), 1e-10),
        ("0x1.921fb54442d18p+0", "0x1.950c9415b5d9ap-45", 107, True),
    ),
    "half_line_head_tail": (
        lambda wrap: integrate_half_line(wrap(_half_line_kink), 1e-9),
        ("0x1.78b515eda5396p-1", "0x1.d0bf744400000p-18", 2759, False),
    ),
    "tan_halfpi": (
        lambda wrap: integrate_tan_halfpi(wrap(lambda t: t * t / (1.0 + 3.0 * t * t + t**4)), 1e-9),
        ("0x1.53a07391a4497p-3", "0x1.54f90d41de0dbp-43", 77, True),
    ),
    # the Fejer rules agree exactly on a line, so the pass declines after 7
    # calls and call 40 falls inside the tanh-sinh pass
    "raises_mid_level": (
        lambda wrap: integrate_finite(wrap(_raises_on_call(40, lambda x: x)), 0.0, 1.0, 1e-10),
        ("nan", "inf", 40, False),
    ),
}


@pytest.mark.parametrize("path", sorted(PINNED_PATHS))
def test_driver_paths_reproduce_pinned_bits(path):
    run, expected = PINNED_PATHS[path]
    res = run(lambda f: f)
    assert (res.value.hex(), res.err_est.hex(), res.evals, res.converged) == expected


# integrands that raise late: after an earlier pass or part completed, in
# each place that adds up the evals of several passes, or deep in one pass
RAISE_LATE = {
    # each part makes 7 declined Fejer calls, then 50 tanh-sinh calls
    "raises_in_second_part": lambda wrap: integrate_finite(
        Integrand(wrap(_raises_on_call(70, lambda x: abs(x - 0.5))), (0.5,)), 0.0, 1.0, 1e-12
    ),
    # the first part is accepted by the Fejer pass after 15 calls and the
    # off-grid sample, so call 20 falls inside the second part's Fejer pass
    "raises_in_fejer_pass": lambda wrap: integrate_finite(
        Integrand(wrap(_raises_on_call(20, lambda x: x * x)), (0.5,)), 0.0, 1.0, 1e-10
    ),
    # exp passes the stop rule at n = 32 after 31 calls, so call 32 is the
    # off-grid sample
    "raises_in_fejer_sample": lambda wrap: integrate_finite(wrap(_raises_on_call(32, math.exp)), 0.0, 1.0, 1e-10),
    # the one half-line pass over the kink, which once fell back to a
    # head/tail split, makes 2759 calls; call 2000 falls in its last level
    "raises_in_head_tail_fallback": lambda wrap: integrate_half_line(
        wrap(_raises_on_call(2000, _half_line_kink)), 1e-9
    ),
}


# the paths whose every part ends in an accepting or a raising Fejer pass
FEJER_PATHS = {"finite", "raises_in_fejer_pass", "raises_in_fejer_sample"}


@pytest.mark.parametrize("path", sorted(PINNED_PATHS) + sorted(RAISE_LATE))
def test_evals_are_the_integrand_calls_made(path):
    run = PINNED_PATHS[path][0] if path in PINNED_PATHS else RAISE_LATE[path]
    calls = 0

    def count(f):
        def counted(x):
            nonlocal calls
            calls += 1
            return f(x)

        return counted

    res = run(count)
    assert res.evals == calls
    if path in RAISE_LATE:
        assert not res.converged and math.isnan(res.value)
    # a raise names the rule of the pass it ended, combined with the finished parts
    assert res.rule == ("fejer" if path in FEJER_PATHS else "tanh-sinh")


def test_result_addition():
    a = QuadResult(1.0, 1e-12, 10, True)
    b = QuadResult(2.0, 2e-12, 20, False)
    c = a + b
    assert c.value == 3.0 and c.evals == 30 and not c.converged
    assert c.rule == "tanh-sinh"
    assert (a + QuadResult(2.0, 2e-12, 20, False, "fejer")).rule == "mixed"
    # results compare field by field, like the records they replaced, and stay unhashable
    assert c == QuadResult(3.0, 3e-12, 30, False) and c != QuadResult(3.0, 3e-12, 30, False, "fejer")
    assert repr(a) == "QuadResult(value=1.0, err_est=1e-12, evals=10, converged=True, rule='tanh-sinh')"
    with pytest.raises(TypeError):
        hash(a)


@given(st.floats(min_value=-4.0, max_value=4.0), st.floats(min_value=0.3, max_value=4.0))
@settings(max_examples=25, deadline=None)
def test_shift_invariance_property(a, width):
    # integral of sin over a window matches the antiderivative everywhere
    b = a + width
    res = integrate_finite(math.sin, a, b, 1e-11)
    assert res.converged
    assert res.value == pytest.approx(math.cos(a) - math.cos(b), abs=2e-11)
