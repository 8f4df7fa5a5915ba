"""Acceptance suite: every criterion prints one pass/fail line.

Run as `pytest tests/test_acceptance.py -s` to see the lines live.
"""

import math
import time

import pytest

from fibint import verifier
from fibint.exact_seq import fib, golden_powers, lucas
from fibint.quad import Integrand, integrate_finite, integrate_tan_halfpi
from fibint.specfun import LN_ALPHA, cl2, constants, li2_real

from test_fib_complex import deriv_residual

PI = math.pi
SQRT5 = math.sqrt(5.0)
ALPHA = (1.0 + SQRT5) / 2.0


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def full_run():
    t0 = time.perf_counter()
    report = verifier.run("*")
    return report, time.perf_counter() - t0


def test_criterion_1_lewin_baseline():
    t0 = time.perf_counter()
    rep = verifier.run("LEWIN.*")
    dt = time.perf_counter() - t0
    ok = rep.n_fail == 0 and all(r.abs_err <= max(5e-7, verifier.RTOL * abs(r.rhs)) for r in rep.results)
    ok = ok and dt < 60.0
    _line(1, ok, f"baseline layer: {len(rep.results)} instances, {rep.n_fail} failures, {dt:.2f}s")


def test_criterion_2_stewart_desk_check():
    worst = 0.0
    for k in range(1, 6):
        for n in range(1, 9):
            lk, fk = lucas(k), fib(k)

            def f(x, _lk=lk, _fk=fk, _n=n):
                return (_lk + _fk * x * SQRT5) ** (_n - 1)

            # absolute tolerances loosen with the integral's magnitude (up to
            # ~6.5e8 at k=5, n=8); the scaled deviation below is what matters
            res = integrate_finite(Integrand(f), -1.0, 1.0, 1e-3 if n >= 5 else 1e-10)
            got = res.value * n / 2.0**n
            exact = fib(k * n) / fib(k)  # exact integers; the quotient is exact in binary64
            worst = max(worst, abs(got - exact))
    _line(2, worst <= 1e-7, f"representation desk check, worst |dev| = {worst:.3e}")


def test_criterion_3_complements():
    rep = verifier.run("S2.*")
    ids = {r.case_id for r in rep.results}
    ok = {"S2.BJU5530", "S2.XSN0TMC", "S2.COMPL2", "S2.DJFHEP4"} <= ids
    ok = ok and rep.n_fail == 0
    _line(3, ok, f"complement layer: {len(rep.results)} instances, {rep.n_fail} failures")


def test_criterion_4_named_anchors():
    G = constants().catalan
    la2 = LN_ALPHA * LN_ALPHA
    checks = []

    def log_kernel(x):
        return 2.0 * math.log((1.0 + math.sin(x)) / math.cos(x))

    got = integrate_finite(Integrand(log_kernel), 0.0, PI / 2.0, 1e-10).value
    checks.append(("4G", got, 4.0 * G))

    got = integrate_finite(
        Integrand(lambda x: x * math.sin(x) / (5.0 - 4.0 * math.sin(x) ** 2), (PI / 2.0,)),
        0.0, PI, 1e-10,
    ).value
    checks.append(("(pi/2) arctan 2", got, PI / 2.0 * math.atan(2.0)))

    got = integrate_tan_halfpi(Integrand(lambda t: 1.0 / (1.0 + 5.0 * t * t) ** 2), 1e-9).value
    checks.append(("pi alpha/16", got, PI * ALPHA / 16.0))

    got = integrate_finite(
        Integrand(lambda x: x * x / (5.0 + 4.0 * math.cos(2.0 * x))), 0.0, PI / 2.0, 1e-10
    ).value
    closed = PI**3 / 36.0 - PI / 12.0 * math.log(2.0) ** 2
    # li2_real(0.5) is evaluated by the Bernoulli series at its edge, u = ln 2
    via_li2 = (PI**3 / 24.0 + PI / 2.0 * li2_real(0.5)) / 3.0
    checks.append(("pi^3/36 - (pi/12) ln^2 2", got, closed))
    checks.append(("same, via series dilogarithm", got, via_li2))

    got = integrate_finite(
        Integrand(lambda x: x * x / (3.0 - 2.0 * math.cos(2.0 * x))), 0.0, PI, 1e-10
    ).value
    checks.append(("(2pi^3/5 - pi ln^2 a)/sqrt5", got, (2.0 * PI**3 / 5.0 - PI * la2) / SQRT5))

    got = integrate_finite(
        Integrand(lambda x: x * x * math.cos(x) / (3.0 - 2.0 * math.cos(2.0 * x))), 0.0, PI, 1e-10
    ).value
    checks.append(("-pi^3/6 + (3pi/2) ln^2 a", got, -PI**3 / 6.0 + 1.5 * PI * la2))

    worst = max(abs(g - e) for _, g, e in checks)
    ok = worst <= 1e-7
    _line(4, ok, f"{len(checks)} named anchors, worst |LHS-RHS| = {worst:.3e}")


def test_criterion_5_full_registry(full_run):
    report, dt = full_run
    nonconv = sum(1 for r in report.results if "converge" in r.note)
    ok = report.n_fail == 0 and nonconv == 0 and dt <= 600.0
    _line(
        5,
        ok,
        f"full registry: {len(report.results)} instances, {report.n_fail} failures, "
        f"{nonconv} non-convergences, {dt:.1f}s single-threaded",
    )


def test_criterion_6_special_function_suite():
    ok = True
    x = -0.95
    while x <= 0.95:
        series = sum(x**k / (k * k) for k in range(1, 5001))
        ok = ok and abs(li2_real(x) - series) <= 1e-12
        x += 0.1
    beta = (1.0 - SQRT5) / 2.0
    closed = [
        (0.5, PI * PI / 12.0 - 0.5 * math.log(2.0) ** 2),
        (beta * beta, PI * PI / 15.0 - LN_ALPHA**2),
        (beta, -PI * PI / 15.0 + 0.5 * LN_ALPHA**2),
        (-beta, PI * PI / 10.0 - LN_ALPHA**2),
    ]
    for arg, val in closed:
        ok = ok and abs(li2_real(arg) - val) <= 1e-12
    for k in range(1, 100):
        t = PI * k / 100.0
        ok = ok and abs(0.5 * cl2(2.0 * t) - cl2(t) + cl2(PI - t)) <= 1e-12
        ok = ok and abs(cl2(t) + cl2(2.0 * PI - t)) <= 1e-12
    for s in (2, 4, 6, 8):
        b = golden_powers(s).beta_pow
        ok = ok and abs(math.atan(b) - 0.5 * math.atan(2.0 / (fib(s) * SQRT5))) <= 1e-14
    for s in (1, 3, 5, 7):
        b = golden_powers(s).beta_pow
        ok = ok and abs(math.atan(-b) - 0.5 * math.atan(2.0 / lucas(s))) <= 1e-14
    _line(6, ok, "dilogarithm/Clausen/arctan unit suite at 1e-12 and 1e-14")


def test_criterion_7_derivative_oracle():
    worst = max(max(deriv_residual(float(j), 1e-5)) for j in range(11))
    ok = worst <= 1e-6
    coarse = [deriv_residual(float(j), 1e-4)[0] for j in range(11)]
    fine = [deriv_residual(float(j), 5e-5)[0] for j in range(11)]
    ratios = [c / f for c, f in zip(coarse, fine) if f > 1e-12]
    order2 = all(3.0 <= ratio <= 5.0 for ratio in ratios)
    _line(7, ok and order2, f"derivative oracle: worst residual {worst:.2e}, h-halving ratios ~4x")


def test_criterion_8_negative_controls(full_run):
    report, _ = full_run
    flippable = 0
    flipped = 0
    for r in report.results:
        rhs2 = r.rhs * (1.0 + 1e-5)
        threshold2 = max(r.tol, verifier.RTOL * abs(rhs2))
        if 1e-5 * abs(r.rhs) > 2.5 * threshold2:
            flippable += 1
            if abs(r.lhs - rhs2) > threshold2:
                flipped += 1
    ok = flippable >= 300 and flipped == flippable
    _line(
        8,
        ok,
        f"negative controls: {flipped}/{flippable} perturbed instances flip to fail "
        f"(of {len(report.results)} total)",
    )
