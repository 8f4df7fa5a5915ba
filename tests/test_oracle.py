"""Check every FINITE default-grid lhs against mpmath.quad, which shares no
code with fibint.quad; li2_real, cl2 and Catalan's G against mpmath's
polylog, clsin and catalan; and the closed forms of the three rows whose
right sides fibint once computed by quadrature against a 40-digit
mpmath.quad of the identity's integrand.

The oracle integrates the same binary64 integrand (each mpmath abscissa
is rounded to a float first) under two splittings: [a, singular points...,
b], and the same with every panel halved.  One splitting can be wrong
while mpmath claims a tiny error, so the oracle is trusted only where the
two agree to a quarter of the allowance err_est + 4 ulp; fibint's lhs must
then lie within that allowance of it.  An instance the oracle cannot
judge fails the agreement check, so it is listed below as a strict xfail
with the measured disagreement, never skipped.
"""

import math

import pytest

from fibint import quad, registry, specfun, verifier
from fibint.exact_seq import fib

mpmath = pytest.importorskip("mpmath")

# id -> why the check does not hold there, as measured
XFAIL = {
    "S7.ID6/r=8": "the two splittings disagree by 8.9e-11, 12x the allowance: mpmath at dps 15 does not resolve "
    "the kernel's near-cancellation at pi/2 (ROADMAP item 1), and claims an error of 1e-16",
}


def _finite_instances():
    for case in registry.catalog():
        if case.strategy.kind != "FINITE":
            continue
        for assignment in registry.default_grid(case.id):
            name = case.id + "".join(f"/{k}={v}" for k, v in sorted(assignment.items()))
            marks = [pytest.mark.xfail(strict=True, reason=XFAIL[name])] if name in XFAIL else []
            yield pytest.param(case.id, assignment, id=name, marks=marks)


@pytest.mark.parametrize("case_id, assignment", list(_finite_instances()))
def test_finite_lhs_matches_the_oracle(case_id, assignment):
    inst = registry.instantiate(case_id, assignment)
    a, b = inst.strategy.a, inst.strategy.b
    tol = verifier._quad_tol(verifier.pass_threshold(inst.tol, inst.rhs))
    res = quad.integrate_finite(inst.integrand, a, b, tol)

    edges = [a, *sorted(p for p in inst.integrand.singular_points if a < p < b), b]
    halved = [x for lo, hi in zip(edges, edges[1:]) for x in (lo, 0.5 * (lo + hi))] + [b]
    f = inst.integrand.eval
    oracle, check = (float(mpmath.quad(lambda x: f(float(x)), points)) for points in (edges, halved))

    allowance = res.err_est + 4.0 * math.ulp(oracle)
    assert abs(oracle - check) <= 0.25 * allowance, "the oracle's two splittings disagree"
    assert abs(res.value - oracle) <= allowance


def _ulps(got, exact):
    return float(abs(mpmath.mpf(got) - exact)) / math.ulp(float(exact))


def _neighbours(x, n=8):
    """The n floats on each side of x."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[1:] + above[1:]


LI2_GRID = sorted(
    {-1.0 + 2.0 * j / 1000 for j in range(1001)}
    | {-(10.0 ** (6.0 * j / 1000)) for j in range(1001)}
    | {x for c in (-1.0, 0.5, 1.0) for x in _neighbours(c) if x <= 1.0}
    | {1e-300, -1e-300, 1e-12, -1e-12}
)


def test_li2_matches_polylog_within_3_ulp():
    # [-1e6, 1] covers all three branches and both sides of the switches at -1 and 1/2
    with mpmath.workdps(30):
        worst = max((_ulps(specfun.li2_real(x), mpmath.polylog(2, x)), x) for x in LI2_GRID if x != 0.0)
    assert worst[0] <= 3.0, worst


def test_cl2_matches_clsin():
    # 8 ulp, plus pi - fl(pi): cl2 reduces about fl(pi), and |Cl2'| < 1 near pi; the worst
    # seen, 6.5 ulp near pi/2, is the expansion about pi cut at 20 terms
    with mpmath.workdps(30):
        shift = float(mpmath.pi - math.pi)
        for j in range(1, 1001):
            t = math.pi * j / 1000
            exact = mpmath.clsin(2, t)
            assert abs(mpmath.mpf(specfun.cl2(t)) - exact) <= 8 * math.ulp(float(exact)) + shift, t


def test_catalan_is_correctly_rounded():
    assert specfun.constants().catalan == specfun.CATALAN == float(mpmath.catalan)


def _structural_kernel(case_id, r):
    """The integrand the S10 structural rows' kernels recombine to, at a = fl(sqrt5 F_r), exact otherwise."""
    a = mpmath.mpf(fib(r) * math.sqrt(5.0))
    if case_id == "S10.QVB6JUR":
        return lambda x: x * x * mpmath.cos(x) / (a * a - 4 * mpmath.cos(2 * x) ** 2)
    return lambda x: x * x * (mpmath.cos(x) + mpmath.cos(3 * x)) / (a * a - 4 * mpmath.cos(2 * x) ** 2)


def _fm2dodr_kernel(m, k):
    q2 = mpmath.mpf((0.5, 1.0, 2.0)[k - 1] ** 2)
    return lambda x: mpmath.sin(x) ** (2 * m - 1) / (1 + q2 * mpmath.sin(x) ** 2) ** m


# row -> the most ulp its closed form may lie from the 40-digit integral, as measured: A40QD9A (24.1 at r=6)
# takes Y - X of two terms ~8x its size, and FM2DODR (9.3 at m=3, k=2) sums terms of alternating sign
# ~75x its size at m=3; both are cancellations of ROADMAP item 1
STRUCTURAL_ULPS = {"S10.QVB6JUR": 8, "S10.A40QD9A": 25, "S6.FM2DODR": 10}


@pytest.mark.parametrize("case_id", list(STRUCTURAL_ULPS))
def test_structural_right_sides_match_a_40_digit_integral(case_id):
    for assignment in registry.default_grid(case_id):
        rhs = registry.instantiate(case_id, assignment).rhs
        with mpmath.workdps(40):
            if case_id == "S6.FM2DODR":
                exact = mpmath.quad(_fm2dodr_kernel(**assignment), [0, mpmath.pi / 2])
            else:
                exact = mpmath.quad(_structural_kernel(case_id, **assignment), [0, mpmath.pi / 2, mpmath.pi])
            assert _ulps(rhs, exact) <= STRUCTURAL_ULPS[case_id], assignment
