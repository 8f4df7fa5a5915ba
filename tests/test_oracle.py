"""Check every FINITE default-grid lhs against mpmath.quad, which shares no
code with fibint.quad, and Catalan's G against mpmath.catalan.

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


def test_catalan_is_correctly_rounded():
    assert specfun.constants().catalan == specfun.CATALAN == float(mpmath.catalan)
