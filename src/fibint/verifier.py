"""Runs bound instances through quadrature and compares against closed
forms.

Pass criterion:  abs_err <= max(case tolerance, RTOL * |rhs|) with
RTOL = 1e-8, and the quadrature must have converged.  Failures never
abort a run; the report is total and deterministically ordered, so two
runs of the same filter are bitwise identical (timestamps live only in
serialization metadata, never in results).

An integral that the catalog declares shared, which a bound instance
names by its key (BoundInstance.integral), is integrated once per run and
quadrature tol, and the instances that share it reuse that QuadResult,
each with its own rhs, threshold and verdict.
A QuadResult is a function of the integrand's bits and the tol alone, so
every result is the one its instance gets verified alone or under any
filter.  A result's quad_evals are the integrand calls made for it: 0
when it reused another instance's integral, as its reused flag says.

The quadrature tol, a quarter of the pass threshold, is cut toward zero to
40 bits before it is clamped: closed forms of one integral differ by a few
ulp, and where RTOL * |rhs| sets the threshold, so would the tols, which
the memo keys exactly.  Cut, they agree unless they straddle a 40-bit step.
"""

from __future__ import annotations

import math
import time
from typing import Mapping, NamedTuple

from . import quad, registry
from .registry import EmptyFilterError, match_ids  # re-exported: their home is registry, which `fibint list` uses

RTOL = 1e-8
_QUAD_SAFETY = 0.25


class VerificationResult(registry.Record):
    """The verdict on one instance.  Results compare field by field.
    quad_evals counts the integrand calls made for this result; reused says
    that its lhs is another instance's integral, integrated earlier in the
    same run, and then quad_evals is 0."""

    __slots__ = ("case_id", "assignment", "lhs", "rhs", "abs_err", "tol", "passed", "quad_evals", "note", "reused")

    def __init__(
        self,
        case_id: str,
        assignment: tuple[tuple[str, int], ...],
        lhs: float,
        rhs: float,
        abs_err: float,
        tol: float,
        passed: bool,
        quad_evals: int,
        note: str = "",
        reused: bool = False,
    ) -> None:
        self.case_id = case_id
        self.assignment = assignment
        self.lhs = lhs
        self.rhs = rhs
        self.abs_err = abs_err
        self.tol = tol
        self.passed = passed
        self.quad_evals = quad_evals
        self.note = note
        self.reused = reused

    def sort_key(self):
        return (self.case_id, self.assignment)


class Report(NamedTuple):
    results: tuple[VerificationResult, ...]
    n_pass: int
    n_fail: int
    wall_time: float


def pass_threshold(tol: float, rhs: float) -> float:
    return max(tol, RTOL * abs(rhs))


def _quad_tol(threshold: float) -> float:
    m, e = math.frexp(_QUAD_SAFETY * threshold)  # cut to 40 bits toward zero, then clamp
    return min(max(math.ldexp(math.trunc(math.ldexp(m, 40)), e - 40), quad.TOL_MIN), quad.TOL_MAX)


def _integrate(inst: registry.BoundInstance, qtol: float) -> quad.QuadResult:
    strat = inst.strategy
    if strat.kind == "FINITE":
        return quad.integrate_finite(inst.integrand, strat.a, strat.b, qtol)
    if strat.kind == "HALF_LINE":
        return quad.integrate_half_line(inst.integrand, qtol)
    if strat.kind == "TAN_HALFPI":
        return quad.integrate_tan_halfpi(inst.integrand, qtol)
    raise RuntimeError(f"unknown strategy {strat.kind}")


def verify_instance(inst: registry.BoundInstance, shared: dict | None = None) -> VerificationResult:
    """Integrate one bound instance and compare to its closed form.  shared,
    if given, holds the QuadResults of the instance's integral by quadrature
    tol: an instance whose quadrature tol is already there reuses that
    result, with 0 quad_evals; one that integrates adds its result there."""
    threshold = pass_threshold(inst.tol, inst.rhs)
    qtol = _quad_tol(threshold)
    note = ""
    reused = shared is not None and qtol in shared
    try:
        if reused:
            res = shared[qtol]
            res = quad.QuadResult(res.value, res.err_est, 0, res.converged, res.rule)
        else:
            res = _integrate(inst, qtol)
            if shared is not None:
                shared[qtol] = res
    except Exception as exc:  # a failed instance is a result, not a crash
        res = quad.QuadResult(math.nan, math.inf, 0, False)
        note = f"integration error: {exc}"
    else:
        if not math.isfinite(res.value):
            note = "integrand raised or returned a non-finite value"
        elif not res.converged:
            note = "quadrature did not converge"
    abs_err = abs(res.value - inst.rhs)
    if math.isnan(abs_err):  # inf, never nan, so that a max over rows keeps the failed one
        abs_err = math.inf
    return VerificationResult(
        inst.case_id,
        tuple(sorted(inst.assignment.items())),
        res.value,
        inst.rhs,
        abs_err,
        threshold,
        res.converged and abs_err <= threshold,
        res.evals,
        note,
        reused,
    )


def run(
    pattern: str = "*",
    grid_override: Mapping[str, tuple[int, int]] | None = None,
    tol_override: float | None = None,
) -> Report:
    """Verify every instance of every catalog entry matching the glob.

    The rows are taken one at a time: a row's grid is built and its instances
    bound when the row is reached, and each instance is released once its
    result exists, so the pass never holds more than one row's instances.
    (Binding each instance between two verifications measured ~5% slower.)
    A grid window that no matching entry has a parameter for is a
    ValueError, raised before anything is bound.

    A shared integral is integrated by the first of its instances to be
    verified, and the others reuse its QuadResult (see the module docstring).
    The memo lives for this one call and holds at most one result per shared
    integral and quadrature tol.
    """
    t0 = time.perf_counter()
    ids = match_ids(pattern)
    for name, (lo, hi) in (grid_override or {}).items():
        if not any(spec.name == name for cid in ids for spec in registry.get_case(cid).params):
            raise ValueError(f"bad grid override '{name}={lo}..{hi}'; no entry matching {pattern!r} has {name}")
    memo: dict = {}  # integral key -> {qtol: QuadResult}
    results = []
    assignments: dict = {}  # one tuple per distinct assignment, which the results share
    for cid in ids:
        row = [registry.instantiate(cid, assignment) for assignment in registry.default_grid(cid, grid_override)]
        while row:  # popped, so that each instance is released once verified; the results are sorted below
            inst = row.pop()
            if tol_override is not None:
                inst.tol = tol_override
            res = verify_instance(inst, memo.setdefault(inst.integral, {}) if inst.integral else None)
            res.assignment = assignments.setdefault(res.assignment, res.assignment)
            results.append(res)
    if not results:
        grid = ", ".join(f"{k}={lo}..{hi}" for k, (lo, hi) in (grid_override or {}).items())
        raise EmptyFilterError(f"filter {pattern!r} with grid {grid!r} leaves no instance")
    results.sort(key=VerificationResult.sort_key)
    n_pass = sum(1 for r in results if r.passed)
    return Report(
        results=tuple(results),
        n_pass=n_pass,
        n_fail=len(results) - n_pass,
        wall_time=time.perf_counter() - t0,
    )


__all__ = [
    "RTOL",
    "EmptyFilterError",
    "VerificationResult",
    "Report",
    "pass_threshold",
    "verify_instance",
    "match_ids",
    "run",
]
