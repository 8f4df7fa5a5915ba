"""Runs bound instances through quadrature and compares against closed
forms.

Pass criterion:  abs_err <= max(case tolerance, RTOL * |rhs|) with
RTOL = 1e-8, and the quadrature must have converged.  Failures never
abort a run; the report is total and deterministically ordered, so two
runs of the same filter are bitwise identical (timestamps live only in
serialization metadata, never in results).
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
    """The verdict on one instance.  Results compare field by field."""

    __slots__ = ("case_id", "assignment", "lhs", "rhs", "abs_err", "tol", "passed", "quad_evals", "note")

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
    return min(max(_QUAD_SAFETY * threshold, quad.TOL_MIN), quad.TOL_MAX)


def verify_instance(inst: registry.BoundInstance) -> VerificationResult:
    """Integrate one bound instance and compare to its closed form."""
    threshold = pass_threshold(inst.tol, inst.rhs)
    qtol = _quad_tol(threshold)
    note = ""
    try:
        strat = inst.strategy
        if strat.kind == "FINITE":
            res = quad.integrate_finite(inst.integrand, strat.a, strat.b, qtol)
        elif strat.kind == "HALF_LINE":
            res = quad.integrate_half_line(inst.integrand, qtol)
        elif strat.kind == "TAN_HALFPI":
            res = quad.integrate_tan_halfpi(inst.integrand, qtol)
        else:
            raise RuntimeError(f"unknown strategy {strat.kind}")
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
    passed = res.converged and abs_err <= threshold
    return VerificationResult(
        case_id=inst.case_id,
        assignment=tuple(sorted(inst.assignment.items())),
        lhs=res.value,
        rhs=inst.rhs,
        abs_err=abs_err,
        tol=threshold,
        passed=passed,
        quad_evals=res.evals,
        note=note,
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
    A grid window that no matching entry has a parameter for is a ValueError,
    raised before anything is bound.
    """
    t0 = time.perf_counter()
    ids = match_ids(pattern)
    for name, (lo, hi) in (grid_override or {}).items():
        if not any(spec.name == name for cid in ids for spec in registry.get_case(cid).params):
            raise ValueError(f"bad grid override '{name}={lo}..{hi}'; no entry matching {pattern!r} has {name}")
    results = []
    assignments: dict = {}  # one tuple per distinct assignment, which the results share
    for cid in ids:
        row = [registry.instantiate(cid, assignment) for assignment in registry.default_grid(cid, grid_override)]
        while row:  # popped, so that each instance is released once verified; the results are sorted below
            inst = row.pop()
            if tol_override is not None:
                inst.tol = tol_override
            res = verify_instance(inst)
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
