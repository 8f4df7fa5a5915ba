"""Pin the catalog's bits: every row's shape and every instance's numbers.

Two sha256 digests guard rewrites of fibint.families that must not change a
single result bit:

* the benchmark's catalog digest (perfbench/run.py: catalog_entries()
  sorted by id, each row with its default grid), so the ids, anchors,
  parameter domains, strategies and default tolerances stay put;
* a digest over every default-grid instance of rhs.hex(), tol, strategy
  label, singular_points and integrand.eval(x).hex() at four fixed
  abscissae per strategy, so each closed form and each integrand keeps
  its rounding.

The right sides of S10.QVB6JUR, S10.A40QD9A and S6.FM2DODR are computed by
quadrature inside the catalog, so a quadrature change legitimately moves
them; their rhs is left out of the second digest, their integrand samples
are not.

A third pair of digests covers the `results` part of `fibint verify
--format json` (cli.report_json without its meta) over the whole catalog,
at the default tolerances and at `--tol 1e-12`: every lhs, rhs, abs_err,
tol, verdict and note.  A change that moves one of those bits, in the
catalog or in the quadrature, re-records the digest and says why.
"""

import hashlib
import json

import pytest

from fibint import cli, registry, verifier

CATALOG_SHA256 = "823e9b1cdddb37e83214234452375ebf31c64fe7d3425d83ec897556056b59a7"
INSTANCE_SHA256 = "a580856fd730b78dcd68e281fb6bc69dee29b75acea6835631de924b0d44e657"

RESULTS_SHA256 = {
    None: "2a2b3189192ce3b04ac90b457c11b1fe2da239a8983de293cbb93c48c37c472d",
    1e-12: "7a92e78c30a0d9455bd376fc74ff760f6e66f0a47b33a92fe386cd751ebe7f04",
}

QUADRATURE_RHS = {"S10.QVB6JUR", "S10.A40QD9A", "S6.FM2DODR"}
FINITE_FRACTIONS = (0.0625, 0.3, 0.61803, 0.97)
HALF_LINE_POINTS = (0.03, 0.7, 2.5, 41.0)  # also t = tan x for TAN_HALFPI


def _abscissae(strategy):
    if strategy.kind == "FINITE":
        return [strategy.a + (strategy.b - strategy.a) * f for f in FINITE_FRACTIONS]
    return list(HALF_LINE_POINTS)


def _sample(f, x):
    try:
        return float(f(x)).hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


def catalog_digest():
    grids = {c.id: registry.default_grid(c.id) for c in registry.catalog()}
    rows = [dict(e, grid=sorted(sorted(a.items()) for a in grids[e["id"]])) for e in registry.catalog_entries()]
    rows.sort(key=lambda r: r["id"])
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def instance_digest():
    h = hashlib.sha256()
    for case in registry.catalog():
        xs = _abscissae(case.strategy)
        for assignment in registry.default_grid(case.id):
            inst = registry.instantiate(case.id, assignment)
            rhs = "quadrature" if case.id in QUADRATURE_RHS else inst.rhs.hex()
            samples = [_sample(inst.integrand.eval, x) for x in xs]
            line = (case.id, sorted(assignment.items()), rhs, inst.tol.hex(), inst.strategy.label(),
                    [p.hex() for p in inst.integrand.singular_points], samples)
            h.update(repr(line).encode())
    return h.hexdigest()


def test_catalog_rows_pinned():
    assert catalog_digest() == CATALOG_SHA256


def test_instance_bits_pinned():
    assert instance_digest() == INSTANCE_SHA256


def results_digest(tol):
    doc = cli.report_json(verifier.run("*", tol_override=tol), tol, "*")
    return hashlib.sha256(doc[doc.index('"results": '):].encode()).hexdigest()


@pytest.mark.parametrize("tol", list(RESULTS_SHA256))
def test_verify_results_pinned(tol):
    assert results_digest(tol) == RESULTS_SHA256[tol]
