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

A third set pins the bytes of `fibint list --format json|csv|md`, which
the catalog digest cannot see: it hashes parsed rows.

Five rows repeat one integral at several points of their own grid; a
test holds those points to one integrand and one closed form.

A last pair of digests covers the `results` part of `fibint verify
--format json` (cli._json_pieces joined, without its meta) over the whole catalog,
at the default tolerances and at `--tol 1e-12`: every lhs, rhs, abs_err,
tol, verdict and note.  A change that moves one of those bits, in the
catalog or in the quadrature, re-records the digest and says why.
"""

import hashlib
import json

import pytest

from fibint import cli, registry, verifier

CATALOG_SHA256 = "823e9b1cdddb37e83214234452375ebf31c64fe7d3425d83ec897556056b59a7"
INSTANCE_SHA256 = "e43528743e1a5d816de991ca3cfd7e35a52f1a59f24a70165f42be3e965df7d9"

RESULTS_SHA256 = {
    None: "d522ac6c3d8339e70d8b98d0e177be2d638215ab6b9dc3ff3946d7bf0c407f62",
    1e-12: "8603085ef87c53d790dbd75aeb23ad874c7992e3c1f60d21fcf8e5a4ebdc813b",
}

LIST_SHA256 = {
    "json": "7445986c1c8c8c14a92a6e21526363b1fe79a51ba46dffefbbacba6c62332e38",
    "csv": "f21a87adc966faf57ecac3e2fd3b053c60afe4874f693777fb64b4deeb74f10c",
    "md": "b00912959aec3f5a217eb868a53a644e8b46584c323dae022b1edeb67ee1db05",
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


@pytest.mark.parametrize("fmt", list(LIST_SHA256))
def test_list_bytes_pinned(fmt, capsys):
    assert cli.main(["list", "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == LIST_SHA256[fmt]


def results_digest(tol):
    doc = "".join(cli._json_pieces(verifier.run("*", tol_override=tol), tol, "*"))
    return hashlib.sha256(doc[doc.index('"results": '):].encode()).hexdigest()


@pytest.mark.parametrize("tol", list(RESULTS_SHA256))
def test_verify_results_pinned(tol):
    assert results_digest(tol) == RESULTS_SHA256[tol]


# rows that integrate one function at several points of their own grid
REPEATS = {
    "S1.STEWART": [{"n": 1, "k": k} for k in range(1, 6)],
    "S2.XSN0TMC": [{"n": 2, "k": k} for k in range(1, 6)],
    "S2.COMPL2": [{"n": 2, "k": k} for k in range(1, 6)],
    "S10.QVB6JUR": [{"r": 1}, {"r": 2}],  # F_1 = F_2
    "S10.A40QD9A": [{"r": 1}, {"r": 2}],
}


@pytest.mark.parametrize("case_id", list(REPEATS))
def test_repeated_integral_has_one_closed_form(case_id):
    # a row that repeats one integral inside its grid must give it one closed form
    xs = _abscissae(registry.get_case(case_id).strategy)
    seen = set()
    for assignment in REPEATS[case_id]:
        inst = registry.instantiate(case_id, assignment)
        seen.add((tuple(_sample(inst.integrand.eval, x) for x in xs), inst.rhs.hex()))
    assert len(seen) == 1
