"""Hold every instance's numbers to tests/results.tsv, the per-instance results table (see make_results).

A change that moves one result bit fails here with one line per moved cell, and re-records the table
with make_results.COMMAND; its diff then shows each instance that moved.
"""

import math

import pytest

import make_results
from make_results import TOLS
from fibint import verifier


@pytest.fixture(scope="module")
def runs():
    """{tol: make_results.run(tol)} at every pinned tolerance."""
    return {tol: make_results.run(tol) for tol in TOLS}


@pytest.fixture(scope="module")
def fresh(runs):
    """The table of the runs."""
    return make_results.rows(runs)


def test_results_table_matches_a_fresh_run(fresh):
    lines = make_results.moved(make_results.read(), fresh)
    if lines:
        pytest.fail(
            "\n".join([f"{len(lines)} cells of {make_results.TABLE.name} moved:", *lines,
                       f"if they should, re-record it: {make_results.COMMAND}"]),
            pytrace=False,
        )


def _result(row, tol):
    """The VerificationResult that a table row gives its instance at tol: abs_err, the threshold and
    the note follow from the row's cells and the catalog, as the verifier derives them."""
    label = TOLS[tol]
    lhs, rhs, converged = float.fromhex(row[f"lhs@{label}"]), float.fromhex(row["rhs"]), row[f"converged@{label}"]
    abs_err = abs(lhs - rhs)
    if not math.isfinite(lhs):
        note = "integrand raised or returned a non-finite value"
    else:
        note = "" if converged == "1" else "quadrature did not converge"
    return verifier.VerificationResult(
        row["id"],
        make_results.params_of(row["params"]),
        lhs,
        rhs,
        math.inf if math.isnan(abs_err) else abs_err,
        make_results.threshold(row, tol),
        row[f"passed@{label}"] == "1",
        int(row[f"evals@{label}"]),
        note,
        row[f"reused@{label}"] == "1",
    )


@pytest.mark.parametrize("tol", list(TOLS), ids=list(TOLS.values()))
def test_table_cells_give_the_full_results(runs, fresh, tol):
    # the cells the table leaves out (abs_err, threshold, note) follow from those it holds: a run's
    # results, field by field, are the ones rebuilt from its rows, so the JSON, CSV and md reports are too
    results = runs[tol][0].results
    assert len(results) == len(fresh) == 1504
    for got, row in zip(results, fresh):
        assert got == _result(row, tol)


# instances whose |lhs - rhs| exceeds the err_est that their quadrature claims, by tolerance: a closed form
# that loses digits (ROADMAP item 1) or an err_est that understates the quadrature's error (item 4)
ERR_UNDERSTATED = {None: 3, 1e-12: 23, 1e-13: 23, 1e-3: 3}


@pytest.mark.parametrize("tol", list(TOLS), ids=list(TOLS.values()))
def test_err_est_understated(tol):
    label = TOLS[tol]
    understated = [
        (row["id"], row["params"])
        for row in make_results.read()
        if abs(float.fromhex(row[f"lhs@{label}"]) - float.fromhex(row["rhs"])) > float.fromhex(row[f"err_est@{label}"])
    ]
    assert len(understated) == ERR_UNDERSTATED[tol], understated


def _table(*cells):
    """A two-instance table whose cells are the committed table's first two rows, with cells changed."""
    table = [dict(row) for row in make_results.read()[:2]]
    for i, column, value in cells:
        table[i][column] = value
    return table


def test_moved_cells_are_named_with_their_ulp_distance():
    old = _table()
    lhs = float.fromhex(old[0]["lhs@1e-12"])
    new = _table(
        (0, "lhs@1e-12", math.nextafter(lhs, math.inf).hex()),
        (1, "converged@default", "0"),
        (1, "evals@1e-3", str(int(old[1]["evals@1e-3"]) + 1)),
    )
    lines = make_results.moved(old, new)
    assert [line.split(":")[0] for line in lines] == [
        "LEWIN.E10 k=1 lhs@1e-12",
        "LEWIN.E10 k=2 converged@default",
        "LEWIN.E10 k=2 evals@1e-3",
    ]
    assert "(1 ulp)" in lines[0] and "ulp" not in lines[1] + lines[2]
    assert all("abs_err/threshold" in line for line in lines)
    assert make_results.moved(old, _table()) == []
    assert make_results.moved(old, _table()[:1]) == ["LEWIN.E10 k=2: only in the old table"]


def test_ulps():
    assert make_results.ulps(1.0, math.nextafter(1.0, 2.0)) == 1
    assert make_results.ulps(-0.0, 0.0) == 0
    assert make_results.ulps(math.nextafter(0.0, -1.0), math.nextafter(0.0, 1.0)) == 2
    assert make_results.ulps(-1.0, math.nextafter(-1.0, -2.0)) == 1
    assert make_results.ulps(math.nan, 1.0) is None
