"""The per-instance results table, tests/results.tsv: build it, read it, and say which cells moved.

The table has a header line, then one line per default-grid instance, in report order (by id, then
params).  Each line holds the instance's id, params and rhs, and then, at each pinned tolerance (the
catalog's own, and `--tol` 1e-12, 1e-13 and 1e-3), its QuadResult and verdict: lhs, err_est, evals,
converged, rule, reused and passed.  Floats are float.hex(), flags 0 or 1.  A column is named
field@tolerance, as `evals@1e-12`.  A reused instance has 0 evals, as its result reports, and the err_est
and rule of the integral it reused.  abs_err, the threshold and the note follow from these cells and the
catalog's row tolerance, so the table leaves them out and test_results_table checks them against a live run.

A change that moves a result bit re-records the table, and its diff names each instance that moved.
Rewrite it, printing each moved cell against the committed copy:

    PYTHONPATH=src python tests/make_results.py
"""

import math
import pathlib
import struct

from fibint import cli, quad, registry, verifier

TABLE = pathlib.Path(__file__).with_name("results.tsv")
COMMAND = "PYTHONPATH=src python tests/make_results.py"

# the pinned tolerances, by the label their columns carry; None runs each row at its own
TOLS = {None: "default", 1e-12: "1e-12", 1e-13: "1e-13", 1e-3: "1e-3"}
_TOL_OF = {label: tol for tol, label in TOLS.items()}
FIELDS = ("lhs", "err_est", "evals", "converged", "rule", "reused", "passed")
COLUMNS = ("id", "params", "rhs", *(f"{field}@{label}" for label in TOLS.values() for field in FIELDS))
FLOATS = ("rhs", "lhs", "err_est")  # the fields held as float.hex()


def run(tol):
    """A whole-catalog verifier.run at tol, and each result's QuadResult, in report order: the one the
    instance integrated or reused.  verifier.verify_instance is wrapped for the run, as a tracing harness
    wraps it, and hands an instance that shares no integral an empty dict, where it puts its QuadResult."""
    verify_instance = verifier.verify_instance
    quads = {}

    def verifying(inst, shared=None):
        shared = {} if shared is None else shared
        res = verify_instance(inst, shared)
        # an integration that raised left no QuadResult; verify_instance records this one
        q = shared.get(verifier._quad_tol(res.tol), quad.QuadResult(math.nan, math.inf, 0, False))
        quads[res.case_id, res.assignment] = q
        return res

    verifier.verify_instance = verifying
    try:
        report = verifier.run("*", tol_override=tol)
    finally:
        verifier.verify_instance = verify_instance
    return report, [quads[r.case_id, r.assignment] for r in report.results]


def params_of(text):
    """The assignment tuple of a params cell, which holds the text of the CSV report's params column."""
    return tuple((k, int(v)) for k, v in (p.split("=") for p in text.split(";"))) if text else ()


def rows(runs):
    """The table's rows, as {column: cell}, from {tol: run(tol)} at every pinned tolerance."""
    table = [
        {"id": r.case_id, "params": cli._params_str(r.assignment), "rhs": r.rhs.hex()} for r in runs[None][0].results
    ]
    for tol, label in TOLS.items():
        report, quads = runs[tol]
        for row, r, q in zip(table, report.results, quads, strict=True):
            assert (row["id"], row["params"], row["rhs"]) == (r.case_id, cli._params_str(r.assignment), r.rhs.hex())
            cells = (r.lhs.hex(), q.err_est.hex(), r.quad_evals, int(q.converged), q.rule, int(r.reused), int(r.passed))
            row.update((f"{field}@{label}", str(cell)) for field, cell in zip(FIELDS, cells))
    return table


def read():
    with open(TABLE, encoding="ascii") as f:
        header, *lines = f.read().splitlines()
    columns = header.split("\t")
    return [dict(zip(columns, line.split("\t"), strict=True)) for line in lines]


def write(table):
    with open(TABLE, "w", encoding="ascii", newline="\n") as f:
        f.write("\t".join(COLUMNS) + "\n")
        f.writelines("\t".join(row[c] for c in COLUMNS) + "\n" for row in table)


def total(table, column):
    """The sum of an integer column over the table, such as a whole-catalog run's evals or reuses."""
    return sum(int(row[column]) for row in table)


def threshold(row, tol):
    """The instance's pass threshold at tol, or at its row's own tolerance for None."""
    return verifier.pass_threshold(registry.get_case(row["id"]).default_tol if tol is None else tol,
                                   float.fromhex(row["rhs"]))


def _margin(row, tol):
    """abs_err/threshold of a row at tol."""
    abs_err = abs(float.fromhex(row[f"lhs@{TOLS[tol]}"]) - float.fromhex(row["rhs"]))
    return abs_err / threshold(row, tol)


def _ordinal(x):
    """The float's place in the order of all binary64 values, so that adjacent floats are 1 apart."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFF_FFFF_FFFF_FFFF)


def ulps(a, b):
    """How many binary64 values apart two floats are; None if either is nan."""
    return None if math.isnan(a) or math.isnan(b) else abs(_ordinal(a) - _ordinal(b))


def _name(row):
    """An instance's id and params, as the moved-cell report names it."""
    return f"{row['id']} {row['params']}" if row["params"] else row["id"]


def moved(old, new):
    """One line per cell that differs from the old table to the new: id, params, column, old -> new, and
    for a float its distance in ulp.  Each line ends with the instance's abs_err/threshold at that
    column's tolerance (the default one for rhs) before and after.  An instance that only one of the
    tables holds is one line."""
    old_rows = {_name(row): row for row in old}
    new_names = {_name(row) for row in new}
    lines = [f"{name}: only in the old table" for name in old_rows if name not in new_names]
    for row in new:
        was = old_rows.get(_name(row))
        if was is None:
            lines.append(f"{_name(row)}: only in the new table")
            continue
        for column in COLUMNS:
            a, b = was.get(column, "-"), row[column]
            if a == b:
                continue
            field, _, label = column.partition("@")
            line = f"{_name(row)} {column}: {a} -> {b}"
            if field in FLOATS and a != "-":
                line += f" ({ulps(float.fromhex(a), float.fromhex(b))} ulp)"
            tol = _TOL_OF[label or "default"]
            if f"lhs@{TOLS[tol]}" in was:
                line += f"; abs_err/threshold {_margin(was, tol):.3g} -> {_margin(row, tol):.3g}"
            lines.append(line)
    return lines


def main():
    table = rows({tol: run(tol) for tol in TOLS})
    if TABLE.exists():
        lines = moved(read(), table)
        for line in lines:
            print(line)
        print(f"{len(lines)} cells moved from the old {TABLE.name}")
    write(table)
    print(f"wrote {TABLE} ({len(table)} instances)")


if __name__ == "__main__":
    main()
