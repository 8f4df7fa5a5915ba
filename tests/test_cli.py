import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from datetime import datetime

import pytest

import fibint
from fibint import cli, registry, verifier
from fibint.quad import Integrand


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_env():
    """The environment for a fresh interpreter that imports the fibint under test."""
    return dict(os.environ, PYTHONPATH=str(pathlib.Path(fibint.__file__).resolve().parent.parent))


def test_verify_single_id_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--filter", "S5.FOURG", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"meta", "results"}
    assert set(doc["meta"]) == {"tol", "filter", "timestamp"}
    assert doc["meta"]["tol"] is None
    assert doc["meta"]["filter"] == "S5.FOURG"
    (row,) = doc["results"]
    assert list(row) == ["id", "params", "lhs", "rhs", "abs_err", "tol", "passed", "note"]
    assert row["id"] == "S5.FOURG"
    assert row["passed"] is True
    # 17 significant digits round-trip binary64 exactly
    assert float(format(row["lhs"], ".17g")) == row["lhs"]
    raw = out[out.index('"lhs":') + 6 :].split(",")[0].strip()
    assert float(raw) == row["lhs"] and len(raw.replace("-", "").replace(".", "").split("e")[0]) >= 15


def test_verify_filter_no_match_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--filter", "NOSUCH")
    assert code == 2
    assert "matches no catalog entry" in err


def test_verify_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--filter", "S3.M6BI7TA", "--grid", "r=2..3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "params", "lhs", "rhs", "abs_err", "tol", "passed", "note"]
    assert len(rows) == 3
    assert rows[1][0] == "S3.M6BI7TA" and rows[1][1] == "r=2"
    assert rows[1][6] == "true"
    assert float(rows[1][2]) == pytest.approx(float(rows[1][3]), abs=1e-6)


def test_verify_md_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--filter", "S5.FOURG")
    assert code == 0
    assert "1 passed, 0 failed" in out


def test_verify_md_totals_count_reused_integrals(capsys):
    # S1.STEWART integrates one function at n=1 for k=1..5: the first of them
    # integrates, four reuse its result, and the family's evals count the calls made
    code, out, _ = run_cli(capsys, "verify", "--filter", "S1.STEWART")
    assert code == 0
    assert out.endswith("; 4 reused the integral of another instance\n")
    evals = sum(r.quad_evals for r in verifier.run("S1.STEWART").results)
    assert f"| S1 | 40 | 0 | " in out and out.count(f" | {evals} |\n") == 1
    assert sum(r.quad_evals == 0 for r in verifier.run("S1.STEWART").results) == 4


def test_verify_grid_leaving_no_instance_exits_2(capsys):
    # an even-r family under an odd-only window
    code, out, err = run_cli(capsys, "verify", "--filter", "S9.G8UGNY7.PE", "--grid", "r=3..3")
    assert code == 2 and out == ""
    assert err == "error: filter 'S9.G8UGNY7.PE' with grid 'r=3..3' leaves no instance\n"


def test_report_md_byte_layout():
    passed = verifier.VerificationResult(
        "A.PASS", (("m", 2), ("r", 3)), 1.5, 1.5000000000000002, 2.220446049250313e-16, 1e-10, True, 42
    )
    exact = verifier.VerificationResult("A.EXACT", (), 0.5, 0.5, 0.0, 0.0, True, 7)
    failed = verifier.VerificationResult(
        "B.FAIL", (("k", 1),), float("nan"), 0.25, float("inf"), 1e-7, False, 0, "integration error: boom"
    )
    report = verifier.Report(results=(passed, exact, failed), n_pass=2, n_fail=1, wall_time=0.0)
    assert "".join(cli._md_pieces(report)) == (
        "| id | params | lhs | rhs | abs_err | tol | passed | note |\n"
        "|----|--------|-----|-----|---------|-----|--------|------|\n"
        "| A.PASS | m=2;r=3 | 1.5 | 1.5 | 2.220e-16 | 1.0e-10 | pass |  |\n"
        "| A.EXACT |  | 0.5 | 0.5 | 0.000e+00 | 0.0e+00 | pass |  |\n"
        "| B.FAIL | k=1 | nan | 0.25 | inf | 1.0e-07 | FAIL | integration error: boom |\n"
        "\n"
        "| family | cases | failed | worst abs_err | worst abs_err/tol | evals |\n"
        "|--------|-------|--------|---------------|-------------------|-------|\n"
        "| A | 2 | 0 | 2.220e-16 | inf | 49 |\n"
        "| B | 1 | 1 | inf | inf | 0 |\n"
        "\n"
        "| abs_err/tol | instances |\n"
        "|-------------|-----------|\n"
        "| <1e-7 | 0 |\n"
        "| [1e-7,1e-6) | 0 |\n"
        "| [1e-6,1e-5) | 1 |\n"
        "| [1e-5,1e-4) | 0 |\n"
        "| [1e-4,1e-3) | 0 |\n"
        "| [1e-3,1e-2) | 0 |\n"
        "| [1e-2,1e-1) | 0 |\n"
        "| >=1e-1 | 2 |\n"
        "\n"
        "2 passed, 1 failed, 3 total in 0.00 s"
    )


@pytest.mark.parametrize(
    "ratio, label",
    [
        (0.05, "[1e-2,1e-1)"),
        (0.5, ">=1e-1"),
        (1e-8, "<1e-7"),
        (2e-8, "<1e-7"),
        (0.0, "<1e-7"),
        (3e-4, "[1e-4,1e-3)"),
        (12.0, ">=1e-1"),
        (math.inf, ">=1e-1"),
        (math.nan, ">=1e-1"),
    ],
)
def test_bucket_index_by_decade(ratio, label):
    assert cli.BUCKET_LABELS[cli.bucket_index(ratio)] == label


def test_exit_code_one_on_failure(capsys, monkeypatch):
    failed = verifier.VerificationResult(
        case_id="SYNTH.FAIL",
        assignment=(),
        lhs=1.0,
        rhs=2.0,
        abs_err=1.0,
        tol=1e-7,
        passed=False,
        quad_evals=1,
    )
    report = verifier.Report(results=(failed,), n_pass=0, n_fail=1, wall_time=0.0)
    monkeypatch.setattr(verifier, "run", lambda *a, **k: report)
    code, out, _ = run_cli(capsys, "verify", "--filter", "*")
    assert code == 1
    assert "FAIL" in out


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_failed_report_is_strict_json(capsys, monkeypatch):
    bad = registry.BoundInstance(
        "SYNTH.NAN", {}, Integrand(lambda x: float("nan")), 1.0, 1e-7, registry.FINITE(0.0, 1.0)
    )
    good = registry.instantiate("S5.FOURG", {})
    report = verifier.Report(
        results=(verifier.verify_instance(good), verifier.verify_instance(bad)), n_pass=1, n_fail=1, wall_time=0.0
    )
    monkeypatch.setattr(verifier, "run", lambda *a, **k: report)
    code, out, _ = run_cli(capsys, "verify", "--filter", "*", "--format", "json")
    assert code == 1
    passed, failed = json.loads(out, parse_constant=_reject_constant)["results"]
    assert failed["passed"] is False and failed["note"]
    assert failed["lhs"] is None and failed["abs_err"] is None
    assert failed["rhs"] == 1.0
    assert passed["passed"] is True and isinstance(passed["lhs"], float)


def test_failed_row_is_its_familys_worst():
    bad = verifier.verify_instance(
        registry.BoundInstance("S5.NAN", {}, Integrand(lambda x: float("nan")), 1.0, 1e-7, registry.FINITE(0.0, 1.0))
    )
    assert bad.abs_err == math.inf and not bad.passed
    good = verifier.verify_instance(registry.instantiate("S5.FOURG", {}))
    for rows in ((good, bad), (bad, good)):
        md = "".join(cli._md_pieces(verifier.Report(results=rows, n_pass=1, n_fail=1, wall_time=0.0)))
        assert "\n| S5 | 2 | 1 | inf | inf | " in md


def test_report_json_byte_layout():
    passed = verifier.VerificationResult(
        "A.PASS", (("m", 2), ("r", 3)), 1.5, 1.5000000000000002, 2.220446049250313e-16, 1e-10, True, 42
    )
    failed = verifier.VerificationResult(
        "B.FAIL", (), float("nan"), 0.25, float("inf"), 1e-7, False, 0, 'say "hi" \\ then\ttab\x01'
    )
    report = verifier.Report(results=(passed, failed), n_pass=1, n_fail=1, wall_time=0.0)
    text = "".join(cli._json_pieces(report, 1e-12, "A.*"))
    head, _, rest = text.partition('"timestamp": "')
    assert head == '{"meta": {"tol": 9.9999999999999998e-13, "filter": "A.*", '
    timestamp, _, rest = rest.partition('"')
    datetime.fromisoformat(timestamp)
    assert rest == (
        '}, "results": ['
        '{"id": "A.PASS", "params": {"m": 2, "r": 3}, "lhs": 1.5, "rhs": 1.5000000000000002, '
        '"abs_err": 2.2204460492503131e-16, "tol": 1e-10, "passed": true, "note": ""}, '
        '{"id": "B.FAIL", "params": {}, "lhs": null, "rhs": 0.25, "abs_err": null, '
        '"tol": 9.9999999999999995e-08, "passed": false, "note": "say \\"hi\\" \\\\ then\\u0009tab\\u0001"}'
        "]}"
    )
    assert json.loads(text)["results"][1]["note"] == failed.note


_FLOATS = ("lhs", "rhs", "abs_err", "tol")


def test_non_finite_numbers_are_null_in_every_json_field():
    # -inf, inf and nan in each float field in turn, then all four non-finite: each
    # such field reads null and every other one keeps its 17 significant digits
    finite = {"lhs": -1.5, "rhs": 0.25, "abs_err": 2.220446049250313e-16, "tol": 1e-10}
    rows = [dict(finite, **{f: v}) for f in _FLOATS for v in (-math.inf, math.inf, math.nan)]
    rows.append({"lhs": -math.inf, "rhs": math.inf, "abs_err": math.nan, "tol": -math.inf})
    results = tuple(verifier.VerificationResult("X.NF", (), **row, passed=False, quad_evals=0) for row in rows)
    report = verifier.Report(results=results, n_pass=0, n_fail=len(rows), wall_time=0.0)
    text = "".join(cli._json_pieces(report, None, "*"))
    for row, got in zip(rows, json.loads(text, parse_constant=_reject_constant)["results"], strict=True):
        assert [got[f] for f in _FLOATS] == [row[f] if math.isfinite(row[f]) else None for f in _FLOATS]

    def num(x):
        return format(x, ".17g") if math.isfinite(x) else "null"

    nums = (", ".join(f'"{f}": {num(row[f])}' for f in _FLOATS) for row in rows)
    body = ", ".join(f'{{"id": "X.NF", "params": {{}}, {n}, "passed": false, "note": ""}}' for n in nums)
    assert text.endswith(f'"results": [{body}]}}')
    assert '"lhs": null, "rhs": 0.25, "abs_err": 2.2204460492503131e-16, "tol": 1e-10' in text


def _json_result(r):
    """One result as `verify --format json` writes it, rendered on its own."""
    nums = ", ".join(
        f'"{f}": {format(v, ".17g") if math.isfinite(v) else "null"}'
        for f, v in zip(_FLOATS, (r.lhs, r.rhs, r.abs_err, r.tol))
    )
    params = ", ".join(f'"{k}": {v}' for k, v in r.assignment)
    passed = "true" if r.passed else "false"
    note = cli._json_escape(r.note)
    return f'{{"id": "{r.case_id}", "params": {{{params}}}, {nums}, "passed": {passed}, "note": "{note}"}}'


def test_json_pieces_are_one_per_catalog_row():
    # rows that repeat assignments and hold nan and inf: one piece per row after the meta,
    # and the pieces joined are the results rendered one by one
    def res(case_id, assignment, lhs, passed=True, note=""):
        return verifier.VerificationResult(case_id, assignment, lhs, 0.5, abs(lhs - 0.5), 1e-7, passed, 3, note)

    r1, r2 = (("r", 1),), (("r", 2),)
    rows = [
        [res("A.X", r1, 0.5), res("A.X", r2, -math.inf, False, "a\tb")],
        [res("B.Y", r1, math.nan, False), res("B.Y", r2, 0.5), res("B.Y", (("m", 0), *r2), 0.5)],
        [res("C.Z", (), math.inf, False)],
    ]
    report = verifier.Report(tuple(r for row in rows for r in row), n_pass=3, n_fail=3, wall_time=0.0)
    head, *pieces, tail = cli._json_pieces(report, None, "*")
    assert head.endswith('"results": [') and tail == "]}"
    assert pieces == [(", " if i else "") + ", ".join(map(_json_result, row)) for i, row in enumerate(rows)]
    assert json.loads("".join((head, *pieces, tail)))["results"][1]["lhs"] is None


def test_json_pieces_of_the_catalog_hold_one_row_each():
    # the whole-catalog report is streamed a catalog row at a time, never more
    report = verifier.run("*")
    _, *pieces, _ = cli._json_pieces(report, None, "*")
    ids = [[r["id"] for r in json.loads("[" + p.removeprefix(", ") + "]")] for p in pieces]
    assert [row[0] for row in ids] == sorted(registry.match_ids("*"))  # results are sorted by id
    assert all(set(row) == {row[0]} for row in ids)
    assert sum(map(len, ids)) == len(report.results) == 1504


def test_json_escape_table():
    # the quote and the backslash take a backslash, a code point below 0x20 is written
    # \u00XX (lowercase hex), and every other character, DEL and non-ASCII too, as it is
    for ch in [*map(chr, range(128)), "\u00e9", "\u2028"]:
        if ch in '"\\':
            want = "\\" + ch
        elif ord(ch) < 0x20:
            want = f"\\u{ord(ch):04x}"
        else:
            want = ch
        assert cli._json_escape(ch) == want, hex(ord(ch))
    assert cli._json_escape('\t"\x1f\x7f\\\u2028') == '\\u0009\\"\\u001f\x7f\\\\\u2028'
    text = "".join(map(chr, range(128))) + "\u00e9\u2028"
    assert json.loads(f'"{cli._json_escape(text)}"') == text


@pytest.mark.parametrize(
    "pieces",
    [pytest.param(["{", "}"], id="{}"), pytest.param(["a,b", "\n"], id="a,b\n"), pytest.param([], id="empty")],
)
def test_emit_ends_with_one_newline(pieces, tmp_path, capsys):
    text = "".join(pieces)
    cli._emit(pieces, None)
    assert capsys.readouterr().out == text.rstrip("\n") + "\n"
    path = tmp_path / "out.txt"
    with path.open("w", encoding="utf-8") as fh:
        cli._emit(text, fh)
    assert path.read_bytes() == (text.rstrip("\n") + "\n").encode()


@pytest.mark.parametrize("fmt", ["json", "csv", "md"])
def test_streamed_report_is_the_string_renderers_text(fmt, tmp_path, monkeypatch):
    # `verify` writes its report piece by piece; the file must hold exactly the
    # renderer's pieces for the same report, joined, and one final newline
    reports = []
    run = verifier.run

    def keep_report(*args, **kwargs):
        reports.append(run(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(verifier, "run", keep_report)
    path = tmp_path / f"report.{fmt}"
    assert cli.main(["verify", "--filter", "S5.*", "--format", fmt, "--out", str(path)]) == 0
    (report,) = reports
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        expected = "".join(cli._json_pieces(report, None, "S5.*"))
        text, expected = (re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', t) for t in (text, expected))
    else:  # the md totals line reads the report's own wall time, so it matches too
        expected = "".join((cli._csv_pieces if fmt == "csv" else cli._md_pieces)(report))
    assert len(report.results) > 10
    assert text == expected.rstrip("\n") + "\n"
    if fmt == "json":
        assert len(json.loads(text)["results"]) == len(report.results)
    elif fmt == "csv":
        assert len(list(csv.reader(io.StringIO(text)))) - 1 == len(report.results)


def test_list_csv_has_full_catalog(capsys):
    code, out, _ = run_cli(capsys, "list", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "anchor", "params", "strategy", "default_tol"]
    assert len(rows) - 1 >= 60


def test_list_json_of_no_rows_is_an_empty_array():
    assert "".join(cli._list_json([])) == "[]"


def test_list_json_fields(capsys):
    code, out, _ = run_cli(capsys, "list", "--filter", "S4.*", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) >= 8
    for e in doc:
        assert list(e) == ["id", "anchor", "params", "strategy", "default_tol"]
        assert e["strategy"] == "HALF_LINE"


def test_show(capsys):
    code, out, _ = run_cli(capsys, "show", "S4.KJ2W249")
    assert code == 0
    assert "HALF_LINE" in out and "m=0..4" in out
    code, _, err = run_cli(capsys, "show", "NOSUCH")
    assert code == 2
    assert err == "error: unknown catalog id 'NOSUCH'\n"


def test_repeated_grid_name_exits_2(capsys):
    # a second window for r must not silently replace the first
    code, out, err = run_cli(
        capsys, "verify", "--filter", "S3.M6BI7TA", "--grid", "r=2..3", "--grid", "r=5..6", "--format", "csv"
    )
    assert (code, out) == (2, "")
    assert err == "error: bad grid override 'r=5..6'; r already has a window\n"
    # windows for different parameters still combine
    code, out, _ = run_cli(
        capsys, "verify", "--filter", "S3.LFPAIR.A", "--grid", "n=1..1", "--grid", "r=2..3", "--format", "csv"
    )
    assert code == 0
    assert [row[1] for row in csv.reader(io.StringIO(out))][1:] == ["n=1;r=2", "n=1;r=3"]


def test_grid_window_no_matched_row_declares_exits_2(capsys):
    # S3.M6BI7TA has only r: a window on n must not run its full grid without a word
    code, out, err = run_cli(capsys, "verify", "--filter", "S3.M6BI7TA", "--grid", "n=1..2", "--format", "csv")
    assert (code, out) == (2, "")
    assert err == "error: bad grid override 'n=1..2'; no entry matching 'S3.M6BI7TA' has n\n"
    # a window on a parameter that some matched rows declare narrows those rows only
    code, out, _ = run_cli(
        capsys, "verify", "--filter", "S3.LFPAIR.A", "--grid", "n=1..1", "--grid", "r=2..3", "--format", "csv"
    )
    assert code == 0
    assert [row[1] for row in csv.reader(io.StringIO(out))][1:] == ["n=1;r=2", "n=1;r=3"]
    code, out, _ = run_cli(
        capsys, "verify", "--filter", "S3.[LM]*", "--grid", "n=1..1", "--grid", "r=2..2", "--format", "csv"
    )
    assert code == 0
    assert [row[:2] for row in csv.reader(io.StringIO(out))][1:] == [
        ["S3.LFPAIR.A", "n=1;r=2"],
        ["S3.LFPAIR.B", "n=1;r=2"],
        ["S3.M6BI7TA", "r=2"],
    ]


def test_bad_arguments_exit_2(capsys):
    assert run_cli(capsys, "verify", "--grid", "r=5")[0] == 2
    assert run_cli(capsys, "verify", "--grid", "z=1..2")[0] == 2
    assert run_cli(capsys, "verify", "--grid", "r=5..1")[0] == 2
    assert run_cli(capsys, "verify", "--tol", "0.5")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2


def test_out_file_round_trip(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--filter", "S5.FOURG", "--format", "json", "--out", str(path))
    assert code == 0 and out == ""
    text = path.read_text(encoding="utf-8")
    assert text.endswith("]}\n") and text.count("\n") == 1
    assert json.loads(text)["results"][0]["id"] == "S5.FOURG"


def test_results_payload_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--filter", "S7.ID7", "--format", "json")
    _, out2, _ = run_cli(capsys, "verify", "--filter", "S7.ID7", "--format", "json")
    r1 = out1[out1.index('"results"') :]
    r2 = out2[out2.index('"results"') :]
    assert r1 == r2


def test_results_payload_independent_of_hash_seed():
    # the JSON writer keys a dict by assignment tuple, and str hashes differ per
    # interpreter, so two fresh whole-catalog runs under different seeds must
    # write the same results bytes
    payloads = []
    for seed in ("0", "1"):
        env = dict(_fresh_env(), PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-m", "fibint.cli", "verify", "--format", "json"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        payloads.append(out[out.index('"results": ') :])
    a, b = payloads
    at = len(os.path.commonprefix(payloads))
    # a bare a == b would have pytest diff two ~290 kB lines character by character
    same = a == b
    assert same, f"seeds 0 and 1 differ at {at}: {a[at - 60 : at + 60]!r} != {b[at - 60 : at + 60]!r}"
    instances = sum(len(registry.default_grid(c.id)) for c in registry.catalog())
    assert len(json.loads("{" + payloads[0])["results"]) == instances


def test_grid_override_applies_across_filter(capsys):
    code, out, _ = run_cli(capsys, "verify", "--filter", "S9.G8UGNY7.?E", "--grid", "r=2..4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    ids = {(r[0], r[1]) for r in rows}
    assert ids == {
        ("S9.G8UGNY7.PE", "r=2"),
        ("S9.G8UGNY7.PE", "r=4"),
        ("S9.G8UGNY7.ME", "r=2"),
        ("S9.G8UGNY7.ME", "r=4"),
    }


def test_cli_import_leaves_catalog_unloaded():
    # The catalog modules (fibint.families) bind exact_seq and specfun names when first imported;
    # perfbench/traced.py wraps those before that import, so importing the CLI
    # must not pull the catalog in early.
    env = _fresh_env()
    code = "import sys, fibint.cli; print(sorted(m for m in sys.modules if m.startswith('fibint.families')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["list", "--format", "md"],
        ["show", "S10.QVB6JUR"],
        *(["verify", "--filter", "S5.*", "--format", fmt] for fmt in ("json", "csv", "md")),
    ],
    ids=["list", "show", "verify-json", "verify-csv", "verify-md"],
)
def test_closed_stdout_exits_one_quietly(argv):
    # `fibint list | head -c 600`: the reader goes away before the output is
    # written; the command ends with exit code 1 and no traceback
    env = _fresh_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fibint.cli", *argv], env=env, stdout=write_end, stderr=subprocess.PIPE
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_reader_gone_mid_report_exits_one_quietly():
    # `fibint verify --format json | head -c 600`: the ~290 kB report is streamed
    # in many writes, more than a pipe holds, and the reader leaves after 600 bytes
    env = _fresh_env()
    proc = subprocess.Popen(
        [sys.executable, "-m", "fibint.cli", "verify", "--format", "json"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    with proc:
        head = proc.stdout.read(600)
        proc.stdout.close()
        err = proc.stderr.read()
        rc = proc.wait(timeout=120)
    assert head.startswith(b'{"meta": {"tol": null, "filter": "*", ') and len(head) == 600
    assert (rc, err) == (1, b"")


@pytest.mark.parametrize(
    "argv",
    [["list", "--format", "json"], ["verify", "--filter", "S5.FOURG", "--format", "json"]],
    ids=["list", "verify"],
)
@pytest.mark.parametrize("target", ["no-such-dir/out.json", "."], ids=["missing-dir", "directory"])
def test_unwritable_out_exits_two_with_one_line(argv, target, tmp_path):
    env = _fresh_env()
    proc = subprocess.run(
        [sys.executable, "-m", "fibint.cli", *argv, "--out", target],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: cannot write {target}: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_out_is_opened_before_the_run(tmp_path, monkeypatch):
    # as a shell redirection is: a writable --out is truncated even when the filter
    # then fails, and an unwritable one never reaches the verifier
    path = tmp_path / "r.json"
    for command in ("list", "verify"):
        path.write_text("stale")
        assert cli.main([command, "--filter", "NOSUCH*", "--out", str(path)]) == 2
        assert path.read_text() == ""
    calls = []
    monkeypatch.setattr(verifier, "run", lambda *args, **kwargs: calls.append(args))
    assert cli.main(["verify", "--out", str(tmp_path / "missing" / "r.json")]) == 2
    assert calls == []
