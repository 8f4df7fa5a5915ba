"""Command-line front end: list the catalog, show one entry, run
verifications, emit machine-readable reports.

Exit codes: 0 all verified instances passed, 1 any failure or a stdout
closed before the output was written (`fibint list | head`), 2
usage/configuration error or an output that cannot be written
(`--out no-such-dir/r.json`).  JSON/CSV payloads are deterministic
(timestamps only in metadata, floats at 17 significant digits; JSON
writes null for a non-finite float, e.g. the lhs of a failed instance).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING, TextIO

from . import registry

# `list` and `show` read only the catalog: quad and the verifier are imported by
# `verify`, and csv, io, datetime and collections by the writers that use them
if TYPE_CHECKING:
    from . import verifier


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _json_num(x: float) -> str:
    """_fmt for JSON, which has no nan or inf: those become null."""
    return _fmt(x) if math.isfinite(x) else "null"


def _json_escape(s: str) -> str:
    out = []
    for ch in s:
        if ch in '"\\':
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def _params_str(assignment) -> str:
    return ";".join(f"{k}={v}" for k, v in assignment)


def report_json(report: verifier.Report, tol, pattern: str) -> str:
    """The `verify --format json` document: meta (tol, filter, timestamp) and one row per result."""
    from datetime import datetime, timezone

    ts = datetime.now(timezone.utc).isoformat()
    tol_s = "null" if tol is None else _fmt(tol)
    # one list of pieces and one join: the document is ~300 kB for the full catalog
    buf = [f'{{"meta": {{"tol": {tol_s}, "filter": "{_json_escape(pattern)}", "timestamp": "{ts}"}}, "results": [']
    sep = ""
    isfinite = math.isfinite
    for r in report.results:
        lhs, rhs, err, thr = r.lhs, r.rhs, r.abs_err, r.tol
        params = ", ".join([f'"{k}": {v}' for k, v in r.assignment])
        if isfinite(lhs + rhs + err + thr):  # so all four are; an overflow takes the other branch, same bytes
            nums = f'"lhs": {lhs:.17g}, "rhs": {rhs:.17g}, "abs_err": {err:.17g}, "tol": {thr:.17g}'
        else:
            nums = (
                f'"lhs": {_json_num(lhs)}, "rhs": {_json_num(rhs)}, '
                f'"abs_err": {_json_num(err)}, "tol": {_json_num(thr)}'
            )
        note = _json_escape(r.note) if r.note else ""
        buf.append(
            f'{sep}{{"id": "{r.case_id}", "params": {{{params}}}, {nums}, '
            f'"passed": {"true" if r.passed else "false"}, "note": "{note}"}}'
        )
        sep = ", "
    buf.append("]}")
    return "".join(buf)


def _csv(header: list[str], rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _report_csv(report: verifier.Report) -> str:
    return _csv(
        ["id", "params", "lhs", "rhs", "abs_err", "tol", "passed", "note"],
        (
            [
                r.case_id,
                _params_str(r.assignment),
                _fmt(r.lhs),
                _fmt(r.rhs),
                _fmt(r.abs_err),
                _fmt(r.tol),
                "true" if r.passed else "false",
                r.note,
            ]
            for r in report.results
        ),
    )


# decades of abs_err/tol in the md report's histogram; a healthy catalog row lands below 1e-2
BUCKET_LABELS = (
    "<1e-7",
    "[1e-7,1e-6)",
    "[1e-6,1e-5)",
    "[1e-5,1e-4)",
    "[1e-4,1e-3)",
    "[1e-3,1e-2)",
    "[1e-2,1e-1)",
    ">=1e-1",
)


def bucket_index(ratio: float) -> int:
    """Index into BUCKET_LABELS of the decade holding an error/threshold ratio."""
    if ratio <= 0.0:
        return 0
    if not ratio < math.inf:  # inf or nan: a failed row, or one with tol == 0
        return len(BUCKET_LABELS) - 1
    return min(len(BUCKET_LABELS) - 1, max(0, math.floor(math.log10(ratio)) + 8))


def _margin(r: verifier.VerificationResult) -> float:
    return r.abs_err / r.tol if r.tol else math.inf


def _report_md(report: verifier.Report) -> str:
    """One row per result, then a per-family summary, the abs_err/tol histogram and the totals."""
    import collections

    lines = [
        "| id | params | lhs | rhs | abs_err | tol | passed | note |",
        "|----|--------|-----|-----|---------|-----|--------|------|",
    ]
    families = collections.defaultdict(list)
    for r in report.results:
        mark = "pass" if r.passed else "FAIL"
        lines.append(
            f"| {r.case_id} | {_params_str(r.assignment)} | {r.lhs:.12g} | {r.rhs:.12g} "
            f"| {r.abs_err:.3e} | {r.tol:.1e} | {mark} | {r.note} |"
        )
        families[r.case_id.partition(".")[0]].append(r)
    lines += [
        "",
        "| family | cases | failed | worst abs_err | worst abs_err/tol | evals |",
        "|--------|-------|--------|---------------|-------------------|-------|",
    ]
    for fam in sorted(families):
        rs = families[fam]
        lines.append(
            f"| {fam} | {len(rs)} | {sum(not r.passed for r in rs)} | {max(r.abs_err for r in rs):.3e} "
            f"| {max(map(_margin, rs)):.3e} | {sum(r.quad_evals for r in rs)} |"
        )
    counts = collections.Counter(bucket_index(_margin(r)) for r in report.results)
    lines += ["", "| abs_err/tol | instances |", "|-------------|-----------|"]
    lines += [f"| {label} | {counts[i]} |" for i, label in enumerate(BUCKET_LABELS)]
    lines.append("")
    lines.append(
        f"{report.n_pass} passed, {report.n_fail} failed, "
        f"{len(report.results)} total in {report.wall_time:.2f} s"
    )
    return "\n".join(lines)


def _params_spec_str(case: registry.IdentityCase) -> str:
    parts = []
    for p in case.params:
        s = f"{p.name}={p.min}..{p.max}"
        if p.parity != "any":
            s += f":{p.parity}"
        if p.exclusions:
            s += "!" + ",".join(map(str, p.exclusions))
        parts.append(s)
    return ";".join(parts)


def _list_json(cases: list[registry.IdentityCase]) -> str:
    buf = ["["]
    sep = ""
    for e in map(registry.catalog_entry, cases):
        params = ", ".join(
            f'{{"name": "{p["name"]}", "parity": "{p["parity"]}", "min": {p["min"]}, '
            f'"max": {p["max"]}, "exclusions": {p["exclusions"]}}}'
            for p in e["params"]
        )
        buf.append(
            f'{sep}{{"id": "{e["id"]}", "anchor": "{_json_escape(e["anchor"])}", '
            f'"params": [{params}], "strategy": "{e["strategy"]}", '
            f'"default_tol": {_fmt(e["default_tol"])}}}'
        )
        sep = ", "
    buf.append("]")
    return "".join(buf)


def _list_csv(cases: list[registry.IdentityCase]) -> str:
    return _csv(
        ["id", "anchor", "params", "strategy", "default_tol"],
        ([c.id, c.anchor, _params_spec_str(c), c.strategy.label(), _fmt(c.default_tol)] for c in cases),
    )


def _list_md(cases: list[registry.IdentityCase]) -> str:
    lines = ["| id | anchor | params | strategy | tol |", "|----|--------|--------|----------|-----|"]
    for c in cases:
        lines.append(
            f"| {c.id} | {c.anchor} | {_params_spec_str(c)} | {c.strategy.label()} | {c.default_tol:.1e} |"
        )
    return "\n".join(lines)


def _parse_grid(specs: list[str]) -> dict[str, tuple[int, int]]:
    out: dict[str, tuple[int, int]] = {}
    for spec in specs:
        try:
            name, _, window = spec.partition("=")
            lo_s, _, hi_s = window.partition("..")
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ValueError(f"bad grid override {spec!r}; expected name=lo..hi")
        if name not in registry.PARAM_NAMES:
            raise ValueError(f"bad grid override {spec!r}; parameter must be one of {registry.PARAM_NAMES}")
        if lo > hi:
            raise ValueError(f"bad grid override {spec!r}; empty window")
        out[name] = (lo, hi)
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fibint", description="Verify Fibonacci-Lucas integral identities.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list catalog entries")
    p_list.add_argument("--filter", default="*", help="glob over catalog ids")
    p_list.add_argument("--format", choices=("json", "csv", "md"), default="md")
    p_list.add_argument("--out", default=None, help="write to file instead of stdout")

    p_show = sub.add_parser("show", help="show one catalog entry")
    p_show.add_argument("id")

    p_verify = sub.add_parser("verify", help="run verifications")
    p_verify.add_argument("--filter", default="*", help="glob over catalog ids")
    p_verify.add_argument("--tol", type=float, default=None, help="absolute tolerance override")
    p_verify.add_argument("--format", choices=("json", "csv", "md"), default="md")
    p_verify.add_argument("--out", default=None, help="write report to file instead of stdout")
    p_verify.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="name=lo..hi",
        help="narrow a parameter to its declared values inside lo..hi, across all matching entries (repeatable)",
    )
    return ap


def _emit(text: str, out: TextIO | None) -> None:
    """Write text and, unless it has one, a final newline to out, or to stdout if out is None:
    two writes, not a copy of text.  The stream is flushed, so that a closed pipe raises here and not at exit."""
    out = out or sys.stdout
    out.write(text)
    out.write("" if text.endswith("\n") else "\n")
    out.flush()


def _dispatch(args: argparse.Namespace, out: TextIO | None) -> int:
    """Run one parsed command, writing its output to out (None: stdout)."""
    if args.command == "list":
        ids = set(registry.match_ids(args.filter))
        cases = [c for c in registry.catalog() if c.id in ids]
        text = {"json": _list_json, "csv": _list_csv, "md": _list_md}[args.format](cases)
        _emit(text, out)
        return 0

    if args.command == "show":
        case = registry.get_case(args.id)
        grid = registry.default_grid(case.id)
        lines = [
            f"id:          {case.id}",
            f"anchor:      {case.anchor}",
            f"strategy:    {case.strategy.label()}",
            f"params:      {_params_spec_str(case) or '(none)'}",
            f"default_tol: {case.default_tol:.2e}",
            f"instances:   {len(grid)}",
        ]
        if case.note:
            lines.append(f"note:        {case.note}")
        _emit("\n".join(lines), out)
        return 0

    # verify
    from . import quad, verifier

    if args.tol is not None and not (quad.TOL_MIN <= args.tol <= quad.TOL_MAX):
        print(f"error: --tol must lie in [{quad.TOL_MIN}, {quad.TOL_MAX}]", file=sys.stderr)
        return 2
    overrides = _parse_grid(args.grid) or None
    report = verifier.run(args.filter, grid_override=overrides, tol_override=args.tol)
    if args.format == "json":
        text = report_json(report, args.tol, args.filter)
    elif args.format == "csv":
        text = _report_csv(report)
    else:
        text = _report_md(report)
    _emit(text, out)
    return 0 if report.n_fail == 0 else 1


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    target = getattr(args, "out", None)  # `show` has no --out
    try:
        if target is None:
            return _dispatch(args, None)
        # --out is created or truncated before any work, as a shell redirection is
        with open(target, "w", encoding="utf-8") as out:
            return _dispatch(args, out)
    except (registry.CatalogError, ValueError) as exc:  # ParamError and EmptyFilterError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early; point fd 1 at devnull so that the
        # flush at interpreter exit stays quiet (as the `signal` docs advise)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # e.g. --out in a missing directory, or naming a directory
        print(f"error: cannot write {'stdout' if target is None else target}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
