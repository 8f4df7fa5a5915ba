"""Command-line front end: list the catalog, show one entry, run
verifications, emit machine-readable reports.  Every command writes its
output through one path, as pieces streamed to stdout or to --out.

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
import time
from typing import TYPE_CHECKING, TextIO

from . import registry

# `list` and `show` read only the catalog: quad and the verifier are imported by
# `verify`, and csv and collections by the writers that use them
if TYPE_CHECKING:
    from typing import Iterable, Iterator

    from . import verifier


def _fmt(x: float) -> str:
    return format(x, ".17g")


# the quote, the backslash and the control characters; every other character is written as it is
_JSON_ESCAPES = {**{i: f"\\u{i:04x}" for i in range(0x20)}, ord('"'): '\\"', ord("\\"): "\\\\"}


def _json_escape(s: str) -> str:
    return s.translate(_JSON_ESCAPES)


# one verify result in JSON, from its texts; _JSON_ROW_FINITE takes lhs, rhs, abs_err and tol as floats
_JSON_ROW = '{"id": "%s", "params": {%s}, "lhs": %s, "rhs": %s, "abs_err": %s, "tol": %s, "passed": %s, "note": "%s"}'
_JSON_ROW_FINITE = _JSON_ROW % ("%s", "%s", "%.17g", "%.17g", "%.17g", "%.17g", "%s", "%s")


def _params_str(assignment) -> str:
    return ";".join(f"{k}={v}" for k, v in assignment)


def _json_pieces(report: verifier.Report, tol, pattern: str) -> Iterator[str]:
    """The `verify --format json` document in pieces: meta (tol, filter, timestamp), then one piece per
    catalog row, holding that row's results.  Each distinct assignment's params text is formatted once,
    and each result is one % operation."""
    import itertools

    ts = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())  # UTC, to the second
    tol_s = "null" if tol is None else _fmt(tol)
    yield f'{{"meta": {{"tol": {tol_s}, "filter": "{_json_escape(pattern)}", "timestamp": "{ts}"}}, "results": ['
    sep = ""
    isfinite = math.isfinite
    texts: dict = {}  # assignment -> its params text
    for case_id, results in itertools.groupby(report.results, lambda r: r.case_id):
        row = []
        for r in results:
            lhs, rhs, err, thr = r.lhs, r.rhs, r.abs_err, r.tol
            params = texts.get(r.assignment)
            if params is None:
                params = texts[r.assignment] = ", ".join([f'"{k}": {v}' for k, v in r.assignment])
            passed = "true" if r.passed else "false"
            note = _json_escape(r.note) if r.note else ""
            if isfinite(lhs + rhs + err + thr):
                row.append(_JSON_ROW_FINITE % (case_id, params, lhs, rhs, err, thr, passed, note))
            else:  # JSON has no inf or nan: null
                nums = [_fmt(x) if isfinite(x) else "null" for x in (lhs, rhs, err, thr)]
                row.append(_JSON_ROW % (case_id, params, *nums, passed, note))
        yield sep + ", ".join(row)
        sep = ", "
    yield "]}"


def _csv(header: list[str], rows) -> Iterator[str]:
    """A header and rows as CSV, one piece per line."""
    import csv
    import types

    # writerow returns what its file's write returns: here str(line), the line itself
    w = csv.writer(types.SimpleNamespace(write=str), lineterminator="\n")
    yield w.writerow(header)
    yield from map(w.writerow, rows)


def _csv_pieces(report: verifier.Report) -> Iterator[str]:
    return _csv(
        ["id", "params", "lhs", "rhs", "abs_err", "tol", "passed", "note"],
        (
            [
                r.case_id,
                _params_str(r.assignment),
                *map(_fmt, (r.lhs, r.rhs, r.abs_err, r.tol)),
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


def _md_pieces(report: verifier.Report) -> Iterator[str]:
    """One row per result, then a per-family summary, the abs_err/tol histogram and the totals, in pieces.
    A family's evals are the integrand calls its results made, so a result that reused another
    instance's integral adds none; the totals say how many did."""
    import collections

    yield (
        "| id | params | lhs | rhs | abs_err | tol | passed | note |"
        "\n|----|--------|-----|-----|---------|-----|--------|------|\n"
    )
    families = collections.defaultdict(list)
    for r in report.results:
        mark = "pass" if r.passed else "FAIL"
        yield (
            f"| {r.case_id} | {_params_str(r.assignment)} | {r.lhs:.12g} | {r.rhs:.12g} "
            f"| {r.abs_err:.3e} | {r.tol:.1e} | {mark} | {r.note} |\n"
        )
        families[r.case_id.partition(".")[0]].append(r)
    yield (
        "\n| family | cases | failed | worst abs_err | worst abs_err/tol | evals |"
        "\n|--------|-------|--------|---------------|-------------------|-------|\n"
    )
    for fam in sorted(families):
        rs = families[fam]
        yield (
            f"| {fam} | {len(rs)} | {sum(not r.passed for r in rs)} | {max(r.abs_err for r in rs):.3e} "
            f"| {max(map(_margin, rs)):.3e} | {sum(r.quad_evals for r in rs)} |\n"
        )
    counts = collections.Counter(bucket_index(_margin(r)) for r in report.results)
    yield "\n| abs_err/tol | instances |\n|-------------|-----------|\n"
    for i, label in enumerate(BUCKET_LABELS):
        yield f"| {label} | {counts[i]} |\n"
    reused = sum(r.reused for r in report.results)
    yield f"\n{report.n_pass} passed, {report.n_fail} failed, {len(report.results)} total in {report.wall_time:.2f} s"
    if reused:
        yield f"; {reused} reused the integral of another instance"


def _params_spec_str(case: registry.IdentityCase) -> str:
    return ";".join(f"{p.name}={p.min}..{p.max}" + ("" if p.parity == "any" else f":{p.parity}") for p in case.params)


def _list_json(cases: list[registry.IdentityCase]) -> Iterator[str]:
    """registry.catalog_entry of each row, as JSON."""
    yield "["
    sep = ""
    for c in cases:
        params = ", ".join(
            f'{{"name": "{p.name}", "parity": "{p.parity}", "min": {p.min}, "max": {p.max}, "exclusions": []}}'
            for p in c.params
        )
        yield (
            f'{sep}{{"id": "{c.id}", "anchor": "{_json_escape(c.anchor)}", "params": [{params}], '
            f'"strategy": "{c.strategy.label()}", "default_tol": {_fmt(c.default_tol)}}}'
        )
        sep = ", "
    yield "]"


def _list_csv(cases: list[registry.IdentityCase]) -> Iterator[str]:
    return _csv(
        ["id", "anchor", "params", "strategy", "default_tol"],
        ([c.id, c.anchor, _params_spec_str(c), c.strategy.label(), _fmt(c.default_tol)] for c in cases),
    )


def _list_md(cases: list[registry.IdentityCase]) -> Iterator[str]:
    yield "| id | anchor | params | strategy | tol |\n|----|--------|--------|----------|-----|\n"
    for c in cases:
        yield f"| {c.id} | {c.anchor} | {_params_spec_str(c)} | {c.strategy.label()} | {c.default_tol:.1e} |\n"


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
        if name in out:
            raise ValueError(f"bad grid override {spec!r}; {name} already has a window")
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
        help="narrow a parameter to its declared values inside lo..hi, across all matching entries "
        "(repeatable, once per parameter)",
    )
    return ap


def _emit(pieces: Iterable[str], out: TextIO | None) -> None:
    """Write a document one write per piece, as the pieces come, then a final newline unless it ends with
    one, to out, or to stdout if out is None.  No piece is more than one catalog row, so a document is never
    held whole, as text or as bytes.  The stream is flushed, so that a closed pipe raises here and not at
    exit."""
    out = out or sys.stdout
    last = ""
    for last in pieces:
        out.write(last)
    out.write("" if last.endswith("\n") else "\n")
    out.flush()


def _dispatch(args: argparse.Namespace, out: TextIO | None) -> int:
    """Run one parsed command, writing its output to out (None: stdout)."""
    if args.command == "list":
        cases = [registry.get_case(i) for i in registry.match_ids(args.filter)]
        _emit({"json": _list_json, "csv": _list_csv, "md": _list_md}[args.format](cases), out)
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
        _emit(["\n".join(lines)], out)
        return 0

    # verify
    from . import quad, verifier

    if args.tol is not None and not (quad.TOL_MIN <= args.tol <= quad.TOL_MAX):
        print(f"error: --tol must lie in [{quad.TOL_MIN}, {quad.TOL_MAX}]", file=sys.stderr)
        return 2
    overrides = _parse_grid(args.grid) or None
    report = verifier.run(args.filter, grid_override=overrides, tol_override=args.tol)
    if args.format == "json":
        pieces = _json_pieces(report, args.tol, args.filter)
    else:
        pieces = (_csv_pieces if args.format == "csv" else _md_pieces)(report)
    _emit(pieces, out)
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
