#!/usr/bin/env python3
"""Run the identity verification over the whole catalog (or a filter) and
print a per-family summary: instance counts, worst absolute error, worst
error-to-threshold margin, and integrand evaluations.

Examples:
  python scripts/run_verification.py
  python scripts/run_verification.py --filter "S9.*" --json out/report.json
"""

from __future__ import annotations

import argparse
import collections
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fibint import cli, verifier  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--filter", default="*")
    ap.add_argument("--json", default=None, help="also write the full JSON report here")
    args = ap.parse_args()

    t0 = time.perf_counter()
    report = verifier.run(args.filter)
    dt = time.perf_counter() - t0

    groups: dict[str, list] = collections.defaultdict(list)
    for r in report.results:
        groups[r.case_id.split(".")[0]].append(r)

    print(f"{'family':10s} {'cases':>6s} {'worst err':>12s} {'worst margin':>13s} {'evals':>10s}")
    for fam in sorted(groups):
        rs = groups[fam]
        worst = max(r.abs_err for r in rs)
        margin = max(r.abs_err / r.tol for r in rs)
        evals = sum(r.quad_evals for r in rs)
        print(f"{fam:10s} {len(rs):6d} {worst:12.3e} {margin:13.3e} {evals:10d}")
    status = "all passed" if report.n_fail == 0 else f"{report.n_fail} FAILED"
    print(f"\n{len(report.results)} instances, {status}, {dt:.2f} s")

    for r in report.results:
        if not r.passed:
            print(f"  FAIL {r.case_id} {dict(r.assignment)}: |{r.lhs:.9g} - {r.rhs:.9g}| "
                  f"= {r.abs_err:.2e} > {r.tol:.1e} {r.note}")

    if args.json:
        pathlib.Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        text = cli.report_json(report, None, args.filter)
        pathlib.Path(args.json).write_text(text + "\n", encoding="utf-8")
        print(f"report written to {args.json}")
    return 0 if report.n_fail == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
