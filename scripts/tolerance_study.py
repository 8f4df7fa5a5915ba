#!/usr/bin/env python3
"""Margin study: how far each verified instance sits from its tolerance.

Buckets the error-to-threshold ratios of a full run, then re-runs one
family at a sweep of tolerance overrides to show where the quadrature
cost starts to grow.  Useful when adding catalog rows: a healthy new row
lands below 1e-2 of threshold.
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fibint import verifier  # noqa: E402


BUCKET_LABELS = [
    "<1e-7",
    "[1e-7,1e-6)",
    "[1e-6,1e-5)",
    "[1e-5,1e-4)",
    "[1e-4,1e-3)",
    "[1e-3,1e-2)",
    "[1e-2,1e-1)",
    ">=1e-1",
]


def bucket_index(ratio: float) -> int:
    """Index into BUCKET_LABELS of the decade holding an error/threshold ratio."""
    if ratio <= 0.0:
        return 0
    if not ratio < math.inf:  # inf or nan: a failed row
        return len(BUCKET_LABELS) - 1
    return min(len(BUCKET_LABELS) - 1, max(0, math.floor(math.log10(ratio)) + 8))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--filter", default="*")
    ap.add_argument("--sweep-family", default="S7.ID7")
    args = ap.parse_args()

    report = verifier.run(args.filter)
    buckets = [0] * len(BUCKET_LABELS)
    for r in report.results:
        buckets[bucket_index(r.abs_err / r.tol if r.tol else math.inf)] += 1
    print("error/threshold distribution (decade buckets):")
    for lab, n in zip(BUCKET_LABELS, buckets):
        print(f"  {lab:>12s}: {n}")

    print(f"\ntolerance sweep over {args.sweep_family}:")
    print(f"{'tol':>8s} {'worst err':>12s} {'evals':>8s}")
    for tol in (1e-5, 1e-7, 1e-9, 1e-11, 1e-13):
        rep = verifier.run(args.sweep_family, tol_override=tol)
        worst = max(r.abs_err for r in rep.results)
        evals = sum(r.quad_evals for r in rep.results)
        print(f"{tol:8.0e} {worst:12.3e} {evals:8d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
