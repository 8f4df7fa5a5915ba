"""fibint benchmark: three CLI workloads over the whole catalog.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_full --seed 1 --seconds 30 --trace 0

Workloads (all deterministic; --seed is recorded but selects nothing,
because the catalog is the only input):

  verify_full   in-process `fibint verify --format json --out FILE` at the
                default row tolerances, one untimed warm-up pass first.
  verify_tight  the same pass with `--tol 1e-12`: deeper DE levels and the
                bisection and head/tail fallbacks.
  list_cold     one fresh interpreter at a time running
                `fibint list --format json`: import, catalog build and
                serialisation, no quadrature.

--trace 0 measures with no instrumentation and reports the end-to-end
metrics: setup_s (fastest `import fibint.cli` plus first catalog build
over fresh interpreters: the `list` children themselves on list_cold,
SETUP_PROBES set-up-only children before the passes on the verify
workloads), pass_ref.p50 (median over passes of the pass time over the
time of the REFERENCE work run just before it; a pass is one `cli.main`
call, or spawn-to-exit of one `list` child) and peak_rss_mb (the largest
peak resident set that a `fibint verify` or `fibint list` child reports
for itself, so the benchmark's own memory is not in it).  The pass is
gated as a ratio because on a shared host the speed of the CPU drifts by
up to 2x for minutes at a time, which moves any raw time of a run more
than any bound allows; the raw fastest, median and tail (highest
percentile with ten passes beyond it) pass times, failed_frac and
integrand_evals are printed beside it.

--trace 1 spends half the time on untraced passes and half on a traced run
(perfbench/traced.py in fresh interpreters) and reports the per-layer
metrics; the traced run must count exactly the integrand evaluations of
the untraced one and print the same results.

Every output is checked.  The catalog of the checkout must be the one
pinned below (163 rows, 1504 default-grid instances, and a digest of the
rows, their tolerances and their grids), so that a catalog that loses
rows, grid points or tolerance is a failed run and never a speed-up.
Each verify report must parse as strict JSON and hold one passing result
per default-grid instance, whose printed lhs, rhs and tol agree with the
verdict and with the first pass (a `fibint verify` child); each `list`
output must equal registry.catalog_entries().  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}; the
exit code is 1 when a check failed and 2 when the checkout has no
src/fibint.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED = Path(__file__).resolve().parent / "traced.py"
CHILD = [sys.executable, str(Path(__file__).resolve().parent / "child.py")]  # one fresh fibint process

RTOL = 1e-8  # pass threshold is max(tol, RTOL * |rhs|)
TIGHT_TOL = 1e-12
# Fixed interpreter work (calls, float math, dict stores; about 15 ms)
# that no change to fibint touches.  Each timed pass is paired with one
# run of it just before, of the same kind as the pass: in this process
# before an in-process pass, in a fresh interpreter before a `list`
# child.  pass / reference cancels how fast the shared host is at that
# moment, which moves the raw times of a run by up to 2x.
REFERENCE = (
    "import math\n"
    "def work():\n"
    "    d = {}\n"
    "    acc = 0.0\n"
    "    for i in range(60000):\n"
    "        x = i * 1e-4\n"
    "        acc += math.exp(-x) * math.tanh(x + 0.5)\n"
    "        d[i & 1023] = acc\n"
    "work()\n"
)
REFERENCE_CODE = compile(REFERENCE, "<reference>", "exec")
SETUP_PROBES = 40  # set-up-only children before the passes of a verify workload
CHILD_TIMEOUT_S = 60.0
STRATEGIES = ("FINITE", "HALF_LINE", "TAN_HALFPI")

# The catalog the benchmark measures: sha256 of catalog_entries() sorted
# by id, each row with its default grid as sorted (name, value) lists.
CATALOG_ROWS = 163
CATALOG_INSTANCES = 1504
CATALOG_SHA256 = "823e9b1cdddb37e83214234452375ebf31c64fe7d3425d83ec897556056b59a7"

LIST_ARGS = ["list", "--format", "json"]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FIBINT_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[float, subprocess.CompletedProcess | None]:
    """Run a child to completion; (spawn-to-exit seconds, result or None on timeout)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(args, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, proc


def child_result(proc: subprocess.CompletedProcess | None) -> tuple[float, int] | None:
    """(set-up seconds, peak kB) that a child.py process reports, or None."""
    if proc is None:
        return None
    try:
        setup_s, peak_kb = proc.stderr.strip().splitlines()[-1].split()
        return float(setup_s), int(peak_kb)
    except (IndexError, ValueError):
        return None


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def reference_loop() -> float:
    """Seconds of the reference work in this process."""
    t0 = time.perf_counter()
    exec(REFERENCE_CODE, {})
    return time.perf_counter() - t0


def catalog_digest(entries: list[dict], grids: dict[str, list[dict]]) -> str:
    rows = [dict(e, grid=sorted(sorted(a.items()) for a in grids[e["id"]])) for e in entries]
    rows.sort(key=lambda r: r["id"])
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def row_key(row: dict) -> int:
    """Hash of one printed result, to compare passes without keeping them."""
    return hash(json.dumps(row, sort_keys=True))


def reject_constant(name: str):
    raise ValueError(f"non-finite constant {name} in report")


class Checker:
    """What a correct run prints, taken from the catalog of this checkout."""

    def __init__(self, registry) -> None:
        self.default_tol = {}
        self.strategy = {}
        self.expected = set()
        grids = {}
        for case in registry.catalog():
            self.default_tol[case.id] = case.default_tol
            self.strategy[case.id] = case.strategy.kind
            grids[case.id] = registry.default_grid(case.id)
            for assignment in grids[case.id]:
                self.expected.add((case.id, tuple(sorted(assignment.items()))))
        self.entries = registry.catalog_entries()
        self.first_pass: list[int] | None = None
        self.problems: list[str] = []
        digest = catalog_digest(self.entries, grids)
        if (len(self.entries), len(self.expected), digest) != (CATALOG_ROWS, CATALOG_INSTANCES, CATALOG_SHA256):
            self.problem(
                f"catalog is not the pinned one: {len(self.entries)} rows, {len(self.expected)} instances, "
                f"sha256 {digest}; expected {CATALOG_ROWS}, {CATALOG_INSTANCES}, {CATALOG_SHA256}"
            )

    def report(self, text: str | None, tol: float | None) -> int:
        """Failed instances of one verify report."""
        try:
            rows = json.loads(text, parse_constant=reject_constant)["results"]
            seen = set()
            for row in rows:
                key = (row["id"], tuple(sorted(row["params"].items())))
                lhs, rhs, thr = row["lhs"], row["rhs"], row["tol"]
                limit = max(self.default_tol[row["id"]] if tol is None else tol, RTOL * abs(rhs))
                if (
                    key in self.expected
                    and key not in seen
                    and row["passed"] is True
                    and thr <= limit
                    and abs(lhs - rhs) <= thr
                ):
                    seen.add(key)
        except (TypeError, ValueError, KeyError, AttributeError) as exc:
            self.problem(f"report does not parse or has the wrong shape: {exc}")
            return len(self.expected)
        failed = len(self.expected) - len(seen)
        if len(rows) != len(self.expected):
            self.problem(f"report has {len(rows)} results, expected {len(self.expected)}")
        keys = [row_key(row) for row in rows]
        if self.first_pass is None:
            self.first_pass = keys
        elif keys != self.first_pass:
            changed = sum(a != b for a, b in zip(keys, self.first_pass)) + abs(len(keys) - len(self.first_pass))
            self.problem(f"{changed} results differ from the first pass")
            failed = max(failed, changed)
        return failed

    def listing(self, text: str | None) -> bool:
        try:
            ok = json.loads(text, parse_constant=reject_constant) == self.entries
        except (TypeError, ValueError) as exc:
            self.problem(f"list output does not parse: {exc}")
            return False
        if not ok:
            self.problem("list output differs from registry.catalog_entries()")
        return ok

    def evals_by_strategy(self, report) -> dict[str, int]:
        out = dict.fromkeys(STRATEGIES, 0)
        for r in report.results:
            out[self.strategy[r.case_id]] += r.quad_evals
        return out

    def problem(self, msg: str) -> None:
        if msg not in self.problems:
            self.problems.append(msg)
            print(f"check failed: {msg}", file=sys.stderr)


class Run:
    """Samples and counts of one benchmark run."""

    def __init__(self, checker: Checker) -> None:
        self.checker = checker
        self.pass_s: list[float] = []
        self.pass_ref: list[float] = []  # pass time over the reference run just before it
        self.setup_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.evals: dict[str, int] | None = None
        self.traced: list[dict] = []
        self.traced_wall: list[float] = []
        self.traced_setup: list[tuple[float, float]] = []
        self.peak_kb = 0

    def child_done(self, proc) -> tuple[float, int] | None:
        """Book the set-up time and peak memory a child reports."""
        result = child_result(proc)
        if result is not None:
            self.setup_s.append(result[0])
            self.peak_kb = max(self.peak_kb, result[1])
        return result

    def probe_setup(self) -> None:
        """Time import + first catalog build in one fresh interpreter."""
        _, proc = spawn(CHILD)
        if proc is None or proc.returncode != 0 or self.child_done(proc) is None:
            self.checker.problem("set-up child failed")

    # -- verify workloads (in process) -------------------------------------

    def verify(self, cli, verifier, argv: list[str], tol: float | None, out: Path, seconds: float) -> None:
        captured = []
        run = verifier.run

        def keep_report(*args, **kwargs):
            report = run(*args, **kwargs)
            captured.append(report)
            return report

        # One `fibint verify` process: writes the bytecode cache, prints the
        # results every later pass must repeat, and is the process that
        # peak_rss_mb measures.
        out.unlink(missing_ok=True)
        _, proc = spawn([*CHILD, *argv])
        if self.child_done(proc) is None:
            self.checker.problem("verify child reported no set-up time or peak")
        failed = self.checker.report(out.read_text(encoding="utf-8") if out.exists() else None, tol)
        self.count(None if proc is None else proc.returncode, failed, "verify child")
        for _ in range(SETUP_PROBES):
            self.probe_setup()
        verifier.run = keep_report  # only to read quad_evals, which the JSON omits
        try:
            self.verify_pass(cli, argv, tol, out, captured)  # warm-up, untimed
            deadline = time.perf_counter() + seconds
            while not self.pass_s or time.perf_counter() < deadline:
                self.timed(*self.verify_pass(cli, argv, tol, out, captured))
        finally:
            verifier.run = run

    def timed(self, pass_s: float, ref_s: float) -> None:
        self.pass_s.append(pass_s)
        self.pass_ref.append(pass_s / ref_s)

    def count(self, rc: int | None, failed: int, what: str) -> None:
        """Book one verify pass; its exit code must match its failures."""
        if rc != (1 if failed else 0):
            self.checker.problem(f"{what} exited {rc} with {failed} failed instances")
            failed = len(self.checker.expected)
        self.attempted += len(self.checker.expected)
        self.failed += failed

    def verify_pass(self, cli, argv, tol, out: Path, captured: list) -> tuple[float, float]:
        """(pass seconds, seconds of the REFERENCE work run just before it)"""
        out.unlink(missing_ok=True)
        captured.clear()
        gc.collect()
        ref_s = reference_loop()
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
        failed = self.checker.report(out.read_text(encoding="utf-8") if out.exists() else None, tol)
        self.count(rc, failed, "verify")
        evals = self.checker.evals_by_strategy(captured[-1]) if captured else None
        if self.evals is None:
            self.evals = evals
        elif evals != self.evals:
            self.checker.problem(f"integrand evaluations changed between passes: {evals} vs {self.evals}")
        return dt, ref_s

    # -- list_cold (one fresh interpreter per pass) ------------------------

    def list_cold(self, seconds: float) -> None:
        spawn(CHILD)  # warm-up: bytecode cache, file cache
        deadline = time.perf_counter() + seconds
        while not self.attempted or time.perf_counter() < deadline:
            ref_s, ref = spawn([sys.executable, "-c", REFERENCE])
            if ref is None or ref.returncode != 0:
                self.checker.problem("reference child failed")
            dt, proc = spawn([*CHILD, *LIST_ARGS])
            self.attempted += 1
            if proc is None or proc.returncode != 0 or not self.checker.listing(proc.stdout):
                self.failed += 1
                if proc is not None and proc.returncode != 0:
                    self.checker.problem(f"list child exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            if self.child_done(proc) is None:
                self.checker.problem("list child reported no set-up time or peak")
                self.failed += 1
                continue
            self.timed(dt, ref_s)

    # -- traced run ---------------------------------------------------------

    def trace(self, mode: str, cli_args: list[str], tol: float | None, out: Path, seconds: float) -> None:
        """Traced passes in fresh interpreters; `cold` spawns one per pass."""
        deadline = time.perf_counter() + seconds
        while not self.traced or time.perf_counter() < deadline:
            budget = max(deadline - time.perf_counter(), 0.0)
            out.unlink(missing_ok=True)
            cmd = [sys.executable, str(TRACED), mode, repr(budget), *cli_args, "--out", str(out)]
            dt, proc = spawn(cmd, budget + CHILD_TIMEOUT_S)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (AttributeError, IndexError, ValueError):
                self.checker.problem("traced run failed: " + ("timeout" if proc is None else proc.stderr[-300:]))
                self.failed += 1
                self.attempted += 1
                return
            if any(p["rc"] != 0 for p in result["passes"]):
                self.checker.problem("a traced pass exited nonzero")
            self.traced_setup.append((result["import_s"], result["catalog_build_s"]))
            text = out.read_text(encoding="utf-8") if out.exists() else None
            if mode == "cold":
                self.attempted += 1
                self.failed += not self.checker.listing(text)
                self.traced_wall.append(dt)
            else:
                failed = self.checker.report(text, tol)
                self.attempted += len(self.checker.expected)
                self.failed += failed
                self.traced_wall.extend(p["wall"] for p in result["passes"])
                for p in result["passes"]:
                    evals = {s: p["evals"].get(s, 0) for s in STRATEGIES}
                    if evals != self.evals:
                        self.checker.problem(f"traced evals {evals} differ from untraced {self.evals}")
            self.traced.extend(result["passes"])


def layer_metrics(p: dict) -> dict[str, float]:
    """Per-layer numbers of one traced pass, from its raw span aggregates."""
    self_s, total, calls, nested = p["self"], p["total"], p["calls"], p["nested"]

    def layer_self(layer: str) -> float:
        return sum((v for k, v in self_s.items() if k.split(".")[0] == layer), 0.0)

    m = {
        "registry.instantiate_s": total.get("registry.instantiate", 0.0),
        "registry.instantiate_calls": calls.get("registry.instantiate", 0),
        "registry.self_s": layer_self("registry"),
        "exact_seq.calls": calls.get("exact_seq", 0) + nested.get("exact_seq", 0),
        "exact_seq.self_s": layer_self("exact_seq"),
        "specfun.calls.rhs": calls.get("specfun.rhs", 0),
        "specfun.calls.integrand": calls.get("specfun.integrand", 0),
        "specfun.self_s": layer_self("specfun"),
        "catalog.integrand_calls": calls.get("catalog.integrand", 0),
        "catalog.integrand_self_s": self_s.get("catalog.integrand", 0.0),
        "catalog.builder_self_s": self_s.get("catalog.builder", 0.0),
    }
    for s in STRATEGIES:
        evals = p["evals"].get(s, 0)
        quad_self = self_s.get("quad." + s, 0.0)
        m["quad.evals." + s] = evals
        m["quad.self_s." + s] = quad_self
        m["quad.us_per_eval." + s] = 1e6 * quad_self / evals if evals else 0.0
    m["quad.self_s.rhs"] = self_s.get("quad.rhs", 0.0)
    m["quad.nonconverged"] = p["nonconverged"]
    m["quad.err_understated"] = p["err_understated"]
    m["verifier.self_s"] = layer_self("verifier")
    m["cli.self_s"] = layer_self("cli")
    m["other.self_s"] = p["wall"] - sum(self_s.values())
    m["integrand_evals"] = sum(p["evals"].values())
    return m


def unit_of(name: str) -> str:
    if name.startswith("quad.us_per_eval."):
        return "us"
    if name.endswith("_s") or ".self_s." in name:
        return "s"
    return "count"


# CLI arguments of each verify workload (the benchmark adds --out) and its --tol.
VERIFY = {
    "verify_full": (["verify", "--format", "json"], None),
    "verify_tight": (["verify", "--format", "json", "--tol", repr(TIGHT_TOL)], TIGHT_TOL),
}


def main() -> int:
    ap = argparse.ArgumentParser(description="fibint benchmark")
    ap.add_argument("--workload", required=True, choices=(*VERIFY, "list_cold"))
    ap.add_argument("--seed", type=int, default=0, help="recorded only: the inputs are fixed")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (SRC / "fibint" / "__init__.py").is_file():
        print(f"error: no fibint package under {SRC}; run from the root of a fibint checkout", file=sys.stderr)
        return 2

    os.environ.pop("FIBINT_THREADS", None)
    sys.path.insert(0, str(SRC))
    from fibint import cli, registry, verifier

    if Path(cli.__file__).resolve().parent != SRC / "fibint":
        print(f"error: imported fibint from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    checker = Checker(registry)
    run = Run(checker)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    measure_s = args.seconds / 2 if args.trace else args.seconds
    try:
        out = work / "report.json"
        if args.workload == "list_cold":
            run.list_cold(measure_s)
        else:
            cli_args, tol = VERIFY[args.workload]
            run.verify(cli, verifier, [*cli_args, "--out", str(out)], tol, out, measure_s)
        if args.trace and args.workload == "list_cold":
            run.trace("cold", LIST_ARGS, None, out, measure_s)
        elif args.trace:
            run.trace("warm", cli_args, tol, out, measure_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = run.failed == 0 and not checker.problems and bool(run.pass_s)
    print(f"workload {args.workload}, seed {args.seed} (recorded only; the inputs are fixed)")
    print(f"  failed_frac     {run.failed / max(run.attempted, 1)!r}  ({run.failed} of {run.attempted})")
    if run.evals is not None:
        print(f"  integrand_evals {sum(run.evals.values())} count per pass  {run.evals}")
    metrics: dict[str, dict] = {}
    if run.pass_s:
        p50 = statistics.median(run.pass_s)
        tail_s, tail_pct = tail(run.pass_s)
        setup = min(run.setup_s) if run.setup_s else math.nan
        print(f"  setup_s         {setup!r} s  (fastest of {len(run.setup_s)} fresh interpreters)")
        print(f"  pass_s.min      {min(run.pass_s)!r} s  ({len(run.pass_s)} passes)")
        print(f"  pass_s.p50      {p50!r} s")
        print(f"  pass_s.tail     {tail_s!r} s  (p{tail_pct:.1f} of {len(run.pass_s)} passes)")
        print(f"  pass_ref.p50    {statistics.median(run.pass_ref)!r} ratio  (pass over the reference run before it)")
        print(f"  peak_rss_mb     {run.peak_kb / 1024!r} MB")
        if args.trace == 0:
            metrics = {
                "setup_s": {"value": setup, "unit": "s"},
                "pass_ref.p50": {"value": statistics.median(run.pass_ref), "unit": "ratio"},
                "peak_rss_mb": {"value": run.peak_kb / 1024, "unit": "MB"},
            }
    if args.trace and run.traced:
        per_pass = [layer_metrics(p) for p in run.traced]
        # median_low keeps a count an integer: it is one of the samples
        values = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
        values["setup.import_s"] = statistics.median_low(s[0] for s in run.traced_setup)
        values["registry.catalog_build_s"] = statistics.median_low(s[1] for s in run.traced_setup)
        traced_p50 = statistics.median(run.traced_wall)
        values["trace.overhead_s"] = traced_p50 - statistics.median(run.pass_s) if run.pass_s else math.nan
        print(f"  traced passes   {len(per_pass)}, median {traced_p50!r} s")
        for name in sorted(values):
            print(f"  {name:30s} {values[name]!r} {unit_of(name)}")
        metrics = {name: {"value": values[name], "unit": unit_of(name)} for name in sorted(values)}
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
