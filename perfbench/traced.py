"""Traced run of one fibint CLI workload, for the per-layer numbers.

Usage (started by run.py in a fresh interpreter with PYTHONPATH=src):

    python3 perfbench/traced.py warm|cold SECONDS CLI_ARG...

`warm` runs one untimed pass, then traced passes of `cli.main(CLI_ARG...)`
for SECONDS; `cold` runs exactly one traced pass after the import and the
first catalog build, as `python -m fibint.cli` would.  The last line of
stdout is one JSON object with the set-up times and the raw aggregates of
every traced pass; run.py turns them into named metrics.

Spans come from this file only, around calls into each module's public
functions; nothing under src/ is changed.  The wrappers on exact_seq and
specfun are installed before the first `registry.catalog()`, because
`fibint.catalog` binds those names when it is imported.  A call into a
layer from that same layer (li2_real recursing, golden_powers calling fib,
integrate_tan_halfpi calling integrate_half_line, verifier.run calling
verify_instance) crosses no boundary: it is counted but opens no span, so
its time stays in the outer span.  Spans are aggregated as they close
(count, total and self time per key) rather than stored one by one; a
verify pass closes over 200k of them.  Each span's own bookkeeping lands
partly in its parent's self time, so a layer with many short children
(quad, over its integrand calls) reads high; compare self times only
between runs of this benchmark.  fib_complex is not wrapped: no CLI
command reaches it.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Span stack with per-key aggregates.

    A frame is [key, layer, child_time, ctx].  ctx is inherited by
    child spans unless the span sets its own: "integrand" inside a
    catalog integrand closure, "builder" inside a right-hand-side or
    integrand builder.
    """

    def __init__(self) -> None:
        self.stack: list[list] = [["", "", 0.0, None]]
        self.reset()

    def reset(self) -> None:
        del self.stack[1:]
        self.stack[0][2] = 0.0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.nested: Counter = Counter()
        self.evals: Counter = Counter()
        self.nonconverged = 0
        self.err_understated = 0
        self.rhs_of: dict[int, float] = {}

    def wrap(self, fn, layer, key=None, enter=None, by_ctx=None, hook=None):
        """Return fn wrapped in a span of `layer`.

        key names the span (default: the layer); by_ctx maps the caller's
        ctx to another key; enter is the ctx the span sets for its
        children; hook(args, result, key) runs after the span closes and
        its time is booked to "trace.hooks", not to any layer.
        """
        key = key or layer
        by_ctx = by_ctx or {}
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            top = stack[-1]
            if top[1] == layer:
                self.nested[layer] += 1
                return fn(*args, **kwargs)
            k = by_ctx.get(top[3], key)
            frame = [k, layer, 0.0, enter or top[3]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][2] += dt
                self.self_s[k] += dt - frame[2]
                self.total_s[k] += dt
                self.calls[k] += 1
            if hook is not None:
                h0 = clock()
                hook(args, result, k)
                hd = clock() - h0
                stack[-1][2] += hd
                self.self_s["trace.hooks"] += hd
            return result

        return traced

    def snapshot(self, wall: float) -> dict:
        return {
            "wall": wall,
            "self": dict(self.self_s),
            "total": dict(self.total_s),
            "calls": dict(self.calls),
            "nested": dict(self.nested),
            "evals": dict(self.evals),
            "nonconverged": self.nonconverged,
            "err_understated": self.err_understated,
        }


def install_leaf_wrappers(tracer: Tracer) -> None:
    """exact_seq and specfun: must run before the first registry.catalog()."""
    from fibint import exact_seq, specfun

    for name in ("fib", "lucas", "golden_powers"):
        setattr(exact_seq, name, tracer.wrap(getattr(exact_seq, name), "exact_seq"))
    for name in ("li2_real", "cl2", "constants"):
        fn = getattr(specfun, name)
        setattr(specfun, name, tracer.wrap(fn, "specfun", "specfun.rhs", by_ctx={"integrand": "specfun.integrand"}))


def install_wrappers(tracer: Tracer) -> None:
    """quad, registry and verifier entry points, as module attributes."""
    from fibint import quad, registry, verifier

    def quad_done(args, res, key):
        if key == "quad.rhs":
            return
        tracer.evals[key[len("quad."):]] += res.evals
        tracer.nonconverged += not res.converged
        rhs = tracer.rhs_of.get(id(args[0]))
        if rhs is not None and abs(res.value - rhs) > res.err_est:
            tracer.err_understated += 1

    for fname, strategy in (
        ("integrate_finite", "FINITE"),
        ("integrate_half_line", "HALF_LINE"),
        ("integrate_tan_halfpi", "TAN_HALFPI"),
    ):
        fn = getattr(quad, fname)
        setattr(quad, fname, tracer.wrap(fn, "quad", "quad." + strategy, by_ctx={"builder": "quad.rhs"}, hook=quad_done))

    def instantiated(args, inst, key):
        integrand = inst.integrand
        tracer.rhs_of[id(integrand)] = inst.rhs
        integrand.eval = tracer.wrap(integrand.eval, "catalog", "catalog.integrand", enter="integrand")

    for name in ("catalog", "get_case", "default_grid", "catalog_entries"):
        setattr(registry, name, tracer.wrap(getattr(registry, name), "registry"))
    registry.instantiate = tracer.wrap(registry.instantiate, "registry", "registry.instantiate", hook=instantiated)
    for name in ("run", "verify_instance", "match_ids"):
        setattr(verifier, name, tracer.wrap(getattr(verifier, name), "verifier"))


def wrap_builders(tracer: Tracer, cases) -> None:
    """Time each catalog row's integrand builder and right-hand side."""
    for case in cases:
        for attr in ("lhs_builder", "rhs_eval"):
            fn = tracer.wrap(getattr(case, attr), "catalog", "catalog.builder", enter="builder")
            object.__setattr__(case, attr, fn)  # IdentityCase is a frozen dataclass


def main(argv: list[str]) -> int:
    mode, seconds, cli_args = argv[0], float(argv[1]), argv[2:]
    clock = time.perf_counter
    tracer = Tracer()

    t0 = clock()
    import fibint.exact_seq  # noqa: F401  (imports the package, but not fibint.catalog)
    import fibint.specfun  # noqa: F401

    import_s = clock() - t0
    install_leaf_wrappers(tracer)
    install_wrappers(tracer)
    t0 = clock()
    from fibint import cli, registry

    import_s += clock() - t0
    t0 = clock()
    cases = registry.catalog()
    catalog_build_s = clock() - t0
    wrap_builders(tracer, cases)
    main_traced = tracer.wrap(cli.main, "cli")

    def one_pass() -> dict:
        gc.collect()
        tracer.reset()
        t = clock()
        rc = main_traced(cli_args)
        wall = clock() - t
        snap = tracer.snapshot(wall)
        snap["rc"] = rc
        return snap

    passes = []
    if mode == "cold":
        passes.append(one_pass())
    else:
        one_pass()  # warm-up: lazy node tables and lookup caches
        deadline = clock() + seconds
        while not passes or clock() < deadline:
            passes.append(one_pass())
    print(json.dumps({"import_s": import_s, "catalog_build_s": catalog_build_s, "passes": passes}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
