"""Start-up cost of the records, and the names `perfbench/traced.py` patches.

`fibint list` and a cold `fibint verify` should not pay for the
`dataclasses` machinery or for `fractions`/`decimal`, which only the
lazily built Clausen tables use.  The traced benchmark run
(`perfbench/run.py --trace 1`) replaces module functions and record
attributes in place, so those names must stay module attributes and
those attributes must stay assignable.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import fibint
from fibint import cli, exact_seq, quad, registry, specfun, verifier

HEAVY = ("dataclasses", "inspect", "fractions", "decimal")


def _loaded_after(code: str) -> list[str]:
    """The HEAVY modules present in a fresh interpreter after running code."""
    src = str(pathlib.Path(fibint.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = f"{code}\nimport sys\nprint(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_cli_import_and_catalog_build_load_no_heavy_module():
    bare = _loaded_after("pass")
    if bare:
        pytest.skip(f"a bare interpreter already loads {bare}")
    assert _loaded_after("import fibint.cli\nfibint.cli.registry.catalog()") == []


@pytest.mark.parametrize(
    "module, names",
    [
        (exact_seq, ("fib", "lucas", "golden_powers")),
        (specfun, ("li2_real", "cl2", "constants")),
        (quad, ("integrate_finite", "integrate_half_line", "integrate_tan_halfpi")),
        (registry, ("catalog", "get_case", "default_grid", "catalog_entries", "instantiate")),
        (verifier, ("run", "verify_instance", "match_ids")),
        (cli, ("main",)),
    ],
    ids=lambda v: getattr(v, "__name__", "names"),
)
def test_traced_functions_are_module_attributes(module, names):
    for name in names:
        assert callable(getattr(module, name)), f"{module.__name__}.{name}"


def test_identity_case_builders_and_integrand_eval_are_assignable():
    case = registry.get_case("S10.QVB6JUR")
    saved = {attr: getattr(case, attr) for attr in ("lhs_builder", "rhs_eval")}
    seen = []
    try:
        for attr, fn in saved.items():
            object.__setattr__(case, attr, lambda p, fn=fn, attr=attr: seen.append(attr) or fn(p))
        inst = registry.instantiate(case.id, registry.default_grid(case.id)[0])
        assert seen == ["lhs_builder", "rhs_eval"]
        inner = inst.integrand.eval
        inst.integrand.eval = lambda x: seen.append("eval") or inner(x)
        res = verifier.verify_instance(inst)
        assert res.passed and seen.count("eval") == res.quad_evals
    finally:
        for attr, fn in saved.items():
            object.__setattr__(case, attr, fn)
