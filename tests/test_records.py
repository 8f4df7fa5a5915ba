"""Start-up cost of the records and the package, and the names `perfbench/traced.py` patches.

`fibint list` and a cold `fibint verify` should not pay for the
`dataclasses` machinery or for `fractions`/`decimal`: the dilogarithm and
Clausen tables are float literals, and the report's timestamp comes from
`time`, not `datetime`.  `import fibint` loads no submodule, and `fibint
list` and `show` load neither the quadrature nor the verifier, nor the
modules only the other writers use, while one small `verify` run loads
every module the package ships, so none is dead weight.  No right side is a quadrature
value, so binding every instance loads no quadrature either.  The traced
benchmark run (`perfbench/run.py --trace 1`) replaces module functions and
record attributes in place, so those names must stay module attributes
and those attributes must stay assignable.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import fibint
from fibint import cli, exact_seq, quad, registry, specfun, verifier

HEAVY = ("dataclasses", "inspect", "fractions", "decimal")
NOT_FOR_LIST = ("fibint.quad", "fibint.verifier", "csv", "datetime")


def _modules_after(code: str) -> set[str]:
    """The modules present in a fresh interpreter after running code."""
    src = str(pathlib.Path(fibint.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = f"{code}\nimport sys\nprint(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.splitlines()[-1].split())


def _loaded_after(code: str, names: tuple[str, ...] = HEAVY) -> list[str]:
    """The modules of names present in a fresh interpreter after running code."""
    loaded = _modules_after(code)
    return [m for m in names if m in loaded]


def test_cli_import_and_catalog_build_load_no_heavy_module():
    bare = _loaded_after("pass")
    if bare:
        pytest.skip(f"a bare interpreter already loads {bare}")
    assert _loaded_after("import fibint.cli\nfibint.cli.registry.catalog()") == []


def test_list_and_show_load_only_the_catalog():
    code = (
        "import os, fibint.cli\n"
        "from fibint import cli, registry\n"
        "registry.catalog()\n"
        "assert cli.main(['list', '--format', 'json', '--out', os.devnull]) == 0\n"
        "assert cli.main(['show', 'S10.QVB6JUR']) == 0"
    )
    loaded = _modules_after(code) - _modules_after("pass")
    assert [m for m in NOT_FOR_LIST if m in loaded] == []


def test_whole_catalog_verify_loads_no_exact_arithmetic_or_datetime():
    names = ("fractions", "decimal", "numbers", "datetime")
    bare = _loaded_after("pass", names)
    if bare:
        pytest.skip(f"a bare interpreter already loads {bare}")
    code = (
        "import os\n"
        "from fibint import cli\n"
        "assert cli.main(['verify', '--format', 'json', '--out', os.devnull]) == 0"
    )
    assert _loaded_after(code, names) == []


def test_binding_every_instance_loads_no_quadrature():
    # every right side is a closed form: binding the whole default grid never reaches fibint.quad
    code = (
        "from fibint import registry\n"
        "for case in registry.catalog():\n"
        "    for assignment in registry.default_grid(case.id):\n"
        "        registry.instantiate(case.id, assignment)"
    )
    assert "fibint.quad" not in _modules_after(code)


def test_verify_loads_every_package_module():
    # the package holds only what a command runs: one small verify run loads each of its modules
    code = (
        "import os\n"
        "from fibint import cli\n"
        "assert cli.main(['verify', '--filter', 'S5.FOURG', '--format', 'json', '--out', os.devnull]) == 0"
    )
    package = pathlib.Path(fibint.__file__).resolve().parent
    shipped = {".".join(("fibint",) + p.relative_to(package).with_suffix("").parts) for p in package.rglob("*.py")}
    shipped = {name.removesuffix(".__init__") for name in shipped}
    loaded = {m for m in _modules_after(code) if m == "fibint" or m.startswith("fibint.")}
    assert loaded == shipped


def test_package_import_loads_no_submodule():
    assert sorted(m for m in _modules_after("import fibint") if m.startswith("fibint.")) == []


def test_every_public_name_resolves():
    # the public API is each submodule's __all__; the package itself holds only __version__
    for module in (exact_seq, quad, registry, specfun, verifier):
        namespace: dict = {}
        exec(f"from {module.__name__} import *", namespace)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), f"{module.__name__}.{name}"
    assert registry.Integrand is quad.Integrand
    assert verifier.match_ids is registry.match_ids and verifier.EmptyFilterError is registry.EmptyFilterError
    assert not hasattr(fibint, "catalog")
    assert isinstance(fibint.__version__, str)


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
            object.__setattr__(case, attr, lambda fn=fn, attr=attr, **p: seen.append(attr) or fn(**p))
        inst = registry.instantiate(case.id, registry.default_grid(case.id)[0])
        assert seen == ["lhs_builder", "rhs_eval"]
        inner = inst.integrand.eval
        inst.integrand.eval = lambda x: seen.append("eval") or inner(x)
        res = verifier.verify_instance(inst)
        assert res.passed and seen.count("eval") == res.quad_evals
    finally:
        for attr, fn in saved.items():
            object.__setattr__(case, attr, fn)
