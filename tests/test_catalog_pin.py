"""Pin the catalog's bits: every row's shape, every instance's closed form
and integrand, and the bytes of `fibint list`.

Two sha256 digests guard rewrites of fibint.families that must not change a
single result bit:

* the benchmark's catalog digest (perfbench/run.py: catalog_entries()
  sorted by id, each row with its default grid), so the ids, anchors,
  parameter domains, strategies and default tolerances stay put;
* a digest over every default-grid instance of rhs.hex(), tol, strategy
  label, singular_points and integrand.eval(x).hex() at four fixed
  abscissae per strategy, so each closed form and each integrand keeps
  its rounding.

A third set pins the bytes of `fibint list --format json|csv|md`, which
the catalog digest cannot see: it hashes parsed rows.

Rows whose integral is another instance's declare it (IdentityCase.shares),
and the verifier integrates it once.  Tests hold the declarations to the
catalog: every repeated binary64 integrand is declared, every declared
group is one integrand at every abscissa a quadrature can visit, and its
closed forms agree within a few ulp.  So do the closed forms of instances
whose integrands agree within 64 ulp, one integral written in two forms,
and a row without parameters that is such a form of a general row's
instance shares that instance's integral.  Five rows repeat one integral at
several points of their own grid; a test holds those points to one
integrand and one closed form.

These digests pin bytes.  The numbers a run gives each instance (lhs,
err_est, evals, converged, rule, reused and verdict, at the default
tolerances and at `--tol` 1e-12, 1e-13 and 1e-3) are pinned by the
per-instance table tests/results.tsv instead, which test_results_table
checks and tests/make_results.py re-records, so that a change which moves
one of them names each instance it moved.
"""

import ast
import collections
import functools
import hashlib
import json
import math
import pathlib

import pytest

from fibint import cli, families, quad, registry

CATALOG_SHA256 = "823e9b1cdddb37e83214234452375ebf31c64fe7d3425d83ec897556056b59a7"
INSTANCE_SHA256 = "b7e649ebeedf12fd6f03407e489aabd0a458bfa70892f57686a8189f9065e2a2"

LIST_SHA256 = {
    "json": "7445986c1c8c8c14a92a6e21526363b1fe79a51ba46dffefbbacba6c62332e38",
    "csv": "f21a87adc966faf57ecac3e2fd3b053c60afe4874f693777fb64b4deeb74f10c",
    "md": "b00912959aec3f5a217eb868a53a644e8b46584c323dae022b1edeb67ee1db05",
}

FINITE_FRACTIONS = (0.0625, 0.3, 0.61803, 0.97)
HALF_LINE_POINTS = (0.03, 0.7, 2.5, 41.0)  # also t = tan x for TAN_HALFPI


def _abscissae(strategy):
    if strategy.kind == "FINITE":
        return [strategy.a + (strategy.b - strategy.a) * f for f in FINITE_FRACTIONS]
    return list(HALF_LINE_POINTS)


def _value(f, x):
    try:
        return float(f(x))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


def _sample(f, x):
    v = _value(f, x)
    return v if isinstance(v, str) else v.hex()


def catalog_digest():
    grids = {c.id: registry.default_grid(c.id) for c in registry.catalog()}
    rows = [dict(e, grid=sorted(sorted(a.items()) for a in grids[e["id"]])) for e in registry.catalog_entries()]
    rows.sort(key=lambda r: r["id"])
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def instance_digest():
    h = hashlib.sha256()
    for case in registry.catalog():
        xs = _abscissae(case.strategy)
        for assignment in registry.default_grid(case.id):
            inst = registry.instantiate(case.id, assignment)
            samples = [_sample(inst.integrand.eval, x) for x in xs]
            line = (case.id, sorted(assignment.items()), inst.rhs.hex(), inst.tol.hex(), inst.strategy.label(),
                    [p.hex() for p in inst.integrand.singular_points], samples)
            h.update(repr(line).encode())
    return h.hexdigest()


def test_catalog_rows_pinned():
    assert catalog_digest() == CATALOG_SHA256


def test_instance_bits_pinned():
    assert instance_digest() == INSTANCE_SHA256


def test_catalog_calls_no_builtin_sum():
    # from CPython 3.12 on, sum() of floats is compensated, so a closed form written with it rounds
    # differently across interpreters and the bits pinned here hold on some of them only; a sum is
    # a loop in a fixed order instead
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pathlib.Path(families.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert calls == []


@pytest.mark.parametrize("fmt", list(LIST_SHA256))
def test_list_bytes_pinned(fmt, capsys, tmp_path):
    # stdout and --out FILE carry the same bytes
    path = tmp_path / f"list.{fmt}"
    assert cli.main(["list", "--format", fmt]) == 0
    assert cli.main(["list", "--format", fmt, "--out", str(path)]) == 0
    for data in (capsys.readouterr().out.encode(), path.read_bytes()):
        assert hashlib.sha256(data).hexdigest() == LIST_SHA256[fmt]


# Integrals the catalog declares shared (IdentityCase.shares): a group is the
# instance a declaration names and the instances that name it.


def _key(case_id, assignment):
    return case_id, tuple(sorted(assignment.items()))


def declared_groups():
    """{target key: [target key, sharer keys...]}, over the default grids."""
    groups = {}
    for case in registry.catalog():
        if case.shares is None:
            continue
        for assignment in registry.default_grid(case.id):
            target = case.shares(**assignment)
            if target is not None:
                tkey = _key(*target)
                groups.setdefault(tkey, [tkey]).append(_key(case.id, assignment))
    return groups


def _key_args(key):
    return key[0], dict(key[1])


def _group_id(key):
    case_id, assignment = key
    return "/".join([case_id, *(f"{k}={v}" for k, v in assignment)])


DECLARED = declared_groups()


def cases_of_their_own(groups):
    """{first: [members...]}: in a general instance's group, the instances without parameters (special
    values), and the second members of S4's double equalities (the .B rows), where there are two or more
    of one kind.  They integrate one integral among themselves too, a case of its own."""
    own = {}
    for target, members in groups.items():
        if target[1]:
            for kind in ([key for key in members if not key[1]], [key for key in members if key[0].endswith(".B")]):
                if len(kind) > 1:
                    own[kind[0]] = kind
    return own


# declared groups by target, and their cases of their own by the first member; no sharer is a target
SHARED = {**DECLARED, **cases_of_their_own(DECLARED)}
DENSE = 4000


def _even_abscissae(strategy, n):
    """n evenly spaced abscissae inside the domain; on the half line, x = tan of an even grid on (0, pi/2)."""
    if strategy.kind == "FINITE":
        return [strategy.a + (strategy.b - strategy.a) * j / (n + 1) for j in range(1, n + 1)]
    return [math.tan(0.5 * math.pi * j / (n + 1)) for j in range(1, n + 1)]


def _quadrature_abscissae(strategy, splits):
    """Every abscissa that a quadrature of a row with this strategy and splits
    can visit, at any tol: each panel's tanh-sinh nodes down to MAX_LEVEL,
    and on a finite panel its Fejer nodes and off-grid sample."""
    if strategy.kind == "FINITE":
        panels = quad._finite_layout(strategy.a, strategy.b, tuple(splits))
    else:
        panels = [(0.0, math.inf, quad._HALF_LINE if strategy.kind == "HALF_LINE" else quad._TAN)]
    xs = []
    for lo, hi, table in panels:
        xs.append(table.center[0])
        for level in range(quad.MAX_LEVEL + 1):
            body, (low, high) = table.rows(level)
            xs += [x for row in body for x in row[:2]]
            xs += [x for _, x, _ in low + high]
        if table.fejer is not None:
            xs += [x for level in range(quad._FEJER_LEVELS) for pair in table.fejer(level)[0] for x in pair]
            xs.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * quad._SAMPLE_T)
    return xs


@functools.cache
def _dense_xs(strategy, splits):
    return _quadrature_abscissae(strategy, splits) + _even_abscissae(strategy, DENSE)


@functools.cache
def dense_signature(key):
    """A digest of the instance's integrand at every quadrature node and DENSE more abscissae."""
    case = registry.get_case(key[0])
    f = registry.instantiate(*_key_args(key)).integrand.eval
    samples = [_sample(f, x) for x in _dense_xs(case.strategy, case.splits)]
    return case.strategy, case.splits, hashlib.sha256(repr(samples).encode()).hexdigest()


def test_every_bit_identical_repeat_is_declared():
    # group every default-grid instance by its integrand at 22 abscissae, then
    # split each group by the dense signature: each part of two or more
    # instances integrates one binary64 function, and must be a declared group
    coarse = collections.defaultdict(list)
    for case in registry.catalog():
        xs = _even_abscissae(case.strategy, 22)
        for assignment in registry.default_grid(case.id):
            f = registry.instantiate(case.id, assignment).integrand.eval
            coarse[case.strategy, case.splits, tuple(_sample(f, x) for x in xs)].append(_key(case.id, assignment))
    found = []
    for members in coarse.values():
        if len(members) > 1:
            parts = collections.defaultdict(list)
            for key in members:
                parts[dense_signature(key)].append(key)
            found += [sorted(part) for part in parts.values() if len(part) > 1]
    declared = [sorted(group) for group in DECLARED.values()]
    assert [g for g in found if g not in declared] == []
    assert len(found) == len(declared) == 260
    assert sum(map(len, found)) == 613


@pytest.mark.parametrize("target", list(SHARED), ids=_group_id)
def test_declared_integrals_are_bit_identical(target):
    # one binary64 integrand under one strategy and one set of splits, so that
    # every quadrature of it, at any tol, gives the same QuadResult
    assert len({dense_signature(key) for key in SHARED[target]}) == 1


def test_declarations_name_instances_that_declare_nothing():
    # a target is an instance of its row's default grid, and no target is itself a sharer
    for target, members in DECLARED.items():
        case_id, assignment = _key_args(target)
        assert assignment in registry.default_grid(case_id), target
        shares = registry.get_case(case_id).shares
        assert shares is None or shares(**assignment) is None, target
        assert len(set(members)) == len(members), target


# in-grid repeats: rows that name an instance of their own grid
REPEATS = sorted({key[0] for target, members in DECLARED.items() for key in members[1:] if key[0] == target[0]})


@pytest.mark.parametrize("case_id", REPEATS)
def test_repeated_integral_has_one_closed_form(case_id):
    # a row that repeats one integral inside its grid must give it one closed form
    xs = _abscissae(registry.get_case(case_id).strategy)
    for target, members in DECLARED.items():
        if target[0] == case_id:
            seen = set()
            for key in members:
                inst = registry.instantiate(*_key_args(key))
                seen.add((tuple(_sample(inst.integrand.eval, x) for x in xs), inst.rhs.hex()))
            assert len(seen) == 1, target


# Integrals that two rows write in two forms: instances that match, with one strategy and one set of
# splits and integrands within NEAR_ULPS of each other at 22 even abscissae.  A declared group is bit
# for bit one integrand, so it lies inside one such group.

NEAR_ULPS = 64


@functools.cache
def even_values(key):
    """The instance's integrand at 22 even abscissae: a float, or the name of the error it raises."""
    case = registry.get_case(key[0])
    f = registry.instantiate(*_key_args(key)).integrand.eval
    return tuple(_value(f, x) for x in _even_abscissae(case.strategy, 22))


def _match(a, b):
    """Two instances' integrands are within NEAR_ULPS at every even abscissa, or raise the same error there."""
    for u, v in zip(even_values(a), even_values(b)):
        if isinstance(u, str) or isinstance(v, str):
            if u != v:
                return False
        elif abs(u - v) > NEAR_ULPS * math.ulp(max(abs(u), abs(v))):
            return False
    return True


@functools.cache
def near_groups():
    """Every group of two or more matching default-grid instances, in catalog order: instances bucketed
    by strategy, splits and their values to 6 digits, and each bucket split by a match with a group's first."""
    buckets = collections.defaultdict(list)
    for case in registry.catalog():
        for assignment in registry.default_grid(case.id):
            key = _key(case.id, assignment)
            digits = tuple(v if isinstance(v, str) else f"{v:.6g}" for v in even_values(key))
            buckets[case.strategy, case.splits, digits].append(key)
    groups = []
    for members in buckets.values():
        parts = []
        for key in members:
            part = next((p for p in parts if _match(p[0], key)), None)
            if part is None:
                parts.append([key])
            else:
                part.append(key)
        groups += [tuple(part) for part in parts if len(part) > 1]
    return groups


# near groups that are not one declared group: one integral that rows write in two forms, each integrated
_DECLARED_SETS = {frozenset(members) for members in DECLARED.values()}
UNDECLARED = [g for g in near_groups() if frozenset(g) not in _DECLARED_SETS]


def test_near_identical_instances():
    groups = near_groups()
    assert all(_match(a, b) for g in groups for a in g for b in g)
    where = {key: i for i, g in enumerate(groups) for key in g}
    assert all({where.get(key) for key in members} == {where[members[0]]} for members in DECLARED.values())
    assert (len(groups), sum(map(len, groups))) == (295, 693)
    assert (len(UNDECLARED), sum(map(len, UNDECLARED))) == (45, 101)


# parameter-free rows that integrate their own kernel, and why no general row's instance can stand in
OWN_KERNEL = {
    "S7.ID7.PART": "its kernel is S7.ID7's at r = 1, where ID7's closed form needs Li2(2)",
    "S7.ID8.PART": "its kernel x^2 (2 + cos 2x)/(5 + 4 cos 2x)^2 is not S7.ID8's at any r",
}


def test_special_values_share_the_instances_they_match():
    # a parameter-free row whose integrand matches an instance of a row with parameters is in one
    # declared group with such an instance, so it restates no kernel and costs no quadrature
    group_of = {key: target for target, members in DECLARED.items() for key in members}
    loose = []
    for g in near_groups():
        shared = {group_of[k] for k in g if k[1] and k in group_of}
        loose += [key[0] for key in g if not key[1] and group_of.get(key) not in shared]
    assert loose == []
    alone = [c.id for c in registry.catalog() if not c.params and _key(c.id, {}) not in group_of]
    assert alone == list(OWN_KERNEL)


CLOSED_FORM_ULPS = 8
# group -> why its closed forms disagree by more than CLOSED_FORM_ULPS, as measured
CLOSED_FORM_XFAIL = {
    "S9.EZYW57R/r=9": "S9.NT2NOAN is 9 ulp away; a 40-digit mpmath.quad of the binary64 integrand puts NT2NOAN "
    "12 ulp off and EZYW57R 3 ulp off, a closed form that loses digits (ROADMAP item 1)",
}


# a declared group goes by its target's id, its special values by the first one's, and an
# undeclared near group by ~ and its first instance's
ONE_INTEGRAL = {_group_id(t): members for t, members in SHARED.items()}
ONE_INTEGRAL.update((f"~{_group_id(g[0])}", g) for g in UNDECLARED)


@pytest.mark.parametrize(
    "group",
    [
        pytest.param(g, marks=[pytest.mark.xfail(strict=True, reason=CLOSED_FORM_XFAIL[g])])
        if g in CLOSED_FORM_XFAIL
        else g
        for g in ONE_INTEGRAL
    ],
)
def test_closed_forms_of_one_integral_agree(group):
    # every closed form of one integral rounds to within a few ulp of the others:
    # a far sharper check on them than any verdict threshold
    rhs = [registry.instantiate(*_key_args(key)).rhs for key in ONE_INTEGRAL[group]]
    assert max(rhs) - min(rhs) <= CLOSED_FORM_ULPS * math.ulp(max(map(abs, rhs)))


@pytest.mark.parametrize("r", [1, 3, 5])
def test_structural_rows_at_odd_r_are_the_recombined_rows(r):
    # at odd r the structural kernels' constant sqrt5 F_r is A_r of the odd recombined rows, so
    # QVB6JUR is Y4DQFP7's integral and A40QD9A the sum of Y4DQFP7's and GG6A1VX's
    rhs = {case_id: registry.instantiate(case_id, {"r": r}).rhs
           for case_id in ("S10.QVB6JUR", "S10.A40QD9A", "S10.Y4DQFP7", "S10.GG6A1VX")}
    for got, want in ((rhs["S10.QVB6JUR"], rhs["S10.Y4DQFP7"]), (rhs["S10.A40QD9A"], rhs["S10.Y4DQFP7"] + rhs["S10.GG6A1VX"])):
        assert abs(got - want) <= CLOSED_FORM_ULPS * math.ulp(want)
