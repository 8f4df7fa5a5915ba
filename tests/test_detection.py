"""Detection power: how many usual slips of a derivation the verdict would let through.

Each mutant puts a wrong closed form in place of every instance's own: the row's closed form at the next
admissible value of its first parameter (the previous one at the top of its range), the negated one,
twice it, and it times 1 + 1e-6 and 1 + 1e-10.  A mutant passes where verify would pass it: the
instance's quadrature converged and its lhs lies within verifier.pass_threshold of the mutant, at the
row's tolerance or at `--tol 1e-12`.  The lhs and convergence come from the committed results table
(tests/results.tsv), so no quadrature runs here.
"""

import functools

import pytest

import make_results
from fibint import registry, verifier


def _shifted(case_id, assignment):
    """The assignment with the row's first parameter at its next admissible value, or None if it has none."""
    params = registry.get_case(case_id).params
    if not params:
        return None
    name, values = params[0].name, params[0].values()
    if len(values) == 1:
        return None
    i = values.index(assignment[name])
    return dict(assignment, **{name: values[i + 1] if i + 1 < len(values) else values[i - 1]})


@functools.cache
def _points():
    """(row, rhs, index-shifted rhs or None) of every instance of the committed table."""
    points = []
    for row in make_results.read():
        shifted = _shifted(row["id"], dict(make_results.params_of(row["params"])))
        rhs = float.fromhex(row["rhs"])
        points.append((row, rhs, None if shifted is None else registry.instantiate(row["id"], shifted).rhs))
    return points


MUTANTS = {
    "index-shift": lambda rhs, shifted: shifted,
    "negation": lambda rhs, shifted: -rhs,
    "double": lambda rhs, shifted: 2.0 * rhs,
    "rel-1e-6": lambda rhs, shifted: rhs * (1.0 + 1e-6),
    "rel-1e-10": lambda rhs, shifted: rhs * (1.0 + 1e-10),
}
TOLS = (None, 1e-12)

# how many instances each mutant passes at (the default tolerances, --tol 1e-12), the SAME points
# included: a change that makes the verdict sharper (ROADMAP items 2 and 11) lowers them and says so
PASSES = {
    "index-shift": (172, 52),
    "negation": (175, 47),
    "double": (183, 51),
    "rel-1e-6": (925, 209),
    "rel-1e-10": (1504, 1504),
}

# points where a mutant is the instance's own closed form to within SAME_ULPS, so it is no wrong closed
# form there: the identity does not depend on the shifted parameter at that point, or its rhs is 0
SAME_ULPS = 8
_ZERO_RHS = [("S2.COMPL2", f"k={k};n=2") for k in range(1, 6)]
SAME = {
    "index-shift": [
        ("S1.DILCHER", "n=1"),
        *(("S1.STEWART", f"k={k};n=1") for k in range(1, 6)),
        ("S10.A40QD9A", "r=1"),
        ("S10.QVB6JUR", "r=1"),
        ("S2.BJU5530", "k=1;n=2"),
        *_ZERO_RHS,
        ("S2.COMPL2", "k=1;n=3"),
        *(("S2.XSN0TMC", f"k={k};n=2") for k in range(1, 6)),
    ],
    "negation": _ZERO_RHS,
    "double": _ZERO_RHS,
    "rel-1e-6": _ZERO_RHS,
    "rel-1e-10": _ZERO_RHS,
}


def _mutants(name):
    """(row, rhs, mutant rhs) at every instance the mutant applies to."""
    wrong = [(row, rhs, MUTANTS[name](rhs, shifted)) for row, rhs, shifted in _points()]
    return [point for point in wrong if point[2] is not None]


def test_index_shift_applies_to_every_instance_with_a_parameter_to_shift():
    assert len(_mutants("index-shift")) == 1469
    assert all(len(_mutants(name)) == 1504 for name in MUTANTS if name != "index-shift")


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_passes(name, tol):
    label = make_results.TOLS[tol]
    passed = 0
    for row, _, wrong in _mutants(name):
        row_tol = registry.get_case(row["id"]).default_tol if tol is None else tol
        lhs = float.fromhex(row[f"lhs@{label}"])
        passed += row[f"converged@{label}"] == "1" and abs(lhs - wrong) <= verifier.pass_threshold(row_tol, wrong)
    assert passed == PASSES[name][TOLS.index(tol)]


@pytest.mark.parametrize("name", list(MUTANTS))
def test_points_where_a_mutant_is_the_closed_form(name):
    same = [(row["id"], row["params"]) for row, rhs, wrong in _mutants(name)
            if make_results.ulps(rhs, wrong) <= SAME_ULPS]
    assert sorted(same) == sorted(SAME[name])
