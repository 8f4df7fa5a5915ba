"""Catalog of verifiable integral identities: parameter domains, integrand
builders, closed-form evaluators, and the machinery binding them.

Each catalog entry pairs a left-hand integrand family with the matching
closed-form right side, quantified over small integer parameters (r, n,
m, k), often with a parity split between even and odd r.  Entries
carry an anchor string naming the identity, a quadrature strategy, and a
default absolute tolerance.  default_grid() enumerates the verification
assignments; instantiate() binds one assignment, evaluating all exact
sequence values and converting to binary64 as late as possible.  A row
whose integral is another instance's at some of its points says so with
shares, which the verifier reads and `list` does not.
"""

from __future__ import annotations

import fnmatch
import functools
import itertools
from typing import Callable, Mapping, NamedTuple

PARAM_NAMES = ("r", "n", "m", "k")


class CatalogError(KeyError):
    """Unknown catalog identifier."""

    __str__ = Exception.__str__  # KeyError's would print the message's repr, quotes and all


class EmptyFilterError(ValueError):
    """Filter matched no catalog entry, or its grid left no instance."""


class ParamError(ValueError):
    """Assignment violates a parameter specification."""


class ParamSpec:
    """Validity/verification range of one integer parameter."""

    __slots__ = ("name", "min", "max", "parity")

    def __init__(self, name: str, min: int, max: int, parity: str = "any") -> None:
        if name not in PARAM_NAMES:
            raise ValueError(f"parameter name must be one of {PARAM_NAMES}")
        if min > max:
            raise ValueError(f"{name}: min {min} > max {max}")
        if parity not in ("any", "even", "odd"):
            raise ValueError(f"{name}: bad parity {parity!r}")
        self.name = name
        self.min = min
        self.max = max
        self.parity = parity

    def admits(self, value: int) -> bool:
        return self.min <= value <= self.max and (self.parity == "any" or value % 2 == (self.parity == "odd"))

    def values(self, lo: int | None = None, hi: int | None = None) -> list[int]:
        lo = self.min if lo is None else max(lo, self.min)
        hi = self.max if hi is None else min(hi, self.max)
        step = 1 if self.parity == "any" else 2
        return list(range(lo + (lo - (self.parity == "odd")) % step, hi + 1, step))

    def describe(self, value: int) -> str:
        parity = "" if self.parity == "any" else f" {self.parity}"
        return f"{self.name}={value} violates {self.name} in {self.min}..{self.max}{parity}"


class Strategy(NamedTuple):
    """How the left side is integrated."""

    kind: str  # FINITE | HALF_LINE | TAN_HALFPI
    a: float = 0.0
    b: float = 0.0

    def label(self) -> str:
        if self.kind == "FINITE":
            return f"FINITE({self.a:g},{self.b:g})"
        return self.kind


def FINITE(a: float, b: float) -> Strategy:
    return Strategy("FINITE", a, b)


HALF_LINE = Strategy("HALF_LINE")
TAN_HALFPI = Strategy("TAN_HALFPI")

# default absolute tolerances of a row, by strategy
TOL_FINITE = 1e-7
TOL_TRANSFORMED = 5e-7


class Record:
    """Base of the slotted result records (quad.QuadResult,
    verifier.VerificationResult): instances compare field by field, only
    with their own class, and print as Name(field=value, ...)."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class IdentityCase:
    """One catalog row: integrand family, closed form, parameter domain.

    lhs_builder takes the row's parameters by name and returns the bare
    integrand x -> f(x), and splits are that integrand's known singular
    points; rhs_eval takes the same parameters and returns the closed form
    as written, or lambda: c on a row without parameters.  default_tol
    defaults to TOL_FINITE on FINITE rows, else TOL_TRANSFORMED.

    shares, if given, takes the same parameters and returns (row id,
    assignment) of the instance with the same binary64 integrand, strategy
    and splits, or None; a .PART row made by _helpers.part names its general
    row's.  The instance named declares none; catalog_entry omits shares.
    """

    __slots__ = (
        "id", "anchor", "strategy", "params", "lhs_builder", "rhs_eval", "default_tol", "splits", "note", "shares"
    )

    def __init__(
        self,
        id: str,
        anchor: str,
        strategy: Strategy,
        params: tuple[ParamSpec, ...],
        lhs_builder: Callable[..., Callable[[float], float]],
        rhs_eval: Callable[..., float],
        default_tol: float | None = None,
        splits: tuple[float, ...] = (),
        note: str = "",
        shares: Callable[..., tuple[str, dict[str, int]] | None] | None = None,
    ) -> None:
        if default_tol is None:
            default_tol = TOL_FINITE if strategy.kind == "FINITE" else TOL_TRANSFORMED
        self.id = id
        self.anchor = anchor
        self.strategy = strategy
        self.params = params
        self.lhs_builder = lhs_builder
        self.rhs_eval = rhs_eval
        self.default_tol = default_tol
        self.splits = splits
        self.note = note
        self.shares = shares


class Integrand:
    """A scalar integrand plus known trouble abscissae.

    eval must return finite values on the open integration domain;
    singular_points marks interior peaks/kinks where the interval is
    pre-split before the DE rule runs.
    """

    __slots__ = ("eval", "singular_points")

    def __init__(self, eval: Callable[[float], float], singular_points: tuple[float, ...] = ()) -> None:
        self.eval = eval
        self.singular_points = singular_points


class BoundInstance:
    """A catalog row bound to one concrete assignment: the integrand, the
    closed form's value, the row's absolute tolerance (which a run's --tol
    replaces) and the quadrature strategy."""

    __slots__ = ("case_id", "assignment", "integrand", "rhs", "tol", "strategy")

    def __init__(
        self, case_id: str, assignment: dict[str, int], integrand: Integrand, rhs: float, tol: float, strategy: Strategy
    ) -> None:
        self.case_id = case_id
        self.assignment = assignment
        self.integrand = integrand
        self.rhs = rhs
        self.tol = tol
        self.strategy = strategy


_INDEX: dict[str, IdentityCase] = {}


@functools.cache
def catalog() -> list[IdentityCase]:
    """The full identity catalog, in stable declaration order."""
    from .families import SECTIONS

    cases = [c for section in SECTIONS for c in section.cases()]
    for c in cases:
        if _INDEX.setdefault(c.id, c) is not c:
            raise RuntimeError(f"duplicate catalog id {c.id}")
    return cases


def get_case(case_id: str) -> IdentityCase:
    catalog()
    try:
        return _INDEX[case_id]
    except KeyError:
        raise CatalogError(f"unknown catalog id {case_id!r}") from None


def match_ids(pattern: str) -> list[str]:
    """Catalog ids matching a glob, in catalog order; EmptyFilterError if none does."""
    ids = [c.id for c in catalog() if fnmatch.fnmatchcase(c.id, pattern)]
    if not ids:
        raise EmptyFilterError(f"filter {pattern!r} matches no catalog entry")
    return ids


def _validate(case: IdentityCase, assignment: Mapping[str, int]) -> dict[str, int]:
    """The assignment in the row's parameter order, checked in one pass over case.params.  The sets that word
    an error are built only for one: an unexpected name, then a missing one, then the first bad value."""
    clean: dict[str, int] = {}
    for spec in case.params:
        value = assignment.get(spec.name)
        if not isinstance(value, int) or isinstance(value, bool) or not spec.admits(value):
            break
        clean[spec.name] = value
    else:
        if len(clean) == len(assignment):
            return clean
    wanted = {p.name for p in case.params}
    got = set(assignment)
    if got - wanted:
        raise ParamError(f"{case.id}: unexpected parameter(s) {sorted(got - wanted)}; expects {sorted(wanted)}")
    if wanted - got:
        raise ParamError(f"{case.id}: missing parameter(s) {sorted(wanted - got)}")
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParamError(f"{case.id}: {spec.name} must be an int")
    raise ParamError(f"{case.id}: {spec.describe(value)}")


def instantiate(case_id: str, assignment: Mapping[str, int]) -> BoundInstance:
    """Bind a catalog row to one assignment, validated for names, parity and
    range, by calling its builder and closed form with the parameters as
    keywords."""
    case = get_case(case_id)
    clean = _validate(case, assignment)
    integrand = Integrand(case.lhs_builder(**clean), case.splits)
    return BoundInstance(case.id, clean, integrand, float(case.rhs_eval(**clean)), case.default_tol, case.strategy)


def default_grid(
    case_id: str, overrides: Mapping[str, tuple[int, int]] | None = None
) -> list[dict[str, int]]:
    """Cross product of the per-parameter verification ranges.

    overrides maps a parameter name to an inclusive (lo, hi) window,
    intersected with the declared range; parity stays in force.
    """
    windows = overrides or {}
    axes = [[(p.name, v) for v in p.values(*windows.get(p.name, (None, None)))] for p in get_case(case_id).params]
    return [dict(combo) for combo in itertools.product(*axes)]


def catalog_entry(case: IdentityCase) -> dict:
    """Export view of one row: id, anchor, params, strategy, default_tol."""
    return {
        "id": case.id,
        "anchor": case.anchor,
        # no parameter has exclusions; the key stays for the `list` bytes and the catalog pins
        "params": [
            {"name": p.name, "parity": p.parity, "min": p.min, "max": p.max, "exclusions": []}
            for p in case.params
        ],
        "strategy": case.strategy.label(),
        "default_tol": case.default_tol,
    }


def catalog_entries() -> list[dict]:
    """catalog_entry of every row, in catalog order."""
    return [catalog_entry(c) for c in catalog()]


__all__ = [
    "CatalogError",
    "EmptyFilterError",
    "ParamError",
    "ParamSpec",
    "Strategy",
    "FINITE",
    "HALF_LINE",
    "TAN_HALFPI",
    "Record",
    "IdentityCase",
    "Integrand",
    "BoundInstance",
    "catalog",
    "get_case",
    "match_ids",
    "instantiate",
    "default_grid",
    "catalog_entry",
    "catalog_entries",
]
