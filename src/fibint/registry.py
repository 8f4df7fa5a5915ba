"""Catalog of verifiable integral identities: parameter domains, integrand
builders, closed-form evaluators, and the machinery binding them.

Each catalog entry pairs a left-hand integrand family with the matching
closed-form right side, quantified over small integer parameters (r, n,
m, k), frequently with a parity split between even and odd r.  Entries
carry an anchor string naming the identity, a quadrature strategy, and a
default absolute tolerance.  default_grid() enumerates the verification
assignments; instantiate() binds one assignment, evaluating all exact
sequence values and converting to binary64 as late as possible.
"""

from __future__ import annotations

import fnmatch
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

    __slots__ = ("name", "min", "max", "parity", "exclusions")

    def __init__(self, name: str, min: int, max: int, parity: str = "any", exclusions: tuple[int, ...] = ()) -> None:
        if name not in PARAM_NAMES:
            raise ValueError(f"parameter name must be one of {PARAM_NAMES}")
        if min > max:
            raise ValueError(f"{name}: min {min} > max {max}")
        if parity not in ("any", "even", "odd"):
            raise ValueError(f"{name}: bad parity {parity!r}")
        for x in exclusions:
            if not (min <= x <= max):
                raise ValueError(f"{name}: exclusion {x} outside range")
        self.name = name
        self.min = min
        self.max = max
        self.parity = parity
        self.exclusions = exclusions

    def admits(self, value: int) -> bool:
        if not (self.min <= value <= self.max):
            return False
        if self.parity == "even" and value % 2 != 0:
            return False
        if self.parity == "odd" and value % 2 == 0:
            return False
        return value not in self.exclusions

    def values(self, lo: int | None = None, hi: int | None = None) -> list[int]:
        lo = self.min if lo is None else max(lo, self.min)
        hi = self.max if hi is None else min(hi, self.max)
        return [v for v in range(lo, hi + 1) if self.admits(v)]

    def describe(self, value: int) -> str:
        parts = [f"{self.min}..{self.max}"]
        if self.parity != "any":
            parts.append(self.parity)
        if self.exclusions:
            parts.append("excluding " + ",".join(map(str, self.exclusions)))
        return f"{self.name}={value} violates {self.name} in {' '.join(parts)}"


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

    lhs_builder maps an assignment to the bare integrand x -> f(x), and
    splits are that integrand's known singular points; rhs_eval maps an
    assignment to the closed form as written.  instantiate binds them into
    a BoundInstance: Integrand(lhs_builder(p), splits) and float(rhs_eval(p)).
    default_tol defaults to TOL_FINITE on FINITE rows, else TOL_TRANSFORMED.
    """

    __slots__ = ("id", "anchor", "strategy", "params", "lhs_builder", "rhs_eval", "default_tol", "splits", "note")

    def __init__(
        self,
        id: str,
        anchor: str,
        strategy: Strategy,
        params: tuple[ParamSpec, ...],
        lhs_builder: Callable[[Mapping[str, int]], Callable[[float], float]],
        rhs_eval: Callable[[Mapping[str, int]], float],
        default_tol: float | None = None,
        splits: tuple[float, ...] = (),
        note: str = "",
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
    """A catalog row bound to one concrete assignment."""

    __slots__ = ("case_id", "assignment", "integrand", "rhs", "tol", "strategy")

    def __init__(
        self,
        case_id: str,
        assignment: dict[str, int],
        integrand: Integrand,
        rhs: float,
        tol: float,
        strategy: Strategy,
    ) -> None:
        self.case_id = case_id
        self.assignment = assignment
        self.integrand = integrand
        self.rhs = rhs
        self.tol = tol
        self.strategy = strategy


_CATALOG: list[IdentityCase] | None = None
_INDEX: dict[str, IdentityCase] = {}


def catalog() -> list[IdentityCase]:
    """The full identity catalog, in stable declaration order."""
    global _CATALOG
    if _CATALOG is None:
        from .families import SECTIONS

        cases = [c for section in SECTIONS for c in section.cases()]
        for c in cases:
            if _INDEX.setdefault(c.id, c) is not c:
                raise RuntimeError(f"duplicate catalog id {c.id}")
        _CATALOG = cases
    return _CATALOG


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
    wanted = {p.name for p in case.params}
    got = set(assignment)
    if got - wanted:
        raise ParamError(
            f"{case.id}: unexpected parameter(s) {sorted(got - wanted)}; expects {sorted(wanted)}"
        )
    if wanted - got:
        raise ParamError(f"{case.id}: missing parameter(s) {sorted(wanted - got)}")
    clean: dict[str, int] = {}
    for spec in case.params:
        value = assignment[spec.name]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParamError(f"{case.id}: {spec.name} must be an int")
        if not spec.admits(value):
            raise ParamError(f"{case.id}: {spec.describe(value)}")
        clean[spec.name] = value
    return clean


def instantiate(case_id: str, assignment: Mapping[str, int]) -> BoundInstance:
    """Bind a catalog row to one assignment; validates parity/range."""
    case = get_case(case_id)
    clean = _validate(case, assignment)
    return BoundInstance(
        case_id=case.id,
        assignment=clean,
        integrand=Integrand(case.lhs_builder(clean), case.splits),
        rhs=float(case.rhs_eval(clean)),
        tol=case.default_tol,
        strategy=case.strategy,
    )


def default_grid(
    case_id: str, overrides: Mapping[str, tuple[int, int]] | None = None
) -> list[dict[str, int]]:
    """Cross product of the per-parameter verification ranges.

    overrides maps a parameter name to an inclusive (lo, hi) window that
    is intersected with the declared range; parity and exclusions always
    stay in force.
    """
    case = get_case(case_id)
    axes: list[list[tuple[str, int]]] = []
    for spec in case.params:
        lo = hi = None
        if overrides and spec.name in overrides:
            lo, hi = overrides[spec.name]
        axes.append([(spec.name, v) for v in spec.values(lo, hi)])
    return [dict(combo) for combo in itertools.product(*axes)]


def catalog_entry(case: IdentityCase) -> dict:
    """Export view of one row: id, anchor, params, strategy, default_tol."""
    return {
        "id": case.id,
        "anchor": case.anchor,
        "params": [
            {"name": p.name, "parity": p.parity, "min": p.min, "max": p.max, "exclusions": list(p.exclusions)}
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
