"""Self-contained adaptive quadrature on finite intervals, [0, inf) and
tangent-substituted [0, pi/2).

The core rule is tanh-sinh (double exponential): nodes x = tanh(u),
u = (pi/2) sinh(t), on a trapezoid grid in t whose step halves per level.
Nodes cluster doubly-exponentially at the endpoints, which makes the rule
open (endpoints are never touched) and excellent for integrands with
endpoint logarithms or mild endpoint peaks.  Node positions are stored as
the distance delta to the nearest endpoint, so placements like
b - c*delta stay meaningful down to delta ~ 1e-28; a node whose mapped
abscissa would round onto an endpoint is dropped outright, keeping the
open-rule guarantee unconditional.

Each map (finite interval, half line) is one plain loop over the cached
per-level (delta, weight) node tables: it evaluates the integrand at the
two images of each node, Kahan-sums w*f and sums w*|f| (the rounding
floor) inline, and yields both sums at the end of every level.  One
driver turns those sums into level estimates and holds the stopping rule.

DE rules converge quadratically: each halving of the step roughly squares
the error, so after a level the error is about d1^2/d2, where d1 and d2
are the last two halving differences (Bailey, Jeyabalan & Li 2005).  The
driver takes 1e3*d1^2/d2 as the error estimate while the differences
contract, and d1 itself when they do not.  It stops once the estimate is
within the tolerance and d1 within 1e3 times the tolerance (or 1e6 times
the rounding floor), one level earlier than waiting for d1 itself to
reach the tolerance.  If the estimate stalls, finite intervals fall back
to adaptive bisection (peaks migrate toward a subinterval endpoint,
which DE then resolves); the half-line falls back to a split at x = 1
plus the inversion x -> 1/x on the tail.

The half-line map is algebraic, x = s/(1-s) with s in (0,1), so one
transform serves all the rational-decay integrands; integrands over
[0, pi/2) in tan x are reduced to the half-line via t = tan x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator

_PI_OVER_2 = math.pi / 2.0
_EPS = math.ulp(1.0)

MAX_LEVEL = 9  # trapezoid step down to 2^-9 in the t domain
MAX_SPLIT_DEPTH = 12  # adaptive bisection depth (~2^12 base panels)
TOL_MIN = 1e-13
TOL_MAX = 1e-3
_DELTA_MIN = 1e-28  # drop nodes closer to an endpoint than this

DEFAULT_TOL_FINITE = 1e-10
DEFAULT_TOL_HALF_LINE = 1e-9


@dataclass
class Integrand:
    """A scalar integrand plus known trouble abscissae.

    eval must return finite values on the open integration domain;
    singular_points marks interior peaks/kinks where the interval is
    pre-split before the DE rule runs.
    """

    eval: Callable[[float], float]
    singular_points: tuple[float, ...] = ()


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_est: float
    evals: int
    converged: bool

    def __add__(self, other: "QuadResult") -> "QuadResult":
        return QuadResult(
            self.value + other.value,
            self.err_est + other.err_est,
            self.evals + other.evals,
            self.converged and other.converged,
        )


def _as_integrand(f) -> Integrand:
    if isinstance(f, Integrand):
        return f
    return Integrand(f)


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    return tol


# --------------------------------------------------------------------------
# node tables: per level, pairs (delta, weight) for the positive-t half grid
# --------------------------------------------------------------------------

_W0 = _PI_OVER_2  # weight of the t = 0 node
_node_tables: list[list[tuple[float, float]]] = []


def _make_node(t: float) -> tuple[float, float] | None:
    u = _PI_OVER_2 * math.sinh(t)
    if u > 300.0:
        return None
    emu = math.exp(-2.0 * u)
    delta = 2.0 * emu / (1.0 + emu)  # 1 - tanh(u), exact for small values
    if delta < _DELTA_MIN:
        return None
    w = _PI_OVER_2 * math.cosh(t) * (4.0 * emu) / (1.0 + emu) ** 2  # sech^2
    return delta, w


def _level_nodes(level: int) -> list[tuple[float, float]]:
    """New (delta, weight) pairs introduced at this refinement level."""
    while len(_node_tables) <= level:
        lvl = len(_node_tables)
        h = 1.0 / (1 << lvl)
        nodes: list[tuple[float, float]] = []
        k = 1
        step = 1 if lvl == 0 else 2
        while True:
            t = k * h
            node = _make_node(t)
            if node is None:
                break
            nodes.append(node)
            k += step
        _node_tables.append(nodes)
    return _node_tables[level]


# --------------------------------------------------------------------------
# DE driver: the stopping rule over per-level node sums
# --------------------------------------------------------------------------


class _NonFiniteIntegrand(ArithmeticError):
    pass


_NON_FINITE = "integrand returned a non-finite value"

_SAFETY = 1e3  # factor on the quadratic estimate d1^2/d2; 1e2 understated the error of catalog rows
_GUARD_TOL, _GUARD_FLOOR = 1e3, 1e6  # d1 itself must lie within these multiples of tol or floor


def _de_drive(levels: Iterator[tuple[float, float]], scale: float, tol: float) -> QuadResult:
    """Level-doubling tanh-sinh stopping rule.

    levels yields, after each refinement level, the compensated node sum
    of w*f and the rounding magnitude sum of w*|f| over all nodes so far;
    scale is the overall Jacobian half-width.  From level 3 on, with d1 and
    d2 the last two halving differences, the error estimate is
    _SAFETY*d1^2/d2 when d1 < d2 (quadratic convergence) and d1 otherwise,
    never below the rounding floor.  It stops when the estimate is within
    tol and d1 itself is small too, so a lucky agreement of two coarse
    levels is not trusted.
    """
    evals = 1  # the centre node
    value = prev = 0.0
    diff = prev_diff = math.inf
    for level, (s, mag) in enumerate(levels):
        evals += 2 * len(_level_nodes(level))
        h = 1.0 / (1 << level)
        value = scale * h * s
        if level >= 1:
            prev_diff, diff = diff, abs(value - prev)
        prev = value
        if level >= 3:
            floor = 8.0 * _EPS * scale * h * mag
            est = _SAFETY * diff * diff / prev_diff if diff < prev_diff else diff
            if est <= max(tol, floor) and diff <= max(_GUARD_TOL * tol, _GUARD_FLOOR * floor):
                err = max(est, floor)
                return QuadResult(value, err, evals, err <= tol)
    return QuadResult(value, max(diff, floor), evals, False)


# --------------------------------------------------------------------------
# finite intervals
# --------------------------------------------------------------------------


def _finite_levels(fe: Callable[[float], float], a: float, b: float) -> Iterator[tuple[float, float]]:
    """Node sums of the finite map x = a + c*delta, b - c*delta, per level.

    Kahan compensation keeps the sum usable when the integral is many
    orders larger than the tolerance.
    """
    c = 0.5 * (b - a)
    try:
        fc = fe(0.5 * (a + b))
        if not math.isfinite(fc):
            raise _NonFiniteIntegrand(_NON_FINITE)
        s = 0.0 + _W0 * fc  # a Kahan step from zero: turns -0.0 into 0.0
        comp = 0.0
        mag = _W0 * abs(fc)
        for level in range(MAX_LEVEL + 1):
            for delta, w in _level_nodes(level):
                d = c * delta
                xlo = a + d
                xhi = b - d
                flo = fe(xlo) if xlo > a else 0.0  # drop nodes that round onto an endpoint
                fhi = fe(xhi) if xhi < b else 0.0
                fs = flo + fhi
                if not math.isfinite(fs):
                    raise _NonFiniteIntegrand(_NON_FINITE)
                y = w * fs - comp
                t = s + y
                comp = (t - s) - y
                s = t
                mag += w * (abs(flo) + abs(fhi))
            yield s, mag
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise _NonFiniteIntegrand(str(exc)) from exc


def _finite_adaptive(
    fe: Callable[[float], float], a: float, b: float, tol: float, depth: int
) -> QuadResult:
    res = _de_drive(_finite_levels(fe, a, b), 0.5 * (b - a), tol)
    if res.converged or depth >= MAX_SPLIT_DEPTH:
        return res
    mid = 0.5 * (a + b)
    half_tol = max(0.5 * tol, TOL_MIN)
    left = _finite_adaptive(fe, a, mid, half_tol, depth + 1)
    right = _finite_adaptive(fe, mid, b, half_tol, depth + 1)
    combined = left + right
    total_evals = combined.evals + res.evals
    err = combined.err_est
    return QuadResult(combined.value, err, total_evals, combined.converged and err <= tol)


def integrate_finite(f, a: float, b: float, tol: float = DEFAULT_TOL_FINITE) -> QuadResult:
    """Integrate f over (a, b) with an open tanh-sinh rule.

    Known interior singular points are split off first; non-convergence
    is reported in the result, never raised.
    """
    f = _as_integrand(f)
    tol = _check_tol(tol)
    a = float(a)
    b = float(b)
    if not (a < b):
        raise ValueError(f"requires a < b, got a={a}, b={b}")
    cuts = sorted(p for p in f.singular_points if a < p < b)
    edges = [a, *cuts, b]
    n = len(edges) - 1
    try:
        if n == 1:
            return _finite_adaptive(f.eval, a, b, tol, 0)
        total = QuadResult(0.0, 0.0, 0, True)
        for lo, hi in zip(edges, edges[1:]):
            total = total + _finite_adaptive(f.eval, lo, hi, max(tol / n, TOL_MIN), 0)
        return total
    except _NonFiniteIntegrand:
        return QuadResult(math.nan, math.inf, 0, False)


# --------------------------------------------------------------------------
# half line and tan substitution
# --------------------------------------------------------------------------


def _half_line_levels(fe: Callable[[float], float]) -> Iterator[tuple[float, float]]:
    """Node sums of x = s/(1-s) on s in (0,1), per level, as _finite_levels.

    Both s and 1-s are kept as exact deltas.
    """
    try:
        fc = fe(1.0) * 4.0  # s=1/2: x=1, jacobian 1/(1-s)^2 = 4
        if not math.isfinite(fc):
            raise _NonFiniteIntegrand(_NON_FINITE)
        s = 0.0 + _W0 * fc
        comp = 0.0
        mag = _W0 * abs(fc)
        for level in range(MAX_LEVEL + 1):
            for delta, w in _level_nodes(level):
                d = 0.5 * delta
                om = 1.0 - d
                flo = fe(d / om) / (om * om)  # s = d: x = d/(1-d), jacobian 1/(1-d)^2
                fhi = fe(om / d) / (d * d)  # s = 1-d: x = (1-d)/d, jacobian 1/d^2
                fs = flo + fhi
                if not math.isfinite(fs):
                    raise _NonFiniteIntegrand(_NON_FINITE)
                y = w * fs - comp
                t = s + y
                comp = (t - s) - y
                s = t
                mag += w * (abs(flo) + abs(fhi))
            yield s, mag
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise _NonFiniteIntegrand(str(exc)) from exc


def integrate_half_line(f, tol: float = DEFAULT_TOL_HALF_LINE) -> QuadResult:
    """Integrate f over (0, inf) via the algebraic map x = s/(1-s).

    Requires decay at least O(x^(-1-eps)); delegates the transformed
    integral to the tanh-sinh core.  If the transformed integral stalls,
    retries as [0,1] plus an inverted tail.
    """
    f = _as_integrand(f)
    tol = _check_tol(tol)
    fe = f.eval
    try:
        res = _de_drive(_half_line_levels(fe), 0.5, tol)
        if res.converged:
            return res
        head = _finite_adaptive(fe, 0.0, 1.0, 0.5 * tol, 0)

        def tail(u: float) -> float:
            return fe(1.0 / u) / (u * u)

        parts = head + _finite_adaptive(tail, 0.0, 1.0, 0.5 * tol, 0)
        return replace(parts, evals=parts.evals + res.evals)
    except _NonFiniteIntegrand:
        return QuadResult(math.nan, math.inf, 0, False)


def integrate_tan_halfpi(g, tol: float = DEFAULT_TOL_HALF_LINE) -> QuadResult:
    """Integrate F(tan x) over (0, pi/2) given g(t) = F(t).

    Uses tan x = t, dx = dt/(1+t^2), so the caller's g never needs the
    tangent evaluated near pi/2.
    """
    g = _as_integrand(g)
    ge = g.eval

    def h(t: float) -> float:
        return ge(t) / (1.0 + t * t)

    return integrate_half_line(Integrand(h), tol)


__all__ = [
    "Integrand",
    "QuadResult",
    "integrate_finite",
    "integrate_half_line",
    "integrate_tan_halfpi",
    "DEFAULT_TOL_FINITE",
    "DEFAULT_TOL_HALF_LINE",
    "MAX_LEVEL",
    "MAX_SPLIT_DEPTH",
    "TOL_MIN",
    "TOL_MAX",
]
