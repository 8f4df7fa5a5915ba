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

Each map (finite interval, half line) is one loop over the cached
per-level (delta, weight) node tables, split once at delta = 1e-6.  Body
nodes (delta >= 1e-6) are evaluated at both images in one lean paired
loop.  Tail nodes are walked one side at a time, outward, and a side
stops at its first term w*|f| below rounding (eps times the running sum
of w*|f|) that lies deeper than every term above rounding seen on that
side; that delta becomes the side's cut, and later levels skip the nodes
beyond it without calling the integrand (the tail truncation of Bailey,
Jeyabalan & Li 2005).  On a finite interval, whether any body node can
round onto an endpoint is decided once per interval; if one can, every
node is walked, and a walk also stops at its first abscissa that rounds
onto the endpoint.  Each loop Kahan-sums w*f and sums w*|f| (the rounding
floor) inline, checks once per level that the sum is still finite, and
yields both sums and its integrand calls at the end of every level.  One
driver turns those sums into level estimates and holds the stopping rule.
A result's evals are the integrand calls actually made, including those
of a failed first pass and those made before an integrand raised or
returned a non-finite value.

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
_DELTA_TAIL = 1e-6  # nodes closer to an endpoint than this are walked per side and may be cut

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
_Nodes = list[tuple[float, float]]
_node_tables: list[tuple[_Nodes, _Nodes]] = []


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


def _level_nodes(level: int) -> tuple[_Nodes, _Nodes]:
    """New (delta, weight) pairs introduced at this refinement level, in
    decreasing delta, split into the body (delta >= _DELTA_TAIL) and the tail."""
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
        split = sum(delta >= _DELTA_TAIL for delta, _ in nodes)
        _node_tables.append((nodes[:split], nodes[split:]))
    return _node_tables[level]


# --------------------------------------------------------------------------
# DE driver: the stopping rule over per-level node sums
# --------------------------------------------------------------------------


class _NonFiniteIntegrand(ArithmeticError):
    """The integrand raised or returned a non-finite value after evals calls."""

    def __init__(self, msg: str, evals: int) -> None:
        super().__init__(msg)
        self.evals = evals


_NON_FINITE = "integrand returned a non-finite value"

_SAFETY = 1e3  # factor on the quadratic estimate d1^2/d2; 1e2 understated the error of catalog rows
_GUARD_TOL, _GUARD_FLOOR = 1e3, 1e6  # d1 itself must lie within these multiples of tol or floor


def _de_drive(levels: Iterator[tuple[float, float, int]], scale: float, tol: float) -> QuadResult:
    """Level-doubling tanh-sinh stopping rule.

    levels yields, after each refinement level, the compensated node sum
    of w*f, the rounding magnitude sum of w*|f| and the number of integrand
    calls, all over the nodes so far; scale is the overall Jacobian
    half-width.  From level 3 on, with d1 and d2 the last two halving
    differences, the error estimate is _SAFETY*d1^2/d2 when d1 < d2
    (quadratic convergence) and d1 otherwise, never below the rounding
    floor.  It stops when the estimate is within tol and d1 itself is small
    too, so a lucky agreement of two coarse levels is not trusted.  The
    result's evals are the integrand calls the levels made.
    """
    value = prev = 0.0
    diff = prev_diff = math.inf
    for level, (s, mag, evals) in enumerate(levels):
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


def _finite_levels(fe: Callable[[float], float], a: float, b: float) -> Iterator[tuple[float, float, int]]:
    """Node sums of the finite map x = a + c*delta, b - c*delta, per level.

    Kahan compensation keeps the sum usable when the integral is many
    orders larger than the tolerance.  Body nodes are evaluated in pairs;
    each side's tail is walked outward and cut at its first term below
    rounding that lies deeper than every term above it, or at its first
    abscissa that rounds onto the endpoint.  calls counts each integrand
    call before it is made, so it is exact when one raises.
    """
    c = 0.5 * (b - a)
    d = c * _DELTA_TAIL
    paired = a + d > a and b - d < b  # then no body node rounds onto an endpoint
    # per side: the cut, and the smallest delta whose term was above rounding;
    # a term below rounding at a larger delta does not cut, since mass lies beyond it
    tails = [(0.0, _DELTA_TAIL), (0.0, _DELTA_TAIL)]
    walks = ((0, a, c), (1, b, -c))  # side, origin and step of each tail walk
    calls = 1
    try:
        fc = fe(0.5 * (a + b))
        s = 0.0 + _W0 * fc  # a Kahan step from zero: turns -0.0 into 0.0
        comp = 0.0
        mag = _W0 * abs(fc)
        for level in range(MAX_LEVEL + 1):
            body, tail = _level_nodes(level)
            if not paired:
                body, tail = (), body + tail
            for delta, w in body:
                d = c * delta
                calls += 1
                flo = fe(a + d)
                calls += 1
                fhi = fe(b - d)
                y = w * (flo + fhi) - comp
                t = s + y
                comp = (t - s) - y
                s = t
                mag += w * (abs(flo) + abs(fhi))
            for i, x0, step in walks:
                cut, deepest = tails[i]
                for delta, w in tail:
                    if delta < cut:
                        break
                    x = x0 + step * delta
                    if x == x0:  # this node and every deeper one round onto the endpoint
                        cut = delta
                        break
                    calls += 1
                    f = fe(x)
                    y = w * f - comp
                    t = s + y
                    comp = (t - s) - y
                    s = t
                    term = w * abs(f)
                    mag += term
                    if term >= _EPS * mag:
                        if delta < deepest:
                            deepest = delta
                    elif delta < deepest:
                        cut = delta
                        break
                tails[i] = cut, deepest
            if not math.isfinite(s):  # a non-finite term leaves s non-finite for good
                raise _NonFiniteIntegrand(_NON_FINITE, calls)
            yield s, mag, calls
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise _NonFiniteIntegrand(str(exc), calls) from exc


def _finite_adaptive(
    fe: Callable[[float], float], a: float, b: float, tol: float, depth: int
) -> QuadResult:
    res = _de_drive(_finite_levels(fe, a, b), 0.5 * (b - a), tol)
    if res.converged or depth >= MAX_SPLIT_DEPTH:
        return res
    mid = 0.5 * (a + b)
    half_tol = max(0.5 * tol, TOL_MIN)
    spent = res.evals
    try:
        left = _finite_adaptive(fe, a, mid, half_tol, depth + 1)
        spent += left.evals
        right = _finite_adaptive(fe, mid, b, half_tol, depth + 1)
    except _NonFiniteIntegrand as exc:
        exc.evals += spent
        raise
    combined = left + right
    err = combined.err_est
    return QuadResult(combined.value, err, spent + right.evals, combined.converged and err <= tol)


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
    total = QuadResult(0.0, 0.0, 0, True)
    try:
        if n == 1:
            return _finite_adaptive(f.eval, a, b, tol, 0)
        for lo, hi in zip(edges, edges[1:]):
            total = total + _finite_adaptive(f.eval, lo, hi, max(tol / n, TOL_MIN), 0)
        return total
    except _NonFiniteIntegrand as exc:
        return QuadResult(math.nan, math.inf, total.evals + exc.evals, False)


# --------------------------------------------------------------------------
# half line and tan substitution
# --------------------------------------------------------------------------


def _half_line_levels(fe: Callable[[float], float]) -> Iterator[tuple[float, float, int]]:
    """Node sums of x = s/(1-s) on s in (0,1), per level, as _finite_levels.

    Both s and 1-s are kept as exact deltas, so no abscissa rounds onto an
    endpoint.
    """
    tails = [(0.0, _DELTA_TAIL), (0.0, _DELTA_TAIL)]  # cut and deepest at s = d and at s = 1-d
    calls = 1
    try:
        fc = fe(1.0) * 4.0  # s=1/2: x=1, jacobian 1/(1-s)^2 = 4
        s = 0.0 + _W0 * fc
        comp = 0.0
        mag = _W0 * abs(fc)
        for level in range(MAX_LEVEL + 1):
            body, tail = _level_nodes(level)
            for delta, w in body:
                d = 0.5 * delta
                om = 1.0 - d
                calls += 1
                flo = fe(d / om) / (om * om)  # s = d: x = d/(1-d), jacobian 1/(1-d)^2
                calls += 1
                fhi = fe(om / d) / (d * d)  # s = 1-d: x = (1-d)/d, jacobian 1/d^2
                y = w * (flo + fhi) - comp
                t = s + y
                comp = (t - s) - y
                s = t
                mag += w * (abs(flo) + abs(fhi))
            for hi in (0, 1):
                cut, deepest = tails[hi]
                for delta, w in tail:
                    if delta < cut:
                        break
                    p = 0.5 * delta
                    q = 1.0 - p
                    if hi:
                        p, q = q, p
                    calls += 1
                    f = fe(p / q) / (q * q)  # x = p/q, jacobian 1/q^2, as in the body
                    y = w * f - comp
                    t = s + y
                    comp = (t - s) - y
                    s = t
                    term = w * abs(f)
                    mag += term
                    if term >= _EPS * mag:
                        if delta < deepest:
                            deepest = delta
                    elif delta < deepest:
                        cut = delta
                        break
                tails[hi] = cut, deepest
            if not math.isfinite(s):  # a non-finite term leaves s non-finite for good
                raise _NonFiniteIntegrand(_NON_FINITE, calls)
            yield s, mag, calls
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise _NonFiniteIntegrand(str(exc), calls) from exc


def integrate_half_line(f, tol: float = DEFAULT_TOL_HALF_LINE) -> QuadResult:
    """Integrate f over (0, inf) via the algebraic map x = s/(1-s).

    Requires decay at least O(x^(-1-eps)); delegates the transformed
    integral to the tanh-sinh core.  If the transformed integral stalls,
    retries as [0,1] plus an inverted tail.
    """
    f = _as_integrand(f)
    tol = _check_tol(tol)
    fe = f.eval
    spent = 0
    try:
        res = _de_drive(_half_line_levels(fe), 0.5, tol)
        if res.converged:
            return res
        spent = res.evals
        head = _finite_adaptive(fe, 0.0, 1.0, 0.5 * tol, 0)
        spent += head.evals

        def tail(u: float) -> float:
            return fe(1.0 / u) / (u * u)

        parts = head + _finite_adaptive(tail, 0.0, 1.0, 0.5 * tol, 0)
        return replace(parts, evals=parts.evals + res.evals)
    except _NonFiniteIntegrand as exc:
        return QuadResult(math.nan, math.inf, spent + exc.evals, False)


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
