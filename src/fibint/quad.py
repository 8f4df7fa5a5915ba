"""Self-contained adaptive quadrature on finite intervals, [0, inf) and
tangent-substituted [0, pi/2).

The core rule is tanh-sinh (double exponential): nodes x = tanh(u),
u = (pi/2) sinh(t), on a trapezoid grid in t whose step halves per level.
Nodes cluster doubly-exponentially at the endpoints, which makes the rule
open (endpoints are never touched) and excellent for integrands with
endpoint logarithms or mild endpoint peaks.  Nodes are placed from their
distance delta to the nearest endpoint, so placements like b - c*delta
stay meaningful down to delta ~ 1e-28.

Each map has a node table of mapped abscissae and weights, with the map's
Jacobian (for tan, also 1/(1+t^2)) folded into the weights.  It is built
one level at a time on first use and then kept: one per finite interval
(a, b) in a small LRU cache, one for the half line and one for tan.  The
(delta, weight) pairs behind them and the Fejer rules below are kept the
same way: every lazily built table is a functools.cache'd function of the
level, called on every read.  Body nodes (delta >= 1e-6) are rows
holding both images of a node.  Tail nodes are rows per side, walked
outward; a side stops at its first term w*|f| below rounding (eps times
the running sum of w*|f|) that lies deeper than every term above rounding
on that side, and later levels skip the nodes beyond that cut without
calling the integrand (the tail truncation of Bailey, Jeyabalan & Li
2005).  A finite tail ends before its first abscissa that rounds onto the
endpoint, so the rule stays open; where a body node could round onto an
endpoint, every node is a tail node.

One loop runs the levels of every map and applies the stopping rule.
DE rules converge quadratically: each halving of the step roughly squares
the error, so after a level the error is about d1^2/d2, where d1 and d2
are the last two halving differences (Bailey, Jeyabalan & Li 2005).  The
loop takes 1e3*d1^2/d2 as the error estimate while the differences
contract, and d1 itself when they do not.  It stops once the estimate is
within the tolerance and d1 within 1e3 times the tolerance (or 1e6 times
the rounding floor), one level earlier than waiting for d1 itself to
reach the tolerance.  A pass that does not stop by MAX_LEVEL is returned
as it stands, with converged False and d1 (at least the rounding floor)
as its err_est; nothing bisects or splits it further, so a kink or peak
inside the interval must be declared in singular_points, where the
interval is split before any rule runs.

Finite intervals try a nested Fejer pass on each panel first, after the
split at known singular points.  Fejer's second rule with n = 4, 8, ...,
256 has the n - 1 interior Chebyshev extrema cos(k pi/n) as nodes, so it
is open too, and the nodes of each rule are kept by the next, which only
adds the odd k.  Its weights come from a short sine sum (Waldvogel 2006,
"Fast construction of the Fejer and Clenshaw-Curtis quadrature rules", BIT
46), built one rule at a time on first use and shared by every interval; a
node is placed from its nearer endpoint, as a + c*delta or b - c*delta
with delta = 2 sin^2(theta/2), and kept with the interval's DE table.  On
integrands analytic on the closed interval it converges about as fast as
Gauss (Trefethen 2008, "Is Gauss quadrature better than Clenshaw-Curtis?",
SIAM Review 50), which covers most finite catalog rows.  From the third
rule on the pass stops once the difference d1 of the last two rules is
within the tolerance and below the difference before it, with err_est
max(d1, rounding floor), and once the polynomial through the nodes matches
the integrand at a fixed point off every rule's grid.  Differences of
nested rules cannot tell a polynomial from a higher one aliased onto it at
every node so far (T_38 is T_6 on the nodes of n = 8 and 16); a sample off
the grid exposes it, as in Chebfun's sample test, and a rule that fails it
is not accepted.  The pass declines on a non-finite sum, past n = 256, or
when two rules agree exactly, the sign that fixed nodes missed a narrow
feature; a declined panel goes to tanh-sinh, and its Fejer calls count in
evals.  A panel so narrow that a body node could round onto an endpoint
skips the pass.  The half line and the tan map use tanh-sinh alone.

A failed integrand is a result, never an exception.  A pass whose
integrand raises ZeroDivisionError, OverflowError or ValueError, or a
tanh-sinh pass whose sum turns non-finite, returns value nan, err_est
inf, the calls made and converged False; integrate_finite stops at the
first panel that fails and adds up the panels it ran.  Other exceptions
propagate.  A result's evals are the integrand calls made, including
those of a declined or failed pass.

The half-line map is algebraic, x = s/(1-s) with s in (0,1), so one
transform serves all the rational-decay integrands; integrands over
[0, pi/2) in tan x are reduced to the half-line via t = tan x.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, NamedTuple

from .registry import Integrand, Record  # defined with the catalog records, so that building them loads no quadrature

_PI_OVER_2 = math.pi / 2.0
_EPS = math.ulp(1.0)

MAX_LEVEL = 9  # trapezoid step down to 2^-9 in the t domain
TOL_MIN = 1e-13
TOL_MAX = 1e-3
_DELTA_MIN = 1e-28  # drop nodes closer to an endpoint than this
_DELTA_TAIL = 1e-6  # nodes closer to an endpoint than this are walked per side and may be cut


class QuadResult(Record):
    """One integral: value, error estimate, integrand calls made, whether
    the tolerance was met, and the rule that ran ("fejer", "tanh-sinh", or
    "mixed" for a sum of both).  Results compare field by field."""

    __slots__ = ("value", "err_est", "evals", "converged", "rule")

    def __init__(self, value: float, err_est: float, evals: int, converged: bool, rule: str = "tanh-sinh") -> None:
        self.value = value
        self.err_est = err_est
        self.evals = evals
        self.converged = converged
        self.rule = rule

    def __add__(self, other: "QuadResult") -> "QuadResult":
        return QuadResult(
            self.value + other.value,
            self.err_est + other.err_est,
            self.evals + other.evals,
            self.converged and other.converged,
            self.rule if self.rule == other.rule else "mixed",
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
# node tables: per level, pairs (delta, weight) for the positive-t half grid,
# and per map the rows built from them
# --------------------------------------------------------------------------


_W0 = _PI_OVER_2  # weight of the t = 0 node
_Nodes = list[tuple[float, float]]


def _make_node(t: float) -> tuple[float, float] | None:
    u = _PI_OVER_2 * math.sinh(t)
    emu = math.exp(-2.0 * u)
    delta = 2.0 * emu / (1.0 + emu)  # 1 - tanh(u), exact for small values
    if delta < _DELTA_MIN:
        return None
    w = _PI_OVER_2 * math.cosh(t) * (4.0 * emu) / (1.0 + emu) ** 2  # sech^2
    return delta, w


@functools.cache
def _level_nodes(level: int) -> tuple[_Nodes, _Nodes]:
    """New (delta, weight) pairs introduced at this refinement level, in
    decreasing delta, split into the body (delta >= _DELTA_TAIL) and the tail."""
    h = 1.0 / (1 << level)
    nodes: list[tuple[float, float]] = []
    k = 1
    step = 1 if level == 0 else 2
    while True:
        node = _make_node(k * h)
        if node is None:
            break
        nodes.append(node)
        k += step
    split = sum(delta >= _DELTA_TAIL for delta, _ in nodes)
    return nodes[:split], nodes[split:]


class _MapTable(NamedTuple):
    """The node rows of one map, per level, each level built on first use.

    rows(level) is (body, (lo, hi)).  A body row holds both images of a
    node: (x_lo, x_hi, w) when they share a weight, else
    (x_lo, x_hi, w_lo, w_hi).  The tails lo and hi are rows (delta, x, w)
    at the low and the high end, outward.  center is the t = 0 node, (x, w).
    """

    center: tuple[float, float]
    shared_weight: bool
    rows: Callable[[int], tuple]
    fejer: Callable[[int], list[tuple[float, float]]] | None = None


@functools.lru_cache(maxsize=16)  # a catalog run integrates over 7 intervals
def _finite_table(a: float, b: float) -> _MapTable:
    """Rows of the finite map x = a + c*delta, b - c*delta, c = (b - a)/2,
    and in its field fejer the node pairs (x_lo, x_hi) that each Fejer
    rule adds, placed the same way.  The table is paired unless a node with
    delta >= _DELTA_TAIL rounds onto an endpoint; then every node is a tail
    node, and fejer is None."""
    c = 0.5 * (b - a)
    paired = a + c * _DELTA_TAIL > a and b - c * _DELTA_TAIL < b

    def walk(tail: _Nodes, x0: float, step: float) -> list[tuple[float, float, float]]:
        rows = [(delta, x0 + step * delta, w) for delta, w in tail]
        return rows[: sum(x != x0 for _, x, _ in rows)]  # those that round onto x0 are the deepest

    @functools.cache
    def rows(level: int) -> tuple:
        body, tail = _level_nodes(level)
        if not paired:
            body, tail = [], body + tail
        return [(a + c * delta, b - c * delta, w) for delta, w in body], (walk(tail, a, c), walk(tail, b, -c))

    @functools.cache
    def fejer_rows(level: int) -> list[tuple[float, float]]:
        return [(a + c * delta, b - c * delta) for delta in _fejer_level(level)[0]]

    return _MapTable((0.5 * (a + b), _W0), True, rows, fejer_rows if paired else None)


def _half_line_table(tan: bool) -> _MapTable:
    """Rows of x = s/(1-s) on s in (0,1), weights times dx/ds = 1/(1-s)^2
    (for tan, x = t, times dt/(1+t^2) too).  Both s and 1-s are kept as
    exact deltas, so no abscissa rounds onto an endpoint."""

    def images(delta: float, w: float) -> tuple[float, float, float, float]:
        d = 0.5 * delta
        om = 1.0 - d
        xl, wl = d / om, w / (om * om)  # s = d
        xh, wh = om / d, w / (d * d)  # s = 1-d
        if tan:
            wl /= 1.0 + xl * xl
            wh /= 1.0 + xh * xh
        return xl, xh, wl, wh

    @functools.cache
    def rows(level: int) -> tuple:
        body, tail = _level_nodes(level)
        walks = [(delta, images(delta, w)) for delta, w in tail]
        lo = [(delta, xl, wl) for delta, (xl, _, wl, _) in walks]
        hi = [(delta, xh, wh) for delta, (_, xh, _, wh) in walks]
        return [images(delta, w) for delta, w in body], (lo, hi)

    # s = 1/2: x = 1, dx/ds = 4, and 1/(1+1) for tan
    return _MapTable((1.0, (2.0 if tan else 4.0) * _W0), False, rows)


_HALF_LINE = _half_line_table(tan=False)
_TAN = _half_line_table(tan=True)


# --------------------------------------------------------------------------
# the level loop and its stopping rule
# --------------------------------------------------------------------------


_SAFETY = 1e3  # factor on the quadratic estimate d1^2/d2; 1e2 understated the error of catalog rows
_GUARD_TOL, _GUARD_FLOOR = 1e3, 1e6  # d1 itself must lie within these multiples of tol or floor


def _tanh_sinh(fe: Callable[[float], float], table: _MapTable, scale: float, tol: float) -> QuadResult:
    """Level-doubling tanh-sinh over one map's node table, scale its overall
    Jacobian half-width.  Kahan compensation keeps the sum usable when the
    integral is many orders larger than the tolerance.  An integrand that
    raises an arithmetic error or makes the sum non-finite ends the pass with
    the failed result (nan, inf, calls made).  calls counts each integrand
    call before it is made, so it is exact when one raises."""
    x0, w0 = table.center
    shared = table.shared_weight
    eps = _EPS
    # per side: the cut, and the smallest delta whose term was above rounding;
    # a term below rounding at a larger delta does not cut, since mass lies beyond it
    sides = ([0.0, _DELTA_TAIL], [0.0, _DELTA_TAIL])
    value = prev = 0.0
    diff = prev_diff = math.inf
    calls = 1
    try:
        fc = fe(x0)
        s = 0.0 + w0 * fc  # a Kahan step from zero: turns -0.0 into 0.0
        comp = 0.0
        mag = w0 * abs(fc)
        for level in range(MAX_LEVEL + 1):
            body, tails = table.rows(level)
            if shared:
                for xl, xh, w in body:
                    calls += 1
                    flo = fe(xl)
                    calls += 1
                    fhi = fe(xh)
                    y = w * (flo + fhi) - comp
                    t = s + y
                    comp = (t - s) - y
                    s = t
                    mag += w * (abs(flo) + abs(fhi))
            else:
                for xl, xh, wl, wh in body:
                    calls += 1
                    flo = fe(xl)
                    calls += 1
                    fhi = fe(xh)
                    y = wl * flo + wh * fhi - comp
                    t = s + y
                    comp = (t - s) - y
                    s = t
                    mag += wl * abs(flo) + wh * abs(fhi)
            for side, tail in zip(sides, tails):
                cut, deepest = side
                for delta, x, w in tail:
                    if delta < cut:
                        break
                    calls += 1
                    f = fe(x)
                    y = w * f - comp
                    t = s + y
                    comp = (t - s) - y
                    s = t
                    term = w * abs(f)
                    mag += term
                    if term >= eps * mag:
                        if delta < deepest:
                            deepest = delta
                    elif delta < deepest:
                        cut = delta
                        break
                side[:] = cut, deepest
            if not math.isfinite(s):  # a non-finite term leaves s non-finite for good
                return QuadResult(math.nan, math.inf, calls, False)
            h = 1.0 / (1 << level)
            value = scale * h * s
            if level >= 1:
                prev_diff, diff = diff, abs(value - prev)
            prev = value
            floor = 8.0 * eps * scale * h * mag  # set at every level: MAX_LEVEL may end the loop before level 3
            if level >= 3:
                est = _SAFETY * diff * diff / prev_diff if diff < prev_diff else diff
                if est <= max(tol, floor) and diff <= max(_GUARD_TOL * tol, _GUARD_FLOOR * floor):
                    err = max(est, floor)
                    return QuadResult(value, err, calls, err <= tol)
    except (ZeroDivisionError, OverflowError, ValueError):
        return QuadResult(math.nan, math.inf, calls, False)
    return QuadResult(value, max(diff, floor), calls, False)


# --------------------------------------------------------------------------
# the nested Fejer first pass on finite panels
# --------------------------------------------------------------------------

FEJER_N0 = 4  # rules n = 4, 8, ..., FEJER_N_MAX, with n - 1 nodes each
FEJER_N_MAX = 256
_FEJER_LEVELS = (FEJER_N_MAX // FEJER_N0).bit_length()
_SAMPLE_T = 0.6180339887498949  # in (-1, 1), off every Chebyshev grid: not cos(k pi/n) for any n
_Rule = tuple[list[float], list[float], float, tuple[float, list[float], list[float]]]


@functools.cache
def _fejer_level(level: int) -> _Rule:
    """Fejer's second rule on [-1, 1] with n = FEJER_N0 * 2^level: the deltas
    2 sin^2(theta/2) of the node pairs -cos(theta), cos(theta) it adds,
    theta = k pi/n for odd k < n/2; the weights of all its pairs, in the
    order the levels add them; the weight of the middle node; and the
    Lagrange basis of the rule's nodes at _SAMPLE_T, as (middle node, low
    nodes, high nodes).  The weight at theta is
    (4 sin(theta)/n) sum_{j=1}^{n/2} sin((2j-1) theta)/(2j-1) (Waldvogel
    2006).  The basis comes from the barycentric formula, with weight
    (-1)^k sin^2(theta) at a pair, as for the Chebyshev extrema without the
    endpoints, and 1 in the middle."""
    n = FEJER_N0 << level

    def weight(theta: float) -> float:
        return 4.0 * math.sin(theta) / n * math.fsum(math.sin(j * theta) / j for j in range(1, n, 2))

    thetas = [k * math.pi / m for m in (FEJER_N0 << i for i in range(level + 1)) for k in range(1, m // 2, 2)]
    old = len(thetas) - n // 4  # the pairs of the earlier rules; this one adds n/4
    t = _SAMPLE_T
    lo, hi = [], []
    for i, theta in enumerate(thetas):
        w = (-1.0 if i >= old else 1.0) * math.sin(theta) ** 2
        lo.append(w / (t + math.cos(theta)))
        hi.append(w / (t - math.cos(theta)))
    den = 1.0 / t + math.fsum(lo) + math.fsum(hi)
    basis = (1.0 / t / den, [q / den for q in lo], [q / den for q in hi])
    deltas = [2.0 * math.sin(0.5 * theta) ** 2 for theta in thetas[old:]]
    return deltas, [weight(theta) for theta in thetas], weight(_PI_OVER_2), basis


def _weighted_sum(weights: list[float], values) -> float:
    """fsum of weights times values, nan when the terms are not all finite."""
    try:
        return math.fsum(map(operator.mul, weights, values))
    except (OverflowError, ValueError):  # inf - inf, or finite terms whose sum overflows
        return math.nan


def _fejer(fe: Callable[[float], float], rows: Callable[[int], list], a: float, b: float, tol: float) -> QuadResult | int:
    """Nested Fejer second-rule pass over (a, b), rows(level) the node pairs
    each rule adds, reusing every value when n doubles.  From the third rule
    on it accepts once the difference d1 of the last two rules is within tol
    and smaller than the difference d2 one level before, and the polynomial
    through the nodes matches f at mid + c*_SAMPLE_T to within tol/c.
    Differences alone cannot tell a polynomial from a higher one that
    aliases onto it at every node so far (T_38 is T_6 on the nodes of n = 8
    and 16, also under a part that is still converging); a sample off the
    grid exposes it, as in Chebfun's sample test, and a rule that fails it
    is not accepted, so the pass goes on to the next.  It declines,
    returning only the number of calls made, on a non-finite sum, past
    FEJER_N_MAX, or once two rules agree exactly where it cannot accept (so
    d2 of the next rule would be 0): fixed nodes can agree with each other
    and miss a narrow feature between them.  An integrand that raises an
    arithmetic error ends the pass with the failed result (nan, inf, calls
    made).  Every call but one that raises keeps its value, so the values
    count the calls."""
    c = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fm = sample = None  # f at mid, and at mid + c*_SAMPLE_T once tested
    flo: list[float] = []  # f at the low and the high node of each pair, in the order the levels add them
    fhi: list[float] = []
    put_lo = flo.append
    put_hi = fhi.append
    prev = diff = math.inf
    try:
        fm = fe(mid)
        for level in range(_FEJER_LEVELS):
            _, weights, w_mid, (l_mid, l_lo, l_hi) = _fejer_level(level)
            for xl, xh in rows(level):
                put_lo(fe(xl))
                put_hi(fe(xh))
            value = c * (w_mid * fm + _weighted_sum(weights, map(operator.add, flo, fhi)))
            prev_diff, diff = diff, abs(value - prev)
            prev = value
            if not math.isfinite(value):
                break
            if level >= 2 and diff < prev_diff and diff <= tol:
                mags = map(operator.add, map(abs, flo), map(abs, fhi))
                err = max(diff, 8.0 * _EPS * c * (w_mid * abs(fm) + _weighted_sum(weights, mags)))
                if err > tol:
                    break
                if sample is None:
                    sample = fe(mid + c * _SAMPLE_T)
                if c * abs(sample - l_mid * fm - _weighted_sum(l_lo, flo) - _weighted_sum(l_hi, fhi)) <= tol:
                    return QuadResult(value, err, 2 + len(flo) + len(fhi), True, "fejer")
            if diff == 0.0:  # no later rule can contract below an exact agreement
                break
    except (ZeroDivisionError, OverflowError, ValueError):
        made = (fm is not None) + len(flo) + len(fhi) + (sample is not None)
        return QuadResult(math.nan, math.inf, made + 1, False, "fejer")
    return 1 + len(flo) + len(fhi) + (sample is not None)


# --------------------------------------------------------------------------
# finite intervals
# --------------------------------------------------------------------------


def _finite_panel(fe: Callable[[float], float], a: float, b: float, tol: float) -> QuadResult:
    """The Fejer pass over one panel, and if it declines, one tanh-sinh
    pass; the declined pass's calls count in evals.  A panel whose DE table
    is unpaired is too fine for the float grid and skips the Fejer pass."""
    table = _finite_table(a, b)
    declined = 0
    if table.fejer is not None:
        first = _fejer(fe, table.fejer, a, b, tol)
        if isinstance(first, QuadResult):
            return first
        declined = first
    res = _tanh_sinh(fe, table, 0.5 * (b - a), tol)
    res.evals += declined
    return res


def integrate_finite(f, a: float, b: float, tol: float) -> QuadResult:
    """Integrate f over (a, b) with open rules: a nested Fejer pass per
    panel, then one tanh-sinh pass where it declines.

    Known interior singular points are split off first; an undeclared
    interior kink or peak is not bisected, so its panel is reported
    unconverged.  Non-convergence is reported in the result, never raised;
    so is an integrand that fails on a panel, which ends the integration
    with a nan value and the calls made so far.
    """
    f = _as_integrand(f)
    tol = _check_tol(tol)
    a = float(a)
    b = float(b)
    if not (a < b and math.isfinite(b - a)):
        raise ValueError(f"requires a < b and a finite b - a, got a={a}, b={b}")
    cuts = sorted({p for p in f.singular_points if a < p < b})  # a point declared twice would make a zero-width panel
    edges = [a, *cuts, b]
    ptol = max(tol / (len(edges) - 1), TOL_MIN)
    parts: list[QuadResult] = []
    for lo, hi in zip(edges, edges[1:]):
        parts.append(_finite_panel(f.eval, lo, hi, ptol))
        if math.isnan(parts[-1].value):
            break
    return functools.reduce(operator.add, parts)


# --------------------------------------------------------------------------
# half line and tan substitution
# --------------------------------------------------------------------------


def integrate_half_line(f, tol: float) -> QuadResult:
    """Integrate f over (0, inf) via the algebraic map x = s/(1-s).

    Requires decay at least O(x^(-1-eps)); the transformed integral gets
    one tanh-sinh pass, and a kink or peak inside (0, inf) that stalls it
    is reported unconverged, not split off.
    """
    return _tanh_sinh(_as_integrand(f).eval, _HALF_LINE, 0.5, _check_tol(tol))


def integrate_tan_halfpi(g, tol: float) -> QuadResult:
    """Integrate F(tan x) over (0, pi/2) given g(t) = F(t).

    Uses tan x = t, dx = dt/(1+t^2), so the caller's g never needs the
    tangent evaluated near pi/2.  The half-line pass has 1/(1+t^2) in its
    weights and calls g itself.
    """
    return _tanh_sinh(_as_integrand(g).eval, _TAN, 0.5, _check_tol(tol))


__all__ = [
    "Integrand",
    "QuadResult",
    "integrate_finite",
    "integrate_half_line",
    "integrate_tan_halfpi",
    "MAX_LEVEL",
    "TOL_MIN",
    "TOL_MAX",
]
