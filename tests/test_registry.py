import math

import pytest

from fibint import quad, registry, verifier
from fibint.exact_seq import ALPHA, BETA, SQRT5, fib, lucas
from fibint.families import _helpers, tangent
from fibint.registry import CatalogError, ParamError, ParamSpec
from fibint.specfun import LN_ALPHA, constants

import make_results

PI = math.pi


def test_catalog_size_and_ids():
    cases = registry.catalog()
    assert len(cases) >= 60
    ids = [c.id for c in cases]
    assert len(ids) == len(set(ids))
    assert "S2.BJU5530" in ids
    assert "LEWIN.E11" in ids
    assert registry.get_case("S2.BJU5530").anchor == "eq. (bju5530)"


def test_catalog_entries_export_fields():
    entries = registry.catalog_entries()
    assert len(entries) == len(registry.catalog())
    for e in entries:
        assert set(e) == {"id", "anchor", "params", "strategy", "default_tol"}
        for p in e["params"]:
            assert set(p) == {"name", "parity", "min", "max", "exclusions"}


def test_instantiate_known_values():
    inst = registry.instantiate("S6.RLJJ8TO", {"r": 1})
    assert inst.rhs == pytest.approx(2.0 * PI * SQRT5 * LN_ALPHA / (5.0 * fib(4)), rel=1e-14)

    inst = registry.instantiate("S5.FOURG", {})
    assert inst.rhs == pytest.approx(4.0 * constants().catalan, rel=1e-14)

    inst = registry.instantiate("S6.FMK6KRX.PART", {})
    assert inst.rhs == pytest.approx(PI / 2.0 * math.atan(2.0), rel=1e-14)

    # degree-one polynomial instance, cross-checked by expanding the integrand:
    # (1 + x sqrt5)(sqrt5 + x) integrates to (8/3) sqrt5 over (-1, 1)
    inst = registry.instantiate("S2.BJU5530", {"k": 1, "n": 3})
    expected = 2.0**3 / (2.0 * SQRT5) * (lucas(3) / 1.0 - fib(3) * lucas(1) / 3.0)
    assert inst.rhs == pytest.approx(expected, rel=1e-14)
    assert inst.rhs == pytest.approx(8.0 * SQRT5 / 3.0, rel=1e-14)


def test_instantiate_rejects_bad_assignments():
    with pytest.raises(CatalogError):
        registry.instantiate("NOSUCH.ID", {})
    with pytest.raises(ParamError, match="n"):
        registry.instantiate("S2.BJU5530", {"k": 2, "n": 1})
    with pytest.raises(ParamError):
        registry.instantiate("S2.BJU5530", {"k": 2})
    with pytest.raises(ParamError):
        registry.instantiate("S5.FOURG", {"r": 1})
    with pytest.raises(ParamError):
        registry.instantiate("S2.BJU5530", {"k": 2, "n": 3, "m": 1})
    with pytest.raises(ParamError, match="must be an int"):
        registry.instantiate("S3.M6BI7TA", {"r": True})


class _Int(int):
    pass


@pytest.mark.parametrize(
    ("case_id", "assignment", "message"),
    [
        # an extra name wins over a missing name and over any bad value
        ("S2.BJU5530", {"k": 2.0, "n": 0, "m": 1}, "S2.BJU5530: unexpected parameter(s) ['m']; expects ['k', 'n']"),
        ("S2.BJU5530", {"k": True, "m": 1}, "S2.BJU5530: unexpected parameter(s) ['m']; expects ['k', 'n']"),
        (
            "S2.BJU5530",
            {"z": 1, "a": None, "k": 1, "n": 2},
            "S2.BJU5530: unexpected parameter(s) ['a', 'z']; expects ['k', 'n']",
        ),
        ("S5.FOURG", {"r": 1}, "S5.FOURG: unexpected parameter(s) ['r']; expects []"),
        # a missing name wins over a bad value
        ("S2.BJU5530", {"n": 99}, "S2.BJU5530: missing parameter(s) ['k']"),
        ("S2.BJU5530", {}, "S2.BJU5530: missing parameter(s) ['k', 'n']"),
        # then the parameters in the row's order, each checked for its type before its range
        ("S3.M6BI7TA", {"r": True}, "S3.M6BI7TA: r must be an int"),
        ("S3.M6BI7TA", {"r": 2.0}, "S3.M6BI7TA: r must be an int"),
        ("S3.M6BI7TA", {"r": None}, "S3.M6BI7TA: r must be an int"),
        ("S2.BJU5530", {"n": 0, "k": 2.0}, "S2.BJU5530: k must be an int"),
        ("S2.BJU5530", {"n": 3.0, "k": 0}, "S2.BJU5530: k=0 violates k in 1..5"),
        ("S2.BJU5530", {"k": 1, "n": 9}, "S2.BJU5530: n=9 violates n in 2..8"),
        ("S3.M6BI7TA", {"r": 99}, "S3.M6BI7TA: r=99 violates r in 1..10"),
        ("S10.CLSQ.E", {"r": 3}, "S10.CLSQ.E: r=3 violates r in 2..10 even"),
        ("S10.CLSQ.O", {"r": 4}, "S10.CLSQ.O: r=4 violates r in 1..9 odd"),
        ("S10.CLSQ.E", {"r": 12}, "S10.CLSQ.E: r=12 violates r in 2..10 even"),
    ],
)
def test_param_error_messages(case_id, assignment, message):
    with pytest.raises(ParamError) as exc:
        registry.instantiate(case_id, assignment)
    assert str(exc.value) == message


def test_instantiate_accepts_int_subclasses_in_row_order():
    inst = registry.instantiate("S2.BJU5530", {"n": _Int(3), "k": _Int(1)})
    assert inst.assignment == {"k": 1, "n": 3} and list(inst.assignment) == ["k", "n"]
    assert inst.rhs == registry.instantiate("S2.BJU5530", {"k": 1, "n": 3}).rhs
    assert registry.instantiate("S10.CLSQ.E", {"r": _Int(4)}).assignment == {"r": 4}


def test_parity_gates_every_constrained_case():
    for case in registry.catalog():
        for spec in case.params:
            if spec.parity == "any":
                continue
            bad = spec.min + 1  # flips parity, stays in range for our grids
            assert spec.min <= bad <= spec.max
            assignment = {}
            for other in case.params:
                assignment[other.name] = other.values()[0]
            assignment[spec.name] = bad
            with pytest.raises(ParamError, match=spec.name):
                registry.instantiate(case.id, assignment)


def test_default_grids():
    grid = registry.default_grid("S3.M6BI7TA")
    assert [g["r"] for g in grid] == list(range(1, 11))

    grid = registry.default_grid("S2.DJFHEP4")
    assert [g["n"] for g in grid] == list(range(1, 9))

    grid = registry.default_grid("S4.KJ2W249")
    assert len(grid) == 5 * 8
    assert {g["m"] for g in grid} == set(range(0, 5))
    assert {g["r"] for g in grid} == set(range(2, 10))

    assert registry.default_grid("S5.FOURG") == [{}]


def test_grid_overrides_respect_parity_and_range():
    grid = registry.default_grid("S3.M6BI7TA", {"r": (2, 6)})
    assert [g["r"] for g in grid] == [2, 3, 4, 5, 6]
    grid = registry.default_grid("S5.J7HZXMA.E", {"r": (1, 7)})
    assert [g["r"] for g in grid] == [2, 4, 6]
    grid = registry.default_grid("S3.M6BI7TA", {"r": (8, 99)})
    assert [g["r"] for g in grid] == [8, 9, 10]
    with pytest.raises(CatalogError):
        registry.default_grid("NOSUCH")


def test_param_spec_validation():
    with pytest.raises(ValueError):
        ParamSpec("x", 0, 1)
    with pytest.raises(ValueError):
        ParamSpec("r", 3, 1)
    with pytest.raises(ValueError):
        ParamSpec("r", 1, 5, "sometimes")
    assert ParamSpec("r", 1, 9, "odd").values() == [1, 3, 5, 7, 9]


def test_rhs_finite_over_all_grids():
    for case in registry.catalog():
        for assignment in registry.default_grid(case.id):
            rhs = case.rhs_eval(**assignment)
            assert math.isfinite(rhs), f"{case.id} {assignment}"


def test_strategies_are_well_formed():
    for case in registry.catalog():
        assert case.strategy.kind in ("FINITE", "HALF_LINE", "TAN_HALFPI")
        if case.strategy.kind == "FINITE":
            assert case.strategy.a < case.strategy.b
            # the quadrature drops a split outside (a, b) without a word
            assert all(case.strategy.a < s < case.strategy.b for s in case.splits), case.id
        else:  # the half-line and tan rules never read splits
            assert case.splits == (), case.id
        assert 1e-13 <= case.default_tol <= 1e-3


def test_ambiguous_branch_case_is_flagged():
    assert registry.get_case("S3.K2XKUE3").note != ""


# Written-out integrands of the rows whose kernels bind build-time values or
# reuse one sin/cos per call; each must agree with the catalog bit for bit.


def _F(n):
    return float(fib(n))


def _L(n):
    return float(lucas(n))


def _horner(coefs, u):
    acc = 0.0
    for c in reversed(coefs):
        acc = acc * u + c
    return acc


def _rok_ref(p):
    n, q = p["n"], tangent.ROK_Q[p["k"] - 1]
    coefs = tangent._sum_poly(n, q * q)

    def f(t):
        u = t * t
        return _horner(coefs, u) / (q * q + u) ** (n + 1)

    return f


def _lfpair_ref(swap):
    def ref(p):
        n, r = p["n"], p["r"]
        a, b = _L(r) ** 2, 5.0 * _F(r) ** 2
        if swap:
            a, b = b, a
        coefs = tangent._sum_poly(n, a / b)

        def f(t):
            u = t * t
            return _horner(coefs, u) / (a + b * u) ** (n + 1)

        return f

    return ref


def _quartic_ref(seq):
    def ref(p):
        n = p["n"]
        coefs = tangent._quartic_poly(n, p["r"], seq)

        def f(t):
            u = t * t
            if u > 1e30:
                return 0.0
            return _horner(coefs, u) / (1.0 + (3.0 + u) * u) ** (n + 1)

        return f

    return ref


_HALFLINE_AB = {
    "S4.KJ2W249": lambda p: (1.0, _F(2 * p["r"])),
    "S4.DPBN6CY": lambda p: (1.0, _F(2 * p["r"] + 1)),
    "S4.Q2NVIQW": lambda p: (1.0, _L(2 * p["r"] + 1)),
    "S4.PDJJQGD": lambda p: (1.0, (0.5, 1.5, 2.0, 3.0, 5.0)[p["k"] - 1]),
    "S4.LF2": lambda p: (_L(p["r"]) ** 2, 5.0 * _F(p["r"]) ** 2),
    "S4.EVEN4": lambda p: (_L(p["r"]) ** 2, 4.0),
    "S4.ODD4": lambda p: (5.0 * _F(p["r"]) ** 2, 4.0),
    "S4.F4R1": lambda p: (1.0, _F(4 * p["r"] + 1)),
}


def _halfline_a_ref(base):
    def ref(p):
        (a, b), m = _HALFLINE_AB[base](p), p["m"]
        return lambda x: x ** (2 * m + 1) / ((1.0 + x * x) * (a + b * (x * x)) ** (m + 1))

    return ref


def _halfline_b_ref(base):
    def ref(p):
        (a, b), m = _HALFLINE_AB[base](p), p["m"]
        return lambda x: x / ((1.0 + x * x) * (b + a * (x * x)) ** (m + 1))

    return ref


def _sin_ref(ab):
    def ref(p):
        a, b = ab(p)
        return lambda x: math.sin(x) / (a + b * math.sin(x) ** 2)

    return ref


def _tk_ref(p):
    q2 = (0.5, 1.0, 2.0, 2.0 / 3.0, ALPHA, 3.0)[p["k"] - 1] ** 2
    return lambda x: math.sin(x) / (math.sin(x) ** 2 + q2)


def _sin7_ref(p):
    b = _L(p["r"]) ** 2
    return lambda x: math.sin(x) ** 3 / (4.0 + b * math.sin(x) ** 2) ** 2


def _cube_ref(p):
    b = 5.0 * _F(2 * p["r"]) ** 2
    return lambda x: x * math.sin(x) ** 3 / (4.0 + b * math.sin(x) ** 2) ** 2


def _xsine_quartic_ref(cube):
    def ref(p):
        c = (0.3, 0.5, 0.7, BETA * BETA, -BETA)[p["k"] - 1] ** 4
        if cube:
            return lambda x: x * math.sin(x) ** 3 / (1.0 - c * math.sin(x) ** 4)
        return lambda x: x * math.sin(x) / (1.0 - c * math.sin(x) ** 4)

    return ref


def _fm_ref(p):
    q2, m = (0.5, 1.0, 2.0)[p["k"] - 1] ** 2, p["m"]
    return lambda x: math.sin(x) ** (2 * m - 1) / (1.0 + q2 * math.sin(x) * math.sin(x)) ** m


def _golden5_ref(k):
    if k == 1:
        return lambda p: lambda x: x * x * math.cos(2.0 * x) / (5.0 - 4.0 * math.cos(2.0 * x) ** 2)
    return lambda p: lambda x: x * x * math.cos(2.0 * x) / (5.0 - 4.0 * math.cos(2.0 * x) ** 2) ** 2


def _dilcher_ref(p):
    e = p["n"] - 1
    return lambda x: (1.0 + SQRT5 / 3.0 * math.cos(x)) ** e * math.sin(x)


KERNEL_REFS = {
    "S3.ROKBVU0": _rok_ref,
    "S3.LFPAIR.A": _lfpair_ref(False),
    "S3.LFPAIR.B": _lfpair_ref(True),
    "S3.QUARTIC.L": _quartic_ref(_L),
    "S3.QUARTIC.F": _quartic_ref(_F),
    **{base: _halfline_a_ref(base) for base in _HALFLINE_AB},
    **{base + ".B": _halfline_a_ref(base) for base in _HALFLINE_AB},  # the second member's integral, see below
    "S5.TKZY7WR": _tk_ref,
    "S5.SIN1": _sin_ref(lambda p: (5.0 * _F(p["r"]) ** 2, _L(p["r"]) ** 2)),
    "S5.SIN2": _sin_ref(lambda p: (_L(p["r"]) ** 2, 5.0 * _F(p["r"]) ** 2)),
    "S5.SIN3": _sin_ref(lambda p: (_F(p["r"] - 1) ** 2, _F(p["r"]) ** 2)),
    "S5.SIN4": _sin_ref(lambda p: (_L(p["r"] - 1) ** 2, _L(p["r"]) ** 2)),
    "S5.SIN5GEN": _sin_ref(lambda p: (_F(p["k"]) ** 2, _F(p["k"] + p["r"]) ** 2)),
    "S5.SIN6": _sin_ref(lambda p: (4.0, _L(p["r"]) ** 2)),
    "S5.SIN7": _sin7_ref,
    "S6.SIN3CUBE": _cube_ref,
    "S6.QUARTIC.A": _xsine_quartic_ref(False),
    "S6.QUARTIC.B": _xsine_quartic_ref(True),
    "S6.FM2DODR": _fm_ref,
    "S9.JIVTZPL.PART2": _golden5_ref(1),
    "S9.FRLT.PART2": _golden5_ref(2),
    "S9.PXI3HD5.PART2": _golden5_ref(2),
    "S7.ID8.PART": lambda p: lambda x: x * x * (2.0 + math.cos(2.0 * x)) / (5.0 + 4.0 * math.cos(2.0 * x)) ** 2,
    "S1.DILCHER": _dilcher_ref,
}

# both sides of the tan and half-line maps, the trig period, and t = 1e16 for the u > 1e30 tail of S3.QUARTIC
ABSCISSAE = (1e-9, 1e-3, 0.1, 0.5, PI / 4.0, 1.0, 1.5, PI / 2.0, 2.0, 3.0, PI, 10.0, 1e3, 1e16)


def _outcome(f, x):
    try:
        return f(x).hex()
    except ArithmeticError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("cid", sorted(KERNEL_REFS))
def test_kernels_match_their_written_out_formulas(cid):
    for assignment in registry.default_grid(cid):
        kernel = registry.instantiate(cid, assignment).integrand.eval
        ref = KERNEL_REFS[cid](assignment)
        for x in ABSCISSAE:
            assert _outcome(kernel, x) == _outcome(ref, x), (assignment, x)


# The .B rows integrate their base row's kernel f_A.  The second member as the paper prints it,
# f_B(x) = x/((1+x^2)(B + A x^2)^(m+1)), is x^-2 f_A(1/x), and the half-line map pairs the node
# x_lo = d/(1-d), weight w/(1-d)^2, with x_hi = (1-d)/d, weight w/d^2.  So w_lo f_B(x_lo) = w_hi f_A(x_hi)
# and w_hi f_B(x_hi) = w_lo f_A(x_lo): a pass over f_A sums a pass over f_B's terms in mirrored order.
# The worst ulp distance between them per row, over every node of every level a .B instance reaches at
# --tol 1e-13 (the body rows, the tail rows paired by delta, and the centre x = 1):
MAP_ULPS = {"S4.KJ2W249": 15, "S4.DPBN6CY": 17, "S4.Q2NVIQW": 15, "S4.PDJJQGD": 16,
            "S4.LF2": 16, "S4.EVEN4": 18, "S4.ODD4": 16, "S4.F4R1": 14}
MAP_LEVELS = 5  # the deepest level that any .B instance reaches at --tol 1e-13


def test_second_members_are_their_first_members_under_the_map(monkeypatch):
    second = {base: [(a, registry.instantiate(base + ".B", a)) for a in registry.default_grid(base + ".B")]
              for base in _HALFLINE_AB}
    rows, levels = quad._HALF_LINE.rows, set()  # the levels whose node rows verifying them at --tol 1e-13 reads
    reading = quad._HALF_LINE._replace(rows=lambda level: levels.add(level) or rows(level))
    monkeypatch.setattr(quad, "_HALF_LINE", reading)
    for insts in second.values():
        for _, inst in insts:
            inst.tol = 1e-13
            verifier.verify_instance(inst)
    monkeypatch.undo()
    assert max(levels) == MAP_LEVELS
    pairs = [(*quad._HALF_LINE.center, *quad._HALF_LINE.center)]
    for level in range(MAP_LEVELS + 1):
        body, (lo, hi) = quad._HALF_LINE.rows(level)
        high = {delta: (x, w) for delta, x, w in hi}
        assert len(high) == len(lo)
        pairs += [(xl, wl, xh, wh) for xl, xh, wl, wh in body]
        pairs += [(xl, wl, *high[delta]) for delta, xl, wl in lo]
    worst = {}
    for base, insts in second.items():
        worst[base] = 0
        for assignment, inst in insts:
            f_a, f_b, rhs = inst.integrand.eval, _halfline_b_ref(base)(assignment), abs(inst.rhs)
            for xl, wl, xh, wh in pairs:
                for u, v in ((wl * f_b(xl), wh * f_a(xh)), (wh * f_b(xh), wl * f_a(xl))):
                    if u == 0.0 or v == 0.0:  # a deep tail term that under- or overflows on one side
                        assert max(abs(u), abs(v)) <= math.ulp(rhs), (base, assignment, xl)
                    else:
                        worst[base] = max(worst[base], make_results.ulps(u, v))
    assert worst == MAP_ULPS


def test_fib_lucas_floats_are_memoized_exactly():
    for n in range(-40, 41):
        assert _helpers.F(n) == float(fib(n))
        assert _helpers.L(n) == float(lucas(n))
    _helpers.F(2)
    for _ in range(2):  # errors are not cached, and a float key does not hit the int entry
        with pytest.raises(ValueError):
            _helpers.F(10_001)
        with pytest.raises(TypeError):
            _helpers.F(2.0)
