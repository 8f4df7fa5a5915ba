import collections
import math
import weakref

import pytest

from fibint import quad, registry, verifier
from fibint.families._helpers import F, L, bpow, parity
from fibint.quad import Integrand, integrate_finite
from fibint.specfun import LN_ALPHA, cl2, constants

import make_results
from test_catalog_pin import DECLARED, _group_id

PI = math.pi
SQRT5 = math.sqrt(5.0)

# a whole-catalog run's counts, from the results table: {tol: results that reuse another instance's integral}
TABLE = make_results.read()
REUSED = {tol: make_results.total(TABLE, f"reused@{make_results.TOLS[tol]}") for tol in (None, 1e-12)}
REUSED_IDS = [make_results.TOLS[tol] for tol in REUSED]  # test ids by tolerance, not by the counts the table holds


def test_verify_instance_catalan_anchor():
    inst = registry.instantiate("S5.FOURG", {})
    res = verifier.verify_instance(inst)
    assert res.passed
    assert res.rhs == pytest.approx(4.0 * constants().catalan, rel=1e-14)
    assert res.abs_err <= 1e-7
    assert res.quad_evals > 0


def test_verify_instance_pi_cubed_anchor():
    inst = registry.instantiate("S8.AEKFMPM.PART", {})
    assert inst.rhs == pytest.approx(2.0 * PI**3 / (5.0 * SQRT5) - PI * LN_ALPHA**2 / SQRT5, rel=1e-14)
    res = verifier.verify_instance(inst)
    assert res.passed and res.abs_err <= 1e-7


def test_verify_instance_polynomial_cross_check():
    inst = registry.instantiate("S2.BJU5530", {"k": 1, "n": 3})
    res = verifier.verify_instance(inst)
    assert res.passed
    assert res.lhs == pytest.approx(8.0 * SQRT5 / 3.0, abs=1e-9)


def test_run_section_filters():
    rep = verifier.run("S5.*")
    assert rep.n_fail == 0 and rep.n_pass > 0
    rep = verifier.run("LEWIN.*")
    assert rep.n_fail == 0
    with pytest.raises(verifier.EmptyFilterError):
        verifier.run("NOSUCH")


def test_report_counts_consistent():
    rep = verifier.run("S1.*")
    assert rep.n_pass + rep.n_fail == len(rep.results)
    assert rep.wall_time >= 0.0


def test_run_calls_its_layers_as_module_attributes(monkeypatch):
    # a default pass looks up registry.instantiate, verifier.verify_instance and
    # quad.integrate_* on their modules at each call, so that a wrapper set there
    # (as a tracing harness sets one) sees every instance, verdict, integration
    # and integrand call; the results that reuse a shared integral integrate nothing
    calls = collections.Counter()

    def counted(module, name, on_result=None):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            res = fn(*args, **kwargs)
            if on_result is not None:
                on_result(res)
            return res

        monkeypatch.setattr(module, name, wrapper)

    def count_integrand_calls(inst):
        f = inst.integrand.eval

        def counted_eval(x):
            calls["integrand"] += 1
            return f(x)

        inst.integrand.eval = counted_eval

    counted(registry, "instantiate", count_integrand_calls)
    counted(verifier, "verify_instance")
    for name in ("integrate_finite", "integrate_half_line", "integrate_tan_halfpi"):
        counted(quad, name)
    rep = verifier.run()
    assert calls["instantiate"] == calls["verify_instance"] == len(rep.results) == 1504
    integrations = calls["integrate_finite"] + calls["integrate_half_line"] + calls["integrate_tan_halfpi"]
    assert integrations == 1504 - sum(r.reused for r in rep.results) == 1504 - REUSED[None]
    assert calls["integrand"] == sum(r.quad_evals for r in rep.results) == make_results.total(TABLE, "evals@default")


def _shared_instances():
    """Every default-grid instance of a declared group: each sharer and the instance it names."""
    return sorted({key for members in DECLARED.values() for key in members})


def _verdict(r):
    return r.lhs.hex(), r.rhs.hex(), r.tol.hex(), r.passed, r.note


# Instances whose |lhs| is within their own threshold, by section: a closed form of 0
# would pass each of them.  ROADMAP items 2 and 11 are meant to lower these counts;
# this is the baseline they gate on.
_VACUOUS = {
    None: {"S4": 142, "S3": 22, "S2": 5, "S6": 6, "S9": 6, "S8": 2},
    1e-12: {"S4": 42, "S3": 4, "S2": 5},
}
_ZERO_RHS = [("S2.COMPL2", (("k", k), ("n", 2))) for k in range(1, 6)]


@pytest.mark.parametrize("tol, reused", list(REUSED.items()), ids=REUSED_IDS)
def test_shared_integrals_give_the_results_of_a_lone_verification(tol, reused):
    # an instance that reuses another's integral gets the bits it gets alone:
    # each instance of a declared group verified by itself, and each row of
    # one verified on its own, give the full run's lhs, rhs, tol and verdict
    full = verifier.run("*", tol_override=tol).results
    by_key = {(r.case_id, r.assignment): r for r in full}
    members = _shared_instances()
    assert len(members) == 693
    for case_id, assignment in members:
        inst = registry.instantiate(case_id, dict(assignment))
        if tol is not None:
            inst.tol = tol
        res = verifier.verify_instance(inst)
        assert _verdict(res) == _verdict(by_key[case_id, assignment])
        assert res.quad_evals > 0 and not res.reused  # alone, every instance integrates
    for case_id in sorted({case_id for case_id, _ in members}):
        for r in verifier.run(case_id, tol_override=tol).results:
            assert _verdict(r) == _verdict(by_key[r.case_id, r.assignment])
    assert sum(r.reused for r in full) == reused
    assert all(r.quad_evals == 0 for r in full if r.reused)
    # the same full run gauges the vacuous passes
    vacuous = collections.Counter(r.case_id.split(".")[0] for r in full if abs(r.lhs) <= r.tol)
    assert vacuous == _VACUOUS[tol] and sum(vacuous.values()) == {None: 183, 1e-12: 51}[tol]
    assert [(r.case_id, r.assignment) for r in full if r.rhs == 0.0] == _ZERO_RHS


_WINDOWS = [("S4.*", {"r": (1, 2)}), ("*", {"r": (1, 2)}), ("*", {"k": (1, 1)}), ("S1.*", {"n": (1, 1)})]


# at 1e-12 every member of a group asks for one quadrature tol (verifier._quad_tol); at the default tolerances
# S6.FM2DODR and S10.QVB6JUR, at 1e-9, ask for another than the rows that share their integrals
@pytest.mark.parametrize("tol, reused", [(None, (105, 170, 334, 4)), (1e-12, (105, 173, 337, 4))])
def test_shared_integrals_under_grid_windows_give_the_full_run_results(tol, reused):
    # a --grid window leaves some of a group's members out of the run: those left in
    # still share, and each gets the bits of the whole-catalog run
    by_key = {(r.case_id, r.assignment): r for r in verifier.run("*", tol_override=tol).results}
    got = []
    for pattern, window in _WINDOWS:
        results = verifier.run(pattern, grid_override=window, tol_override=tol).results
        for r in results:
            assert _verdict(r) == _verdict(by_key[r.case_id, r.assignment])
        got.append(sum(r.reused for r in results))
    assert tuple(got) == reused


def test_run_shares_only_quadrature_results(monkeypatch):
    # what an instance is handed to share holds QuadResults by quadrature tol, never an instance or a kernel
    seen = []
    verify_instance = verifier.verify_instance

    def keep(inst, shared=None):
        res = verify_instance(inst, shared)
        if shared is not None:
            seen.append(dict(shared))
        return res

    monkeypatch.setattr(verifier, "verify_instance", keep)
    verifier.run("S4.*")
    assert len(seen) == 500  # the S4 instances of declared groups: every one
    assert all(type(q) is float and type(v) is quad.QuadResult for d in seen for q, v in d.items())


@pytest.mark.parametrize("tol, reused", list(REUSED.items()), ids=REUSED_IDS)
def test_run_memo_holds_one_result_per_shared_integral_and_tol(monkeypatch, tol, reused):
    # a whole-catalog run hands the members of declared groups one dict per
    # shared integral, and each holds a result per quadrature tol only
    handed = []
    verify_instance = verifier.verify_instance

    def keep(inst, shared=None):
        if shared is not None:
            handed.append(shared)
        return verify_instance(inst, shared)

    monkeypatch.setattr(verifier, "verify_instance", keep)
    rep = verifier.run("*", tol_override=tol)
    memos = list({id(d): d for d in handed}.values())
    assert (len(handed), len(memos)) == (len(_shared_instances()), len(DECLARED))
    assert sum(r.reused for r in rep.results) == reused
    assert sum(len(d) for d in memos) == len(handed) - reused


def test_run_releases_each_instance_once_verified(monkeypatch):
    # BoundInstance and Integrand have no __weakref__ slot, so each instance is
    # followed through a weak reference to its kernel function
    kernels = []
    alive = []  # (row, kernels alive) as each instance is verified
    instantiate, verify_instance = registry.instantiate, verifier.verify_instance

    def bind(case_id, assignment):
        inst = instantiate(case_id, assignment)
        kernels.append(weakref.ref(inst.integrand.eval))
        return inst

    def verify_counting(inst, shared=None):
        alive.append((inst.case_id, sum(k() is not None for k in kernels)))
        return verify_instance(inst, shared)

    monkeypatch.setattr(registry, "instantiate", bind)
    monkeypatch.setattr(verifier, "verify_instance", verify_counting)
    rep = verifier.run("*")
    assert len(rep.results) == len(kernels) == len(alive) == 1504
    # a row's instances are bound when the row is reached: besides the current one and
    # those of its row not yet verified, only the kernels that a row shares between its
    # instances live, so the pass never holds more than one row
    shared = sum(k() is not None for k in kernels)
    assert shared <= 1
    pending = collections.Counter(row for row, _ in alive)
    for row, n in alive:
        assert n <= pending[row] + shared
        pending[row] -= 1


def test_determinism():
    a = verifier.run("S7.*")
    b = verifier.run("S7.*")
    assert a.results == b.results  # bitwise-identical payloads


def test_results_sorted_by_case_then_assignment():
    rep = verifier.run("S4.KJ2W249*")
    keys = [r.sort_key() for r in rep.results]
    assert keys == sorted(keys)


def test_tolerance_discipline():
    inst = registry.instantiate("S2.BJU5530", {"k": 5, "n": 8})
    res = verifier.verify_instance(inst)
    assert res.tol == pytest.approx(max(inst.tol, verifier.RTOL * abs(inst.rhs)))
    assert res.passed


def _uncut(threshold):
    """The quadrature tol as a quarter of the threshold, clamped, without the 40-bit cut."""
    return min(max(0.25 * threshold, quad.TOL_MIN), quad.TOL_MAX)


def test_quad_tol_is_cut_toward_zero_to_40_bits():
    # a sweep across the tol range and every instance's threshold at the pinned tolerances: the cut never
    # loosens a tol and takes off less than 2^-39 of it, and a tol inside the range has 40 significant bits
    cases = [registry.instantiate(c.id, a) for c in registry.catalog() for a in registry.default_grid(c.id)]
    thresholds = [t * 1.0001**j for t in (1e-14, 1e-9, 1e-4) for j in range(2000)]
    thresholds += [verifier.pass_threshold(inst.tol if tol is None else tol, inst.rhs)
                   for inst in cases for tol in make_results.TOLS]
    for t in thresholds:
        got, uncut = verifier._quad_tol(t), _uncut(t)
        assert uncut * (1.0 - 2.0**-39) < got <= uncut, t
        if quad.TOL_MIN < got < quad.TOL_MAX:
            assert math.ldexp(math.frexp(got)[0], 40).is_integer(), t


def test_quad_tol_is_cut_before_it_is_clamped():
    # 1e-13 itself has more than 40 bits: cut after the clamp, a threshold of 4e-13 or less (every instance
    # with |rhs| <= 4e-5 at --tol 1e-13) would ask for less than TOL_MIN, which quad refuses
    assert verifier._quad_tol(4.0 * quad.TOL_MIN) == verifier._quad_tol(verifier.pass_threshold(1e-13, 1e-6)) == quad.TOL_MIN
    assert verifier._quad_tol(1.0) == quad.TOL_MAX
    rep = verifier.run("S5.*", tol_override=1e-13)
    assert rep.n_fail == 0 and not any(r.note for r in rep.results)


# declared groups whose members ask for more than one quadrature tol: at the default tolerances, the groups
# that S6.FM2DODR and S10.QVB6JUR join, rows that declare 1e-9; none straddles a 40-bit step
SPLIT_TOLS = {None: ["S10.QVB6JUR/r=1", "S10.QVB6JUR/r=3", "S10.QVB6JUR/r=5", "S5.SIN3/r=2", "S5.SIN3/r=3"],
              1e-12: [], 1e-13: []}


@pytest.mark.parametrize("tol", list(SPLIT_TOLS), ids=[make_results.TOLS[tol] for tol in SPLIT_TOLS])
def test_members_of_a_declared_group_ask_for_one_quadrature_tol(tol):
    split = []
    for target, members in DECLARED.items():
        insts = [registry.instantiate(case_id, dict(assignment)) for case_id, assignment in members]
        qtols = {(inst.tol, verifier._quad_tol(verifier.pass_threshold(inst.tol if tol is None else tol, inst.rhs)))
                 for inst in insts}
        if len({q for _, q in qtols}) > 1:
            split.append(_group_id(target))
            assert len(qtols) == len({inst.tol for inst in insts})  # one tol per row tolerance
    assert sorted(split) == SPLIT_TOLS[tol]


def test_negative_control_flips():
    inst = registry.instantiate("S5.FOURG", {})
    res = verifier.verify_instance(inst)
    assert res.passed
    wrong = registry.BoundInstance(
        inst.case_id, inst.assignment, inst.integrand, inst.rhs * (1.0 + 1e-5), inst.tol, inst.strategy
    )
    res_wrong = verifier.verify_instance(wrong)
    assert not res_wrong.passed


def _lf2_printed_rhs(m, r):
    # the S4.LF2 closed form as the source prints it, with sum base 4/(5F_r)
    # where the catalog's _lf2_rhs verifies with 4/(5F_r^2)
    f2 = 5.0 * F(r) ** 2
    acc = sum((-1.0) ** (r + (r + 1) * (m - j)) / j * (4.0 / (5.0 * F(r))) ** j for j in range(1, m + 1))
    logterm = (-1.0) ** ((r + 1) * (m + 1)) * math.log(f2 / L(r) ** 2)
    return (acc + logterm) / 2.0 ** (2 * m + 3)


@pytest.mark.parametrize("tol", [None, 1e-12])
def test_lf2_misprint_is_caught(tol):
    # the note on S4.LF2 and S4.LF2.B says the printed sum base does not
    # verify: every grid point where the printed form differs from the
    # catalog's (m >= 1 and F_r != 1, so r >= 3) must fail
    differ, failed = [], []
    for cid in ("S4.LF2", "S4.LF2.B"):
        for assignment in registry.default_grid(cid):
            inst = registry.instantiate(cid, assignment)
            printed = _lf2_printed_rhs(**assignment)
            if printed == inst.rhs:
                continue
            differ.append((cid, assignment["m"], assignment["r"]))
            if tol is not None:
                inst.tol = tol
            inst.rhs = printed
            if not verifier.verify_instance(inst).passed:
                failed.append(differ[-1])
    assert len(differ) == 48 and all(m >= 1 and r >= 3 for _, m, r in differ)
    assert failed == differ


def _clsq_printed_rhs(r):
    # the S10.CLSQ.E/.O closed form as the source prints it, with the Clausen pair
    # Cl2(t) - Cl2(pi - t) where the catalog's xcos._plus verifies with the sum
    br = parity(r)
    u = br.sigma * bpow(r)
    s = math.sqrt(u)
    b, w, g = br.B(r), s / (1.0 + u), 0.5 - u / (1.0 + u)
    t = 2.0 * math.atan(s)
    return (
        -2.0 * PI / b * w * g * math.atan(s) * math.log(s)
        - PI / b * w * g * (cl2(t) - cl2(PI - t))
        - PI / (2.0 * b) * w * math.atan(2.0 * s / (1.0 - u))
    )


def _rdjra1d_printed_kernel(r):
    # the S6.RDJRA1D kernel as the source prints it, x sin x/(L_r^2 - 4 sin^2 x),
    # where the row's logarithmic closed form belongs to L_r^2 - 4 cos^2 x
    a = L(r) ** 2
    return lambda x: x * math.sin(x) / (a - 4.0 * math.sin(x) ** 2)


def _a40q_printed_kernel(r):
    # the S10.A40QD9A kernel as the source prints it, with the two half-kernels added,
    # where the row's closed form (the cos 3x relation) belongs to their difference
    a = F(r) * SQRT5

    def f(x):
        c = 2.0 * math.cos(2.0 * x)
        return 0.5 * x * x * math.cos(x) * (1.0 / (a - c) + 1.0 / (a + c))

    return f


_PRINTED_KERNELS = {"S6.RDJRA1D": _rdjra1d_printed_kernel, "S10.A40QD9A": _a40q_printed_kernel}


def _printed_variant(cid, inst):
    """The instance with the printed formula of its row's note, and whether that formula differs from the row's."""
    r = inst.assignment["r"]
    if cid in _PRINTED_KERNELS:
        printed, row = _PRINTED_KERNELS[cid](r), inst.integrand.eval
        inst.integrand = Integrand(printed, inst.integrand.singular_points)
        return any(printed(x) != row(x) for x in (0.5, 1.0, 2.0))
    printed = _clsq_printed_rhs(r)
    differs, inst.rhs = printed != inst.rhs, printed
    return differs


_CLSQ, _RDJ, _A40Q = ("S10.CLSQ.E", "S10.CLSQ.O"), ("S6.RDJRA1D",), ("S10.A40QD9A",)


@pytest.mark.parametrize(
    ("cids", "tol", "n_differ", "n_failed"),
    [
        (_CLSQ, None, 10, 10),
        (_CLSQ, 1e-12, 10, 10),
        (_RDJ, None, 5, 4),
        (_RDJ, 1e-12, 5, 5),
        (_A40Q, None, 6, 6),
        (_A40Q, 1e-12, 6, 6),
    ],
    ids=["CLSQ-default", "CLSQ-1e-12", "RDJRA1D-default", "RDJRA1D-1e-12", "A40QD9A-default", "A40QD9A-1e-12"],
)
def test_printed_misprints_are_caught(cids, tol, n_differ, n_failed):
    # each row's note says the formula the source prints does not verify: run the printed
    # variant as a test-local row on every grid point where it differs, and pin how many fail;
    # the one that passes is test_printed_rdjra1d_kernel_fails_at_r10
    differ, failed = [], []
    for cid in cids:
        for assignment in registry.default_grid(cid):
            inst = registry.instantiate(cid, assignment)
            if not _printed_variant(cid, inst):
                continue
            differ.append((cid, assignment["r"]))
            if tol is not None:
                inst.tol = tol
            if not verifier.verify_instance(inst).passed:
                failed.append(differ[-1])
    assert (len(differ), len(failed)) == (n_differ, n_failed)
    assert failed == [d for d in differ if d != ("S6.RDJRA1D", 10) or tol is not None]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the printed S6.RDJRA1D kernel at r=10 integrates 1.8e-8 away from the row's "
    "closed form, under its absolute tolerance 1e-7, so the misprint passes at the default tolerances",
)
def test_printed_rdjra1d_kernel_fails_at_r10():
    inst = registry.instantiate("S6.RDJRA1D", {"r": 10})
    assert _printed_variant("S6.RDJRA1D", inst)
    assert not verifier.verify_instance(inst).passed


def test_grid_and_tol_overrides():
    rep = verifier.run("S3.M6BI7TA", grid_override={"r": (2, 4)})
    assert len(rep.results) == 3
    rep = verifier.run("S5.FOURG", tol_override=1e-5)
    assert rep.results[0].tol == pytest.approx(1e-5)


def test_failure_is_reported_not_raised():
    seen = []

    def nan(x):
        seen.append(x)
        return float("nan")

    bad = registry.BoundInstance(
        "SYNTH.BAD",
        {},
        Integrand(nan),
        1.0,
        1e-7,
        registry.FINITE(0.0, 1.0),
    )
    res = verifier.verify_instance(bad)
    assert not res.passed
    assert res.note == "integrand raised or returned a non-finite value"
    assert res.quad_evals == len(seen) > 0  # the calls made before the failure count


def test_nonconvergence_is_named_as_such():
    # 1/x is finite at every node of the open rule but its integral diverges
    bad = registry.BoundInstance(
        "SYNTH.DIVERGENT",
        {},
        Integrand(lambda x: 1.0 / x),
        1.0,
        1e-7,
        registry.FINITE(0.0, 1.0),
    )
    res = verifier.verify_instance(bad)
    assert not res.passed
    assert math.isfinite(res.lhs)
    assert res.note == "quadrature did not converge"



def _kink(x):
    return abs(x - 1.0 / PI)


def _kink_instance(f):
    """f over (0, 1) against the integral of the undeclared kink |x - 1/pi|."""
    c = 1.0 / PI
    return registry.BoundInstance(
        "SYNTH.KINK", {}, Integrand(f), 0.5 * (c * c + (1.0 - c) ** 2), 1e-7, registry.FINITE(0.0, 1.0)
    )


def test_non_arithmetic_raise_is_an_integration_error():
    def f(x):
        raise TypeError("unsupported operand")

    res = verifier.verify_instance(_kink_instance(f))
    assert not res.passed
    assert res.note == "integration error: unsupported operand"
    assert math.isnan(res.lhs) and res.abs_err == math.inf and res.quad_evals == 0


def test_arithmetic_raise_counts_the_calls_made():
    # the Fejer pass declines the kink after 255 calls, so call 300 falls in the tanh-sinh pass
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        if calls == 300:
            raise ZeroDivisionError("float division by zero")
        return _kink(x)

    res = verifier.verify_instance(_kink_instance(f))
    assert not res.passed
    assert res.note == "integrand raised or returned a non-finite value"
    assert math.isnan(res.lhs) and res.abs_err == math.inf and res.quad_evals == calls == 300


def test_undeclared_kink_does_not_converge():
    res = verifier.verify_instance(_kink_instance(_kink))
    assert not res.passed
    assert res.note == "quadrature did not converge"
    assert math.isfinite(res.lhs) and res.quad_evals > 255

def test_full_catalog_passes_at_tight_tolerance():
    rep = verifier.run("*", tol_override=1e-12)
    assert rep.n_fail == 0
    assert len(rep.results) == 1504


@pytest.mark.parametrize("tol", (quad.TOL_MIN, quad.TOL_MAX))
def test_full_catalog_passes_at_the_ends_of_the_tol_range(tol):
    # quadrature has no fallback for a pass that stalls, so a change that
    # would need one fails here
    rep = verifier.run("*", tol_override=tol)
    assert rep.n_fail == 0
    assert len(rep.results) == 1504


def test_structural_lemma_from_own_quadratures():
    # recombination of the two half-kernels equals the combined kernel,
    # as a relation among this engine's own integral values
    from fibint.exact_seq import fib

    for r in range(1, 7):
        a = fib(r) * SQRT5

        def minus(x, _a=a):
            return x * x * math.cos(x) / (_a - 2.0 * math.cos(2.0 * x))

        def plus(x, _a=a):
            return x * x * math.cos(x) / (_a + 2.0 * math.cos(2.0 * x))

        def combined(x, _a=a):
            c = math.cos(2.0 * x)
            return x * x * math.cos(x) / (_a * _a - 4.0 * c * c)

        im = integrate_finite(Integrand(minus), 0.0, PI, 1e-12).value
        ip = integrate_finite(Integrand(plus, (PI / 2.0,)), 0.0, PI, 1e-12).value
        ic = integrate_finite(Integrand(combined, (PI / 2.0,)), 0.0, PI, 1e-12).value
        assert (im + ip) / (2.0 * a) == pytest.approx(ic, abs=1e-9)


def test_half_full_interval_relation():
    rep = verifier.run("S6.FM2DODR")
    assert rep.n_fail == 0
    assert all(r.tol <= 1e-8 for r in rep.results)
