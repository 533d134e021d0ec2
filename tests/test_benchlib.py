import json
import math
import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from synkit import compose, tsys
from synkit.benchlib import (
    COMPOSITIONAL_IDS,
    NOT_MODELED_IDS,
    BenchmarkError,
    ExpectedClass,
    PropertySpec,
    driver_harness,
    load_benchmark,
    load_expected,
    sample_step,
)
from synkit.benchlib.loader import _check_integrity
from synkit.engine import (
    EngineConfig,
    Falsified,
    Unknown,
    Valid,
    bmc,
    compile_system,
    kinduction,
    make_replayer,
    verify_all,
)
from synkit.interp import Trace, simulate

import _blocks as blocks

CFG = EngineConfig(k_max=6)


@pytest.fixture(scope="module")
def bench():
    return load_benchmark()


@pytest.fixture(scope="module")
def expected():
    return load_expected()


# --- stdlib blocks: pinned examples, algebra, and model differentials -------

def test_block_examples_pin_the_semantics():
    assert blocks.saturation(F(5), F(0), F(3)) == F(3)
    assert blocks.dead_zone(F(0), F(-1), F(1)) == F(0)
    ones = [F(1)] * 4
    assert blocks.integrator(ones, F(1, 2), F(0)) == [F(0), F(1, 2), F(1),
                                                      F(3, 2)]
    assert blocks.rate_limit([F(0), F(10)], F(2), F(1)) == [F(0), F(2)]


frac = st.integers(-3200, 3200).map(lambda n: F(n, 8))


@given(frac, frac, frac)
def test_saturation_algebra(x, a, b):
    lo, hi = min(a, b), max(a, b)
    y = blocks.saturation(x, lo, hi)
    assert lo <= y <= hi
    assert blocks.saturation(y, lo, hi) == y
    if lo <= x <= hi:
        assert y == x


@given(frac, frac, frac)
def test_dead_zone_algebra(x, a, b):
    lo, hi = min(a, b), max(a, b)
    y = blocks.dead_zone(x, lo, hi)
    if lo <= x <= hi:
        assert y == 0
    elif x > hi:
        assert y == x - hi > 0
    else:
        assert y == x - lo < 0


@given(st.integers(0, 2879), st.integers(0, 2879))
def test_shortest_err_is_the_congruent_representative(c8, a8):
    cmd, actual = F(c8, 8), F(a8, 8)
    e = blocks.shortest_err(cmd, actual)
    assert F(-180) < e <= F(180)
    assert (cmd - actual - e) % 360 == 0


def test_shortest_err_tie_goes_positive():
    assert blocks.shortest_err(F(180), F(0)) == F(180)
    assert blocks.shortest_err(F(0), F(180)) == F(180)


def test_blocks_match_the_language_models(bench):
    tp = bench.tp
    rng = random.Random(7)

    def rf(lo, hi):
        return F(rng.randint(lo * 8, hi * 8), 8)

    def run(node, cols, n):
        return simulate(tp, node, Trace(signals=cols), n).signals

    for _ in range(120):
        x, a, b = rf(-400, 400), rf(-400, 400), rf(-400, 400)
        lo, hi = min(a, b), max(a, b)
        got = run("Saturation", {"x": [x], "lo": [lo], "hi": [hi]}, 1)
        assert got["y"][0] == blocks.saturation(x, lo, hi)
        got = run("DeadZone", {"x": [x], "lo": [lo], "hi": [hi]}, 1)
        assert got["y"][0] == blocks.dead_zone(x, lo, hi)
        c, ac = rf(0, 360), rf(0, 360)
        got = run("ShortestErr", {"cmd": [c], "actual": [ac]}, 1)
        assert got["e"][0] == blocks.shortest_err(c, ac)
        w = rf(-360, 720)
        got = run("WrapHeading", {"x": [w]}, 1)
        assert got["y"][0] == blocks.wrap_heading(w)

    for _ in range(40):
        n = rng.randint(1, 25)
        xs = [rf(-50, 50) for _ in range(n)]
        mr, dt = abs(rf(0, 20)), F(rng.randint(1, 8), 4)
        got = run("RateLimit",
                  {"x": xs, "max_rate": [mr] * n, "dt": [dt] * n}, n)
        assert got["y"] == blocks.rate_limit(xs, mr, dt)
        x0 = rf(-10, 10)
        got = run("Integrator", {"x": xs, "dt": [dt] * n, "x0": [x0] * n}, n)
        assert got["y"] == blocks.integrator(xs, dt, x0)


# --- catalog integrity -------------------------------------------------------

def test_catalog_counts(bench):
    tp, specs, contracts = bench
    assert len(specs) == 20
    assert sum(s.modeled for s in specs) == 17
    assert {s.id for s in specs if not s.modeled} == set(NOT_MODELED_IDS)
    comp = {s.id for s in specs
            if s.expected_class is ExpectedClass.COMPOSITIONAL}
    assert comp == set(COMPOSITIONAL_IDS)
    assert set(contracts) == comp


def test_out_of_scope_rows_are_never_formalized(bench):
    for s in bench.specs:
        if s.id in NOT_MODELED_IDS:
            assert s.observer_node is None
            assert s.node_under_test is None
            assert s.driver is None
            assert s.reason


def test_observers_and_subjects_exist(bench):
    tp, specs, _ = bench
    for s in specs:
        if s.modeled:
            assert tp.info(s.observer_node).decl.properties == ["Obs"]
            tp.info(s.node_under_test)


def test_assumption_columns_follow_the_catalog(bench):
    cols = {s.id: s.assumptions_used for s in bench.specs}
    assert cols["G-250"] == ("G-260",)
    assert cols["G-110"] == ("G-220", "G-260")
    assert cols["G-120"] == ("G-180", "A1", "A2", "FPA1")
    assert cols["G-130"] == ("G-180", "A1", "A2")
    assert cols["G-140"] == ("G-120", "G-200")
    assert all(cols[i] == () for i in
               ("G-170", "G-180", "G-100", "G-200", "G-210", "G-220",
                "G-230", "G-240", "G-260", "G-270", "G-290"))


def test_integrity_rejects_missing_driver_signal(bench):
    tp, specs, contracts = bench
    broken = [replace(s, driver={k: v for k, v in s.driver.items()
                                 if k != "FPain"})
              if s.id == "G-120" else s for s in specs]
    with pytest.raises(BenchmarkError, match="driver covers"):
        _check_integrity(tp, broken, contracts)


def test_integrity_rejects_observer_on_out_of_scope_row(bench):
    tp, specs, contracts = bench
    broken = [replace(s, observer_node="G170") if s.id == "G-160" else s
              for s in specs]
    with pytest.raises(BenchmarkError, match="no observer"):
        _check_integrity(tp, broken, contracts)


def test_integrity_rejects_direct_row_with_manifest(bench):
    tp, specs, contracts = bench
    extra = dict(contracts)
    extra["G-240"] = contracts["G-250"]
    with pytest.raises(BenchmarkError, match="direct row"):
        _check_integrity(tp, specs, extra)


def test_expected_pins_every_modeled_row(bench, expected):
    assert expected["derived_by"] == "tests/derive_expected.py"
    modeled = {s.id for s in bench.specs if s.modeled}
    assert set(expected["results"]) == modeled
    for s in bench.specs:
        if not s.modeled:
            continue
        row = expected["results"][s.id]
        assert row["verdict"] == "valid"
        want = ("compositional"
                if s.expected_class is ExpectedClass.COMPOSITIONAL
                else "direct")
        assert row["method"] == want


# --- engine verdicts against the pins ---------------------------------------

def test_direct_rows_prove_at_pinned_depth(bench, expected):
    tp, specs, _ = bench
    tasks = [(tsys.compile(tp, s.observer_node), s.id) for s in specs
             if s.expected_class is ExpectedClass.DIRECT]
    # verify_all keys results by the task's property id; the observers all
    # name their verdict Obs, so rename per task
    for ts, pid in tasks:
        ts.properties = [(pid, f) for _, f in ts.properties]
    res = verify_all(tasks, CFG)
    for pid, r in res.items():
        assert isinstance(r, Valid), (pid, r)
        assert r.k == expected["results"][pid]["k"], pid


def test_compositional_rows_prove_at_pinned_depth(bench, expected):
    tp, specs, contracts = bench
    for s in specs:
        if s.expected_class is not ExpectedClass.COMPOSITIONAL:
            continue
        arg = compose.build_argument(tp, s.observer_node, "Obs",
                                     contracts[s.id], CFG)
        assert compose.argument_holds(arg), s.id
        pin = expected["results"][s.id]
        assert isinstance(arg.system_result, Valid)
        assert arg.system_result.k == pin["k"], s.id
        got = {node: {gid: r.k for gid, r in per.items()}
               for node, per in arg.component_results.items()}
        assert got == pin["components"], s.id


def test_g120_contract_formulas_are_each_load_bearing(bench):
    tp, _, contracts = bench
    full = contracts["G-120"]

    def drop(fid):
        return [compose.Contract(
            c.node,
            tuple(p for p in c.assumptions if p[0] != fid),
            tuple(p for p in c.guarantees if p[0] != fid)) for c in full]

    for fid in ("G-180", "A1", "A2", "FPA1"):
        res = compose.check_system(tp, "G120", "Obs", drop(fid), CFG)
        assert not isinstance(res, Valid), fid


def test_unrefined_fpa_engagement_falsifies_and_replays(bench):
    tp = bench.tp
    ts = tsys.compile(tp, "G180Raw")
    r = bmc(ts, "Obs", 6, CFG)
    assert isinstance(r, Falsified)
    assert make_replayer(tp, "G180Raw", "Obs")(r.trace, r.step)


def test_mode_invariants_prove(bench):
    ts = tsys.compile(bench.tp, "ModeExcl")
    res = verify_all([(ts, "Excl"), (ts, "Override")], CFG)
    assert all(isinstance(r, Valid) for r in res.values())


def test_trig_variant_proves_via_congruence_alone(bench):
    ts = tsys.compile(bench.tp, "FPATrigObs")
    assert ts.extern_symbols, "sine must reach the solver uninterpreted"
    r = kinduction(ts, "Obs", CFG)
    assert isinstance(r, Valid) and r.k <= 2


def test_satchain_needs_the_invariant_pass(bench):
    ts = tsys.compile(bench.tp, "SatChainObs")
    assert isinstance(kinduction(ts, "Obs", EngineConfig(k_max=3)), Unknown)
    strong = kinduction(ts, "Obs",
                        EngineConfig(k_max=3, use_invariants=True))
    assert isinstance(strong, Valid) and strong.k <= 3
    assert strong.invariants_used


# --- mode logic against an exhaustive boolean twin ---------------------------

def _twin(seq):
    """Pitch-axis engagement over (alt, fpa, near, nostick) words."""
    out = []
    sw = False
    for t, (alt, fpa, near, ns) in enumerate(seq):
        sw = (alt and fpa and near) or (t > 0 and sw and alt and fpa)
        alte = alt and ns and ((not fpa) or sw)
        fpae = fpa and ns and ((not alt) or not sw)
        out.append((alte, fpae))
    return out


def test_autopilot_matches_boolean_twin_exhaustively(bench):
    ts = tsys.compile(bench.tp, "AutoPilot")
    cs = compile_system(ts)
    names = cs.defined_names
    i_alt, i_fpa = names.index("AltEng"), names.index("FPAEng")
    base = {"HeadMode": F(0), "ATMode": F(0), "AltCmd": F(3000),
            "CAS": F(200), "CASCmdMCP": F(220)}
    raw_seen = False
    for word in product(product((False, True), repeat=4), repeat=3):
        state = cs.default_state
        got = []
        for alt, fpa, near, ns in word:
            row = dict(base)
            row["AltMode"] = F(1) if alt else F(0)
            row["FPAMode"] = F(1) if fpa else F(0)
            row["Altitude"] = F(3100) if near else F(3500)
            row["AilStick"] = F(0) if ns else F(3, 2)
            row["ElevStick"] = F(0)
            inp = tuple(row[n] for n in cs.input_names)
            state, _, _, defs = cs.step(state, inp)
            _, defs = cs.decode(state, defs)
            got.append((defs[i_alt], defs[i_fpa]))
        assert got == _twin(word), word
        raw_seen = raw_seen or any(
            fpa and ns and not fpae
            for (_, fpa, _, ns), (_, fpae) in zip(word, got))
    # the boolean lattice itself witnesses why the naive FPA engagement
    # claim needed the altitude-mode exclusion
    assert raw_seen


# --- drivers ------------------------------------------------------------------

def test_drivers_stay_clean_on_long_runs(bench):
    tp, specs, _ = bench
    for s in specs:
        if not s.modeled:
            continue
        for seed in (0, 1):
            r = driver_harness(tp, s)(2000, seed)
            assert r.ok, (s.id, seed, r.violations[:3])


def test_driver_detects_broken_environment(bench):
    tp, specs, _ = bench
    g120 = bench.spec("G-120")
    bad = dict(g120.driver)
    bad["FPain"] = {"choice": ["999.0"]}
    with pytest.raises(BenchmarkError, match="environment assert"):
        driver_harness(tp, replace(g120, driver=bad))(50, 0)


@pytest.mark.parametrize("pool", [{"choice": []},
                                  {"uniform": ["1.0", "0.0", 4]}])
def test_driver_refuses_an_empty_pool(bench, pool):
    g120 = bench.spec("G-120")
    bad = dict(g120.driver, FPain=pool)
    with pytest.raises(BenchmarkError, match="FPain: empty driver pool"):
        driver_harness(bench.tp, replace(g120, driver=bad))(1, 0)


@pytest.mark.parametrize("pool", [{"choice": ["abc"]},
                                  {"uniform": ["0.0", "1.0"]},
                                  {"choice": "0.0"},
                                  {"choice": [0.5]},
                                  {"uniform": ["0.0", "1.0", 0]},
                                  {"choice": ["1/0"]},
                                  {"nearest": ["0.0"]}])
def test_driver_refuses_a_malformed_entry(bench, pool):
    g120 = bench.spec("G-120")
    bad = dict(g120.driver, FPain=pool)
    with pytest.raises(BenchmarkError,
                       match="^G-120: FPain: bad driver entry"):
        driver_harness(bench.tp, replace(g120, driver=bad))


def test_driver_must_cover_exactly_the_inputs(bench):
    g120 = bench.spec("G-120")
    extra = dict(g120.driver, Stray={"choice": ["0.0"]})
    with pytest.raises(BenchmarkError, match="^G-120: Stray: not an input"):
        driver_harness(bench.tp, replace(g120, driver=extra))
    short = {n: d for n, d in g120.driver.items() if n != "FPain"}
    with pytest.raises(BenchmarkError,
                       match="^G-120: no driver entry for FPain$"):
        driver_harness(bench.tp, replace(g120, driver=short))


def test_driver_runs_are_reproducible(bench):
    tp = bench.tp
    s = bench.spec("G-250")
    ts = tsys.compile(tp, s.observer_node)
    types = dict(ts.input_vars)
    a = [sample_step(s.driver, types, random.Random(9)) for _ in range(20)]
    b = [sample_step(s.driver, types, random.Random(9)) for _ in range(20)]
    assert a == b


def test_mode_invariants_hold_in_simulation(bench):
    tp = bench.tp
    g170 = bench.spec("G-170")
    excl = PropertySpec(
        id="ModeExcl", prose="", node_under_test="AutoPilot",
        observer_node="ModeExcl", assumptions_used=(),
        expected_class=ExpectedClass.DIRECT, driver=g170.driver)
    for seed in (0, 1, 2):
        r = driver_harness(tp, excl)(1500, seed)
        assert r.prop_ids == ["Excl", "Override"]
        assert r.ok, r.violations[:3]


def test_trig_variant_simulates_with_concrete_sine(bench):
    tp = bench.tp
    spec = PropertySpec(
        id="FPA-TRIG", prose="", node_under_test="FPAControl",
        observer_node="FPATrigObs", assumptions_used=(),
        expected_class=ExpectedClass.DIRECT,
        driver={"Engage": {"choice": ["true", "true", "false"]},
                "AltGammaCmd": {"uniform": ["-3.0", "3.0", 8]},
                "GammaDeg": {"uniform": ["-10.0", "10.0", 4]},
                "ThetaDeg": {"uniform": ["-10.0", "10.0", 4]},
                "VT": {"uniform": ["100.0", "400.0", 4]}})
    sine = lambda x: F(math.sin(float(x))).limit_denominator(10 ** 9)
    for seed in (0, 1):
        r = driver_harness(tp, spec, externs={"sine": sine})(800, seed)
        assert r.ok, r.violations[:3]


def test_benchmark_safety_case_shape(bench):
    from synkit import safetycase as sc
    from synkit.benchlib.gsn import benchmark_requirements

    forest, results = benchmark_requirements()
    roots = sc.requirements_from_json(forest)
    [root] = roots
    assert root.id == "GNC-150"
    assert [(r.id, r.text) for r in root.children] \
        == [(s.id, s.prose) for s in bench.specs]
    assert all(r.verification is None for r in root.walk())
    for row, spec in zip(root.children, bench.specs):
        assert row.metadata.get("depends_on_assumptions", []) \
            == list(spec.assumptions_used)
        assert (row.metadata.get("status") == "not modeled") \
            == (spec.id in NOT_MODELED_IDS)
    g120 = root.children[[s.id for s in bench.specs].index("G-120")]
    assert [c.id for c in g120.children] == [
        "G-120/A2", "G-120/G-180", "G-120/A1", "G-120/FPA1"]
    assert g120.children[0].text == "Contract A2 holds on AltitudeControl"
    n_req = sum(1 for r in roots for _ in r.walk())
    # one root, twenty table rows, eighteen contract obligations under
    # the six compositional rows
    assert n_req == 39
    res = {k: sc.evidence_from_json(v) for k, v in results.items()}
    g = sc.instantiate_pattern(sc.DEFAULT_PATTERN, roots, res)
    assert len(g) == 146 == sc.count_law(sc.DEFAULT_PATTERN, roots, res)
    assert sc.validate(g) == []
    assert sc.metrics(g)["max_depth"] == 5

    rep = sc.check_leaf_support(g, "goal:GNC-150")
    assert len(rep.formal) == 29
    assert rep.informal == ()
    assert sorted(rep.undeveloped) == [
        "goal:G-160", "goal:G-190", "goal:G-280"]
    root_strategy = g.elements["strategy:GNC-150"]
    assert root_strategy.metadata["label"] == sc.LABEL_INFORMAL
    assert set(root_strategy.metadata["unproved_children"]) == \
        set(NOT_MODELED_IDS)
    assert g.elements["strategy:G-120"].metadata["label"] \
        == sc.LABEL_FORMAL_COMP
    assert len(sc.query(g, kind=sc.Kind.SOLUTION,
                        related_to="autopilot")) == 29
