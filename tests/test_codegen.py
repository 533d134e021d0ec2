"""Scaled-integer step functions against the concrete semantics.

The compiled observers hold each Real signal whose denominator is fixed
as a plain int, and each one on a loop that multiplies its denominator
by a power of two as an int mantissa with a power-of-two exponent; these
tests hold them against the interpreter step by step, pin the driver
harness's results, hold the harness's generated campaign loop against a
reference loop of sample_step draws and step calls, and check that every
Real value that leaves the compiled system is an exact Fraction.
"""

import dis
import hashlib
import random
from dataclasses import replace
from fractions import Fraction as F
from functools import partial

import pytest

from synkit import interp, tsys
from synkit.benchlib import BenchmarkError, driver_harness, load_benchmark
from synkit.benchlib import loader
from synkit.engine import compile_system, core, simulate_system
from synkit.interp import Trace
from synkit.lang import (LangError, Type, Var, instance_names, parse,
                         typecheck, walk)

MODELED = ("G-250", "G-110", "G-120", "G-130", "G-140", "G-150", "G-170",
           "G-180", "G-100", "G-200", "G-210", "G-220", "G-230", "G-240",
           "G-260", "G-270", "G-290")


@pytest.fixture(scope="module")
def bench():
    return load_benchmark()


def _harness_system(monkeypatch, tp, spec):
    """The driver harness for spec and the system it compiled."""
    seen = {}
    compile_system_ = loader.compile_system

    def recording(*args, **kwargs):
        seen["cs"] = compile_system_(*args, **kwargs)
        return seen["cs"]

    monkeypatch.setattr(loader, "compile_system", recording)
    run = driver_harness(tp, spec)
    return seen["cs"], run


def _compiled_inputs(cs, row):
    """A row of public driver values as the step function takes it."""
    out = []
    for n in cs.input_names:
        v = row[n]
        if n in cs.scales:
            v *= cs.scales[n]
            assert v.denominator == 1, (n, row[n])
            v = v.numerator
        out.append(v)
    return tuple(out)


def _reference_runs(cs, draw, steps):
    """What ``campaign(k, ...)`` must return for k = 1..steps, from
    ``cs.step`` on the rows ``draw()`` gives in turn: the violations, the
    breach step and the final state after each k, until a breach."""
    state, violations, out = cs.default_state, [], []
    for t in range(steps):
        state, asm, props, _ = cs.step(state, _compiled_inputs(cs, draw()))
        violations += [(t, pid) for pid, val in zip(cs.prop_ids, props)
                       if val is False]
        out.append((list(violations), None if asm else t, state))
        if not asm:
            break
    return out


def _assert_campaign_matches(cs, draw_from, seed, steps):
    """The campaign's result and its use of the generator, at every step
    count 1..steps, against the reference loop on the rows draw_from(rng)
    draws from Random(seed)."""
    ref = random.Random(seed)
    want = _reference_runs(cs, lambda: draw_from(ref), steps)
    # the generator after the reference's k-th draw
    states = []
    rng = random.Random(seed)
    for _ in want:
        draw_from(rng)
        states.append(rng.getstate())
    for k, (expect, after) in enumerate(zip(want, states), 1):
        rng = random.Random(seed)
        got = cs.campaign(k, rng.getrandbits)
        assert got == expect, (k, got, expect)
        assert rng.getstate() == after, k
    return want


def _interp_state(tp, st, prefix=""):
    """The interpreter's Pre memory under the transition system's names."""
    p = prefix + "." if prefix else ""
    out = {f"{p}_pre{i}": v for i, v in enumerate(st.pre_vals)}
    names = instance_names(tp.info(st.node))
    for site, child in st.children.items():
        out.update(_interp_state(tp, child, p + names[site]))
    return out


def test_modeled_ids_are_the_catalog(bench):
    assert set(MODELED) == {s.id for s in bench.specs if s.modeled}


@pytest.mark.parametrize("pid", MODELED)
def test_scaled_observer_matches_interpreter(monkeypatch, bench, pid):
    """Assumption flag, properties, defined signals and state of the
    harness's compiled observer, decoded, against the interpreter at
    every step of a driver run drawn by sample_step."""
    steps = 500
    spec = bench.spec(pid)
    node = spec.observer_node
    seed = MODELED.index(pid) + 11
    cs, run = _harness_system(monkeypatch, bench.tp, spec)
    assert run(steps, seed).ok
    assert cs.scales, "nothing was compiled to integers"
    types = dict(cs.ts.input_vars)
    rng = random.Random(seed)
    inputs, outs, state = [], [], cs.default_state
    for _ in range(steps):
        row = loader.sample_step(spec.driver, types, rng)
        inputs.append(tuple(row[n] for n in cs.input_names))
        outs.append(cs.step(state, _compiled_inputs(cs, row)))
        state = outs[-1][0]
    trace = Trace({n: [row[i] for row in inputs]
                   for i, n in enumerate(cs.input_names)})
    sim = interp.simulate(bench.tp, node, trace, steps, deep=True)
    reals = {n for n, ty in cs.ts.var_types().items() if ty is Type.REAL}
    compiled = {n: [] for n in cs.defined_names}
    st = interp.init_state(bench.tp, node)
    for t, ((nxt, asm, props, defs), row) in enumerate(zip(outs, inputs)):
        assert asm == sim.assertion_ok[t], (pid, t)
        for prop, val in zip(cs.prop_ids, props):
            assert val == sim.signals[prop][t], (pid, t, prop)
        state, defs = cs.decode(nxt, defs)
        for name, val in zip(cs.defined_names, defs):
            assert name not in reals or type(val) is F, (pid, name)
            compiled[name].append(val)
        st, _, _ = interp.step(bench.tp, node, st,
                               dict(zip(cs.input_names, row)))
        pres = _interp_state(bench.tp, st)
        for name, val in zip(cs.state_names, state):
            if name == tsys.INIT_FLAG:
                assert val is False
                continue
            assert val == pres[name], (pid, t, name, val, pres[name])
            assert name not in reals or type(val) is F, (pid, name)
    # both run every instance at every step, under untaken branches too
    for name, vals in compiled.items():
        assert sim.signals[name] == vals, (pid, name)


# --- the harness draws what it always drew ------------------------------------

# (spec, seed, steps) -> violation count, first violations and a digest of
# the whole list, as the Fraction-only step functions produced them
PINNED_RUNS = [
    ("G-180-raw", 3, 3000, 76, [(20, "Obs"), (65, "Obs"), (68, "Obs")],
     "b883892447b7b396"),
    ("G-180-raw", 11, 3000, 69, [(5, "Obs"), (26, "Obs"), (27, "Obs")],
     "a3ac574f3d69fc26"),
    ("G-200", 5, 3000, 0, [], "4f53cda18c2baa0c"),
    ("G-120", 7, 3000, 0, [], "4f53cda18c2baa0c"),
    ("G-250", 2, 3000, 0, [], "4f53cda18c2baa0c"),
    ("G-100", 4, 3000, 0, [], "4f53cda18c2baa0c"),
    ("G-200", 6, 10000, 0, [], "4f53cda18c2baa0c"),
]


def _spec(bench, pid):
    if pid == "G-180-raw":
        # G-180's driver against the observer without the mode exclusion,
        # which the driver violates
        return replace(bench.spec("G-180"), id=pid, observer_node="G180Raw")
    return bench.spec(pid)


@pytest.mark.parametrize("pid,seed,steps,count,first,digest", PINNED_RUNS)
def test_driver_runs_are_pinned(bench, pid, seed, steps, count, first,
                                digest):
    r = driver_harness(bench.tp, _spec(bench, pid))(steps, seed)
    assert r.prop_ids == ["Obs"] and r.steps == steps
    assert len(r.violations) == count
    assert r.violations[:3] == first
    got = hashlib.sha256(repr(r.violations).encode()).hexdigest()[:16]
    assert got == digest


def test_campaign_skips_dead_definitions(monkeypatch, bench):
    """The campaign assigns only the definitions that a property, an
    assumption or a next-state value reads, by a rescan of every
    definition to a fixpoint; the step still returns them all."""
    cs, run = _harness_system(monkeypatch, bench.tp, bench.spec("G-170"))
    ts = cs.ts

    def names(e):
        return {x.name for x in walk(e) if isinstance(x, Var)}

    live = set().union(*map(names, [f for _, f in ts.properties]
                            + [rhs for _, rhs in ts.trans]
                            + ts.assumptions))
    while True:
        more = set().union(set(), *(names(rhs) for n, rhs in ts.definitions
                                    if n in live)) - live
        if not more:
            break
        live |= more
    slots = {n: f"d{i}" for i, n in enumerate(cs.defined_names)}
    dead = {slots[n] for n in slots if n not in live}
    assert len(dead) == 4 and len(slots) == 15
    assigned = set(cs.campaign.__code__.co_varnames)
    assert not dead & assigned
    assert set(slots.values()) - dead <= assigned
    out = cs.step(cs.default_state, _compiled_inputs(
        cs, loader.sample_step(bench.spec("G-170").driver,
                               dict(ts.input_vars), random.Random(1))))
    assert len(out[3]) == len(slots)
    assert run(200, 3).ok


@pytest.mark.parametrize("pid", ["G-200", "G-100"])
def test_growing_loops_step_without_fractions(monkeypatch, bench, pid):
    """The harness's step and campaign for the altitude and speed loops
    build and read no Fraction: every Real is a scaled or a growing int."""
    cs, _ = _harness_system(monkeypatch, bench.tp, bench.spec(pid))
    assert cs.growing
    reals = {n for n, ty in cs.ts.var_types().items() if ty is Type.REAL}
    assert reals == set(cs.scales) | set(cs.growing)
    # Fraction and the Fraction constants C are free names of the step
    # exactly when its text uses them
    assert not {"Fraction", "C"} & set(cs.step.__code__.co_freevars)
    assert not {"Fraction", "C"} & set(cs.campaign.__code__.co_freevars)


@pytest.mark.parametrize("pid", ["G-200", "G-100"])
def test_shared_next_state_is_normalised_once(monkeypatch, bench, pid):
    """Both growing states of these loops take the same next value, so
    the step and the campaign each call _norm once per instant."""
    cs, _ = _harness_system(monkeypatch, bench.tp, bench.spec(pid))
    state = cs.campaign(50, random.Random(0).getrandbits)[2]
    grown = [v for n, v in zip(cs.state_names, state) if n in cs.growing]
    assert len(grown) == 2 and len(set(grown)) == 1
    for fn in (cs.step, cs.campaign):
        calls = [i for i in dis.get_instructions(fn) if i.argval == "_norm"]
        assert len(calls) == 1, fn


@pytest.mark.parametrize("pid", MODELED)
def test_harness_inputs_are_sample_step_draws(monkeypatch, bench, pid):
    """The harness's campaign draws what sample_step draws, through
    Random.choice, and steps as cs.step does on those draws: its result
    and its use of getrandbits match a reference loop at every step count
    up to 100, and the harness reports the campaign's violations."""
    spec = bench.spec(pid)
    cs, run = _harness_system(monkeypatch, bench.tp, spec)
    types = dict(cs.ts.input_vars)
    want = _assert_campaign_matches(
        cs, lambda rng: loader.sample_step(spec.driver, types, rng), 9, 100)
    assert len(want) == 100
    assert run(100, 9).violations == want[-1][0]


# pools of 1, 2, 4, 5 and 8 values and a copy: a power of two takes
# k = n.bit_length() bits, one more than it needs, so its draws are
# rejected most often, and a pool of one value still spends a draw; the
# state holds each input's last value, so it shows every draw
DRAW_SIZES = """\
node Draws(one: real; two: bool; four: int; five: real; eight: real;
           same: real)
returns (ok: bool; p1: real; p2: bool; p4: int; p5: real; p8: real;
         ps: real);
let
  ok = (same = eight) and (one = 0.5) and (four >= -3) and
       (five >= 0.0) and (five <= 1.0);
  p1 = 0.0 -> pre one;
  p2 = false -> pre two;
  p4 = 0 -> pre four;
  p5 = 0.0 -> pre five;
  p8 = 0.0 -> pre eight;
  ps = 0.0 -> pre same;
  --!PROPERTY: ok = true;
tel
"""
DRAW_DRIVER = {"one": {"choice": ["0.5"]},
               "two": {"choice": ["true", "false"]},
               "four": {"choice": ["-3", "0", "7", "12"]},
               "five": {"uniform": ["0.0", "1.0", 4]},
               "eight": {"choice": ["0.1", "-2.5", "3", "0.125", "1.5",
                                    "-0.75", "2.2", "0"]},
               "same": {"copy": "eight"}}


def _spec_of(node, driver):
    return loader.PropertySpec(
        id=node, prose="", node_under_test=node, observer_node=node,
        assumptions_used=(), expected_class=loader.ExpectedClass.DIRECT,
        driver=driver)


@pytest.mark.parametrize("seed", [0, 1, 9, 123])
def test_harness_draws_are_choice_draws_on_each_pool_size(monkeypatch, seed):
    tp = typecheck(parse(DRAW_SIZES))
    cs, run = _harness_system(monkeypatch, tp, _spec_of("Draws", DRAW_DRIVER))
    assert run(400, seed).ok
    types = dict(cs.ts.input_vars)
    want = _assert_campaign_matches(
        cs, lambda rng: _reference_row(DRAW_DRIVER, types, rng), seed, 120)
    # which input each state holds; every input is held
    held = {n: rhs.name for n, rhs in cs.ts.trans if isinstance(rhs, Var)}
    assert sorted(held.values()) == sorted(cs.input_names)
    # the campaign's final state after k steps holds the k-th draws
    ref = random.Random(seed)
    for _, _, final in want:
        row = _reference_row(DRAW_DRIVER, types, ref)
        state, _ = cs.decode(final, ())
        got = {held[n]: v for n, v in zip(cs.state_names, state)
               if n in held}
        assert got == row
        assert {n: type(v) for n, v in got.items()} == \
            {n: type(v) for n, v in row.items()}


BREACH = """\
node Breach(x: real; b: bool) returns (ok: bool; px: real);
let
  assert x < 0.75;
  ok = b;
  px = 0.0 -> pre x;
  --!PROPERTY: ok = true;
tel
"""
BREACH_DRIVER = {"x": {"uniform": ["0.0", "1.0", 4]},
                 "b": {"choice": ["true", "true", "false"]}}


def test_campaign_reports_violations_and_breaches(monkeypatch, bench):
    """A run with violations, and runs that breach an assert: the
    campaign stops after the breaching instant, as the reference loop
    does, and the harness names that instant."""
    cs, _ = _harness_system(monkeypatch, bench.tp, _spec(bench, "G-180-raw"))
    types = dict(cs.ts.input_vars)
    want = _assert_campaign_matches(
        cs, lambda rng: loader.sample_step(bench.spec("G-180").driver,
                                           types, rng), 3, 80)
    assert want[-1][0][:3] == [(20, "Obs"), (65, "Obs"), (68, "Obs")]
    tp = typecheck(parse(BREACH))
    cs, run = _harness_system(monkeypatch, tp,
                              _spec_of("Breach", BREACH_DRIVER))
    types = dict(cs.ts.input_vars)
    breaches = set()
    for seed in range(8):
        want = _assert_campaign_matches(
            cs, lambda rng: _reference_row(BREACH_DRIVER, types, rng),
            seed, 30)
        violations, breach, state = want[-1]
        assert breach == len(want) - 1 and breach is not None
        assert cs.campaign(30, random.Random(seed).getrandbits) == want[-1]
        with pytest.raises(BenchmarkError, match=f"at step {breach}$"):
            run(30, seed)
        breaches.add(breach)
    assert len(breaches) > 1


# delay lines: c's state is stored from b's, which is b's own state read
# three instants late, and g and h grow on a loop through both
DELAYS = """\
node Delays(x: int; y: real)
returns (ok: bool; a: int; b: int; c: int; g: real; h: real);
let
  a = pre (pre x);
  b = pre (pre (pre x));
  c = 0 -> pre b;
  g = 0.0 -> 0.5 * pre h + y;
  h = 0.0 -> pre g;
  ok = true -> (a = b or c <> 7);
  --!PROPERTY: ok = true;
tel
"""
DELAYS_DRIVER = {"x": {"choice": ["7", "7", "0", "-2"]},
                 "y": {"uniform": ["-1.0", "1.0", 8]}}


@pytest.mark.parametrize("seed", [0, 4])
def test_campaign_reads_the_state_before_storing_it(monkeypatch, seed):
    tp = typecheck(parse(DELAYS))
    cs, run = _harness_system(monkeypatch, tp,
                              _spec_of("Delays", DELAYS_DRIVER))
    assert cs.growing
    types = dict(cs.ts.input_vars)
    want = _assert_campaign_matches(
        cs, lambda rng: _reference_row(DELAYS_DRIVER, types, rng), seed, 40)
    assert want[-1][0] and run(40, seed).violations == want[-1][0]


@pytest.mark.parametrize("pools,links", [
    ([("x", [1, 2])], []),                       # y not drawn nor copied
    ([("x", []), ("y", [0])], []),               # an empty pool never ends
    ([("x", [1])], [("y", "z")]),                # a link from no input
    ([("x", [1]), ("y", [0]), ("y", [1])], []),  # y drawn twice
])
def test_campaign_needs_each_input_once(pools, links):
    _, ts = _ts("""
node Two(x: int; y: int) returns (ok: bool);
let
  ok = x >= y;
  --!PROPERTY: ok = true;
tel
""", "Two")
    with pytest.raises(LangError, match="pools and links"):
        compile_system(ts, pools=pools, links=links)


def _reference_row(driver, types, rng):
    """A driver instant drawn straight from the driver's text."""
    row = {}
    for name, spec in driver.items():
        if "choice" in spec:
            parse = {Type.BOOL: lambda t: t == "true",
                     Type.INT: int}.get(types[name], F)
            pool = [parse(t) for t in spec["choice"]]
        elif "uniform" in spec:
            lo, hi, den = spec["uniform"]
            pool = [F(i, den)
                    for i in range(int(F(lo) * den), int(F(hi) * den) + 1)]
        else:
            continue
        row[name] = rng.choice(pool)
    for name, spec in driver.items():
        if "copy" in spec:
            row[name] = row[spec["copy"]]
    return row


def test_sample_step_draws_the_driver_text(bench):
    odd = {"a": {"uniform": ["0.5", "0.5", 4]},
           "b": {"choice": ["1.5", "-2.0", "0.7", "3"]},
           "c": {"uniform": ["-1.25", "2.0", 8]},
           "d": {"copy": "b"},
           "e": {"choice": ["true", "false"]}}
    cases = [(odd, {"a": Type.REAL, "b": Type.REAL, "c": Type.REAL,
                    "d": Type.REAL, "e": Type.BOOL}, 40)]
    for s in bench.specs:
        if s.modeled:
            ts = tsys.compile(bench.tp, s.observer_node)
            cases.append((s.driver, dict(ts.input_vars), 3))
    for driver, types, draws in cases:
        rng, ref = random.Random(5), random.Random(5)
        for _ in range(draws):
            got = loader.sample_step(driver, types, rng)
            want = _reference_row(driver, types, ref)
            assert got == want
            assert {n: type(v) for n, v in got.items()} == \
                {n: type(v) for n, v in want.items()}


# --- small nodes ---------------------------------------------------------------

def _ts(src, node):
    tp = typecheck(parse(src))
    return tp, tsys.compile(tp, node)


def _real_values(cs, state, defs):
    state, defs = cs.decode(state, defs)
    types = cs.ts.var_types()
    return [(n, v) for n, v in zip(cs.state_names + cs.defined_names,
                                   state + defs)
            if types[n] is Type.REAL]


def test_half_step_counter_is_scaled():
    _, ts = _ts("""
node Count() returns (x: real);
let
  x = 0.0 -> pre x + 0.5;
tel
""", "Count")
    cs = compile_system(ts)
    assert cs.scales["x"] == 2
    assert all(d == 2 for n, d in cs.scales.items() if "_pre" in n)
    state = cs.default_state
    for t in range(10):
        state, _, _, defs = cs.step(state, ())
        raw = defs[cs.defined_names.index("x")]
        assert type(raw) is int and raw == t
        public = cs.decode(state, defs)[1][cs.defined_names.index("x")]
        assert public == F(t, 2) and type(public) is F


def test_scales_combine_by_lcm_and_reduce_through_constants():
    tp, ts = _ts("""
node Mixed(x, z: real; c: bool) returns (a, b, y: real; p, q, r: bool);
let
  a = 2.0 * x;
  b = 0.4 * x;
  y = 0.0 -> (if c then pre y + x else 0.1);
  p = x > 0.3;
  q = b <= a - 0.05;
  r = x < z;
tel
""", "Mixed")
    cs = compile_system(ts, input_scales={"x": 4, "z": 6})
    assert (cs.scales["a"], cs.scales["b"], cs.scales["y"]) == (2, 10, 20)
    rng = random.Random(3)
    xs = [F(rng.randint(-12, 12), 4) for _ in range(200)]
    zs = [F(rng.randint(-12, 12), 6) for _ in range(200)]
    cs_ = [rng.random() < 0.8 for _ in range(200)]
    sim = interp.simulate(tp, "Mixed", Trace({"x": xs, "z": zs, "c": cs_}),
                          200)
    state = cs.default_state
    for t, (x, z, c) in enumerate(zip(xs, zs, cs_)):
        state, _, _, defs = cs.step(state, (int(x * 4), int(z * 6), c))
        got = dict(zip(cs.defined_names, cs.decode(state, defs)[1]))
        for name in ("a", "b", "y", "p", "q", "r"):
            assert got[name] == sim.signals[name][t], (t, name)
            assert type(got[name]) is type(sim.signals[name][t])


def test_halving_loop_grows_and_stays_exact():
    tp, ts = _ts("""
node Halve(x: real) returns (y: real);
let
  y = 1.0 -> 0.5 * pre y + x;
tel
""", "Halve")
    cs = compile_system(ts, input_scales={"x": 4})
    assert cs.scales == {"x": 4}
    assert set(cs.growing) == {"y", "_pre0"}
    xs = [F(random.Random(t).randint(-8, 8), 4) for t in range(80)]
    sim = interp.simulate(tp, "Halve", Trace({"x": xs}), len(xs))
    state = cs.default_state
    for t, x in enumerate(xs):
        state, _, _, defs = cs.step(state, (int(x * 4),))
        y = dict(_real_values(cs, state, defs))["y"]
        assert y == sim.signals["y"][t] and type(y) is F
    assert y.denominator == 2 ** 78  # no rounding anywhere


def test_real_values_leave_as_fractions(monkeypatch):
    # integral literals in value positions: an if-then-else branch next
    # to a Fraction signal, an extern argument, a constant, a state value
    src = """
extern lift(v: real) returns (w: real);
node Mix(a: real; b: bool) returns (y: real);
var k, f, z, u, w: real;
let
  k = 2.0;
  f = a * a;
  z = if b then 1.0 else f;
  u = lift(1.0) + (0.0 -> pre u);
  w = 0.0 -> pre z + 3.0;
  y = (if b then 3.0 else 0.0 -> pre y) + k;
tel
"""
    _, ts = _ts(src, "Mix")
    ext = {"lift": lambda v: v}
    # simulate_system compiles without externs: patch in lift's semantics
    monkeypatch.setattr(core, "compile_system",
                        partial(compile_system, externs=ext))
    for rows in (simulate_system(ts, 60, seed) for seed in range(3)):
        assert len(rows) == 60
        for row in rows:
            for name, ty in ts.var_types().items():
                if ty is Type.REAL:
                    assert type(row[name]) is F, (name, row[name])
    for scales in ({}, {"a": 4}):
        cs = compile_system(ts, ext, input_scales=scales)
        state = cs.default_state
        for t in range(6):
            a = F(t - 3, 4)
            inp = (int(a * 4) if scales else a, t % 2 == 0)
            prev, (state, _, _, defs) = state, cs.step(state, inp)
            for name, v in _real_values(cs, state, defs):
                assert type(v) is F, (scales, name, v)
            assert all(type(v) is F for _, v in
                       _real_values(cs, prev, defs))


def test_finite_halving_chain_keeps_fixed_scales():
    # no scale here depends on its own, however many delays it passes
    tp, ts = _ts("""
node Chain(x: real) returns (y: real);
var a, b, c, d, e: real;
let
  a = 0.0 -> 0.5 * (pre x);
  b = 0.0 -> 0.5 * (pre a);
  c = 0.0 -> 0.5 * (pre b);
  d = 0.0 -> 0.5 * (pre c);
  e = 0.0 -> 0.5 * (pre d);
  y = 0.0 -> 0.5 * (pre e);
tel
""", "Chain")
    cs = compile_system(ts, input_scales={"x": 1})
    assert set(cs.scales) == set(ts.var_types()) - {tsys.INIT_FLAG}
    assert not cs.growing and cs.scales["y"] == 64
    xs = [F(random.Random(t).randint(-9, 9)) for t in range(20)]
    sim = interp.simulate(tp, "Chain", Trace({"x": xs}), len(xs))
    state = cs.default_state
    for t, x in enumerate(xs):
        state, _, _, defs = cs.step(state, (int(x),))
        assert dict(_real_values(cs, state, defs))["y"] == \
            sim.signals["y"][t]


GROWING = """
node Grow(u, v, w: real; c: bool) returns (x, y, z, h: real; p, q: bool);
let
  x = 0.0 -> 0.5 * (pre x) + u;
  y = if c then x else v;
  z = 0.0 -> 0.25 * (pre z) - w + 2.0 * y;
  h = 0.0 -> 0.1 * (pre h) + u;
  p = x < 2.5;
  q = (y >= -1.25) and (z <> 0.0) and (-x <= 3.0 * y);
tel
"""


def test_growing_loops_match_the_interpreter():
    """Inputs at scales 1, 4 and 100, negative and zero; an if-then-else
    between a growing and a fixed branch; comparisons with constants;
    and a loop with factor 10, which stays on Fraction."""
    tp, ts = _ts(GROWING, "Grow")
    cs = compile_system(ts, input_scales={"u": 1, "v": 4, "w": 100})
    assert {"x", "y", "z"} <= set(cs.growing)
    assert "h" not in cs.growing and "h" not in cs.scales
    rng = random.Random(13)
    steps = 300
    rows = [(F(rng.choice([0, 0, rng.randint(-9, 9)])),
             F(rng.randint(-20, 20), 4), F(rng.randint(-500, 500), 100),
             rng.random() < 0.7) for _ in range(steps)]
    trace = Trace({n: [row[i] for row in rows]
                   for i, n in enumerate(cs.input_names)})
    sim = interp.simulate(tp, "Grow", trace, steps)
    reals = {n for n, ty in ts.var_types().items() if ty is Type.REAL}
    st = interp.init_state(tp, "Grow")
    state = cs.default_state
    for t, (u, v, w, c) in enumerate(rows):
        state, asm, _, defs = cs.step(
            state, (int(u), int(v * 4), int(w * 100), c))
        for name, val in zip(cs.state_names, state):
            if name in cs.growing:
                # stored with no common factor of 2 left in m and 2**e
                m, exp = val
                assert m % 2 or exp == 0, (t, name, val)
        public_state, public_defs = cs.decode(state, defs)
        for name, val in zip(cs.defined_names, public_defs):
            assert val == sim.signals[name][t], (t, name)
            assert name not in reals or type(val) is F, (t, name)
        st, _, _ = interp.step(tp, "Grow", st,
                               dict(zip("uvwc", (u, v, w, c))))
        pres = _interp_state(tp, st)
        for name, val in zip(cs.state_names, public_state):
            if name != tsys.INIT_FLAG:
                assert val == pres[name], (t, name)
                assert name not in reals or type(val) is F, (t, name)
    # the values really need big integers
    den = sim.signals["x"][-1].denominator
    assert den & (den - 1) == 0 and den.bit_length() > 200
