"""Scaled-integer step functions against the concrete semantics.

The compiled observers hold each Real signal whose denominator is fixed
as a plain int, and each one on a loop that multiplies its denominator
by a power of two as an int mantissa with a power-of-two exponent; these
tests hold them against the interpreter step by step, pin the driver
harness's results, and check that every Real value that leaves the
compiled system is an exact Fraction.
"""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction as F
from functools import partial

import pytest

from synkit import interp, tsys
from synkit.benchlib import driver_harness, load_benchmark
from synkit.benchlib import loader
from synkit.engine import compile_system, core, simulate_system
from synkit.interp import Trace
from synkit.lang import Type, instance_names, parse, typecheck

MODELED = ("G-250", "G-110", "G-120", "G-130", "G-140", "G-150", "G-170",
           "G-180", "G-100", "G-200", "G-210", "G-220", "G-230", "G-240",
           "G-260", "G-270", "G-290")


@pytest.fixture(scope="module")
def bench():
    return load_benchmark()


def _harness_calls(monkeypatch, tp, spec, steps, seed):
    """Run the driver harness and capture the system it compiled and each
    (inputs, step result) it saw, in compiled form."""
    seen = {}
    compile_system_ = loader.compile_system

    def recording(*args, **kwargs):
        cs = compile_system_(*args, **kwargs)
        step, calls = cs.step, []

        def record(state, inp):
            out = step(state, inp)
            calls.append((inp, out))
            return out

        cs.step = record
        seen["cs"], seen["calls"] = cs, calls
        return cs

    monkeypatch.setattr(loader, "compile_system", recording)
    run = driver_harness(tp, spec)(steps, seed)
    return seen["cs"], seen["calls"], run


def _public_inputs(cs, inp):
    return tuple(F(v, cs.scales[n]) if n in cs.scales else v
                 for n, v in zip(cs.input_names, inp))


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
    every step of a driver run."""
    steps = 500
    spec = bench.spec(pid)
    node = spec.observer_node
    cs, calls, run = _harness_calls(monkeypatch, bench.tp, spec, steps,
                                    seed=MODELED.index(pid) + 11)
    assert run.ok and len(calls) == steps
    assert cs.scales, "nothing was compiled to integers"
    inputs = [_public_inputs(cs, inp) for inp, _ in calls]
    trace = Trace({n: [row[i] for row in inputs]
                   for i, n in enumerate(cs.input_names)})
    sim = interp.simulate(bench.tp, node, trace, steps, deep=True)
    reals = {n for n, ty in cs.ts.var_types().items() if ty is Type.REAL}
    compiled = {n: [] for n in cs.defined_names}
    st = interp.init_state(bench.tp, node)
    for t, ((_, (nxt, asm, props, defs)), row) in enumerate(
            zip(calls, inputs)):
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


@pytest.mark.parametrize("pid", ["G-200", "G-100"])
def test_growing_loops_step_without_fractions(monkeypatch, bench, pid):
    """The harness's step for the altitude and speed loops builds and
    reads no Fraction: every Real is a scaled or a growing int."""
    seen = {}
    compile_system_ = loader.compile_system

    def recording(*args, **kwargs):
        seen["cs"] = compile_system_(*args, **kwargs)
        return seen["cs"]

    monkeypatch.setattr(loader, "compile_system", recording)
    driver_harness(bench.tp, bench.spec(pid))
    cs = seen["cs"]
    assert cs.growing
    reals = {n for n, ty in cs.ts.var_types().items() if ty is Type.REAL}
    assert reals == set(cs.scales) | set(cs.growing)
    # Fraction and the Fraction constants C are free names of the step
    # exactly when its text uses them
    assert not {"Fraction", "C"} & set(cs.step.__code__.co_freevars)


@pytest.mark.parametrize("pid", MODELED)
def test_harness_inputs_are_sample_step_draws(monkeypatch, bench, pid):
    """The harness's inline draws from getrandbits are the draws of
    sample_step, which goes through Random.choice."""
    spec = bench.spec(pid)
    cs, calls, _ = _harness_calls(monkeypatch, bench.tp, spec, 500, seed=9)
    assert len(calls) == 500
    types = dict(cs.ts.input_vars)
    rng = random.Random(9)
    for inp, _ in calls:
        row = loader.sample_step(spec.driver, types, rng)
        want = tuple(row[n] for n in cs.input_names)
        got = _public_inputs(cs, inp)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]


# pools of 1, 2, 4, 5 and 8 values and a copy: a power of two takes
# k = n.bit_length() bits, one more than it needs, so its draws are
# rejected most often, and a pool of one value still spends a draw
DRAW_SIZES = """\
node Draws(one: real; two: bool; four: int; five: real; eight: real;
           same: real) returns (ok: bool);
let
  ok = (same = eight) and (one = 0.5) and (four >= -3) and
       (five >= 0.0) and (five <= 1.0);
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


@pytest.mark.parametrize("seed", [0, 1, 9, 123])
def test_harness_draws_are_choice_draws_on_each_pool_size(monkeypatch, seed):
    tp = typecheck(parse(DRAW_SIZES))
    spec = loader.PropertySpec(
        id="Draws", prose="", node_under_test="Draws", observer_node="Draws",
        assumptions_used=(), expected_class=loader.ExpectedClass.DIRECT,
        driver=DRAW_DRIVER)
    cs, calls, run = _harness_calls(monkeypatch, tp, spec, 400, seed)
    assert run.ok and len(calls) == 400
    types = dict(cs.ts.input_vars)
    ref = random.Random(seed)
    for inp, _ in calls:
        want = _reference_row(DRAW_DRIVER, types, ref)
        got = _public_inputs(cs, inp)
        assert got == tuple(want[n] for n in cs.input_names)
        assert [type(v) for v in got] == \
            [type(want[n]) for n in cs.input_names]


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
