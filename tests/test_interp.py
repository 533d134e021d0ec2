"""Interpreter tests.

The expected streams in the golden tests below were computed by hand
from the Pre/Arrow rules before the evaluator was written, and are
frozen here as literal values.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from synkit import tsys
from synkit.engine import compile_system
from synkit.interp import (InterpError, NodeState, Trace, init_state,
                           simulate, step)
from synkit.lang import parse, typecheck

F = Fraction

COUNTER = typecheck(parse("""
node Counter(reset : bool) returns (c : int);
let
  c = 0 -> if reset then 0 else pre c + 1;
tel
"""))

# pitch tracking: disengaged branch passes the pitch angle through,
# engaged branch steps from a two-instant-delayed baseline
PITCH = typecheck(parse("""
node PitchTrack(Engage : bool; GammaCmd, Gamma, ThetaDeg : real)
returns (PitchCmd, PrePitchCmd : real);
var BasePitch : real;
let
  PrePitchCmd = 0.0 -> pre PitchCmd;
  BasePitch = 0.0 -> pre PrePitchCmd;
  PitchCmd = if Engage then BasePitch + 0.3 * (GammaCmd - Gamma)
             else ThetaDeg;
tel
"""))


def const_trace(n, **cols):
    return Trace({k: [v] * n for k, v in cols.items()})


def test_counter_first_steps():
    tr = simulate(COUNTER, "Counter", const_trace(4, reset=False), 4)
    assert tr.signals["c"] == [0, 1, 2, 3]
    assert tr.assertion_ok == [True] * 4


def test_counter_reset_mid_stream():
    inputs = Trace({"reset": [False, False, True, False]})
    tr = simulate(COUNTER, "Counter", inputs, 4)
    assert tr.signals["c"] == [0, 1, 0, 1]


def test_init_state_shapes():
    st0 = init_state(COUNTER, "Counter")
    assert st0.pre_vals == [None]
    assert st0.arrow_first == [True]
    flat = typecheck(parse(
        "node Id(x : int) returns (y : int); let y = x; tel"))
    st1 = init_state(flat, "Id")
    assert st1.pre_vals == [] and st1.arrow_first == []
    nested = typecheck(parse("""
node Leaf(x : int) returns (y : int);
let y = 0 -> pre x; tel
node Top(x : int) returns (y : int);
let y = Leaf(x) + Leaf(x + 1); tel
"""))
    st2 = init_state(nested, "Top")
    assert sorted(st2.children) == [0, 1]
    assert st2.children[0].pre_vals == [None]


def test_arrow_flags_clear_after_one_step():
    st0 = init_state(COUNTER, "Counter")
    st1, out, ok = step(COUNTER, "Counter", st0, {"reset": False})
    assert out == {"c": 0} and ok
    assert st0.arrow_first == [True]  # input state untouched
    assert st1.arrow_first == [False]
    assert st1.pre_vals == [0]
    st2, out, _ = step(COUNTER, "Counter", st1, {"reset": False})
    assert out == {"c": 1} and st2.pre_vals == [1]


def test_pitch_disengaged_golden():
    # frozen hand evaluation, 3 steps, Engage=false:
    #   PitchCmd follows ThetaDeg; PrePitchCmd trails PitchCmd by a step
    inputs = Trace({
        "Engage": [False, False, False],
        "GammaCmd": [F(3), F(3), F(3)],
        "Gamma": [F(1), F(1), F(1)],
        "ThetaDeg": [F(2), F(3, 2), F(1, 4)],
    })
    tr = simulate(PITCH, "PitchTrack", inputs, 3)
    assert tr.signals["PitchCmd"] == [F(2), F(3, 2), F(1, 4)]
    assert tr.signals["PrePitchCmd"] == [F(0), F(2), F(3, 2)]
    assert tr.signals["BasePitch"] == [F(0), F(0), F(2)]


def test_pitch_engaged_golden():
    # frozen hand evaluation, Engage=true, GammaCmd=3, Gamma=1:
    #   delta = 0.3*(3-1) = 0.6 each step, base lags two instants
    #   step0: base 0.0, Pitch 0.6 ; step1: base 0.0, Pitch 0.6
    #   step2: base 0.6, Pitch 1.2 ; step3: base 0.6, Pitch 1.2
    inputs = const_trace(4, Engage=True, GammaCmd=F(3), Gamma=F(1),
                         ThetaDeg=F(0))
    tr = simulate(PITCH, "PitchTrack", inputs, 4)
    assert tr.signals["PitchCmd"] == [F(3, 5), F(3, 5), F(6, 5), F(6, 5)]


def test_engagement_gate_observer():
    # engagement gate: output zero whenever disengaged
    src = """
node Gate(eng : bool; cmd : real) returns (out : real; ok : bool);
let
  --!PROPERTY: ok = true;
  out = if eng then cmd else 0.0;
  ok = eng or (out = 0.0);
tel
"""
    tp = typecheck(parse(src))
    tr = simulate(tp, "Gate", const_trace(3, eng=False, cmd=F(7)), 3)
    assert tr.signals["ok"] == [True] * 3


def test_assertion_violation_recorded_not_fatal():
    src = """
node Band(x : real) returns (y : real);
let
  assert x > 1.0 and x < 10.0;
  y = x;
tel
"""
    tp = typecheck(parse(src))
    inputs = Trace({"x": [F(5), F(0), F(6)]})
    tr = simulate(tp, "Band", inputs, 3)
    assert tr.assertion_ok == [True, False, True]
    assert tr.signals["y"] == [F(5), F(0), F(6)]


def test_callee_assertions_surface_in_caller():
    src = """
node Inner(x : real) returns (y : real);
let
  assert x >= 0.0;
  y = x;
tel
node Outer(x : real) returns (y : real);
let
  y = Inner(x - 1.0);
tel
"""
    tp = typecheck(parse(src))
    tr = simulate(tp, "Outer", Trace({"x": [F(2), F(0)]}), 2)
    assert tr.assertion_ok == [True, False]


def test_simulate_zero_steps():
    tr = simulate(COUNTER, "Counter", const_trace(0, reset=False), 0)
    assert tr.length == 0 and tr.assertion_ok == []


def test_simulate_length_and_determinism():
    inputs = Trace({"reset": [False, True, False, True, False]})
    a = simulate(COUNTER, "Counter", inputs, 5)
    b = simulate(COUNTER, "Counter", inputs, 5)
    assert a.signals == b.signals
    assert all(len(v) == 5 for v in a.signals.values())


def test_division_by_zero_has_step_index():
    src = "node D(x : real) returns (y : real); let y = 1.0 / x; tel"
    tp = typecheck(parse(src))
    with pytest.raises(InterpError) as exc:
        simulate(tp, "D", Trace({"x": [F(1), F(0)]}), 2)
    assert exc.value.step == 1


def test_untaken_branch_does_not_divide():
    src = ("node D(x : real) returns (y : real);"
           " let y = if x = 0.0 then 0.0 else 1.0 / x; tel")
    tp = typecheck(parse(src))
    tr = simulate(tp, "D", Trace({"x": [F(0), F(4)]}), 2)
    assert tr.signals["y"] == [F(0), F(1, 4)]


def test_extern_requires_registration():
    src = """
extern sine(x : real) returns (y : real);
node N(x : real) returns (y : real);
let y = sine(x); tel
"""
    tp = typecheck(parse(src))
    with pytest.raises(InterpError) as exc:
        simulate(tp, "N", Trace({"x": [F(1)]}), 1)
    assert "registered" in str(exc.value)
    tr = simulate(tp, "N", Trace({"x": [F(1, 2)]}), 1,
                  externs={"sine": lambda v: v * 2})
    assert tr.signals["y"] == [F(1)]


def test_unguarded_pre_defaults_and_warns():
    src = "node P(x : int) returns (y : int); let y = pre x; tel"
    tp = typecheck(parse(src))
    tr = simulate(tp, "P", Trace({"x": [5, 6]}), 2)
    assert tr.signals["y"] == [0, 5]
    assert len(tr.warnings) == 1 and "step 0" in tr.warnings[0]


def test_strict_pre_raises():
    src = "node P(x : int) returns (y : int); let y = pre x; tel"
    tp = typecheck(parse(src))
    with pytest.raises(InterpError) as exc:
        simulate(tp, "P", Trace({"x": [5]}), 1, strict_pre=True)
    assert "->" in str(exc.value)


def test_input_type_mismatch():
    with pytest.raises(InterpError):
        simulate(COUNTER, "Counter", Trace({"reset": [1, 0]}), 2)


def test_deep_recording_uses_instance_paths():
    src = """
node Delay(x : int) returns (y : int);
let y = 0 -> pre x; tel
node Top(x : int) returns (y : int);
let y = Delay(x) + Delay(x + 1); tel
"""
    tp = typecheck(parse(src))
    tr = simulate(tp, "Top", Trace({"x": [1, 2, 3]}), 3, deep=True)
    assert tr.signals["Delay1.y"] == [0, 1, 2]
    assert tr.signals["Delay2.y"] == [0, 2, 3]
    assert tr.signals["y"] == [0, 3, 5]
    shallow = simulate(tp, "Top", Trace({"x": [1, 2, 3]}), 3)
    assert set(shallow.signals) == {"x", "y"}


def test_instance_under_untaken_branch_still_steps():
    # every instance steps at every instant, as tsys.compile (and so the
    # SMT encoding and the compiled step) has it
    src = """
node Acc(x : int) returns (s : int);
let s = x -> pre s + x; tel
node Top(c : bool) returns (y : int);
let y = if c then Acc(1) else 0; tel
"""
    tp = typecheck(parse(src))
    conds = [True, False, True, True]
    tr = simulate(tp, "Top", Trace({"c": conds}), 4, deep=True)
    assert tr.signals["y"] == [1, 0, 3, 4]
    assert tr.signals["Acc.s"] == [1, 2, 3, 4]
    assert tr.signals["Acc.x"] == [1, 1, 1, 1]
    cs = compile_system(tsys.compile(tp, "Top"))
    state, ys = cs.default_state, []
    for c in conds:
        state, _, _, defs = cs.step(state, (c,))
        ys.append(defs[cs.defined_names.index("y")])
    assert ys == tr.signals["y"]


def test_trace_csv_round_trip():
    tr = Trace({"b": [True, False], "i": [3, -4],
                "r": [F(1, 2), F(5)]}, [True, True])
    again = Trace.from_csv(tr.to_csv())
    assert again.signals == tr.signals
    assert again.assertion_ok == [True, True]
    assert isinstance(again.signals["r"][1], Fraction)


def test_trace_json_round_trip():
    tr = Trace({"b": [True], "i": [7], "r": [F(-3, 8)]}, [False])
    again = Trace.from_json(tr.to_json())
    assert again.signals == tr.signals
    assert again.assertion_ok == [False]
    assert isinstance(again.signals["i"][0], int)
    assert isinstance(again.signals["r"][0], Fraction)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=30))
def test_counter_matches_closed_form(resets):
    tr = simulate(COUNTER, "Counter", Trace({"reset": resets}), len(resets))
    expect = []
    c = 0
    for t, r in enumerate(resets):
        c = 0 if (t == 0 or r) else expect[-1] + 1
        expect.append(c)
    assert tr.signals["c"] == expect


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-50, max_value=50), min_size=1,
                max_size=20))
def test_exactness_add_sub_cancels(xs):
    src = ("node E(x : real) returns (y : real);"
           " var a : real; let a = x + 0.1; y = a - 0.1; tel")
    tp = typecheck(parse(src))
    vals = [F(x).limit_denominator(997) for x in xs]
    tr = simulate(tp, "E", Trace({"x": vals}), len(vals))
    assert tr.signals["y"] == vals
