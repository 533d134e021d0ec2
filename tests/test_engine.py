import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from synkit import compose, tsys
from synkit.benchlib import load_benchmark
from synkit.engine import (EngineConfig, Falsified, InternalError, Unknown,
                           UnknownReason, Valid, bmc, compile_system, core,
                           exhaustive_search, generate_invariants,
                           kinduction, logic_for, make_replayer,
                           simulate_system, verify_all)
from synkit.engine.encode import Unroller
from synkit.interp import Trace, simulate
from synkit.lang import (Binary, BoolLit, Call, IntLit, Ite, LangError,
                         RealLit, Type, Unary, Var, parse, pretty_expr,
                         typecheck)
from synkit.smt import SmtSession
from synkit.smt.sexpr import format_atom, format_number, parse_all

from _random_systems import random_bool_system

CFG = EngineConfig(k_max=8, timeout=120)

COUNTER = """
node Counter(reset: bool) returns (c: int);
var ok: bool;
let
  c = 0 -> (if reset then 0 else pre c + 1);
  ok = c < 3;
  --!PROPERTY: ok = true;
tel
"""

TOGGLE = """
node Toggle() returns (t: bool);
var p: bool;
let
  t = true -> not pre t;
  p = t or not t;
  --!PROPERTY: p = true;
tel
"""

SAT_CHAIN = """
node Saturate(x: real) returns (y: real);
let
  y = if x < 0.0 then 0.0 else (if x > 3.0 then 3.0 else x);
tel

node Chain(x: real) returns (ok: bool);
var s, z1, z2, z3, z4, z5: real;
let
  s = Saturate(x);
  z1 = 0.0 -> pre s;
  z2 = 0.0 -> pre z1;
  z3 = 0.0 -> pre z2;
  z4 = 0.0 -> pre z3;
  z5 = 0.0 -> pre z4;
  ok = z5 >= 0.0 and z5 <= 3.0;
  --!PROPERTY: ok = true;
tel
"""


def _ts(src: str, node: str):
    tp = typecheck(parse(src))
    return tp, tsys.compile(tp, node)


# bmc ---------------------------------------------------------------------

def test_bmc_counter_falsified_at_three():
    tp, ts = _ts(COUNTER, "Counter")
    r = bmc(ts, "ok", 5, CFG)
    assert isinstance(r, Falsified) and r.step == 3
    sim = simulate(tp, "Counter", r.trace, r.trace.length)
    assert sim.signals["c"] == [0, 1, 2, 3]
    assert sim.signals["ok"][3] is False
    assert make_replayer(tp, "Counter", "ok")(r.trace, r.step)


def test_bmc_clean_up_to_k_and_monotone():
    tp, ts = _ts(COUNTER, "Counter")
    r = bmc(ts, "ok", 2, CFG)
    assert isinstance(r, Unknown)
    assert r.reason is UnknownReason.KMAX_REACHED
    for smaller in (0, 1):
        assert isinstance(bmc(ts, "ok", smaller, CFG), Unknown)


def test_bmc_vacuous_assumptions_clean():
    src = """
node Vac(x: int) returns (ok: bool);
let
  assert x > 0 and x < 0;
  ok = false;
  --!PROPERTY: ok = true;
tel
"""
    _, ts = _ts(src, "Vac")
    r = bmc(ts, "ok", 6, CFG)
    assert isinstance(r, Unknown)
    assert r.reason is UnknownReason.KMAX_REACHED


def test_bmc_unknown_property_raises():
    _, ts = _ts(COUNTER, "Counter")
    with pytest.raises(KeyError):
        bmc(ts, "nope", 3, CFG)


# kinduction --------------------------------------------------------------

def test_kinduction_tautology_valid_k1():
    _, ts = _ts(TOGGLE, "Toggle")
    r = kinduction(ts, "p", CFG)
    assert r == Valid(1, ())


def test_kinduction_falsifies_via_base():
    tp, ts = _ts(COUNTER, "Counter")
    r = kinduction(ts, "ok", CFG)
    assert isinstance(r, Falsified) and r.step == 3
    assert make_replayer(tp, "Counter", "ok")(r.trace, r.step)


def test_kinduction_two_inductive():
    # a two-deep delay of a constant: the step-0 state of the inner pre
    # is unconstrained, so one step of history cannot exclude the
    # violation but two steps can
    src = """
node D2() returns (ok: bool);
var c, y1, y2: bool;
let
  c = true;
  y1 = true -> pre c;
  y2 = true -> pre y1;
  ok = y2;
  --!PROPERTY: ok = true;
tel
"""
    _, ts = _ts(src, "D2")
    r = kinduction(ts, "ok", CFG)
    assert isinstance(r, Valid) and r.k == 2



def delay_chain(n: int) -> str:
    """A chain of n integer delays of a bounded input. Its property,
    that the last delay stays in the input's range, is n-inductive and
    no less: the step case needs n instants of history."""
    delays = "\n".join(f"  d{i} = 0 -> pre {'x' if i == 1 else f'd{i - 1}'};"
                       for i in range(1, n + 1))
    return f"""
node Chain(x: int) returns (ok: bool);
var {", ".join(f"d{i}" for i in range(1, n + 1))}: int;
let
  assert x >= 0 and x <= 10;
{delays}
  ok = d{n} >= 0 and d{n} <= 10;
  --!PROPERTY: ok = true;
tel
"""


@pytest.mark.parametrize("n", [4, 8, 16])
def test_kinduction_proves_a_delay_chain_at_its_length(n):
    _, ts = _ts(delay_chain(n), "Chain")
    r = kinduction(ts, "ok", EngineConfig(k_max=n + 2, timeout=120))
    assert isinstance(r, Valid) and r.k == n


def filter_chain(n: int) -> str:
    """n first-order filters in series on a bounded input. Each stage
    stays in the input's range, but no depth of k-induction shows it: a
    step case may start any stage far outside the range, and it decays
    back only geometrically."""
    stages = "\n".join(
        f"  y{i} = Filt({'u' if i == 1 else f'y{i - 1}'});"
        for i in range(1, n + 1))
    return f"""
node Filt(u: real) returns (y: real);
let
  y = 0.0 -> 0.5 * pre y + 0.5 * u;
tel

node Chain(u: real) returns (ok: bool);
var {", ".join(f"y{i}" for i in range(1, n + 1))}: real;
let
  assert u >= 0.0 and u <= 10.0;
{stages}
  ok = y{n} >= 0.0 and y{n} <= 10.0;
  --!PROPERTY: ok = true;
tel
"""


def filt_contract(tp) -> compose.Contract:
    return compose.contract_from_text(
        tp, "Filt", assumptions={"A": "u >= 0.0 and u <= 10.0"},
        guarantees={"G": "y >= 0.0 and y <= 10.0"})


@pytest.mark.parametrize("n", [2, 3])
def test_filter_chain_proves_by_contracts_not_monolithically(n):
    tp, ts = _ts(filter_chain(n), "Chain")
    for mined in (False, True):
        r = kinduction(ts, "ok", EngineConfig(k_max=12, timeout=120,
                                              use_invariants=mined))
        assert isinstance(r, Unknown), mined
        assert r.reason is UnknownReason.KMAX_REACHED
    arg = compose.build_argument(tp, "Chain", "ok", [filt_contract(tp)],
                                 EngineConfig(k_max=12, timeout=120))
    assert compose.argument_holds(arg)
    assert arg.system_result == Valid(1)
    assert arg.component_results == {"Filt": {"G": Valid(1)}}
    # one assumption check per instance, the first named by its node
    assert list(arg.assumption_results) == (
        ["Filt.A"] + [f"Filt.A@Filt{i}" for i in range(2, n + 1)])


def test_kinduction_kmax_exhaustion():
    _, ts = _ts(SAT_CHAIN, "Chain")
    r = kinduction(ts, "ok", EngineConfig(k_max=3, timeout=120))
    assert isinstance(r, Unknown)
    assert r.reason is UnknownReason.KMAX_REACHED


def _chain_invariants():
    _, ts = _ts(SAT_CHAIN, "Chain")
    return generate_invariants(ts, simulate_system(ts, 60, seed=0), CFG)


@pytest.mark.parametrize("check,verdict", [
    (lambda: kinduction(_ts(TOGGLE, "Toggle")[1], "p", CFG), Valid),
    (lambda: kinduction(_ts(COUNTER, "Counter")[1], "ok", CFG), Falsified),
    (lambda: kinduction(_ts(SAT_CHAIN, "Chain")[1], "ok",
                        EngineConfig(k_max=3, timeout=120)), Unknown),
    (lambda: kinduction(_ts(SAT_CHAIN, "Chain")[1], "ok",
                        EngineConfig(k_max=20, timeout=1e-9)), Unknown),
    (lambda: bmc(_ts(COUNTER, "Counter")[1], "ok", 5, CFG), Falsified),
    (_chain_invariants, list),
], ids=["kinduction-valid", "kinduction-falsified", "kinduction-kmax",
        "kinduction-timeout", "bmc", "houdini"])
def test_each_check_holds_its_sessions_and_closes_them(sessions, check,
                                                       verdict):
    # a check is one conversation, its base and step queries alike,
    # however deep it goes
    opened, closed = sessions
    assert isinstance(check(), verdict)
    assert len(opened) == 1
    assert {id(s) for s in opened} <= closed


def test_timeout_reported():
    _, ts = _ts(SAT_CHAIN, "Chain")
    cfg = EngineConfig(k_max=20, timeout=1e-9)
    for r in (kinduction(ts, "ok", cfg), bmc(ts, "ok", 20, cfg)):
        assert isinstance(r, Unknown) and r.reason is UnknownReason.TIMEOUT
    assert generate_invariants(ts, simulate_system(ts, 60, seed=0),
                               cfg) == []


def _counted_check_sat(monkeypatch, answer):
    """Patch SmtSession.check_sat to count its calls; answer(n, reply)
    gives the reply of the n-th call, from the solver's."""
    calls = []
    check_sat = SmtSession.check_sat

    def counted(self):
        calls.append(None)
        return answer(len(calls), check_sat(self))

    monkeypatch.setattr(SmtSession, "check_sat", counted)
    return calls


def test_deadline_passing_between_queries_stops_at_the_next(monkeypatch):
    # the clock jumps past the deadline during the second query, the base
    # query at depth 1, so the step query of k = 1 is never sent
    now = [0.0]
    monkeypatch.setattr(core, "time",
                        SimpleNamespace(monotonic=lambda: now[0]))

    def answer(n, reply):
        if n == 2:
            now[0] = 1000.0
        return reply

    calls = _counted_check_sat(monkeypatch, answer)
    _, ts = _ts(SAT_CHAIN, "Chain")
    r = kinduction(ts, "ok", EngineConfig(k_max=20, timeout=100))
    assert r == Unknown(UnknownReason.TIMEOUT,
                        "deadline passed before the query at depth 1")
    assert len(calls) == 2


def test_unknown_step_query_moves_on_to_the_next_k(monkeypatch):
    # base 0, base 1, then the step query of k = 1 answers unknown
    calls = _counted_check_sat(
        monkeypatch, lambda n, reply: "unknown" if n == 3 else reply)
    _, ts = _ts(TOGGLE, "Toggle")
    assert kinduction(ts, "p", CFG) == Valid(k=2)
    assert len(calls) == 5


def test_solver_launch_failure_reported():
    _, ts = _ts(TOGGLE, "Toggle")
    cfg = EngineConfig(k_max=2, timeout=30,
                       solver_command="/nonexistent/solver-binary")
    r = kinduction(ts, "p", cfg)
    assert isinstance(r, Unknown)
    assert r.reason is UnknownReason.SOLVER_ERROR


def test_solver_gone_before_first_line_is_closed(sessions, monkeypatch):
    popen = subprocess.Popen

    def exited(*args, **kwargs):
        proc = popen(*args, **kwargs)
        proc.wait()
        return proc

    monkeypatch.setattr("synkit.smt.session.subprocess.Popen", exited)
    _, ts = _ts(TOGGLE, "Toggle")
    cfg = EngineConfig(k_max=2, timeout=30, solver_command=shlex.join(
        [sys.executable, "-c", "pass"]))
    r = kinduction(ts, "p", cfg)
    assert isinstance(r, Unknown)
    assert r.reason is UnknownReason.SOLVER_ERROR
    opened, closed = sessions
    assert len(opened) == 1 and id(opened[0]) in closed


# nonlinear handling --------------------------------------------------------

NONLIN = """
node Square(a: real) returns (ok: bool);
var y: real;
let
  y = a * a;
  ok = y >= 0.0;
  --!PROPERTY: ok = true;
tel
"""


def test_nonlinear_spurious_flagged():
    tp, ts = _ts(NONLIN, "Square")
    assert any(n == "_nlmul_real" for n, _, _ in ts.extern_symbols)
    rep = make_replayer(tp, "Square", "ok")
    r = kinduction(ts, "ok", CFG, replay=rep)
    assert isinstance(r, Unknown)
    assert r.reason is UnknownReason.NONLINEAR_SPURIOUS


def test_replay_crash_is_an_internal_error():
    # an extern that raises is a bug in the run, not a spurious trace
    src = """
extern lift(x: real) returns (y: real);
node Lifted(a: real) returns (ok: bool);
let
  ok = lift(a) >= 0.0;
  --!PROPERTY: ok = true;
tel
"""
    tp, ts = _ts(src, "Lifted")

    def lift(x):
        raise TypeError("lift is broken")

    rep = make_replayer(tp, "Lifted", "ok", externs={"lift": lift})
    with pytest.raises(InternalError, match="lift is broken"):
        kinduction(ts, "ok", CFG, replay=rep)
    with pytest.raises(InternalError):
        rep(Trace({"a": [F(1)]}), 0)


def test_nonlinear_without_replayer_surfaces_trace():
    _, ts = _ts(NONLIN, "Square")
    r = bmc(ts, "ok", 3, CFG)
    assert isinstance(r, Falsified)  # spurious, but nothing to screen with


# solver transports ----------------------------------------------------------

BUNDLED_CMD = shlex.join([sys.executable, "-m", "synkit.smt.bundled"])


@pytest.mark.parametrize("src,node,prop,opts,verdict,k", [
    (COUNTER, "Counter", "ok", {}, Falsified, 3),
    (TOGGLE, "Toggle", "p", {}, Valid, 1),
    (SAT_CHAIN, "Chain", "ok", {"use_invariants": True}, Valid, None),
    (NONLIN, "Square", "ok", {}, Falsified, 0),
], ids=["Counter", "Toggle", "Chain-invariants", "Square-nonlinear"])
def test_in_process_and_child_solver_agree(monkeypatch, src, node, prop,
                                           opts, verdict, k):
    # the same SMT-LIB text gets the same answers in process and from a
    # child running the bundled solver
    monkeypatch.delenv("SOLVER_CMD", raising=False)
    monkeypatch.setattr("shutil.which", lambda name: None)
    _, ts = _ts(src, node)
    here = kinduction(ts, prop, EngineConfig(k_max=8, timeout=120, **opts))
    child = kinduction(ts, prop, EngineConfig(
        k_max=8, timeout=120, solver_command=BUNDLED_CMD, **opts))
    assert here == child  # results and their traces are dataclasses
    assert type(here) is verdict
    if k is not None:
        assert (here.k if verdict is Valid else here.step) == k


# oracle ---------------------------------------------------------------------

def test_oracle_matches_solver_on_counterexample():
    src = """
node Bad(set: bool) returns (ok: bool);
var q: bool;
let
  q = false -> (pre q or set);
  ok = not q;
  --!PROPERTY: ok = true;
tel
"""
    tp, ts = _ts(src, "Bad")
    ro = exhaustive_search(ts, "ok", max_depth=5)
    rs = bmc(ts, "ok", 5, CFG)
    assert isinstance(ro, Falsified) and isinstance(rs, Falsified)
    assert ro.step == rs.step == 1
    rep = make_replayer(tp, "Bad", "ok")
    assert rep(ro.trace, 1) and rep(rs.trace, 1)


def test_oracle_valid_at_fixpoint():
    _, ts = _ts(TOGGLE, "Toggle")
    r = exhaustive_search(ts, "p")
    assert isinstance(r, Valid)


def test_oracle_rejects_non_boolean():
    _, ts = _ts(COUNTER, "Counter")
    with pytest.raises(ValueError, match="boolean"):
        exhaustive_search(ts, "ok", max_depth=3)


def test_oracle_differential_random_systems():
    mismatches = []
    for seed in range(12):
        src = random_bool_system(seed)
        tp = typecheck(parse(src))
        node = tp.order[-1]
        ts = tsys.compile(tp, node)
        for k in (0, 2, 4):
            a = exhaustive_search(ts, "ok", max_depth=k)
            b = bmc(ts, "ok", k, CFG)
            if type(a) is not type(b):
                mismatches.append((seed, k, a, b))
            elif isinstance(a, Falsified):
                if a.step != b.step:
                    mismatches.append((seed, k, a.step, b.step))
                rep = make_replayer(tp, node, "ok")
                assert rep(a.trace, a.step), (seed, k)
                assert rep(b.trace, b.step), (seed, k)
    assert not mismatches, mismatches


# invariants -----------------------------------------------------------------

def test_generate_invariants_equality_shape():
    src = """
node Mirror(i: bool) returns (ok: bool);
var a, b: bool;
let
  a = i and (true -> not pre a);
  b = i and (true -> not pre b);
  ok = a = b;
  --!PROPERTY: ok = true;
tel
"""
    _, ts = _ts(src, "Mirror")
    rows = [r for s in range(3) for r in simulate_system(ts, 40, seed=s)]
    invs = generate_invariants(ts, rows, CFG)
    texts = [pretty_expr(e) for e in invs]
    assert any(t in ("a = b", "b = a") for t in texts)


def test_generate_invariants_interval_shape():
    _, ts = _ts(SAT_CHAIN, "Chain")
    rows = [r for s in range(5) for r in simulate_system(ts, 60, seed=s)]
    invs = generate_invariants(ts, rows, CFG)
    texts = [pretty_expr(e) for e in invs]
    assert "0.0 <= Saturate.y and Saturate.y <= 3.0" in texts
    assert "0.0 <= z5 and z5 <= 3.0" in texts


def test_mining_compiles_the_system_once(monkeypatch):
    """Invariant mining simulates five seeds on one compiled system, and
    mines the rows simulate_system gives for each seed."""
    _, ts = _ts(SAT_CHAIN, "Chain")
    want = [r for s in range(5) for r in simulate_system(ts, 60, seed=s)]
    compiled, mined = [], []
    compile_system_ = core.compile_system
    generate_invariants_ = core.generate_invariants

    def counting(*args, **kwargs):
        compiled.append(args[0])
        return compile_system_(*args, **kwargs)

    def capturing(ts, rows, *args):
        mined.append(rows)
        return generate_invariants_(ts, rows, *args)

    monkeypatch.setattr(core, "compile_system", counting)
    monkeypatch.setattr(core, "generate_invariants", capturing)
    r = kinduction(ts, "ok", EngineConfig(k_max=3, timeout=120,
                                          use_invariants=True))
    assert isinstance(r, Valid)
    assert compiled == [ts]
    assert mined == [want] and len(want) == 300


def test_generate_invariants_requires_rows():
    _, ts = _ts(SAT_CHAIN, "Chain")
    with pytest.raises(ValueError):
        generate_invariants(ts, [], CFG)


def test_invariants_unlock_proof():
    _, ts = _ts(SAT_CHAIN, "Chain")
    plain = kinduction(ts, "ok", EngineConfig(k_max=3, timeout=120))
    assert isinstance(plain, Unknown)
    strong = kinduction(ts, "ok",
                        EngineConfig(k_max=3, timeout=120,
                                     use_invariants=True))
    assert isinstance(strong, Valid) and strong.k <= 3
    assert any("z5" in t for t in strong.invariants_used)


def test_houdini_model_candidate_disagreement_is_internal_error(
        monkeypatch):
    # a model that violates none of the candidates it was asked to
    # violate is a bug, and must not read as "no invariants"
    monkeypatch.setattr(SmtSession, "get_values",
                        lambda self, terms: [True] * len(terms))
    _, ts = _ts(SAT_CHAIN, "Chain")
    with pytest.raises(InternalError):
        kinduction(ts, "ok",
                   EngineConfig(k_max=3, timeout=120, use_invariants=True))


def test_valid_survives_random_simulation():
    # soundness spot-check at reduced scale
    import random as _random
    _, ts = _ts(SAT_CHAIN, "Chain")
    r = kinduction(ts, "ok",
                   EngineConfig(k_max=6, timeout=120, use_invariants=True))
    assert isinstance(r, Valid)
    cs = compile_system(ts)
    p = cs.prop_ids.index("ok")
    for seed in range(20):
        state = cs.default_state
        rng = _random.Random(seed)
        for _ in range(500):
            inp = (F(rng.randint(-800, 800), rng.choice((1, 2, 4, 100))),)
            s2, asm, props, _ = cs.step(state, inp)
            assert not asm or props[p]
            state = s2


# batch, replayer, json ---------------------------------------------------------

def test_verify_all_empty_and_determinism():
    assert verify_all([], CFG) == {}
    _, ts1 = _ts(TOGGLE, "Toggle")
    _, ts2 = _ts(COUNTER, "Counter")
    serial = verify_all([(ts1, "p"), (ts2, "ok")], CFG)
    assert list(serial) == ["p", "ok"]
    assert isinstance(serial["p"], Valid)
    assert isinstance(serial["ok"], Falsified)
    assert serial["ok"].step == 3


def test_verify_all_duplicate_ids_rejected():
    _, ts = _ts(TOGGLE, "Toggle")
    with pytest.raises(ValueError):
        verify_all([(ts, "p"), (ts, "p")], CFG)


def test_verify_all_records_errors():
    _, ts = _ts(TOGGLE, "Toggle")
    bad = EngineConfig(k_max=2, timeout=30,
                       solver_command="/nonexistent/solver-binary")
    out = verify_all([(ts, "p")], bad)
    assert isinstance(out["p"], Unknown)


def test_verify_all_stray_key_error_is_internal_error(monkeypatch):
    # a KeyError out of kinduction is a bug, not an Unknown verdict
    def stray(*args, **kwargs):
        raise KeyError("stray")

    monkeypatch.setattr(core, "_base_case", stray)
    _, ts = _ts(TOGGLE, "Toggle")
    with pytest.raises(InternalError):
        verify_all([(ts, "p")], CFG)


def test_verify_all_stray_lang_error_is_internal_error(monkeypatch):
    # a compiled system raises no LangError, so one out of kinduction is
    # a bug, not an Unknown verdict
    def stray(*args, **kwargs):
        raise LangError("compile", "stray")

    monkeypatch.setattr(core, "_base_case", stray)
    _, ts = _ts(TOGGLE, "Toggle")
    with pytest.raises(InternalError):
        verify_all([(ts, "p")], CFG)


def test_houdini_stray_value_error_is_internal_error(monkeypatch):
    # only the deadline, an unknown answer and solver failure mean "no
    # invariants"; any other ValueError out of Houdini is a bug
    def stray(self, terms):
        raise ValueError("stray")

    monkeypatch.setattr(SmtSession, "get_values", stray)
    _, ts = _ts(SAT_CHAIN, "Chain")
    with pytest.raises(InternalError):
        verify_all([(ts, "ok")],
                   EngineConfig(k_max=3, timeout=120, use_invariants=True))


def test_replayer_rejects_wrong_step():
    tp, ts = _ts(COUNTER, "Counter")
    rep = make_replayer(tp, "Counter", "ok")
    trace = Trace({"reset": [False, False, False, False]})
    assert rep(trace, 3)
    assert not rep(trace, 2)
    assert not rep(trace, 9)


# codegen -----------------------------------------------------------------------

def test_compiled_system_bisimulates_interpreter():
    import random as _random
    tp, ts = _ts(COUNTER, "Counter")
    cs = compile_system(ts)
    rng = _random.Random(5)
    resets = [rng.random() < 0.3 for _ in range(60)]
    sim = simulate(tp, "Counter", Trace({"reset": resets}), 60)
    state = cs.default_state
    for t in range(60):
        s2, asm, props, defs = cs.step(state, (resets[t],))
        byname = dict(zip(cs.defined_names, cs.decode(s2, defs)[1]))
        assert byname["c"] == sim.signals["c"][t]
        assert byname["ok"] == sim.signals["ok"][t]
        assert asm is True
        state = s2


def test_compiled_system_exact_fractions():
    src = """
node Mean(x: real) returns (m: real);
let
  m = (x + (0.0 -> pre x)) / 2.0;
tel
"""
    _, ts = _ts(src, "Mean")
    cs = compile_system(ts)
    s2, _, _, defs = cs.step(cs.default_state, (F(1, 3),))
    m = dict(zip(cs.defined_names, cs.decode(s2, defs)[1]))["m"]
    assert m == F(1, 6) and isinstance(m, F)


def test_compiled_definitions_run_in_causal_order():
    # equations are free to come in any order; the step function
    # computes each definition after the ones it reads
    src = """
node Late(x: real) returns (y: real);
var z: real;
let
  y = z + 1.0;
  z = x * 2.0;
tel
"""
    tp, ts = _ts(src, "Late")
    cs = compile_system(ts)
    s2, _, _, defs = cs.step(cs.default_state, (F(1, 3),))
    got = dict(zip(cs.defined_names, cs.decode(s2, defs)[1]))
    want = simulate(tp, "Late", Trace({"x": [F(1, 3)]}), 1).signals
    assert got["y"] == want["y"][0] == F(5, 3)


def test_a_call_under_pre_steps_after_the_signals_it_reads():
    # the call's argument is scheduled after the equation holding the
    # pre, so its inlined definitions come after the node's equations,
    # where the interpreter steps such an instance too; its argument
    # Inc.a is an alias of z, so Inc.b reads z
    src = """
node Inc(a: int) returns (b: int);
let
  b = a + 1;
tel

node Late(x: int) returns (y: int);
var z: int;
let
  y = 0 -> pre Inc(z);
  z = 2 * x;
tel
"""
    tp, ts = _ts(src, "Late")
    assert [n for n, _ in ts.definitions] == ["y", "z", "Inc.b"]
    assert pretty_expr(dict(ts.definitions)["Inc.b"]) == "z + 1"
    cs = compile_system(ts)
    xs = [1, 5, 7]
    state, got = cs.default_state, []
    for x in xs:
        state, _, _, defs = cs.step(state, (x,))
        got.append(defs[cs.defined_names.index("y")])
    want = simulate(tp, "Late", Trace({"x": xs}), len(xs)).signals["y"]
    assert got == want == [0, 3, 11]


def test_compile_system_needs_extern_semantics():
    src = """
extern mystery(x: int) returns (y: int);
node UsesIt(a: int) returns (b: int);
let
  b = mystery(a);
tel
"""
    _, ts = _ts(src, "UsesIt")
    with pytest.raises(LangError):
        compile_system(ts)
    cs = compile_system(ts, {"mystery": lambda v: v * 2})
    s2, _, _, defs = cs.step(cs.default_state, (21,))
    assert cs.decode(s2, defs)[1][cs.defined_names.index("b")] == 42


def test_simulate_system_respects_assumptions():
    src = """
node Guarded(a: bool; b: bool) returns (ok: bool);
let
  assert not (a and b);
  ok = not (a and b);
  --!PROPERTY: ok = true;
tel
"""
    _, ts = _ts(src, "Guarded")
    rows = simulate_system(ts, 200, seed=3)
    assert all(not (row["a"] and row["b"]) for row in rows)


def test_simulate_system_stops_where_no_draw_meets_the_assumptions():
    # no input satisfies the assertion, so no instant is reachable; a run
    # that kept the last rejected draw would mine unreachable states
    src = """
node Vac(x: real) returns (ok: bool);
let
  assert x > 0.0 and x < 0.0;
  ok = false;
  --!PROPERTY: ok = true;
tel
"""
    _, ts = _ts(src, "Vac")
    assert simulate_system(ts, 5, seed=0) == []
    # so invariant mining has no row to mine from: it mines nothing
    res = kinduction(ts, "ok", EngineConfig(k_max=3, timeout=120,
                                            use_invariants=True))
    assert getattr(res, "invariants_used", ()) == ()


# encoding ------------------------------------------------------------------------

def test_logic_selection():
    _, ts_int = _ts(COUNTER, "Counter")
    assert logic_for(ts_int) == "QF_LIA"
    _, ts_real = _ts(SAT_CHAIN, "Chain")
    assert logic_for(ts_real) == "QF_LRA"
    _, ts_nl = _ts(NONLIN, "Square")
    assert logic_for(ts_nl) == "QF_UFLRA"
    src = """
node Mixed(i: int; r: real) returns (ok: bool);
let
  ok = r > 0.0 or i > 0;
  --!PROPERTY: ok = true;
tel
"""
    _, ts_mixed = _ts(src, "Mixed")
    assert logic_for(ts_mixed) == "QF_LIRA"


def test_unroller_formula_text():
    _, ts = _ts(COUNTER, "Counter")
    un = Unroller(ts)
    prop = ts.property_formula("ok")
    assert un.formula(prop, 4) == "ok@4"
    eq = next(rhs for name, rhs in ts.definitions if name == "ok")
    assert un.formula(eq, 0) == "(< c@0 3)"
    # an alias renders as its representative
    _, ts = _ts(ALIASES, "Top")
    eq = next(rhs for name, rhs in ts.definitions if name == "ok")
    assert Unroller(ts).formula(eq, 2) == \
        "(or (or (>= y@2 0) (< y@2 0)) (= x@2 0))"


# x <- v <- Id.a <- Id.b is an alias chain (w = v aliases into it too);
# the call under pre has Id.a and Id.b defined after the node's other
# equations
ALIASES = """
node Id(a: int) returns (b: int);
let b = a; tel

node Top(x: int) returns (ok: bool);
var y, v, w: int;
let
  y = 0 -> pre Id(v);
  w = v;
  v = x;
  ok = y >= 0 or y < 0 or w = 0;
  --!PROPERTY: ok = true;
tel
"""


def _send_instants(un, s, n):
    """Instants 0..n-1 in the order the engine's unrolling sends them."""
    for t in range(n):
        un.declare_step(s, t)
        if t > 0:
            un.assert_trans(s, t - 1)
        un.assert_instant(s, t)


def _sent_lines(monkeypatch):
    sent = []
    send = SmtSession.send
    monkeypatch.setattr(SmtSession, "send",
                        lambda self, line: (sent.append(line),
                                            send(self, line))[1])
    return sent


ALIAS_NAMES = ("v", "w", "Id.a", "Id.b")


def test_alias_chain_declares_and_asserts_only_its_representative(
        monkeypatch):
    _, ts = _ts(ALIASES, "Top")
    # every alias, the late Id.a and Id.b too, is substituted away
    assert [n for n, _ in ts.definitions] == ["y", "ok"]
    assert [n for n, _ in ts.defined_vars] == ["ok", "y"]
    assert dict(ts.trans)["_pre0"] == Var("x")
    sent = _sent_lines(monkeypatch)
    un = Unroller(ts)
    with SmtSession() as s:
        _send_instants(un, s, 2)
        assert s.check_sat() == "sat"  # every line was accepted
    text = "\n".join(sent)
    for alias in ALIAS_NAMES:
        assert f"{alias}@" not in text.replace("|", "")
    assert "(declare-const x@1 Int)" in sent
    assert "(define-fun _pre0@1 () Int x@0)" in sent
    # the input at each instant and the state at 0 are declared; every
    # defined name is defined and never declared, and no definition is
    # asserted
    declared = [line.split()[1] for line in sent
                if line.startswith("(declare-const")]
    assert declared == ["x@0", "_init@0", "_pre0@0", "x@1"]
    defined = [line.split()[1] for line in sent
               if line.startswith("(define-fun")]
    assert defined == ["y@0", "ok@0", "_init@1", "_pre0@1", "y@1", "ok@1"]
    assert not any(line.startswith("(assert (=") for line in sent)


def test_aliases_read_through_their_representative():
    _, ts = _ts(ALIASES, "Top")
    un = Unroller(ts)
    with SmtSession() as s:
        _send_instants(un, s, 2)
        un.assert_init(s)
        s.assert_text("(= x@0 5)")
        s.assert_text("(= x@1 (- 2))")
        assert s.check_sat() == "sat"
        names = [n for n, _ in ts.input_vars + ts.state_vars
                 + ts.defined_vars]
        assert not set(ALIAS_NAMES) & set(names)
        rows = [dict(zip(names, s.get_values([un.at(n, t) for n in names])))
                for t in (0, 1)]
        assert [row["x"] for row in rows] == [5, -2]
        # y reads the pre of Id.b, whose representative is x
        assert rows[1]["_pre0"] == rows[1]["y"] == 5
        assert rows[1]["ok"] is True
        values = s.get_values(un.input_terms(1))
        assert un.decode_inputs(values) == Trace({"x": [5, -2]})


def _to_sexpr(e, var_fn):
    """The reference renderer of a formula as SMT-LIB text, one call per
    node, with var_fn mapping each variable name to its solver symbol."""
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, (IntLit, RealLit)):
        return format_number(e.value, isinstance(e, RealLit))
    if isinstance(e, Var):
        return var_fn(e.name)
    if isinstance(e, Unary):
        inner = _to_sexpr(e.operand, var_fn)
        return f"(not {inner})" if e.op == "not" else f"(- {inner})"
    if isinstance(e, Binary):
        lhs = _to_sexpr(e.left, var_fn)
        rhs = _to_sexpr(e.right, var_fn)
        if e.op == "<>":
            return f"(not (= {lhs} {rhs}))"
        return f"({e.op} {lhs} {rhs})"
    if isinstance(e, Ite):
        return (f"(ite {_to_sexpr(e.cond, var_fn)} "
                f"{_to_sexpr(e.then, var_fn)} "
                f"{_to_sexpr(e.orelse, var_fn)})")
    if isinstance(e, Call):
        args = " ".join(_to_sexpr(a, var_fn) for a in e.args)
        return f"({e.callee} {args})"
    raise LangError("compile", f"cannot render {type(e).__name__}")


def _sexpr_at(e, t):
    return _to_sexpr(e, lambda n: format_atom(f"{n}@{t}"))


def test_unroller_renders_each_catalog_formula_as_to_sexpr():
    bench = load_benchmark()
    nodes = {s.observer_node for s in bench.specs if s.modeled}
    assert len(nodes) == 17
    count = 0
    for node in sorted(nodes):
        ts = tsys.compile(bench.tp, node)
        un = Unroller(ts)
        formulas = ([rhs for _, rhs in ts.definitions + ts.trans]
                    + ts.assumptions + [f for _, f in ts.properties])
        for e in formulas:
            for t in range(4):
                assert un.formula(e, t) == _sexpr_at(e, t), (node, t)
                count += 1
    assert count == 1548


def test_unroller_renders_quoted_names_as_to_sexpr():
    odd = Binary("and", Var("a b", ty=Type.BOOL),
                 Binary(">", Var("{x}|", ty=Type.INT), IntLit(1, ty=Type.INT),
                        ty=Type.BOOL), ty=Type.BOOL)
    _, ts = _ts(COUNTER, "Counter")
    un = Unroller(ts)
    for t in (0, 1, 12):
        assert un.formula(odd, t) == _sexpr_at(odd, t)
    assert un.formula(odd, 3) == "(and |a b@3| (> |{x}|@3| 1))"


def test_unroller_template_cache_follows_the_expression_not_its_id():
    """Each expression is rendered afresh though an expression freed
    before it may have had the same id, as Houdini's dropped candidates
    are."""
    _, ts = _ts(COUNTER, "Counter")
    un = Unroller(ts)
    for i in range(200):
        e = Binary("<=", Var("c", ty=Type.INT), IntLit(i, ty=Type.INT),
                   ty=Type.BOOL)
        assert un.formula(e, 2) == f"(<= c@2 {i})"
        del e


def _scan_cone(ts, roots):
    """The state and defined variables that the roots, the assumptions
    and the `_init` flag read, by rescanning every equation until no name
    is added; names are read off each formula's SMT-LIB text."""
    def names(e):
        found = []
        _to_sexpr(e, lambda n: found.append(n) or n)
        return set(found)

    eqs = ts.definitions + ts.trans
    live = {"_init"}.union(*map(names, [*roots, *ts.assumptions]))
    while True:
        more = set().union(set(), *(names(rhs) for n, rhs in eqs
                                    if n in live)) - live
        if not more:
            return live
        live |= more


def test_kinduction_sends_the_cone_of_the_property(monkeypatch):
    ts = tsys.compile(load_benchmark().tp, "G120")
    sent = _sent_lines(monkeypatch)
    assert kinduction(ts, "Obs", EngineConfig(k_max=2)) == Valid(1)
    live = _scan_cone(ts, [ts.property_formula("Obs")])
    defined = {n for n, _ in ts.definitions} & live
    states = {n for n, _ in ts.state_vars} & live
    inputs = {n for n, _ in ts.input_vars}
    dead = ({n for n, _ in ts.definitions + ts.state_vars} - live)
    assert defined and states and dead
    kinds = {}
    for line in sent:
        (sx,) = parse_all(line)
        if sx[0] == "assert" and sx[1][0] == "=" and isinstance(sx[1][1],
                                                                  str):
            name = sx[1][1].rpartition("@")[0]
            assert name not in defined | states, line
        if sx[0] in ("declare-const", "define-fun"):
            name, _, t = sx[1].rpartition("@")
            kinds.setdefault(sx[0], set()).add((name, int(t)))
    depth = max(t for _, t in kinds["declare-const"])
    assert depth >= 1
    assert kinds["declare-const"] == (
        {(n, t) for n in inputs for t in range(depth + 1)}
        | {(n, 0) for n in states})
    assert kinds["define-fun"] == (
        {(n, t) for n in defined for t in range(depth + 1)}
        | {(n, t) for n in states for t in range(1, depth + 1)})
    for name in dead:
        assert not any(f"{name}@" in line for line in sent), name


def test_an_assumption_outside_the_cone_is_still_sent(monkeypatch):
    tp, ts = _ts("""
node Top(x: int; y: int) returns (ok: bool);
var z, w: int;
let
  z = y + 1;
  w = y - 1;
  assert z > 0;
  ok = x > 0 or x <= 0;
  --!PROPERTY: ok = true;
tel
""", "Top")
    assert {n for n, _ in ts.definitions} == {"z", "w", "ok"}
    sent = _sent_lines(monkeypatch)
    assert kinduction(ts, "ok", EngineConfig(k_max=1)) == Valid(1)
    assert "(declare-const y@0 Int)" in sent
    assert "(define-fun z@0 () Int (+ y@0 1))" in sent
    assert "(assert (> z@0 0))" in sent
    assert not any("w@" in line for line in sent)


def test_bmc_trace_carries_every_input():
    ts = tsys.compile(load_benchmark().tp, "G180Raw")
    # the cone reads only some of the inputs
    assert {n for n, _ in ts.input_vars} - _scan_cone(
        ts, [ts.property_formula("Obs")])
    r = bmc(ts, "Obs", 6, CFG)
    assert isinstance(r, Falsified)
    assert list(r.trace.signals) == [n for n, _ in ts.input_vars]
    assert all(len(v) == r.step + 1 for v in r.trace.signals.values())
