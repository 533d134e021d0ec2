"""Transition-system compiler tests.

The bisimulation check at the bottom evaluates the compiled formulas
with a small evaluator written here, independent of the interpreter's
recursive-descent machinery, and confirms the interpreter's deep trace,
from a state where `_init` holds, is a model of the definitions and the
transition relation.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import synkit
from synkit import compose, tsys
from synkit.benchlib import load_benchmark
from synkit.engine.encode import Unroller
from synkit.interp import Trace, simulate
from synkit.lang import (Binary, BoolLit, Call, Expr, IntLit, Ite, LangError,
                         RealLit, Type, Unary, Var, parse, typecheck, walk)
from synkit.smt import SmtSession

F = Fraction


def build(src: str):
    return typecheck(parse(src))


COUNTER = build("""
node Counter(reset : bool) returns (c : int);
let
  c = 0 -> if reset then 0 else pre c + 1;
tel
""")


def test_counter_system_shape(monkeypatch):
    ts = tsys.compile(COUNTER, "Counter")
    assert ts.input_vars == [("reset", Type.BOOL)]
    assert ts.state_vars == [("_init", Type.BOOL), ("_pre0", Type.INT)]
    assert ts.defined_vars == [("c", Type.INT)]
    trans = dict(ts.trans)
    assert trans["_init"] == BoolLit(False)
    assert trans["_pre0"] == Var("c")
    (def_c,) = ts.definitions
    assert def_c[0] == "c"
    assert isinstance(def_c[1], Ite) and def_c[1].cond == Var("_init")
    # the initial condition is the _init flag, which the encoder asserts
    sent = []
    send = SmtSession.send
    monkeypatch.setattr(SmtSession, "send", lambda self, line: (
        sent.append(line), send(self, line))[1])
    with SmtSession() as s:
        Unroller(ts).assert_init(s)
        assert sent == ["(assert _init@0)"]


def test_importing_tsys_loads_no_solver_text_or_interpreter():
    """The transition system is only the model: a fresh interpreter that
    imports it loads the language front end, not the SMT-LIB layer or the
    interpreter."""
    src = str(Path(synkit.__file__).resolve().parent.parent)
    code = ("import sys, synkit.tsys; print(*sorted(m for m in sys.modules "
            "if m.startswith('synkit')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout.split()
    assert "synkit.tsys" in out and "synkit.lang" in out
    assert [m for m in out
            if m.startswith(("synkit.smt", "synkit.interp"))] == []


def test_gain_times_step_staying_linear():
    tp = build("""
node Lim(x, gain, dt : real) returns (y : real);
var band : real;
let
  band = gain * dt;
  y = if x > band then band else x;
tel

node Top(u : real) returns (y : real);
let
  y = Lim(u, 2.0, 0.1);
tel
""")
    ts = tsys.compile(tp, "Top")
    assert ts.extern_symbols == []
    # band folds to a constant, which leaves the system like an alias
    assert "Lim.band" not in dict(ts.defined_vars)
    band = RealLit(F(1, 5))
    assert ts.definitions == [
        ("Lim.y", Ite(Binary(">", Var("u"), band), band, Var("u")))]


def test_each_definition_is_substituted_and_folded_once(monkeypatch):
    # a constant chain written against its causal order: a sweep over the
    # definitions in list order would bind one constant per sweep
    tp = build("""
node Chain(x : int) returns (y : int);
var a, b, c, d : int;
let
  y = x + a;
  a = b + 1;
  b = c + 1;
  c = d + 1;
  d = 1;
tel
""")
    folded = []
    fold = tsys._fold
    monkeypatch.setattr(tsys, "_fold", lambda e, bound, externs: (
        folded.append(e), fold(e, bound, externs))[1])
    ts = tsys.compile(tp, "Chain")
    others = ts.trans + ts.assumptions + ts.properties
    # five definitions, then the other formulas; the constants d, c, b
    # and a leave the system
    assert len(folded) == 5 + len(others) == 6
    assert ts.definitions == [("y", Binary("+", Var("x"), IntLit(4)))]
    assert ts.defined_vars == [("y", Type.INT)]


def test_definitions_follow_the_typechecker_schedule():
    tp = build("""
node Mix(x : int) returns (y : int);
var a, b, c, d : int;
let
  y = a + d;
  a = b + x;
  b = c;
  c = x -> pre y;
  d = 2 * x;
tel
""")
    schedule = [eq.targets[0] for eq in tp.info("Mix").schedule]
    assert schedule == ["c", "b", "a", "d", "y"]
    ts = tsys.compile(tp, "Mix")
    # b = c is an alias: it is substituted away, and a reads c
    assert [n for n, _ in ts.definitions] == ["c", "a", "d", "y"]
    assert dict(ts.definitions)["a"] == Binary("+", Var("c"), Var("x"))


def test_folding_does_not_depend_on_an_unrelated_constant():
    alone = build("node A(x : int) returns (y : int); "
                  "let y = x + 2 * 3; tel")
    with_k = build("node A(x : int) returns (y : int); var k : int; "
                   "let y = x + 2 * 3; k = 1; tel")
    want = Binary("+", Var("x"), IntLit(6))
    assert dict(tsys.compile(alone, "A").definitions)["y"] == want
    assert dict(tsys.compile(with_k, "A").definitions)["y"] == want


def test_variable_product_becomes_uninterpreted():
    tp = build("node M(a, b : real) returns (y : real); let y = a * b; tel")
    ts = tsys.compile(tp, "M")
    rhs = dict(ts.definitions)["y"]
    assert isinstance(rhs, Call) and rhs.callee == "_nlmul_real"
    assert ("_nlmul_real", (Type.REAL, Type.REAL), Type.REAL) \
        in ts.extern_symbols


def test_int_product_uses_int_symbol():
    tp = build("node M(a, b : int) returns (y : int); let y = a * b; tel")
    ts = tsys.compile(tp, "M")
    assert dict(ts.definitions)["y"].callee == "_nlmul_int"


def test_division_forms():
    tp = build("node D(a, b : real) returns (y : real); let y = a / b; tel")
    rhs = dict(tsys.compile(tp, "D").definitions)["y"]
    assert isinstance(rhs, Call) and rhs.callee == "_nldiv_real"

    tp = build("node D(a : real) returns (y : real); let y = a / 4.0; tel")
    rhs = dict(tsys.compile(tp, "D").definitions)["y"]
    assert rhs == Binary("*", Var("a"), RealLit(F(1, 4)))

    tp = build("node D(a : real) returns (y : real); let y = a / 0.0; tel")
    with pytest.raises(LangError) as exc:
        tsys.compile(tp, "D")
    assert "zero" in str(exc.value)


def test_division_by_constant_zero_in_a_discarded_branch_compiles():
    # as in the interpreter, a constant condition keeps only its taken
    # branch, and the discarded one is never folded
    tp = build("node D(x : real) returns (y : real); "
               "let y = if true then x else x / 0.0; tel")
    ts = tsys.compile(tp, "D")
    assert ts.definitions == [] and ts.defined_vars == []
    assert ts.extern_symbols == []


def test_extern_called_only_in_a_discarded_branch_is_not_declared():
    tp = build("""
extern sine(x : real) returns (y : real);
node N(x : real) returns (y : real);
let y = if 1 > 2 then sine(x) else x * x + sine(2.0 * x); tel
""")
    ts = tsys.compile(tp, "N")
    assert [name for name, _, _ in ts.extern_symbols] == [
        "_nlmul_real", "sine"]
    tp = build("""
extern sine(x : real) returns (y : real);
node N(x : real) returns (y : real);
let y = if 1 < 2 then x else sine(x); tel
""")
    assert tsys.compile(tp, "N").extern_symbols == []


def test_compile_copies_each_formula_only_in_its_fold(monkeypatch):
    # after inlining, _fold is the one walk over each formula: nothing in
    # compile walks or substitutes a formula besides it
    def no_walk(*args):
        raise AssertionError("compile walked a formula outside _fold")

    monkeypatch.setattr(tsys, "walk", no_walk)
    monkeypatch.setattr(tsys, "map_vars", no_walk)
    folded, inlined = [], []
    fold, simplify = tsys._fold, tsys._simplify
    monkeypatch.setattr(tsys, "_fold", lambda e, bound, externs: (
        folded.append(e), fold(e, bound, externs))[1])
    monkeypatch.setattr(tsys, "_simplify", lambda ts, tp: (
        inlined.append([rhs for _, rhs in ts.definitions + ts.trans]
                       + ts.assumptions + [f for _, f in ts.properties]),
        simplify(ts, tp))[1])
    bench = load_benchmark()
    for spec in bench.specs:
        if spec.modeled:
            folded.clear()
            tsys.compile(bench.tp, spec.observer_node)
            assert [id(f) for f in folded] == [id(f) for f in inlined[-1]]


def test_declared_extern_carried_through():
    tp = build("""
extern sine(x : real) returns (y : real);
node N(x : real) returns (y : real);
let y = sine(x) + 1.0; tel
""")
    ts = tsys.compile(tp, "N")
    assert ("sine", (Type.REAL,), Type.REAL) in ts.extern_symbols


def test_namespacing_injective_and_instance_numbered():
    tp = build("""
node Sat(x : real) returns (y : real);
let y = if x > 1.0 then 1.0 else x; tel

node Top(a, b : real) returns (y : real);
let y = Sat(a) + Sat(b); tel
""")
    ts = tsys.compile(tp, "Top")
    names = [n for n, _ in ts.defined_vars]
    assert len(names) == len(set(names))
    assert "Sat1.y" in names and "Sat2.y" in names


def test_callee_asserts_become_assumptions():
    tp = build("""
node Pos(x : real) returns (y : real);
let
  assert x >= 0.0;
  y = x;
tel
node Top(u : real) returns (y : real);
let y = Pos(u); tel
""")
    ts = tsys.compile(tp, "Top")
    assert len(ts.assumptions) == 1
    # the callee's input Pos.x is an alias: the assumption reads u
    assert Var("u") in walk(ts.assumptions[0])
    assert "Pos.x" not in ts.var_types()


def test_only_top_annotations_become_properties():
    tp = build("""
node Inner(x : bool) returns (ok : bool);
let
  --!PROPERTY: ok = true;
  ok = x or not x;
tel
node Outer(x : bool) returns (good : bool);
var t : bool;
let
  --!PROPERTY: good = true;
  t = Inner(x);
  good = t;
tel
""")
    ts = tsys.compile(tp, "Outer")
    assert [pid for pid, _ in ts.properties] == ["good"]


def test_shipped_systems_define_no_alias_and_read_only_their_variables(
        monkeypatch):
    # every catalog node, and every system that composition compiles from
    # the contract manifests: each abstraction and component variant
    bench = load_benchmark()
    systems = []
    compile_ = tsys.compile
    monkeypatch.setattr(tsys, "compile", lambda tp, node: (
        systems.append(compile_(tp, node)), systems[-1])[1])
    for node in bench.tp.program.nodes:
        tsys.compile(bench.tp, node.name)
    args = {pid: compose.build_argument(bench.tp,
                                        bench.spec(pid).observer_node,
                                        "Obs", contracts)
            for pid, contracts in sorted(bench.contracts.items())}
    assert len(systems) > len(bench.tp.program.nodes) + len(bench.contracts)
    for ts in systems:
        assert not [n for n, rhs in ts.definitions if isinstance(rhs, Var)]
        assert sorted(n for n, _ in ts.definitions) == \
            sorted(n for n, _ in ts.defined_vars)
        known = ts.var_types()
        for f in ([rhs for _, rhs in ts.definitions + ts.trans]
                  + ts.assumptions + [p for _, p in ts.properties]):
            for v in walk(f):
                assert not isinstance(v, Var) or v.name in known, \
                    (ts.node, v.name)
    assert all(compose.argument_holds(arg) for arg in args.values())


def _is_literal(e: Expr) -> bool:
    return isinstance(e, (BoolLit, IntLit, RealLit))


def test_modeled_observers_compile_fully_simplified():
    # what every layer below tsys relies on: no definition is a constant
    # or an alias, and no formula holds a literal left to fold or a
    # division or product of two signals left to lower
    bench = load_benchmark()
    modeled = [s for s in bench.specs if s.modeled]
    assert len(modeled) == 17
    systems = []
    for spec in modeled:
        systems.append(tsys.compile(bench.tp, spec.observer_node))
        contracts = bench.contracts.get(spec.id, [])
        if contracts:
            abs_tp = compose.abstract_with_contracts(
                bench.tp, spec.observer_node, contracts)
            systems.append(tsys.compile(abs_tp, spec.observer_node))
        systems += [tsys.compile(bench.tp, c.node) for c in contracts]
    for ts in systems:
        assert [n for n, rhs in ts.definitions
                if isinstance(rhs, Var) or _is_literal(rhs)] == []
        assert sorted(n for n, _ in ts.definitions) == \
            sorted(n for n, _ in ts.defined_vars)
        for f in ([rhs for _, rhs in ts.definitions + ts.trans]
                  + ts.assumptions + [p for _, p in ts.properties]):
            for e in walk(f):
                if isinstance(e, Unary):
                    assert not _is_literal(e.operand), (ts.node, e)
                if isinstance(e, Binary):
                    assert not (_is_literal(e.left)
                                and _is_literal(e.right)), (ts.node, e)
                    assert e.op != "/", (ts.node, e)
                    assert e.op != "*" or _is_literal(e.left) \
                        or _is_literal(e.right), (ts.node, e)


# independent formula evaluator for the bisimulation check ---------------

_DEFAULT = {Type.BOOL: False, Type.INT: 0, Type.REAL: F(0)}

_EXTERN_EVAL = {
    "_nlmul_real": lambda a, b: a * b,
    "_nlmul_int": lambda a, b: a * b,
    "_nldiv_real": lambda a, b: F(a) / F(b),
}


def ev(e: Expr, env):
    if isinstance(e, (BoolLit, IntLit, RealLit)):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Unary):
        v = ev(e.operand, env)
        return (not v) if e.op == "not" else -v
    if isinstance(e, Ite):
        return ev(e.then, env) if ev(e.cond, env) else ev(e.orelse, env)
    if isinstance(e, Call):
        return _EXTERN_EVAL[e.callee](*[ev(a, env) for a in e.args])
    assert isinstance(e, Binary)
    a, b = ev(e.left, env), ev(e.right, env)
    return {
        "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
        "/": lambda: F(a) / F(b),
        "=": lambda: a == b, "<>": lambda: a != b, "<": lambda: a < b,
        "<=": lambda: a <= b, ">": lambda: a > b, ">=": lambda: a >= b,
        "and": lambda: bool(a and b), "or": lambda: bool(a or b),
        "=>": lambda: bool((not a) or b),
    }[e.op]()


BISIM_MODELS = [
    ("Counter", """
node Counter(reset : bool) returns (c : int);
let
  c = 0 -> if reset then 0 else pre c + 1;
tel
"""),
    ("Top", """
node Lag(x : real) returns (y : real);
let
  y = x -> 0.5 * x + 0.5 * pre y;
tel
node Top(u : real) returns (y, z : real);
let
  assert u >= -8.0;
  y = Lag(u);
  z = Lag(u + 1.0);
tel
"""),
    ("Latch", """
node Latch(set, clear : bool) returns (q : bool);
let
  q = set -> if clear then false else (set or pre q);
tel
"""),
    ("Mix", """
node Mix(a : real; k : int) returns (y : real; ok : bool);
var s : real;
let
  assert a <= 100.0;
  s = 0.0 -> pre s + a;
  y = if k > 3 then s else pre s;
  ok = s >= 0.0 or s < 0.0;
tel
"""),
]


def random_value(ty: Type, rng: random.Random):
    if ty is Type.BOOL:
        return rng.random() < 0.5
    if ty is Type.INT:
        return rng.randrange(-10, 11)
    return F(rng.randrange(-64, 65), 1 << rng.randrange(0, 3))


@pytest.mark.parametrize("node,src", BISIM_MODELS)
def test_interpreter_trace_models_compiled_system(node, src):
    tp = build(src)
    ts = tsys.compile(tp, node)
    types = ts.var_types()
    rng = random.Random(hash(node) & 0xFFFF)
    for trial in range(100):
        n = rng.randrange(1, 8)
        inputs = Trace({name: [random_value(ty, rng) for _ in range(n)]
                        for name, ty in ts.input_vars})
        trace = simulate(tp, node, inputs, n, deep=True)
        # reconstruct the state stream: defaults at 0, trans thereafter
        state = [{"_init": True}]
        for name, ty in ts.state_vars:
            if name != "_init":
                state[0][name] = _DEFAULT[ty]
        envs = []
        for t in range(n):
            env = dict(state[t])
            for name, _ in ts.input_vars:
                env[name] = inputs.signals[name][t]
            for name, _ in ts.defined_vars:
                env[name] = trace.signals[name][t]
            envs.append(env)
            state.append({name: ev(rhs, env) for name, rhs in ts.trans})
        for t, env in enumerate(envs):
            for name, rhs in ts.definitions:
                assert env[name] == ev(rhs, env), (trial, t, name)
            assumed = all(ev(a, env) for a in ts.assumptions)
            assert assumed == trace.assertion_ok[t], (trial, t)
