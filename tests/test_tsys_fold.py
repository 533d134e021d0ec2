"""The transition-system compiler's one fold walk against the passes it
replaced.

After inlining, `tsys._simplify` once copied each formula twice, first
substituting the bound constants and aliases (`_subst`) and then folding
the copy (`_fold`), and walked every folded formula a third time to find
the extern symbols (`_collect_externs`).  Those passes are kept here as
the reference: every system the compiler builds, over the catalog, its
contract abstractions and component variants, the demos and generated
nodes, must equal what they build, field by field, positions, types,
sites and extern flags included.  The one difference is intended: an if
whose condition folds to a literal no longer folds its discarded branch,
so a division by a constant zero there is no longer an error.
"""

from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from synkit import benchlib, compose, tsys
from synkit.lang import (Binary, BoolLit, Call, Equation, ExternDecl, Ite,
                         LangError, NodeDecl, Program, RealLit, Type, Unary,
                         Var, VarDecl, parse, rebuild, typecheck, walk)

from test_lang import _exprs
from test_typecheck_passes import _node_program

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# reference passes ----------------------------------------------------------

def _ref_fold(e):
    e = rebuild(e, _ref_fold)
    if isinstance(e, Unary):
        v = tsys._lit_value(e.operand)
        if v is not None:
            return tsys.literal((not v) if e.op == "not" else -v, e.ty)
    elif isinstance(e, Binary):
        if e.op == "/":
            dv = tsys._lit_value(e.right)
            if dv is None:
                return Call("_nldiv_real", [e.left, e.right], pos=e.pos,
                            ty=Type.REAL, is_extern=True)
            if dv == 0:
                raise LangError("compile", "division by constant zero", e.pos)
            recip = RealLit(Fraction(1) / Fraction(dv), ty=Type.REAL)
            e = Binary("*", e.left, recip, pos=e.pos, ty=Type.REAL)
        a, b = tsys._lit_value(e.left), tsys._lit_value(e.right)
        if a is not None and b is not None:
            table = {
                "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
                "=": lambda: a == b, "<>": lambda: a != b,
                "<": lambda: a < b, "<=": lambda: a <= b,
                ">": lambda: a > b, ">=": lambda: a >= b,
                "and": lambda: bool(a) and bool(b),
                "or": lambda: bool(a) or bool(b),
                "=>": lambda: (not a) or bool(b),
            }
            return tsys.literal(table[e.op](), e.ty)
        if e.op == "*" and a is None and b is None:
            name = "_nlmul_int" if e.ty is Type.INT else "_nlmul_real"
            return Call(name, [e.left, e.right], pos=e.pos, ty=e.ty,
                        is_extern=True)
    elif isinstance(e, Ite):
        cv = tsys._lit_value(e.cond)
        if cv is not None:
            return e.then if cv else e.orelse
    return e


def _ref_subst(e, mapping):
    return tsys.map_vars(e, lambda v: mapping.get(v.name, v))


def _ref_collect_externs(ts, tp):
    found = {}
    formulas = ([rhs for _, rhs in ts.definitions]
                + [rhs for _, rhs in ts.trans]
                + ts.assumptions + [f for _, f in ts.properties])
    for f in formulas:
        for sub in walk(f):
            if isinstance(sub, Call):
                if not sub.is_extern:
                    raise LangError("compile",
                                    f"uninlined call {sub.callee!r}")
                if sub.callee in tsys._NL_SIGS:
                    found[sub.callee] = tsys._NL_SIGS[sub.callee]
                else:
                    ex = tp.externs[sub.callee]
                    found[sub.callee] = (tuple(p.type for p in ex.params),
                                         ex.ret.type)
    return [(n,) + found[n] for n in sorted(found)]


def _ref_simplify(ts, tp):
    bound, kept = {}, []
    for name, rhs in ts.definitions:
        e = _ref_fold(_ref_subst(rhs, bound))
        if isinstance(e, Var) or tsys._lit_value(e) is not None:
            bound[name] = e
        else:
            kept.append((name, e))
    ts.definitions = kept
    ts.defined_vars = [(n, ty) for n, ty in ts.defined_vars
                       if n not in bound]

    def apply(e):
        return _ref_fold(_ref_subst(e, bound))

    ts.trans = [(n, apply(rhs)) for n, rhs in ts.trans]
    ts.assumptions = [apply(a) for a in ts.assumptions]
    ts.properties = [(pid, apply(f)) for pid, f in ts.properties]
    ts.extern_symbols = _ref_collect_externs(ts, tp)


def _ref_compile(tp, node):
    with mock.patch.object(tsys, "_simplify", _ref_simplify):
        return tsys.compile(tp, node)


def _key(obj):
    """obj as nested tuples of every dataclass field, so == compares the
    fields that dataclass equality leaves out (pos, ty, site, is_extern)."""
    if is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            _key(getattr(obj, f.name)) for f in fields(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(_key(x) for x in obj)
    return obj


def _outcome(compile_fn, tp, node):
    try:
        return _key(compile_fn(tp, node))
    except LangError as exc:
        return str(exc)


def assert_matches_reference(tp, node):
    """The compiled system equals the reference's, or both raise the same
    error, or the reference alone rejects a division by a constant zero
    (which the one walk accepts when it lies in a discarded branch)."""
    got = _outcome(tsys.compile, tp, node)
    want = _outcome(_ref_compile, tp, node)
    if isinstance(want, str) and not isinstance(got, str):
        assert "division by constant zero" in want, want
    else:
        assert got == want, node


# fixed programs ------------------------------------------------------------

def test_catalog_and_its_contract_abstractions_match_reference():
    bench = benchlib.load_benchmark()
    tp = bench.tp
    for node in [n.name for n in tp.program.nodes]:
        assert_matches_reference(tp, node)
    seen = 0
    for pid, full in sorted(bench.contracts.items()):
        top = bench.spec(pid).observer_node
        sets = [full] + [
            [compose.Contract(c.node,
                              tuple(p for p in c.assumptions if p[0] != fid),
                              tuple(p for p in c.guarantees if p[0] != fid))
             for c in full]
            for c0 in full for fid, _ in c0.assumptions + c0.guarantees]
        for contracts in sets:
            assert_matches_reference(
                compose.abstract_with_contracts(tp, top, contracts), top)
            seen += 1
        for c in full:
            assert_matches_reference(compose._abstract(
                tp, c.node, [], inject_assumes=c.assumptions,
                inject_props=c.guarantees).tp, c.node)
            seen += 1
    assert seen > 2 * len(bench.contracts)


def test_demos_match_reference():
    paths = sorted(DEMOS.glob("*.lus"))
    assert paths
    for path in paths:
        tp = typecheck(parse(path.read_text()))
        for node in [n.name for n in tp.program.nodes]:
            assert_matches_reference(tp, node)


_FIXED = {
    "signal division": {"y": "a / b"},
    "constant division": {"y": "a / 4.0 + 1.0 / 8.0"},
    "signal products": {"y": "a * b + 2.0 * a * 3.0", "i": "n * m"},
    "declared extern": {"y": "sine(a) + sine(2.0)"},
    "extern in a discarded branch": {"y": "if 1.0 > 2.0 then sine(a) else a"},
    "product in a discarded branch": {"y": "if true then a else a * b"},
    "extern in both branches": {"y": "if p then sine(a) else sine(b)"},
    "nested constant conditions": {
        "y": "if not (1 < 2) then sine(a) "
             "else if 2 = 2 then a * 0.5 else a / b"},
    "constant through an alias": {
        "k": "3.0", "y": "if k > 2.0 then a else a / b"},
    "division by zero in a discarded branch": {
        "y": "if true then a else a / 0.0"},
    "division by zero in a taken branch": {
        "y": "if 1 = 1 then a / 0.0 else a"},
    "extern in a discarded assumption branch": {
        "assert": "if false then sine(a) > 0.0 else true"},
}


@pytest.mark.parametrize("eqs", _FIXED.values(), ids=list(_FIXED))
def test_fixed_nodes_match_reference(eqs):
    eqs = {"y": "a", "i": "n", "k": "b", "assert": "true", **eqs}
    tp = typecheck(parse(f"""
extern sine(x : real) returns (y : real);
node N(a, b : real; n, m : int; p : bool) returns (y : real; i : int;
                                                    ok : bool);
var k : real;
let
  y = {eqs["y"]};
  i = {eqs["i"]};
  k = {eqs["k"]};
  ok = y >= k;
  assert {eqs["assert"]};
  --!PROPERTY: ok = true;
tel
"""))
    assert_matches_reference(tp, "N")


# generated nodes -----------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.lists(_exprs(), min_size=1, max_size=5))
def test_generated_nodes_match_reference(rhss):
    program = _node_program(rhss)
    top = program.nodes[-1]
    top.properties = [vd.name for vd in top.outputs if vd.type is Type.BOOL]
    assert_matches_reference(typecheck(program), top.name)


def _reals(names):
    """Real expressions over names: divisions by signals and by constants
    (zero among them), products, calls of the extern sine, and ifs whose
    conditions are literals, constant comparisons or signal comparisons."""
    leaves = st.one_of(
        st.sampled_from(names).map(Var),
        st.integers(-2, 2).map(lambda n: RealLit(Fraction(n, 2))))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: Binary(*t)),
            children.map(lambda e: Call("sine", [e])),
            children.map(lambda e: Unary("-", e)),
            st.tuples(_conds(children), children, children).map(
                lambda t: Ite(*t)))

    return st.recursive(leaves, extend, max_leaves=12)


def _conds(reals):
    return st.one_of(
        st.booleans().map(BoolLit),
        st.tuples(st.sampled_from(["<", "="]), reals, reals).map(
            lambda t: Binary(*t)))


@settings(max_examples=200, deadline=None)
@given(_reals(["a", "b"]), _conds(_reals(["a", "k"])), _reals(["a", "k"]),
       _reals(["a", "k"]), _reals(["b", "k"]), _reals(["k", "y"]))
def test_generated_real_nodes_match_reference(k_rhs, cond, then, orelse,
                                              divisor, bound):
    # y is an if whose branches call sine and divide, so a constant
    # condition discards an extern call or a division by a constant
    real = Type.REAL
    y_rhs = Ite(cond, Call("sine", [then]), Binary("/", orelse, divisor))
    top = NodeDecl(
        "R", [VarDecl("a", real), VarDecl("b", real)],
        [VarDecl("y", real), VarDecl("ok", Type.BOOL)], [VarDecl("k", real)],
        [Equation(["k"], k_rhs), Equation(["y"], y_rhs),
         Equation(["ok"], Binary("<=", Var("y"), bound))],
        [Binary(">=", y_rhs, Var("a"))], ["ok"])
    sine = ExternDecl("sine", [VarDecl("x", real)], VarDecl("y", real))
    assert_matches_reference(typecheck(Program([top], [sine])), "R")
