"""The typechecker's one pass against the separate passes it replaced.

Inference numbers the Pre, Arrow and node-call sites, collects each
equation's same-instant reads for the schedule, and collects each node's
callees for the call order.  Before that, three walks over the typed tree
did those jobs after inference.  They are kept here as the reference:
every NodeInfo and call order the typechecker builds, over the catalog,
its contract abstractions, the demos and generated nodes, must equal
what they compute.
"""

from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from synkit import benchlib, compose
from synkit.lang import (Arrow, Binary, BoolLit, Call, Equation, ExternDecl,
                         IntLit, Ite, NodeDecl, Pre, Program, RealLit, Type,
                         Unary, Var, VarDecl, children, parse, typecheck)
from synkit.lang.typecheck import dependency_order

from test_lang import _exprs

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# reference passes ----------------------------------------------------------

def _preorder(e):
    yield e
    for c in children(e):
        yield from _preorder(c)


def _ref_sites(exprs):
    """The old _assign_sites, returning the numbers it wrote: Pre, Arrow
    and node-call sites numbered across exprs in preorder."""
    n_pre = n_arrow = 0
    calls, sites = [], []
    for root in exprs:
        for sub in _preorder(root):
            if isinstance(sub, Pre):
                sites.append((sub, n_pre))
                n_pre += 1
            elif isinstance(sub, Arrow):
                sites.append((sub, n_arrow))
                n_arrow += 1
            elif isinstance(sub, Call) and not sub.is_extern:
                sites.append((sub, len(calls)))
                calls.append(sub)
            elif isinstance(sub, Call):
                sites.append((sub, -1))
    return n_pre, n_arrow, calls, sites


def _ref_current_deps(e):
    """Signals read at the current instant (Pre subtrees excluded)."""
    if isinstance(e, Pre):
        return set()
    if isinstance(e, Var):
        return {e.name}
    deps = set()
    for c in children(e):
        deps |= _ref_current_deps(c)
    return deps


def _ref_schedule(decl):
    def_of = {t: eq for eq in decl.equations for t in eq.targets}
    reads = {}
    for eq in decl.equations:
        deps = sorted(d for d in _ref_current_deps(eq.rhs) if d in def_of)
        for t in eq.targets:
            reads[t] = deps
    order = dependency_order(def_of, reads.__getitem__)
    return list({id(eq): eq for eq in map(def_of.get, order)}.values())


def _ref_order(program):
    names = {n.name for n in program.nodes}
    callees = {}
    for n in program.nodes:
        roots = [eq.rhs for eq in n.equations] + n.assertions
        callees[n.name] = sorted({
            sub.callee for root in roots for sub in _preorder(root)
            if isinstance(sub, Call) and sub.callee in names})
    return dependency_order(callees, callees.__getitem__)


def assert_matches_reference(tp):
    for name, info in tp.nodes.items():
        d = info.decl
        n_pre, n_arrow, calls, sites = _ref_sites(
            [eq.rhs for eq in d.equations] + d.assertions)
        assert (info.n_pre, info.n_arrow) == (n_pre, n_arrow), name
        assert [s.site for s, _ in sites] == [n for _, n in sites], name
        assert [id(c) for c in info.calls] == [id(c) for c in calls], name
        assert [id(p) for p in info.pres] == [
            id(s) for s, _ in sites if isinstance(s, Pre)], name
        assert [id(eq) for eq in info.schedule] == [
            id(eq) for eq in _ref_schedule(d)], name
    assert tp.order == _ref_order(tp.program)


# fixed programs ------------------------------------------------------------

def test_catalog_and_its_contract_abstractions_match_reference():
    bench = benchlib.load_benchmark()
    tp = bench.tp
    assert_matches_reference(tp)
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
                compose.abstract_with_contracts(tp, top, contracts))
            seen += 1
        for c in full:
            assert_matches_reference(compose._abstract(
                tp, c.node, [], inject_assumes=c.assumptions,
                inject_props=c.guarantees).tp)
            seen += 1
    assert seen > 2 * len(bench.contracts)


def test_demos_match_reference():
    paths = sorted(DEMOS.glob("*.lus"))
    assert paths
    for path in paths:
        assert_matches_reference(typecheck(parse(path.read_text())))


# generated nodes -----------------------------------------------------------

_TYPES = (Type.BOOL, Type.INT, Type.REAL)
_SUFFIX = {Type.BOOL: "b", Type.INT: "i", Type.REAL: "r"}
_COMPARE = ("=", "<>", "<", "<=", ">", ">=")
_HELPERS = """
node N2_{s}(a0 : int; a1 : int) returns (y : {t});
let y = {d} -> pre y; tel
node N3_{s}(a0 : int; a1 : int; a2 : int) returns (y : {t});
let y = {d} -> pre (if a0 < a1 + a2 then y else {d}); tel
"""
_DEFAULT = {Type.BOOL: "false", Type.INT: "0", Type.REAL: "0.0"}


def _lit(ty, value):
    if ty is Type.BOOL:
        return BoolLit(bool(value))
    if ty is Type.INT:
        return IntLit(int(value))
    return RealLit(Fraction(value))


def _typed_as(e, ty, eq, targets, past=False):
    """e reshaped to type as ty, keeping its tree: every Pre, Arrow, Ite,
    Call and Var stays where it is.  x, y and z read inputs; foo and bar
    read equation targets of type ty, any under a pre, else only those of
    equations after eq, so the node stays causal (x when there is none)."""
    def go(x, want, past=past):
        return _typed_as(x, want, eq, targets, past)

    if isinstance(e, (BoolLit, IntLit, RealLit)):
        return _lit(ty, e.value)
    if isinstance(e, Var):
        names = [t for j, (t, tt) in enumerate(targets)
                 if tt is ty and (past or j > eq)]
        if e.name not in ("foo", "bar"):
            return Var(f"{e.name}_{_SUFFIX[ty]}")
        if not names:
            return Var(f"x_{_SUFFIX[ty]}")
        return Var(names[0] if e.name == "foo" else names[-1])
    if isinstance(e, Unary):
        if ty is Type.BOOL:
            return Unary("not", go(e.operand, ty))
        return Unary("-", go(e.operand, ty))
    if isinstance(e, Pre):
        return Pre(go(e.operand, ty, past=True))
    if isinstance(e, Arrow):
        return Arrow(go(e.left, ty), go(e.right, ty))
    if isinstance(e, Ite):
        return Ite(go(e.cond, Type.BOOL), go(e.then, ty), go(e.orelse, ty))
    if isinstance(e, Binary):
        if ty is Type.BOOL and e.op in ("and", "or", "=>"):
            return Binary(e.op, go(e.left, ty), go(e.right, ty))
        if ty is Type.BOOL:
            op = e.op if e.op in _COMPARE else "<="
            return Binary(op, go(e.left, Type.INT), go(e.right, Type.INT))
        ops = ("+", "-", "*", "/") if ty is Type.REAL else ("+", "-", "*")
        op = e.op if e.op in ops else "*"
        return Binary(op, go(e.left, ty), go(e.right, ty))
    assert isinstance(e, Call)
    args = [go(a, Type.INT) for a in e.args]
    callee = (f"ext_{_SUFFIX[ty]}" if len(args) == 1
              else f"N{len(args)}_{_SUFFIX[ty]}")
    return Call(callee, args)


def _node_program(rhss):
    targets = [(f"o{i}", _TYPES[i % 3]) for i in range(len(rhss))]
    eqs = [Equation([t], _typed_as(rhs, ty, i, targets))
           for i, (rhs, (t, ty)) in enumerate(zip(rhss, targets))]
    asserts = [_typed_as(rhss[0], Type.BOOL, -1, targets)]
    inputs = [VarDecl(f"{n}_{_SUFFIX[ty]}", ty)
              for n in ("x", "y", "z") for ty in _TYPES]
    outputs = [VarDecl(t, ty) for t, ty in targets]
    helpers = parse("".join(_HELPERS.format(s=_SUFFIX[ty], t=ty,
                                            d=_DEFAULT[ty])
                            for ty in _TYPES))
    externs = [ExternDecl(f"ext_{_SUFFIX[ty]}", [VarDecl("a", Type.INT)],
                          VarDecl("r", ty)) for ty in _TYPES]
    top = NodeDecl("G", inputs, outputs, [], eqs, asserts, [])
    return Program(helpers.nodes + [top], externs)


@settings(max_examples=150, deadline=None)
@given(st.lists(_exprs(), min_size=1, max_size=5))
def test_generated_nodes_match_reference(rhss):
    assert_matches_reference(typecheck(_node_program(rhss)))
