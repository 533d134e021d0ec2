"""Type, single-assignment, and causality analysis.

typecheck() returns a TypedProgram holding a typed copy of the AST.
On the copy, every expression has .ty filled in, integer literals in
real positions are rewritten to real literals (literal-only widening,
variables never coerce), and each Pre/Arrow/call occurrence carries a
site index.  Site indices are the shared coordinate system between the
interpreter's NodeState and the compiler's state variables: they are
assigned per node in source order (equations first, then assertions,
preorder within an expression).

Inference is the one pass over each expression.  While _infer builds the
typed copy it also numbers each Pre, Arrow and node-call site, taking the
number before it visits the operands, so the numbering is preorder; it
collects the Pre and call nodes for NodeInfo in site order, and it records
the signals each equation reads at the same instant (every Var outside a
pre subtree), which the schedule orders by.  The call order is built from
NodeInfo.calls once every node has been checked, so a program that is
both ill-typed and recursive reports its type error.

The causality check yields each node's schedule, its equations with
every one after the equations whose signals it reads at the same
instant.  The schedule is the one causal order: the interpreter runs
the equations in it, and the inliner emits the transition system's
definitions in it, which the compiled step function computes in turn.
dependency_order is the one walk behind the schedule, the call order
and the contract dependency check, and names any cycle it meets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, TypeVar

from .ast import (Arrow, Binary, BoolLit, Call, Equation, Expr, ExternDecl,
                  IntLit, Ite, NodeDecl, Pre, Program, RealLit, Type, Unary,
                  Var)
from .errors import LangError

_NUMERIC = (Type.INT, Type.REAL)

K = TypeVar("K")


class Cycle(Exception):
    """A dependency cycle; path repeats its first key at its end."""

    def __init__(self, path: list):
        super().__init__(" -> ".join(map(str, path)))
        self.path = path


def dependency_order(keys: Iterable[K],
                     deps: Callable[[K], Iterable[K]]) -> list[K]:
    """Every key reachable from keys, each after the keys it depends on.

    An iterative depth-first walk: roots in the given order, each key's
    deps in the order deps gives them. Raises Cycle on a cycle.
    """
    mark: dict[K, bool] = {}  # False while on the path, True once placed
    order: list[K] = []
    for root in keys:
        if root in mark:
            continue
        mark[root] = False
        path = [root]
        pending = [iter(deps(root))]
        while pending:
            for dep in pending[-1]:
                if dep not in mark:
                    mark[dep] = False
                    path.append(dep)
                    pending.append(iter(deps(dep)))
                    break
                if not mark[dep]:
                    raise Cycle(path[path.index(dep):] + [dep])
            else:
                pending.pop()
                mark[path[-1]] = True
                order.append(path.pop())
    return order


@dataclass
class NodeInfo:
    decl: NodeDecl
    env: dict[str, Type]
    schedule: list[Equation]  # the causal order, see the module docstring
    pres: list[Pre] = field(default_factory=list)  # in site order
    n_arrow: int = 0
    calls: list[Call] = field(default_factory=list)  # in site order

    @property
    def n_pre(self) -> int:
        return len(self.pres)


@dataclass
class TypedProgram:
    program: Program
    nodes: dict[str, NodeInfo]
    externs: dict[str, ExternDecl]
    order: list[str]  # call-graph topological order, callees first
    callees: dict[str, list[str]]  # each node's called nodes, sorted

    def info(self, name: str) -> NodeInfo:
        if name not in self.nodes:
            raise LangError("undefined", f"unknown node {name!r}")
        return self.nodes[name]


def typecheck(p: Program) -> TypedProgram:
    checker = _Checker(p)
    return checker.run()


def type_expression(tp: TypedProgram, env: dict[str, Type], e: Expr,
                    expected: Optional[Type] = None) -> Expr:
    """Type a standalone expression against an environment.

    Calls resolve against tp's nodes/externs. Used for contract formulas.
    """
    return _Checker(tp.program).infer(e, env, expected)


class _Checker:
    def __init__(self, p: Program):
        self.p = p
        self.node_sigs: dict[str, NodeDecl] = {}
        for n in p.nodes:
            if n.name in self.node_sigs:
                raise LangError("multiple-definition",
                                f"node {n.name!r} declared twice", n.pos)
            self.node_sigs[n.name] = n
        self.externs: dict[str, ExternDecl] = {}
        for ex in p.externs:
            if ex.name in self.externs:
                raise LangError("multiple-definition",
                                f"extern {ex.name!r} declared twice", ex.pos)
            if ex.name in self.node_sigs:
                raise LangError("multiple-definition",
                                f"extern {ex.name!r} collides with a node", ex.pos)
            self.externs[ex.name] = ex
        # what _infer records, per node (see the module docstring)
        self.pres: list[Pre] = []
        self.n_arrow = 0
        self.calls: list[Call] = []
        self.reads: set[str] = set()

    def run(self) -> TypedProgram:
        infos = {n.name: self._check_node(n) for n in self.p.nodes}
        callees = {name: sorted({c.callee for c in info.calls})
                   for name, info in infos.items()}
        try:
            order = dependency_order(callees, callees.__getitem__)
        except Cycle as c:
            raise LangError("recursion",
                            f"recursive node calls: {c}") from None
        typed = Program([info.decl for info in infos.values()],
                        list(self.p.externs))
        return TypedProgram(typed, infos, dict(self.externs), order,
                            callees)

    # per-node checking ---------------------------------------------------

    def _check_node(self, n: NodeDecl) -> NodeInfo:
        env: dict[str, Type] = {}
        for vd in n.declared():
            if vd.name in env:
                raise LangError("multiple-definition",
                                f"signal {vd.name!r} declared twice in node "
                                f"{n.name!r}", vd.pos)
            env[vd.name] = vd.type
        inputs = {vd.name for vd in n.inputs}
        must_define = [vd.name for vd in n.outputs + n.locals]

        self.pres, self.n_arrow, self.calls = [], 0, []
        defined: dict[str, Equation] = {}
        typed_eqs: list[Equation] = []
        reads: list[set[str]] = []
        for eq in n.equations:
            for t in eq.targets:
                if t not in env:
                    raise LangError("undefined",
                                    f"equation defines undeclared signal {t!r}",
                                    eq.pos)
                if t in inputs:
                    raise LangError("multiple-definition",
                                    f"input {t!r} cannot be defined", eq.pos)
                if t in defined:
                    raise LangError("multiple-definition",
                                    f"signal {t!r} defined twice", eq.pos)
            self.reads = set()
            typed_eqs.append(self._type_equation(n, env, eq))
            reads.append(self.reads)
            for t in eq.targets:
                defined[t] = eq
        for name in must_define:
            if name not in defined:
                raise LangError("undefined",
                                f"signal {name!r} has no defining equation "
                                f"in node {n.name!r}", n.pos)

        self.reads = set()  # an assertion's reads order nothing
        typed_asserts = [self.infer(a, env, Type.BOOL) for a in n.assertions]
        for prop in n.properties:
            if prop not in env or prop in inputs:
                raise LangError("undefined",
                                f"property annotation names {prop!r}, which is "
                                f"not an output or local of {n.name!r}", n.pos)
            if env[prop] is not Type.BOOL:
                raise LangError("type",
                                f"property signal {prop!r} must be bool", n.pos)

        decl = NodeDecl(n.name, list(n.inputs), list(n.outputs),
                        list(n.locals), typed_eqs, typed_asserts,
                        list(n.properties), pos=n.pos)
        return NodeInfo(decl, env, self._schedule(decl, reads), self.pres,
                        self.n_arrow, self.calls)

    def _type_equation(self, n: NodeDecl, env: dict[str, Type],
                       eq: Equation) -> Equation:
        if len(eq.targets) > 1:
            rhs = eq.rhs
            if not isinstance(rhs, Call) or rhs.callee not in self.node_sigs:
                raise LangError("type", "tuple equation requires a node call "
                                "on the right-hand side", eq.pos)
            callee = self.node_sigs[rhs.callee]
            if len(callee.outputs) != len(eq.targets):
                raise LangError("type",
                                f"{rhs.callee!r} returns {len(callee.outputs)} "
                                f"values, {len(eq.targets)} targets given", eq.pos)
            typed_call = self._type_call(rhs, env, multi_ok=True)
            for t, out in zip(eq.targets, callee.outputs):
                if env[t] is not out.type:
                    raise LangError("type",
                                    f"target {t!r} has type {env[t]}, call "
                                    f"output {out.name!r} is {out.type}", eq.pos)
            return Equation(list(eq.targets), typed_call, pos=eq.pos)
        target = eq.targets[0]
        rhs = self.infer(eq.rhs, env, env[target])
        return Equation([target], rhs, pos=eq.pos)

    # expression typing ----------------------------------------------------

    def infer(self, e: Expr, env: dict[str, Type],
              expected: Optional[Type] = None) -> Expr:
        out = self._infer(e, env, expected)
        if expected is not None and out.ty is not expected:
            raise LangError("type", f"expected {expected}, got {out.ty}", e.pos)
        return out

    def _infer(self, e: Expr, env: dict[str, Type],
               expected: Optional[Type]) -> Expr:
        # the most frequent variants first
        if isinstance(e, Var):
            if e.name not in env:
                raise LangError("undefined", f"undefined signal {e.name!r}", e.pos)
            self.reads.add(e.name)
            return Var(e.name, pos=e.pos, ty=env[e.name])
        if isinstance(e, Binary):
            return self._infer_binary(e, env, expected)
        if isinstance(e, BoolLit):
            return BoolLit(e.value, pos=e.pos, ty=Type.BOOL)
        if isinstance(e, IntLit):
            if expected is Type.REAL:
                return RealLit(Fraction(e.value), pos=e.pos, ty=Type.REAL)
            return IntLit(e.value, pos=e.pos, ty=Type.INT)
        if isinstance(e, RealLit):
            return RealLit(e.value, pos=e.pos, ty=Type.REAL)
        if isinstance(e, Unary):
            if e.op == "not":
                opnd = self.infer(e.operand, env, Type.BOOL)
                return Unary("not", opnd, pos=e.pos, ty=Type.BOOL)
            opnd = self._infer(e.operand, env,
                               expected if expected in _NUMERIC else None)
            if opnd.ty not in _NUMERIC:
                raise LangError("type", f"unary '-' needs int or real, got "
                                f"{opnd.ty}", e.pos)
            return Unary("-", opnd, pos=e.pos, ty=opnd.ty)
        if isinstance(e, Ite):
            cond = self.infer(e.cond, env, Type.BOOL)
            then = self._infer(e.then, env, expected)
            orelse = self._infer(e.orelse, env, expected)
            then, orelse = self._join(then, orelse, e)
            return Ite(cond, then, orelse, pos=e.pos, ty=then.ty)
        if isinstance(e, Arrow):
            site = self.n_arrow
            self.n_arrow += 1
            left = self._infer(e.left, env, expected)
            right = self._infer(e.right, env, expected)
            left, right = self._join(left, right, e)
            return Arrow(left, right, pos=e.pos, ty=left.ty, site=site)
        if isinstance(e, Pre):
            site = len(self.pres)
            self.pres.append(e)  # holds the site until the copy exists
            now, self.reads = self.reads, set()  # pre reads the past
            opnd = self._infer(e.operand, env, expected)
            self.reads = now
            pre = self.pres[site] = Pre(opnd, pos=e.pos, ty=opnd.ty,
                                        site=site)
            return pre
        if isinstance(e, Call):
            return self._type_call(e, env, multi_ok=False)
        raise LangError("type", f"unsupported expression {type(e).__name__}", e.pos)

    def _infer_binary(self, e: Binary, env: dict[str, Type],
                      expected: Optional[Type]) -> Expr:
        op = e.op
        if op in ("and", "or", "=>"):
            left = self.infer(e.left, env, Type.BOOL)
            right = self.infer(e.right, env, Type.BOOL)
            return Binary(op, left, right, pos=e.pos, ty=Type.BOOL)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            left = self._infer(e.left, env, None)
            right = self._infer(e.right, env, None)
            left, right = self._join(left, right, e)
            if op not in ("=", "<>") and left.ty not in _NUMERIC:
                raise LangError("type", f"{op!r} needs int or real operands,"
                                f" got {left.ty}", e.pos)
            return Binary(op, left, right, pos=e.pos, ty=Type.BOOL)
        if op in ("+", "-", "*"):
            hint = expected if expected in _NUMERIC else None
            left = self._infer(e.left, env, hint)
            right = self._infer(e.right, env, hint)
            left, right = self._join(left, right, e)
            if left.ty not in _NUMERIC:
                raise LangError("type", f"{op!r} needs int or real operands,"
                                f" got {left.ty}", e.pos)
            return Binary(op, left, right, pos=e.pos, ty=left.ty)
        if op == "/":
            left = self._infer(e.left, env, Type.REAL)
            right = self._infer(e.right, env, Type.REAL)
            if left.ty is not Type.REAL or right.ty is not Type.REAL:
                raise LangError("type", "'/' requires real operands "
                                "(there is no integer division)", e.pos)
            return Binary("/", left, right, pos=e.pos, ty=Type.REAL)
        raise LangError("type", f"unknown operator {op!r}", e.pos)

    def _join(self, a: Expr, b: Expr, ctx: Expr) -> tuple[Expr, Expr]:
        """Unify operand types, widening a bare int literal to real."""
        if a.ty is b.ty:
            return a, b
        if a.ty is Type.INT and b.ty is Type.REAL and isinstance(a, IntLit):
            return RealLit(Fraction(a.value), pos=a.pos, ty=Type.REAL), b
        if b.ty is Type.INT and a.ty is Type.REAL and isinstance(b, IntLit):
            return a, RealLit(Fraction(b.value), pos=b.pos, ty=Type.REAL)
        raise LangError("type", f"operand types differ: {a.ty} vs {b.ty}",
                        ctx.pos)

    def _type_call(self, e: Call, env: dict[str, Type], multi_ok: bool) -> Call:
        if e.callee in self.node_sigs:
            sig = self.node_sigs[e.callee]
            params = sig.inputs
            outs = sig.outputs
            is_extern = False
        elif e.callee in self.externs:
            ex = self.externs[e.callee]
            params = ex.params
            outs = [ex.ret]
            is_extern = True
        else:
            raise LangError("undefined", f"call to undefined node or extern "
                            f"{e.callee!r}", e.pos)
        if len(e.args) != len(params):
            raise LangError("type", f"{e.callee!r} takes {len(params)} "
                            f"arguments, {len(e.args)} given", e.pos)
        if len(outs) != 1 and not multi_ok:
            raise LangError("type", f"multi-output call to {e.callee!r} must "
                            "be the sole right-hand side of a tuple equation",
                            e.pos)
        site = -1
        if not is_extern:
            site = len(self.calls)
            self.calls.append(e)  # holds the site until the copy exists
        args = [self.infer(a, env, p.type) for a, p in zip(e.args, params)]
        ty = outs[0].type if len(outs) == 1 else None
        call = Call(e.callee, args, pos=e.pos, ty=ty, site=site,
                    is_extern=is_extern)
        if not is_extern:
            self.calls[site] = call
        return call

    # causality -------------------------------------------------------------

    def _schedule(self, n: NodeDecl,
                  reads: list[set[str]]) -> list[Equation]:
        """reads[i]: the signals n.equations[i] reads at the same instant."""
        def_of = {t: eq for eq in n.equations for t in eq.targets}
        deps: dict[str, list[str]] = {}
        for eq, names in zip(n.equations, reads):
            now = sorted(d for d in names if d in def_of)
            for t in eq.targets:
                deps[t] = now
        try:
            order = dependency_order(def_of, deps.__getitem__)
        except Cycle as c:
            raise LangError("causality", f"causality cycle through {c}",
                            def_of[c.path[0]].pos) from None
        # a tuple equation comes once, at its first target in the order
        return list({id(eq): eq for eq in map(def_of.get, order)}.values())


def instance_names(info: NodeInfo) -> dict[int, str]:
    """Stable names for node call instances, keyed by call site.

    A lone call to a callee is named after it; repeated callees get
    1-based ordinals (Saturation1, Saturation2, ...) in site order.
    """
    counts: dict[str, int] = {}
    for c in info.calls:
        counts[c.callee] = counts.get(c.callee, 0) + 1
    seen: dict[str, int] = {}
    names: dict[int, str] = {}
    for c in info.calls:
        if counts[c.callee] == 1:
            names[c.site] = c.callee
        else:
            seen[c.callee] = seen.get(c.callee, 0) + 1
            names[c.site] = f"{c.callee}{seen[c.callee]}"
    return names
