"""Symbolic compilation: a typed node becomes a flat transition system.

All node calls are inlined under dotted instance prefixes (the same
naming the interpreter's deep recording uses). Each node's equations
are inlined in schedule order, the typechecker's causal order, so the
definitions come each after the ones it reads. Each Pre site turns into
a state variable `<prefix>._pre<i>` with a next-state equation; all
Arrow sites share one global boolean state variable `_init` that is
true exactly at the first instant. That flag is the initial condition,
and the only one: a system carries no init formulas, and its users
start from the states where `_init` holds. Step-0 Pre variables are
left unconstrained: the symbolic system over-approximates the
interpreter's default-value start, which keeps proofs sound for
execution.

A transition system is only the model. Its formulas stay expression
trees; `engine.encode` is the one place that renders them as SMT-LIB
text.

No definition is a bare variable or a literal. A definition that folds
to a literal is a constant, and one that folds to a variable, such as
the renaming `A.x = x` that inlining leaves for each call argument, is
an alias. Both are substituted away: every formula reads the literal,
or the variable at the end of the alias chain (its representative), and
neither is a defined variable nor a definition of the system.

Nonlinear residue is hidden behind uninterpreted function symbols:
products of two non-constant terms become _nlmul_int/_nlmul_real
applications, division by a non-constant becomes _nldiv_real, and
division by a nonzero constant is lowered to exact multiplication by
the reciprocal.

After inlining, each formula is copied once, in one walk (_fold) that
substitutes the bound constants and aliases, folds, lowers the
nonlinear residue and collects the extern symbols the copy calls. As
in the interpreter, an if whose condition folds to a literal is
replaced by its taken branch without folding the other, so a division
by a constant zero in a discarded branch is not an error, and an
extern called only there is not declared.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .lang import (Arrow, Binary, BoolLit, Call, Expr, IntLit, Ite,
                   LangError, Pre, RealLit, Type, TypedProgram, Unary, Value,
                   Var, rebuild, walk)
from .lang.typecheck import instance_names

INIT_FLAG = "_init"


@dataclass
class TransitionSystem:
    node: str
    input_vars: list[tuple[str, Type]]
    state_vars: list[tuple[str, Type]]
    defined_vars: list[tuple[str, Type]]
    trans: list[tuple[str, Expr]]  # state_var' = rhs(step i)
    # defined_var = rhs, every step; in schedule order; no rhs is a Var
    # or a literal
    definitions: list[tuple[str, Expr]]
    assumptions: list[Expr]  # hold at every step
    properties: list[tuple[str, Expr]]
    extern_symbols: list[tuple[str, tuple[Type, ...], Type]]

    def var_types(self) -> dict[str, Type]:
        out = {}
        for name, ty in self.input_vars + self.state_vars + self.defined_vars:
            out[name] = ty
        return out

    def property_formula(self, prop_id: str) -> Expr:
        for pid, f in self.properties:
            if pid == prop_id:
                return f
        raise KeyError(f"unknown property {prop_id!r}")


# expression utilities ----------------------------------------------------

def map_vars(e: Expr, fn: Callable[[Var], Expr]) -> Expr:
    def go(sub: Expr) -> Expr:
        return fn(sub) if isinstance(sub, Var) else rebuild(sub, go)

    return go(e)


def _lit_value(e: Expr) -> Optional[Value]:
    if isinstance(e, (BoolLit, IntLit, RealLit)):
        return e.value
    return None


def literal(v: Value, ty: Type) -> Expr:
    if ty is Type.BOOL:
        return BoolLit(bool(v), ty=Type.BOOL)
    if ty is Type.INT:
        return IntLit(int(v), ty=Type.INT)
    return RealLit(Fraction(v), ty=Type.REAL)


_BINARY: dict[str, Callable[[Value, Value], Value]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "=": operator.eq, "<>": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
    "=>": lambda a, b: (not a) or bool(b),
}


def _fold(e: Expr, bound: dict[str, Expr], externs: set[str]) -> Expr:
    """A copy of e with each bound variable replaced by its value, folded
    bottom-up, exactly and without reassociation, with the nonlinear
    residue lowered as the module docstring states. An if whose condition
    folds to a literal becomes its taken branch, and only that branch is
    folded. Each extern call the copy keeps or builds adds its callee to
    externs."""
    def go(e: Expr) -> Expr:
        cls = type(e)
        if cls is Var:
            return bound.get(e.name, e)
        if cls is Ite:
            cond = go(e.cond)
            cv = _lit_value(cond)
            if cv is not None:
                return go(e.then if cv else e.orelse)
            return Ite(cond, go(e.then), go(e.orelse), pos=e.pos, ty=e.ty)
        e = rebuild(e, go)
        if cls is Unary:
            v = _lit_value(e.operand)
            if v is not None:
                return literal((not v) if e.op == "not" else -v, e.ty)
        elif cls is Binary:
            if e.op == "/":
                dv = _lit_value(e.right)
                if dv is None:
                    externs.add("_nldiv_real")
                    return Call("_nldiv_real", [e.left, e.right], pos=e.pos,
                                ty=Type.REAL, is_extern=True)
                if dv == 0:
                    raise LangError("compile", "division by constant zero",
                                    e.pos)
                recip = RealLit(Fraction(1) / Fraction(dv), ty=Type.REAL)
                e = Binary("*", e.left, recip, pos=e.pos, ty=Type.REAL)
            a, b = _lit_value(e.left), _lit_value(e.right)
            if a is not None and b is not None:
                return literal(_BINARY[e.op](a, b), e.ty)
            if e.op == "*" and a is None and b is None:
                name = "_nlmul_int" if e.ty is Type.INT else "_nlmul_real"
                externs.add(name)
                return Call(name, [e.left, e.right], pos=e.pos, ty=e.ty,
                            is_extern=True)
        elif cls is Call:
            if not e.is_extern:
                raise LangError("compile", f"uninlined call {e.callee!r}")
            externs.add(e.callee)
        return e

    return go(e)


def cone(ts: TransitionSystem, roots: Iterable[Expr]) -> TransitionSystem:
    """The system cut to the cone of influence of the roots (Clarke,
    Grumberg & Peled, *Model Checking*, 1999): the state and defined
    variables that the roots, the assumptions or the initial condition
    (the `_init` flag) read, directly or through definitions and
    transitions. Every input, assumption, property and extern symbol is
    kept; the definitions and transitions keep their order."""
    rhs = dict(ts.definitions)
    rhs.update(ts.trans)
    seen: set[str] = set()
    todo = [*roots, *ts.assumptions, Var(INIT_FLAG, ty=Type.BOOL)]
    while todo:
        for sub in walk(todo.pop()):
            if isinstance(sub, Var) and sub.name not in seen:
                seen.add(sub.name)
                if sub.name in rhs:
                    todo.append(rhs[sub.name])

    def keep(pairs):
        return [p for p in pairs if p[0] in seen]

    return replace(ts, state_vars=keep(ts.state_vars),
                   defined_vars=keep(ts.defined_vars),
                   trans=keep(ts.trans), definitions=keep(ts.definitions))


# compilation --------------------------------------------------------------

class _Compiler:
    def __init__(self, tp: TypedProgram):
        self.tp = tp
        self.defined: list[tuple[str, Type]] = []
        self.def_eqs: list[tuple[str, Expr]] = []
        self.state: list[tuple[str, Type]] = [(INIT_FLAG, Type.BOOL)]
        self.trans: list[tuple[str, Expr]] = [(INIT_FLAG,
                                               BoolLit(False, ty=Type.BOOL))]
        self.assumptions: list[Expr] = []
        self.properties: list[tuple[str, Expr]] = []

    def compile(self, node: str) -> TransitionSystem:
        top = self.tp.info(node)
        inputs = [(vd.name, vd.type) for vd in top.decl.inputs]
        self._inline(top, "", None)
        for prop in top.decl.properties:
            self.properties.append((prop, Var(prop, ty=Type.BOOL)))
        ts = TransitionSystem(node, inputs, self.state, self.defined,
                              self.trans, self.def_eqs,
                              self.assumptions, self.properties, [])
        _simplify(ts, self.tp)
        return ts

    def _inline(self, info, prefix: str,
                input_exprs: Optional[list[Expr]]) -> None:
        p = prefix + "." if prefix else ""
        if input_exprs is not None:
            for vd, arg in zip(info.decl.inputs, input_exprs):
                self.defined.append((p + vd.name, vd.type))
                self.def_eqs.append((p + vd.name, arg))
        for vd in info.decl.outputs + info.decl.locals:
            self.defined.append((p + vd.name, vd.type))
        names = instance_names(info)
        late: list[tuple[str, Expr]] = []

        def call(c: Call) -> list[Expr]:
            """Inline a node call; its outputs as variables."""
            child_prefix = p + names[c.site]
            callee = self.tp.info(c.callee)
            self._inline(callee, child_prefix, [tx(a) for a in c.args])
            return [Var(f"{child_prefix}.{out.name}", ty=out.type)
                    for out in callee.decl.outputs]

        def tx(e: Expr) -> Expr:
            # Inlined definitions and state variables are appended as tx
            # goes, so rebuild's left-to-right order fixes their order.
            if isinstance(e, Var):
                return Var(p + e.name, pos=e.pos, ty=e.ty)
            if isinstance(e, Pre):
                sv = f"{p}_pre{e.site}"
                if all(sv != n for n, _ in self.state):
                    self.state.append((sv, e.ty))
                    mark = len(self.def_eqs)
                    self.trans.append((sv, tx(e.operand)))
                    # a call under a pre may read signals scheduled
                    # later; like the interpreter, step it after them
                    late.extend(self.def_eqs[mark:])
                    del self.def_eqs[mark:]
                return Var(sv, ty=e.ty)
            if isinstance(e, Arrow):
                return Ite(Var(INIT_FLAG, ty=Type.BOOL), tx(e.left),
                           tx(e.right), pos=e.pos, ty=e.ty)
            if isinstance(e, Call) and not e.is_extern:
                return call(e)[0]
            return rebuild(e, tx)

        for eq in info.schedule:
            if len(eq.targets) > 1:
                for t, out in zip(eq.targets, call(eq.rhs)):
                    self.def_eqs.append((p + t, out))
            else:
                self.def_eqs.append((p + eq.targets[0], tx(eq.rhs)))
        for a in info.decl.assertions:
            self.assumptions.append(tx(a))
        self.def_eqs.extend(late)


_NL_SIGS = {
    "_nlmul_int": ((Type.INT, Type.INT), Type.INT),
    "_nlmul_real": ((Type.REAL, Type.REAL), Type.REAL),
    "_nldiv_real": ((Type.REAL, Type.REAL), Type.REAL),
}


def _simplify(ts: TransitionSystem, tp: TypedProgram) -> None:
    """Fold every formula once, in one walk that also substitutes the
    bound variables and finds the extern calls (_fold). A defined variable
    whose equation folds to a literal or to a bare variable is bound to
    it. Each definition is folded after the definitions it reads, so an
    alias binds to the end of its chain and products like gain*dt stay
    linear. Bound variables leave the definitions and the defined
    variables; the extern calls the folded formulas make become the
    system's extern symbols, sorted by name."""
    bound: dict[str, Expr] = {}
    externs: set[str] = set()
    kept: list[tuple[str, Expr]] = []
    for name, rhs in ts.definitions:
        e = _fold(rhs, bound, externs)
        if isinstance(e, Var) or _lit_value(e) is not None:
            bound[name] = e
        else:
            kept.append((name, e))
    ts.definitions = kept
    ts.defined_vars = [(n, ty) for n, ty in ts.defined_vars
                       if n not in bound]

    def apply(e: Expr) -> Expr:
        return _fold(e, bound, externs)

    ts.trans = [(n, apply(rhs)) for n, rhs in ts.trans]
    ts.assumptions = [apply(a) for a in ts.assumptions]
    ts.properties = [(pid, apply(f)) for pid, f in ts.properties]

    def signature(name: str) -> tuple[tuple[Type, ...], Type]:
        if name in _NL_SIGS:
            return _NL_SIGS[name]
        ex = tp.externs[name]
        return tuple(p.type for p in ex.params), ex.ret.type

    ts.extern_symbols = [(n,) + signature(n) for n in sorted(externs)]


def compile(tp: TypedProgram, node: str) -> TransitionSystem:  # noqa: A001
    """Inline everything beneath node and emit its transition system."""
    tp.info(node)  # raises on unknown node
    return _Compiler(tp).compile(node)
