"""Time-indexed SMT encoding of a transition system.

Each variable v at instant t becomes the solver symbol `v@t`. One
Unroller owns the text generation; a session is fed whole instants at a
time, so the base and step queries of a check share one unrolling. This
module is the one renderer of formula text: each formula is written
once, in one recursive pass, as a template that takes the instant.

Only inputs, and state variables at instant 0, are declared. Equations
are definitions, not assertions: each defined variable of instant t is
sent as `(define-fun v@t () Sort e)`, and each state variable of instant
t+1 as the `define-fun` of its transition from instant t. Assertions
carry the assumptions, invariants, initial condition and goals. The
initial condition is the `_init` flag of `tsys`, sent as
`(assert _init@0)`.

`bmc` and `kinduction` unroll the cone of influence of the property and
its invariants (`tsys.cone`), and Houdini the cone of its candidates, so
only the states and definitions that those, the assumptions or `_init`
read are sent; every input is still declared, so a trace carries every
input. The engine reads a check's deadline before each query, so no
text here is sent after it has passed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..interp import Trace
from ..lang import (Binary, BoolLit, Call, Expr, IntLit, Ite, LangError,
                    RealLit, Type, Unary, Value, Var)
from ..smt import SmtSession
from ..smt.sexpr import format_atom as sym, format_number
from ..tsys import INIT_FLAG, TransitionSystem

_SORT = {Type.BOOL: "Bool", Type.INT: "Int", Type.REAL: "Real"}
_VALUE = {Type.BOOL: bool, Type.INT: int, Type.REAL: Fraction}


def logic_for(ts: TransitionSystem) -> str:
    types = set(ts.var_types().values())
    has_int = Type.INT in types
    has_real = Type.REAL in types
    if has_int and has_real:
        body = "LIRA"
    elif has_real:
        body = "LRA"
    else:
        body = "LIA"
    if ts.extern_symbols:
        return "QF_UF" + body
    return "QF_" + body


def _esc(text: str) -> str:
    return text.replace("{", "{{").replace("}", "}}")


def _template(e: Expr) -> str:
    """A ``str.format`` template of e's SMT-LIB text whose one field is
    the instant: a variable v is written ``v@{0}``, quoted when ``v@0``
    would be (the digits of the instant do not change the quoting), and
    braces in names and callees are doubled."""
    cls = type(e)
    if cls is Var:
        stamp = f"{_esc(e.name)}@{{0}}"
        plain = f"{e.name}@0"
        return stamp if sym(plain) == plain else f"|{stamp}|"
    if cls is Binary:
        lhs, rhs = _template(e.left), _template(e.right)
        if e.op == "<>":
            return f"(not (= {lhs} {rhs}))"
        return f"({e.op} {lhs} {rhs})"
    if cls is BoolLit:
        return "true" if e.value else "false"
    if cls is IntLit or cls is RealLit:
        return format_number(e.value, cls is RealLit)
    if cls is Unary:
        inner = _template(e.operand)
        return f"(not {inner})" if e.op == "not" else f"(- {inner})"
    if cls is Ite:
        return (f"(ite {_template(e.cond)} {_template(e.then)} "
                f"{_template(e.orelse)})")
    if cls is Call:
        args = " ".join(map(_template, e.args))
        return f"({_esc(e.callee)} {args})"
    raise LangError("compile", f"cannot render {cls.__name__}")


class Unroller:
    """The SMT-LIB text of a transition system, instant by instant. A
    session is sent instant t as ``declare_step(t)``, then
    ``assert_trans(t - 1)``, then ``assert_instant(t)``, since a
    ``define-fun`` may only mention names sent before it."""

    def __init__(self, ts: TransitionSystem):
        self.ts = ts
        self.types = ts.var_types()
        self._inputs = [n for n, _ in ts.input_vars]
        self._states = [n for n, _ in ts.state_vars]
        # id(e) -> (e, template); holding e keeps its id from being reused
        self._templates: dict[int, tuple[Expr, str]] = {}

    def at(self, name: str, t: int) -> str:
        return sym(f"{name}@{t}")

    def formula(self, e: Expr, t: int) -> str:
        """The SMT-LIB text of e at instant t. Each formula is rendered
        once, into a template that takes the instant."""
        hit = self._templates.get(id(e))
        if hit is None or hit[0] is not e:
            hit = self._templates[id(e)] = (e, _template(e))
        return hit[1].format(t)

    def declare_externs(self, s: SmtSession) -> None:
        for name, params, ret in self.ts.extern_symbols:
            s.declare_fun(name, [_SORT[p] for p in params], _SORT[ret])

    def declare_step(self, s: SmtSession, t: int) -> None:
        """The free symbols of instant t: its inputs, and at instant 0
        the state too."""
        for name in self._inputs + (self._states if t == 0 else []):
            s.declare_const(f"{name}@{t}", _SORT[self.types[name]])

    def assert_init(self, s: SmtSession) -> None:
        s.assert_text(self.at(INIT_FLAG, 0))

    def assert_instant(self, s: SmtSession, t: int) -> None:
        """Definitions and assumptions of instant t."""
        for name, rhs in self.ts.definitions:
            s.define_fun(f"{name}@{t}", _SORT[self.types[name]],
                         self.formula(rhs, t))
        for a in self.ts.assumptions:
            s.assert_text(self.formula(a, t))

    def assert_trans(self, s: SmtSession, t: int) -> None:
        """Step relation from instant t to t+1: the state of t+1."""
        for name, rhs in self.ts.trans:
            s.define_fun(f"{name}@{t + 1}", _SORT[self.types[name]],
                         self.formula(rhs, t))

    # no engine path calls this; perfbench/tracing.py patches it by name
    def assert_distinct_states(self, s: SmtSession, upto: int) -> None:
        names = [n for n, _ in self.ts.state_vars]
        if not names:
            return
        for i in range(upto + 1):
            for j in range(i + 1, upto + 1):
                eqs = " ".join(
                    f"(= {self.at(n, i)} {self.at(n, j)})" for n in names)
                s.assert_text(f"(not (and {eqs}))")

    def input_terms(self, upto: int) -> list[str]:
        """The inputs of instants 0..upto, instant by instant: the terms
        whose model values ``decode_inputs`` reads."""
        return [self.at(n, t) for t in range(upto + 1) for n in self._inputs]

    def decode_inputs(self, values: Sequence[Value]) -> Trace:
        """The trace of the model values of ``input_terms``, each typed as
        its input is declared."""
        width = len(self._inputs)
        return Trace({n: [_VALUE[self.types[n]](v) for v in values[i::width]]
                      for i, n in enumerate(self._inputs)})
