"""Reference interpreter: exact-arithmetic, step-by-step execution.

Values are plain Python bool / int / fractions.Fraction; there is no
floating point anywhere in evaluation. If-then-else and the boolean
connectives evaluate lazily (the untaken branch cannot raise), while
Pre operands are always computed at end of step because they feed the
next instant's state regardless of which branches were taken.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .lang import (Arrow, Binary, BoolLit, Call, Expr, IntLit, Ite,
                   NodeInfo, Pre, RealLit, Type, TypedProgram, Unary, Value,
                   Var)
from .lang.typecheck import instance_names

ExternFn = Callable[..., Value]


class InterpError(Exception):
    def __init__(self, message: str, step: Optional[int] = None):
        self.message = message
        self.step = step
        super().__init__(message if step is None
                         else f"step {step}: {message}")


_DEFAULTS = {Type.BOOL: False, Type.INT: 0, Type.REAL: Fraction(0)}


def _rat_text(v: Fraction) -> str:
    if v.denominator == 1:
        return f"{v.numerator}.0"
    return f"{v.numerator}/{v.denominator}"


def _parse_cell(text: str) -> Value:
    t = text.strip()
    if t == "true":
        return True
    if t == "false":
        return False
    if "/" in t or "." in t:
        try:
            return Fraction(t)
        except ZeroDivisionError:
            raise InterpError(f"csv cell {t!r} divides by zero") from None
    return int(t)


@dataclass
class Trace:
    """Column-oriented signal log; every column has the same length."""

    signals: dict[str, list[Value]] = field(default_factory=dict)
    assertion_ok: Optional[list[bool]] = None
    warnings: list[str] = field(default_factory=list)

    @property
    def length(self) -> int:
        for vals in self.signals.values():
            return len(vals)
        return len(self.assertion_ok) if self.assertion_ok else 0

    def to_csv(self) -> str:
        cols = list(self.signals)
        header = cols + (["assertion_ok"] if self.assertion_ok is not None
                         else [])
        lines = [",".join(header)]
        for i in range(self.length):
            row = [_format_value(self.signals[c][i]) for c in cols]
            if self.assertion_ok is not None:
                row.append("true" if self.assertion_ok[i] else "false")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Trace":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            return cls()
        header = [h.strip() for h in lines[0].split(",")]
        cols: dict[str, list[Value]] = {h: [] for h in header}
        if len(cols) != len(header):
            twice = next(h for h in header if header.count(h) > 1)
            raise InterpError(f"csv header repeats column {twice!r}")
        for ln in lines[1:]:
            cells = ln.split(",")
            if len(cells) != len(header):
                raise InterpError(f"csv row has {len(cells)} cells, "
                                  f"expected {len(header)}")
            for h, cell in zip(header, cells):
                cols[h].append(_parse_cell(cell))
        aok = None
        if "assertion_ok" in cols:
            aok = [bool(v) for v in cols.pop("assertion_ok")]
        return cls(cols, aok)

    def to_json(self) -> str:
        return json.dumps({
            "length": self.length,
            "signals": {name: [_json_value(v) for v in vals]
                        for name, vals in self.signals.items()},
            "assertion_ok": self.assertion_ok,
        })


def _format_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return _rat_text(v)
    return str(v)


def _json_value(v: Value):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


@dataclass
class NodeState:
    """Mutable per-instance memory: Pre storage and Arrow flags."""

    node: str
    pre_vals: list[Optional[Value]]
    arrow_first: list[bool]
    children: dict[int, "NodeState"]
    warned: set[int] = field(default_factory=set)

    def clone(self) -> "NodeState":
        return NodeState(self.node, list(self.pre_vals),
                         list(self.arrow_first),
                         {k: v.clone() for k, v in self.children.items()},
                         set(self.warned))


def init_state(tp: TypedProgram, node: str) -> NodeState:
    info = tp.info(node)
    children = {c.site: init_state(tp, c.callee)
                for c in info.calls if not c.is_extern}
    return NodeState(node, [None] * info.n_pre, [True] * info.n_arrow,
                     children)


class _Eval:
    def __init__(self, tp: TypedProgram, externs: Optional[dict[str, ExternFn]],
                 warnings: list[str]):
        self.tp = tp
        self.externs = externs or {}
        self.warnings = warnings
        self._child_assert_failed = False
        self._inst_names: dict[str, dict[int, str]] = {}

    def inst_names(self, info: NodeInfo) -> dict[int, str]:
        names = self._inst_names.get(info.decl.name)
        if names is None:
            names = instance_names(info)
            self._inst_names[info.decl.name] = names
        return names

    def step_node(self, st: NodeState, inputs: dict[str, Value],
                  path: str, record: Optional[dict[str, Value]]
                  ) -> tuple[dict[str, Value], bool]:
        info = self.tp.info(st.node)
        env: dict[str, Value] = {}
        for vd in info.decl.inputs:
            if vd.name not in inputs:
                raise InterpError(f"missing input {vd.name!r} for node "
                                  f"{st.node!r}")
            env[vd.name] = _check_value(inputs[vd.name], vd.type, vd.name)
        old_pre = list(st.pre_vals)
        call_cache: dict[int, dict[str, Value]] = {}
        ctx = (info, st, env, old_pre, call_cache, path, record)

        for eq in info.schedule:
            if len(eq.targets) > 1:
                outs = self._eval_call(eq.rhs, ctx)
                callee_outs = self.tp.info(eq.rhs.callee).decl.outputs
                for t, o in zip(eq.targets, callee_outs):
                    env[t] = outs[o.name]
            else:
                env[eq.targets[0]] = self._eval(eq.rhs, ctx)
        # every instance steps at every instant, as in tsys.compile, also
        # one under an `if` branch that was not taken
        for call in info.calls:
            if not call.is_extern and call.site not in call_cache:
                self._eval_call(call, ctx)

        assertion_ok = True
        for a in info.decl.assertions:
            if not self._eval(a, ctx):
                assertion_ok = False

        # state update: every Pre site stores its operand's current value
        for site in info.pres:
            st.pre_vals[site.site] = self._eval(site.operand, ctx)
        for i in range(len(st.arrow_first)):
            st.arrow_first[i] = False

        if record is not None:
            prefix = path + "." if path else ""
            for name, val in env.items():
                record[prefix + name] = val

        outputs = {o.name: env[o.name] for o in info.decl.outputs}
        return outputs, assertion_ok

    def _eval_call(self, e: Call, ctx) -> dict[str, Value]:
        info, st, env, old_pre, call_cache, path, record = ctx
        if e.site in call_cache:
            return call_cache[e.site]
        args = [self._eval(a, ctx) for a in e.args]
        child = st.children[e.site]
        callee = self.tp.info(e.callee)
        child_inputs = {vd.name: v
                        for vd, v in zip(callee.decl.inputs, args)}
        inst = self.inst_names(info)[e.site]
        child_path = f"{path}.{inst}" if path else inst
        outs, child_ok = self.step_node(child, child_inputs, child_path,
                                        record)
        # a callee's asserts are its environment assumptions; they are
        # surfaced through the caller's assertion_ok by conjunction
        if not child_ok:
            self._child_assert_failed = True
        call_cache[e.site] = outs
        return outs

    def _eval(self, e: Expr, ctx) -> Value:
        info, st, env, old_pre, call_cache, path, record = ctx
        if isinstance(e, BoolLit):
            return e.value
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, RealLit):
            return e.value
        if isinstance(e, Var):
            return env[e.name]
        if isinstance(e, Unary):
            v = self._eval(e.operand, ctx)
            return (not v) if e.op == "not" else -v
        if isinstance(e, Binary):
            return self._eval_binary(e, ctx)
        if isinstance(e, Ite):
            if self._eval(e.cond, ctx):
                return self._eval(e.then, ctx)
            return self._eval(e.orelse, ctx)
        if isinstance(e, Arrow):
            if st.arrow_first[e.site]:
                return self._eval(e.left, ctx)
            return self._eval(e.right, ctx)
        if isinstance(e, Pre):
            v = old_pre[e.site]
            if v is None:
                if e.site not in st.warned:
                    st.warned.add(e.site)
                    where = f"{path}." if path else ""
                    self.warnings.append(
                        f"unguarded pre in {where}{st.node} site {e.site}: "
                        f"substituted {e.ty} default at step 0")
                return _DEFAULTS[e.operand.ty]
            return v
        if isinstance(e, Call):
            if e.is_extern:
                fn = self.externs.get(e.callee)
                if fn is None:
                    raise InterpError(
                        f"extern {e.callee!r} has no registered "
                        f"implementation; pass one via externs=")
                args = [self._eval(a, ctx) for a in e.args]
                ret_ty = self.tp.externs[e.callee].ret.type
                return _check_value(fn(*args), ret_ty, e.callee)
            outs = self._eval_call(e, ctx)
            (only,) = outs.values()
            return only
        raise InterpError(f"cannot evaluate {type(e).__name__}")

    def _eval_binary(self, e: Binary, ctx) -> Value:
        op = e.op
        if op == "and":
            return bool(self._eval(e.left, ctx)) and \
                bool(self._eval(e.right, ctx))
        if op == "or":
            return bool(self._eval(e.left, ctx)) or \
                bool(self._eval(e.right, ctx))
        if op == "=>":
            return (not self._eval(e.left, ctx)) or \
                bool(self._eval(e.right, ctx))
        a = self._eval(e.left, ctx)
        b = self._eval(e.right, ctx)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                raise InterpError("division by zero")
            return Fraction(a) / Fraction(b)
        if op == "=":
            return a == b
        if op == "<>":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        raise InterpError(f"unknown operator {op!r}")


def _check_value(v, ty: Type, name: str) -> Value:
    if ty is Type.BOOL:
        if isinstance(v, bool):
            return v
    elif ty is Type.INT:
        if isinstance(v, int) and not isinstance(v, bool):
            return v
    elif ty is Type.REAL:
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int) and not isinstance(v, bool):
            return Fraction(v)
    raise InterpError(f"{name!r} expects {ty}, got {type(v).__name__}")


def step(tp: TypedProgram, node: str, state: NodeState,
         inputs: dict[str, Value], *,
         externs: Optional[dict[str, ExternFn]] = None
         ) -> tuple[NodeState, dict[str, Value], bool]:
    """One instant. The incoming state is not mutated."""
    if state.node != node:
        raise InterpError(f"state belongs to {state.node!r}, not {node!r}")
    warnings: list[str] = []
    ev = _Eval(tp, externs, warnings)
    new_state = state.clone()
    outputs, ok = ev.step_node(new_state, inputs, "", None)
    if ev._child_assert_failed:
        ok = False
    return new_state, outputs, ok


def signal_names(tp: TypedProgram, node: str) -> set[str]:
    """Every signal simulate logs for the node, assertion_ok aside: its
    inputs, outputs and locals, and with deep=True those of each called
    instance under its dotted path."""
    info = tp.info(node)
    names = {vd.name for vd in info.decl.declared()}
    for site, inst in instance_names(info).items():
        names |= {f"{inst}.{name}"
                  for name in signal_names(tp, info.calls[site].callee)}
    return names


def check_trace(tp: TypedProgram, node: str, trace: Trace, n: int) -> None:
    """Raise InterpError unless the trace holds at least n values of each
    input of the node, each of the input's type."""
    for vd in tp.info(node).decl.inputs:
        if vd.name not in trace.signals:
            raise InterpError(f"input trace lacks {vd.name!r}")
        col = trace.signals[vd.name]
        if len(col) < n:
            raise InterpError(f"input trace too short for {vd.name!r}: "
                              f"{len(col)} < {n}")
        for t in range(n):
            try:
                _check_value(col[t], vd.type, vd.name)
            except InterpError as err:
                raise InterpError(err.message, step=t) from None


def simulate(tp: TypedProgram, node: str, input_trace: Trace, n: int, *,
             externs: Optional[dict[str, ExternFn]] = None,
             deep: bool = False) -> Trace:
    """Run n steps, logging every signal of the node plus assertion_ok.

    With deep=True, signals of called instances are logged too, under
    dotted instance paths matching the symbolic compiler's namespacing.
    """
    check_trace(tp, node, input_trace, n)
    info = tp.info(node)
    warnings: list[str] = []
    ev = _Eval(tp, externs, warnings)
    st = init_state(tp, node)
    columns: dict[str, list[Value]] = {}
    aok: list[bool] = []
    for t in range(n):
        inputs = {vd.name: input_trace.signals[vd.name][t]
                  for vd in info.decl.inputs}
        record: dict[str, Value] = {}
        ev._child_assert_failed = False
        try:
            _, ok = ev.step_node(st, inputs, "", record)
        except InterpError as err:
            raise InterpError(err.message, step=t) from None
        if ev._child_assert_failed:
            ok = False
        if not deep:
            record = {k: v for k, v in record.items() if "." not in k}
        for name, val in record.items():
            columns.setdefault(name, []).append(val)
        aok.append(ok)
    # stable column order: inputs, outputs, locals, then child paths;
    # declared names keep their column even over zero steps
    ordered: dict[str, list[Value]] = {}
    for vd in info.decl.declared():
        ordered[vd.name] = columns.pop(vd.name, [])
    for name in sorted(columns):
        ordered[name] = columns[name]
    return Trace(ordered, aok, warnings)

