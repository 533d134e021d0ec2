"""Transition systems compiled to plain Python step functions.

The symbolic side of the engine talks to a solver; everything else
(exhaustive search, invariant mining, soundness cross-checks) wants to
run a system fast and exactly. Compiling the definitions into one
generated function gets within small factors of hand-written code while
keeping bool/int/Fraction semantics identical to the interpreter. The
step computes the definitions in list order, which is schedule order:
the typechecker's causal order, the one the interpreter runs.

Each flow gets one fixed machine type, as in the clock-directed
compilation of Lustre (Biernacki, Colaco, Hamon & Pouzet, LCTES 2008).
A denominator analysis finds, for each Real signal, a scale D such that
value*D is always an integer; such a signal is stored as that plain
int. D starts from the constants and from the scales the caller gives
for Real inputs, and propagates through +, -, multiplication by a
constant, unary minus and if-then-else; sums and comparisons of signals
with different scales multiply by compile-time integer factors. State
variables are iterated to a fixpoint over the transition relation. A
signal stays on Fraction when it depends on a function call (an extern
or nonlinear residue), on an input without a scale, or on a feedback
loop whose D keeps growing (x = 0.5 * pre x doubles it every lap).

``step`` reads and returns the compiled representation: a scaled input
is passed as the int value*D, and scaled state and definitions come back
as ints. ``CompiledSystem.decode`` turns state and definitions back into
public values, where every Real value is a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, NamedTuple, Optional

from ..lang import (Binary, BoolLit, Call, Expr, IntLit, Ite, LangError,
                    RealLit, Type, Unary, Var)
from ..tsys import INIT_FLAG, TransitionSystem

_TYPE_DEFAULT = {Type.BOOL: False, Type.INT: 0, Type.REAL: Fraction(0)}

# concrete meanings of the symbols the compiler introduces for
# nonlinear residue; used whenever a system is actually executed
NONLINEAR_EVAL: dict[str, Callable] = {
    "_nlmul_int": lambda a, b: a * b,
    "_nlmul_real": lambda a, b: a * b,
    "_nldiv_real": lambda a, b: a / b,
}

# how often a state variable's scale may grow before the analysis gives
# the variable up to Fraction; a chain of delays grows each scale once
_MAX_GROWTH = 4

_COMPARE = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">",
            ">=": ">="}


@dataclass
class CompiledSystem:
    ts: TransitionSystem
    input_names: list[str]
    state_names: list[str]
    defined_names: list[str]
    prop_ids: list[str]
    default_state: tuple
    # step(S, I) -> (S', assumptions_ok, props, defs), all compiled values
    step: Callable[[tuple, tuple], tuple]
    init_ok: Callable[[tuple], bool]
    # Real signals held as the int value*D, by name; the rest are plain
    scales: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self._state_scales = [self.scales.get(n) for n in self.state_names]
        self._def_scales = [self.scales.get(n) for n in self.defined_names]

    def decode(self, state: tuple, defs: tuple) -> tuple[tuple, tuple]:
        """The public values of a state tuple and a definitions tuple
        from ``step``: every scaled Real back to its exact Fraction."""
        return (_decode(state, self._state_scales),
                _decode(defs, self._def_scales))

    def bool_inputs_only(self) -> bool:
        return all(ty is Type.BOOL for _, ty in self.ts.input_vars)

    def bool_state_only(self) -> bool:
        return all(ty is Type.BOOL for _, ty in self.ts.state_vars)


def _decode(values: tuple, scales: list[Optional[int]]) -> tuple:
    if not any(scales):
        return values
    return tuple(v if d is None else Fraction(v, d)
                 for v, d in zip(values, scales))


def _int(v: int) -> str:
    return f"({v})" if v < 0 else str(v)


class _Code(NamedTuple):
    text: str
    # Real expressions: the scale D of the int the text computes, or None
    # when it computes a Fraction; other types: None
    scale: Optional[int]
    # the value of a Real literal
    lit: Optional[Fraction] = None


def _literal(v: Fraction) -> _Code:
    return _Code(_int(v.numerator), v.denominator, v)


class _Emitter:
    def __init__(self, slot: dict[str, str], types: dict[str, Type],
                 scales: dict[str, Optional[int]]):
        self.slot = slot
        self.types = types
        self.scales = scales
        self.consts: list[Fraction] = []

    def const(self, v: Fraction) -> str:
        self.consts.append(v)
        return f"C[{len(self.consts) - 1}]"

    def real(self, e: Expr) -> bool:
        if isinstance(e, Var):
            return self.types.get(e.name) is Type.REAL
        return e.ty is Type.REAL

    def rescale(self, c: _Code, d: int) -> str:
        """Text of a scaled Real at the scale d, a multiple of its own."""
        if c.lit is not None:
            return _int(c.lit.numerator * (d // c.lit.denominator))
        k = d // c.scale
        return c.text if k == 1 else f"({c.text} * {k})"

    def fraction(self, c: _Code, value: bool = False) -> str:
        """Text of a Real as an operand of Fraction arithmetic. A value
        (a branch, an argument, a stored signal) is always a Fraction;
        an operand next to a Fraction may be an int."""
        if c.scale is None:
            return c.text
        if c.lit is not None:
            if c.lit.denominator == 1 and not value:
                return c.text
            return self.const(c.lit)
        if c.scale == 1 and not value:
            return c.text
        return f"Fraction({c.text}, {c.scale})"

    def emit(self, e: Expr) -> _Code:
        if isinstance(e, BoolLit):
            return _Code("True" if e.value else "False", None)
        if isinstance(e, (IntLit, RealLit)):
            if e.ty is Type.REAL or isinstance(e, RealLit):
                return _literal(Fraction(e.value))
            return _Code(_int(e.value), None)
        if isinstance(e, Var):
            try:
                return _Code(self.slot[e.name], self.scales.get(e.name))
            except KeyError:
                raise LangError("compile", f"unbound variable {e.name}")
        if isinstance(e, Unary):
            c = self.emit(e.operand)
            if e.op == "not":
                return _Code(f"(not {c.text})", None)
            if c.lit is not None:
                return _literal(-c.lit)
            return _Code(f"(-{c.text})", c.scale)
        if isinstance(e, Binary):
            return self.binary(e)
        if isinstance(e, Ite):
            cond = self.emit(e.cond).text
            t, f = self.emit(e.then), self.emit(e.orelse)
            if not self.real(e):
                return _Code(f"({t.text} if {cond} else {f.text})", None)
            if t.scale is not None and f.scale is not None:
                d = lcm(t.scale, f.scale)
                return _Code(f"({self.rescale(t, d)} if {cond} else "
                             f"{self.rescale(f, d)})", d)
            return _Code(f"({self.fraction(t, True)} if {cond} else "
                         f"{self.fraction(f, True)})", None)
        if isinstance(e, Call):
            args = ", ".join(
                self.fraction(c, True) if self.real(a) else c.text
                for a, c in ((a, self.emit(a)) for a in e.args))
            return _Code(f"E[{e.callee!r}]({args})", None)
        raise LangError("compile", f"cannot compile {type(e).__name__}")

    def binary(self, e: Binary) -> _Code:
        op = e.op
        a, b = self.emit(e.left), self.emit(e.right)
        if op == "=>":
            return _Code(f"((not {a.text}) or {b.text})", None)
        if op in ("and", "or"):
            return _Code(f"({a.text} {op} {b.text})", None)
        if op in _COMPARE:
            cmp = _COMPARE[op]
            if not (self.real(e.left) or self.real(e.right)):
                return _Code(f"({a.text} {cmp} {b.text})", None)
            if a.scale is not None and b.scale is not None:
                d = lcm(a.scale, b.scale)
                return _Code(f"({self.rescale(a, d)} {cmp} "
                             f"{self.rescale(b, d)})", None)
            return _Code(f"({self.fraction(a)} {cmp} {self.fraction(b)})",
                         None)
        if not self.real(e):
            return _Code(f"({a.text} {op} {b.text})", None)
        if op in ("+", "-"):
            if a.scale is not None and b.scale is not None:
                d = lcm(a.scale, b.scale)
                return _Code(f"({self.rescale(a, d)} {op} "
                             f"{self.rescale(b, d)})", d)
            return _Code(f"({self.fraction(a)} {op} {self.fraction(b)})",
                         None)
        if op == "/" and b.lit:
            return self.times(a, 1 / b.lit)
        if op == "*" and b.lit is not None:
            return self.times(a, b.lit)
        if op == "*" and a.lit is not None:
            return self.times(b, a.lit)
        # a product or quotient of two signals: exact, on Fraction
        return _Code(f"({self.fraction(a, True)} {op} "
                     f"{self.fraction(b, True)})", None)

    def times(self, x: _Code, c: Fraction) -> _Code:
        """x * c for a constant c: a scaled x at scale D gives the int
        X * (num/g) at scale D*den/g, with g = gcd(num, D*den)."""
        if x.lit is not None:
            return _literal(x.lit * c)
        if c == 1:
            return x
        if x.scale is None:
            return _Code(f"({x.text} * {self.fraction(_literal(c))})", None)
        n = x.scale * c.denominator
        g = gcd(c.numerator, n)
        k = c.numerator // g
        if k == 0:
            return _literal(Fraction(0))
        text = x.text if k == 1 else f"({x.text} * {_int(k)})"
        return _Code(text, n // g)


def _analyse_scales(ts: TransitionSystem, slot: dict[str, str],
                    types: dict[str, Type], input_scales: dict[str, int]
                    ) -> dict[str, Optional[int]]:
    """Scale of every Real signal (None: Fraction). State variables start
    at 1 (their default, 0, is an integer at any scale) and take the
    scale of their next-state expression until nothing changes; every
    rule is monotone, so each change is a growth to a multiple."""
    scales: dict[str, Optional[int]] = {
        n: input_scales.get(n) for n, ty in ts.input_vars
        if ty is Type.REAL}
    real_state = [n for n, ty in ts.state_vars if ty is Type.REAL]
    scales.update(dict.fromkeys(real_state, 1))
    trans = dict(ts.trans)
    growth = dict.fromkeys(real_state, 0)
    while True:
        em = _Emitter(slot, types, scales)
        for name, rhs in ts.definitions:
            code = em.emit(rhs)
            if types[name] is Type.REAL:
                scales[name] = code.scale
        grew = False
        for n in real_state:
            old = scales[n]
            if old is None:
                continue
            new = em.emit(trans[n]).scale
            if new == old:
                continue
            growth[n] += 1
            scales[n] = new if growth[n] < _MAX_GROWTH else None
            grew = True
        if not grew:
            return scales


def compile_system(ts: TransitionSystem,
                   externs: Optional[dict[str, Callable]] = None,
                   input_scales: Optional[dict[str, int]] = None
                   ) -> CompiledSystem:
    """Build the executable form of ts. Extern symbols need concrete
    callables; the nonlinear-residue symbols get theirs automatically.
    input_scales gives, for Real inputs whose values are all multiples of
    1/D, that D; step then takes those inputs as the int value*D."""
    table = dict(NONLINEAR_EVAL)
    table.update(externs or {})
    for name, _, _ in ts.extern_symbols:
        if name not in table:
            raise LangError(
                "compile", f"no concrete semantics for extern {name}")

    input_names = [n for n, _ in ts.input_vars]
    state_names = [n for n, _ in ts.state_vars]
    defined_names = [n for n, _ in ts.defined_vars]
    types = ts.var_types()
    input_scales = input_scales or {}
    for n, d in input_scales.items():
        if n not in input_names or types[n] is not Type.REAL:
            raise LangError("compile", f"{n} is not a real input")
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise LangError("compile",
                            f"scale of {n} is not a positive integer")
    slot: dict[str, str] = {}
    for i, n in enumerate(state_names):
        slot[n] = f"s{i}"
    for i, n in enumerate(input_names):
        slot[n] = f"i{i}"
    for i, n in enumerate(defined_names):
        slot[n] = f"d{i}"

    scales = _analyse_scales(ts, slot, types, input_scales)
    em = _Emitter(slot, types, scales)
    unpack = []
    if state_names:
        unpack.append(f"    {', '.join(slot[n] for n in state_names)}, = S")
    lines = ["def _make(C, E, Fraction):", "  def _step(S, I):"]
    lines += ["  " + u for u in unpack]
    if input_names:
        lines.append(f"      {', '.join(slot[n] for n in input_names)}, = I")
    for name, rhs in ts.definitions:
        lines.append(f"      {slot[name]} = {em.emit(rhs).text}")
    asm = " and ".join(f"({em.emit(a).text})" for a in ts.assumptions) \
        or "True"
    lines.append(f"      asm = {asm}")
    props = ", ".join(em.emit(f).text for _, f in ts.properties)
    lines.append(f"      props = ({props}{',' if props else ''})")
    nxt = {}
    for name, rhs in ts.trans:
        c = em.emit(rhs)
        if types[name] is not Type.REAL:
            nxt[name] = c.text
        elif scales[name] is None:
            nxt[name] = em.fraction(c, True)
        else:
            nxt[name] = em.rescale(c, scales[name])
    nexts = ", ".join(nxt[n] for n in state_names)
    lines.append(f"      nxt = ({nexts}{',' if nexts else ''})")
    defs = ", ".join(slot[n] for n in defined_names)
    lines.append(
        f"      return nxt, asm, props, ({defs}{',' if defs else ''})")

    init_em = _Emitter({n: slot[n] for n in state_names}, types, scales)
    init_em.consts = em.consts
    init_body = " and ".join(f"({init_em.emit(f).text})" for f in ts.init) \
        or "True"
    lines.append("  def _init_ok(S):")
    lines += ["  " + u for u in unpack]
    lines.append(f"      return {init_body}")
    lines.append("  return _step, _init_ok")

    ns: dict = {}
    exec("\n".join(lines), ns)
    step, init_ok = ns["_make"](tuple(em.consts), table, Fraction)

    kept = {n: d for n, d in scales.items() if d is not None}
    default = tuple(
        True if n == INIT_FLAG
        else 0 if n in kept else _TYPE_DEFAULT[ty]
        for n, ty in ts.state_vars)
    return CompiledSystem(
        ts=ts, input_names=input_names, state_names=state_names,
        defined_names=defined_names,
        prop_ids=[pid for pid, _ in ts.properties],
        default_state=default, step=step, init_ok=init_ok, scales=kept)
