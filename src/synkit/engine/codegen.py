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
variables are iterated to a fixpoint over the transition relation.

A feedback loop can multiply its own scale every lap: x = 0.5 * pre x
doubles it. The analysis reads that factor from the loop structure (how
a state variable's scale flows back into its own next-state scale), not
from the iteration. When the factor is a power of two, the loop's
signals are stored as an int mantissa m with a runtime exponent e,
meaning m / (D * 2**e) for a compile-time D: one step shifts every such
state to a shared exponent, sums and comparisons with fixed-scale
values shift those left by it, multiplying by the loop constant raises
the compile-time part, and each state is stored with the common factors
of 2 of m and 2**e stripped. A signal stays on Fraction only when it
depends on a call (an extern or nonlinear residue), on an input without
a scale, or on a loop whose factor has an odd part (x = 0.1 * pre x).
The system comes from tsys with its literals folded, each division by a
constant turned into a product, and each product or quotient of two
signals lowered to a call, so no other Real operation needs Fraction.

``step`` reads and returns the compiled representation: a scaled input
is passed as the int value*D, and scaled state and definitions come
back as ints. A growing state comes back as its pair (m, e), a growing
definition as its mantissa, with the step's exponent after the last
definition. ``CompiledSystem.decode`` turns state and definitions back
into public values, where every Real value is a Fraction. The initial
condition is the `_init` flag of `tsys`, so nothing is compiled for it:
``default_state`` sets the flag, and ``exhaustive_search`` starts from
the states where it is set.

Given the pools its inputs are drawn from, the system also gets a
``campaign``: the same step body, emitted inside one generated loop, as
a Lustre compiler emits a node's step inside its main loop. Each
instant draws every input from its pool by the rule ``Random.choice``
uses (emitted by ``_campaign``), runs the definitions that a property,
an assumption or the next state reads (``tsys.cone``), checks the
assumptions and each property in place, and stores the next state into
the locals the body reads, so no tuple is built between instants.
``benchlib.driver_harness`` runs its random drivers this way.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, NamedTuple, Optional, Sequence

from ..lang import (Binary, BoolLit, Call, Expr, IntLit, Ite, LangError,
                    RealLit, Type, Unary, Var, walk)
from ..tsys import INIT_FLAG, TransitionSystem, cone

_TYPE_DEFAULT = {Type.BOOL: False, Type.INT: 0, Type.REAL: Fraction(0)}

# concrete meanings of the symbols the compiler introduces for
# nonlinear residue; used whenever a system is actually executed
NONLINEAR_EVAL: dict[str, Callable] = {
    "_nlmul_int": lambda a, b: a * b,
    "_nlmul_real": lambda a, b: a * b,
    "_nldiv_real": lambda a, b: a / b,
}

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
    # step(S, I) -> (S', assumptions_ok, props, defs), all compiled values;
    # when a signal grows, defs ends with the step's exponent e
    step: Callable[[tuple, tuple], tuple]
    # Real signals held as the int value*D, by name; the rest are plain
    scales: dict[str, int] = field(default_factory=dict)
    # Real signals held as an int m meaning m / (D * 2**e), by name: a
    # state as the pair (m, e), a definition with the step's e
    growing: dict[str, int] = field(default_factory=dict)
    # campaign(steps, bits) -> (violations, breach, S'): steps instants
    # from the default state, each input drawn from its pool by bits;
    # violations are (step, property id) pairs, breach is the step whose
    # assumptions failed, which ends the run, or None; see compile_system
    campaign: Optional[Callable[[int, Callable[[int], int]], tuple]] = None

    def __post_init__(self):
        self._state_scales = [self._scale(n) for n in self.state_names]
        self._def_scales = [self._scale(n) for n in self.defined_names]

    def _scale(self, name: str) -> Optional[tuple[int, bool]]:
        if name in self.growing:
            return self.growing[name], True
        if name in self.scales:
            return self.scales[name], False
        return None

    def decode(self, state: tuple, defs: tuple) -> tuple[tuple, tuple]:
        """The public values of a state tuple and a definitions tuple
        from ``step``: every scaled Real back to its exact Fraction."""
        if self.growing:
            return (_decode(state, self._state_scales),
                    _decode(defs[:-1], self._def_scales, defs[-1]))
        return (_decode(state, self._state_scales),
                _decode(defs, self._def_scales))


def _decode(values: tuple, scales: list[Optional[tuple[int, bool]]],
            e: Optional[int] = None) -> tuple:
    """Public values of compiled ones; a growing value is the pair
    (m, e), or the mantissa m when the shared exponent e is given."""
    if not any(scales):
        return values
    out = []
    for v, s in zip(values, scales):
        if s is not None:
            d, grows = s
            if not grows:
                v = Fraction(v, d)
            else:
                m, exp = v if e is None else (v, e)
                v = Fraction(m, d << exp)
        out.append(v)
    return tuple(out)


_LOW_BITS = (1 << 60) - 1


def _norm(m: int, e: int) -> tuple[int, int]:
    """(m, e) with the common factors of 2 of m and 2**e stripped."""
    # m's lowest set bit is in its low 60 bits unless they are all 0;
    # reading it there builds no int as large as m, as m & -m does
    low = (m & _LOW_BITS) or m
    if not low:
        return 0, 0
    t = min((low & -low).bit_length() - 1, e)
    return m >> t, e - t


def _odd(d: int) -> int:
    return d // (d & -d)


def _times_scale(d: int, c: Fraction) -> tuple[int, int]:
    """(scale, factor): x * c, for x the int X at scale d, is the int
    X * factor at that scale."""
    n = d * c.denominator
    g = gcd(c.numerator, n)
    return n // g, c.numerator // g


def _int(v: int) -> str:
    return f"({v})" if v < 0 else str(v)


class _Code(NamedTuple):
    text: str
    # Real expressions: the scale D of the int the text computes, or None
    # when it computes a Fraction; other types: None
    scale: Optional[int]
    # the value of a Real literal
    lit: Optional[Fraction] = None
    # the int is a mantissa at the step's exponent e: the value is
    # int / (scale * 2**e)
    grow: bool = False


def _literal(v: Fraction) -> _Code:
    return _Code(_int(v.numerator), v.denominator, v)


class _Emitter:
    def __init__(self, slot: dict[str, str], types: dict[str, Type],
                 scales: dict[str, Optional[int]], grows: set[str]):
        self.slot = slot
        self.types = types
        self.scales = scales
        self.grows = grows
        self.consts: list[Fraction] = []

    def const(self, v: Fraction) -> str:
        self.consts.append(v)
        return f"C[{len(self.consts) - 1}]"

    def real(self, e: Expr) -> bool:
        if isinstance(e, Var):
            return self.types.get(e.name) is Type.REAL
        return e.ty is Type.REAL

    def rescale(self, c: _Code, d: int, grow: bool = False) -> str:
        """Text of a scaled Real at the scale d, a multiple of its own;
        with grow, as a mantissa at the step's exponent."""
        if c.lit is not None:
            n = c.lit.numerator * (d // c.lit.denominator)
            return f"({_int(n)} << e)" if grow and n else _int(n)
        k = d // c.scale
        text = c.text if k == 1 else f"({c.text} * {k})"
        return f"({text} << e)" if grow and not c.grow else text

    def joined(self, a: _Code, b: _Code) -> tuple[int, bool, str, str]:
        """The common scale of two scaled Reals, whether it grows, and
        the text of each at it."""
        d, grow = lcm(a.scale, b.scale), a.grow or b.grow
        return d, grow, self.rescale(a, d, grow), self.rescale(b, d, grow)

    def fraction(self, c: _Code, value: bool = False) -> str:
        """Text of a Real as an operand of Fraction arithmetic. A value
        (a branch, an argument, a stored signal) is always a Fraction;
        an operand next to a Fraction may be an int."""
        if c.scale is None:
            return c.text
        if c.grow:
            return f"Fraction({c.text}, {c.scale} << e)"
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
                return _Code(self.slot[e.name], self.scales.get(e.name),
                             grow=e.name in self.grows)
            except KeyError:
                raise LangError("compile", f"unbound variable {e.name}")
        if isinstance(e, Unary):
            c = self.emit(e.operand)
            if e.op == "not":
                return _Code(f"(not {c.text})", None)
            return _Code(f"(-{c.text})", c.scale, grow=c.grow)
        if isinstance(e, Binary):
            return self.binary(e)
        if isinstance(e, Ite):
            cond = self.emit(e.cond).text
            t, f = self.emit(e.then), self.emit(e.orelse)
            if not self.real(e):
                return _Code(f"({t.text} if {cond} else {f.text})", None)
            if t.scale is not None and f.scale is not None:
                d, grow, tt, ft = self.joined(t, f)
                return _Code(f"({tt} if {cond} else {ft})", d, grow=grow)
            return _Code(f"({self.fraction(t, True)} if {cond} else "
                         f"{self.fraction(f, True)})", None)
        if isinstance(e, Call):
            args = ", ".join(
                self.fraction(c, True) if self.real(a) else c.text
                for a, c in ((a, self.emit(a)) for a in e.args))
            return _Code(f"E[{e.callee!r}]({args})", None)
        raise LangError("compile", f"cannot compile {type(e).__name__}")

    def constant_factor(self, e: Binary, a: _Code, b: _Code
                        ) -> Optional[tuple[Expr, _Code, Fraction]]:
        """For a Real product with a literal side: the other side, its
        code, and the literal it is multiplied by."""
        if e.op == "*" and b.lit is not None:
            return e.left, a, b.lit
        if e.op == "*" and a.lit is not None:
            return e.right, b, a.lit
        return None

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
                _, _, at, bt = self.joined(a, b)
                return _Code(f"({at} {cmp} {bt})", None)
            return _Code(f"({self.fraction(a)} {cmp} {self.fraction(b)})",
                         None)
        if not self.real(e):
            return _Code(f"({a.text} {op} {b.text})", None)
        if op in ("+", "-"):
            if a.scale is not None and b.scale is not None:
                d, grow, at, bt = self.joined(a, b)
                return _Code(f"({at} {op} {bt})", d, grow=grow)
            return _Code(f"({self.fraction(a)} {op} {self.fraction(b)})",
                         None)
        factor = self.constant_factor(e, a, b)
        if factor is None:
            # tsys lowers these to _nlmul_real/_nldiv_real calls
            raise LangError("compile", f"unlowered real {op!r}", e.pos)
        return self.times(factor[1], factor[2])

    def times(self, x: _Code, c: Fraction) -> _Code:
        """x * c for a constant c: a scaled x at scale D gives the int
        X * (num/g) at scale D*den/g, with g = gcd(num, D*den)."""
        if c == 1:
            return x
        if x.scale is None:
            return _Code(f"({x.text} * {self.fraction(_literal(c))})", None)
        d, k = _times_scale(x.scale, c)
        if k == 0:
            return _literal(Fraction(0))
        text = x.text if k == 1 else f"({x.text} * {_int(k)})"
        return _Code(text, d, grow=x.grow)


def _join(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    out = dict(a)
    for n, g in b.items():
        out[n] = lcm(out[n], g) if n in out else g
    return out


def _loop_gains(ts: TransitionSystem, em: _Emitter,
                real_state: list[str]) -> dict[str, int]:
    """For each Real state variable whose next-state scale depends on
    its own, the factor by which one lap of its loop can multiply its
    scale. A scale flows through +, -, unary minus, the branches of an
    if-then-else and multiplication by a constant num/den, which takes a
    factor g to g*den/gcd(num, g*den), an upper bound whatever the scale
    it multiplies; a call (an extern or nonlinear residue) is a Fraction
    and carries none."""
    flows: dict[str, dict[str, int]] = {n: {n: 1} for n in real_state}

    def flow(e: Expr) -> dict[str, int]:
        if isinstance(e, Var):
            return flows.get(e.name, {})
        if not em.real(e):
            return {}
        if isinstance(e, Unary):
            return flow(e.operand)
        if isinstance(e, Ite):
            return _join(flow(e.then), flow(e.orelse))
        if isinstance(e, Binary):
            if e.op in ("+", "-"):
                return _join(flow(e.left), flow(e.right))
            factor = em.constant_factor(e, em.emit(e.left),
                                        em.emit(e.right))
            if factor is not None and factor[2]:
                return {n: _times_scale(g, factor[2])[0]
                        for n, g in flow(factor[0]).items()}
        return {}

    for name, rhs in ts.definitions:
        if em.types[name] is Type.REAL:
            flows[name] = flow(rhs)
    trans = dict(ts.trans)
    feeds = {n: flow(trans[n]) for n in real_state}

    def reach(n: str) -> set[str]:
        seen: set[str] = set()
        todo = [n]
        while todo:
            for m in feeds[todo.pop()]:
                if m not in seen:
                    seen.add(m)
                    todo.append(m)
        return seen

    reaches = {n: reach(n) for n in real_state}
    # a feed from m is on n's loop when n's scale reaches m's in turn
    return {n: lcm(*(g for m, g in feeds[n].items() if n in reaches[m]))
            for n in real_state if n in reaches[n]}


def _analyse_scales(ts: TransitionSystem, slot: dict[str, str],
                    types: dict[str, Type], input_scales: dict[str, int]
                    ) -> tuple[dict[str, Optional[int]], set[str]]:
    """Scale of every Real signal (None: Fraction), and the signals that
    grow. A state variable whose loop multiplies its scale by a power of
    two grows from the start; by any other factor, it is a Fraction.
    State variables start at 1 (their default, 0, is an integer at any
    scale) and take the scale of their next-state expression until
    nothing changes; a growing one keeps only its odd part, the powers
    of two going to its exponent. Every rule is monotone, and the loop
    factors bound what a lap adds, so each change is a growth to a
    multiple of a bounded scale or a step from fixed to growing to
    Fraction."""
    scales: dict[str, Optional[int]] = {
        n: input_scales.get(n) for n, ty in ts.input_vars
        if ty is Type.REAL}
    real_state = [n for n, ty in ts.state_vars if ty is Type.REAL]
    scales.update(dict.fromkeys(real_state, 1))
    grows: set[str] = set()
    for n, g in _loop_gains(ts, _Emitter(slot, types, scales, grows),
                            real_state).items():
        if _odd(g) > 1:
            scales[n] = None
        elif g > 1:
            grows.add(n)
    trans = dict(ts.trans)
    real_defs = [(n, rhs) for n, rhs in ts.definitions
                 if types[n] is Type.REAL]
    while True:
        em = _Emitter(slot, types, scales, grows)
        for name, rhs in real_defs:
            code = em.emit(rhs)
            scales[name] = code.scale
            (grows.add if code.grow else grows.discard)(name)
        changed = False
        for n in real_state:
            old = scales[n]
            if old is None:
                continue
            c = em.emit(trans[n])
            if c.scale is None:
                new, grow = None, False
            elif c.grow or n in grows:
                new, grow = _odd(lcm(old, c.scale)), True
            else:
                new, grow = lcm(old, c.scale), False
            if (new, grow) != (old, n in grows):
                scales[n] = new
                (grows.add if grow else grows.discard)(n)
                changed = True
        if not changed:
            return scales, grows


def _tuple(items: list[str]) -> str:
    return f"({', '.join(items)}{',' if items else ''})"


def _indent(code: list[str], spaces: int) -> list[str]:
    return [" " * spaces + c for c in code]


# a call in generated text: a name or a subscript right before "("
_CALL = re.compile(r"[\w\]]\(")


def compile_system(ts: TransitionSystem,
                   externs: Optional[dict[str, Callable]] = None,
                   input_scales: Optional[dict[str, int]] = None,
                   pools: Optional[Sequence[tuple[str, Sequence]]] = None,
                   links: Sequence[tuple[str, str]] = ()
                   ) -> CompiledSystem:
    """Build the executable form of ts. Extern symbols need concrete
    callables; the nonlinear-residue symbols get theirs automatically.
    input_scales gives, for Real inputs whose values are all multiples of
    1/D, that D; step then takes those inputs as the int value*D.

    pools, when given, also builds ``campaign``: (input, pool) pairs in
    the order the inputs are drawn, each pool holding the compiled
    values its input is drawn from, and links pairs every other input
    with the drawn input whose value it copies at the same instant."""
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
    if pools is not None:
        drawn = [n for n, _ in pools]
        if sorted(drawn + [n for n, _ in links]) != sorted(input_names) \
                or not {src for _, src in links} <= set(drawn) \
                or not all(pool for _, pool in pools):
            raise LangError("compile", "pools and links must give each "
                            "input once, each pool non-empty and each "
                            "link a drawn source")
    slot: dict[str, str] = {}
    for i, n in enumerate(state_names):
        slot[n] = f"s{i}"
    for i, n in enumerate(input_names):
        slot[n] = f"i{i}"
    for i, n in enumerate(defined_names):
        slot[n] = f"d{i}"

    scales, grows = _analyse_scales(ts, slot, types, input_scales)
    em = _Emitter(slot, types, scales, grows)
    # a growing state is the pair (m, e_i); each step shifts every one to
    # the largest exponent, e
    state = [f"({slot[n]}, e{i})" if n in grows else slot[n]
             for i, n in enumerate(state_names)]
    growing_state = [i for i, n in enumerate(state_names) if n in grows]
    align = []
    if len(growing_state) == 1:
        align.append(f"e = e{growing_state[0]}")
    elif growing_state:
        align.append(f"e = max({', '.join(f'e{i}' for i in growing_state)})")
        align += [f"if e{i} < e: s{i} <<= e - e{i}" for i in growing_state]
    body = [f"{slot[name]} = {em.emit(rhs).text}"
            for name, rhs in ts.definitions]
    asm = " and ".join(f"({em.emit(a).text})" for a in ts.assumptions)
    props = [em.emit(f).text for _, f in ts.properties]
    nxt = {}
    for name, rhs in ts.trans:
        c = em.emit(rhs)
        if types[name] is not Type.REAL:
            nxt[name] = c.text
        elif scales[name] is None:
            nxt[name] = em.fraction(c, True)
        elif name in grows:
            # stored at the odd scale of the state: the powers of two of
            # the value's scale join the exponent
            twos = c.scale // _odd(c.scale)
            exp = "e" if twos == 1 else f"e + {twos.bit_length() - 1}"
            text = em.rescale(c, scales[name] * twos, True)
            nxt[name] = f"_norm({text}, {exp})"
        else:
            nxt[name] = em.rescale(c, scales[name])
    # a next-state text with a call that several states share is
    # computed once, into a local n<j>
    repeated = Counter(nxt.values())
    shared: dict[str, str] = {}
    for text in nxt.values():
        if repeated[text] > 1 and _CALL.search(text) and text not in shared:
            shared[text] = f"n{len(shared)}"
    value = {n: shared.get(text, text) for n, text in nxt.items()}
    defs = [slot[n] for n in defined_names] + (["e"] if grows else [])
    lines = ["def _make(C, E, Fraction, _norm, P, S0):", "  def _step(S, I):"]
    lines += _indent(([f"{', '.join(state)}, = S"] if state else [])
                     + align, 6)
    if input_names:
        lines.append(f"      {', '.join(slot[n] for n in input_names)}, = I")
    lines += _indent(body, 6)
    lines.append(f"      asm = {asm or 'True'}")
    lines.append(f"      props = {_tuple(props)}")
    lines += _indent([f"{local} = {text}"
                      for text, local in shared.items()], 6)
    nexts = _tuple([value[n] for n in state_names])
    lines.append(f"      return {nexts}, asm, props, {_tuple(defs)}")

    if pools is None:
        lines.append("  return _step, None")
    else:
        # the campaign returns no definitions, so it computes only those
        # that a property, an assumption or a next-state value reads
        live = {n for n, _ in cone(ts, [*(f for _, f in ts.properties),
                                        *(rhs for _, rhs in ts.trans)]
                                   ).definitions}
        used = [line for (n, _), line in zip(ts.definitions, body)
                if n in live]
        lines += _campaign(ts, slot, pools, links, state, align, used, asm,
                           props, shared, value)
        lines.append("  return _step, _run")

    kept = {n: d for n, d in scales.items()
            if d is not None and n not in grows}
    default = tuple(
        True if n == INIT_FLAG
        else (0, 0) if n in grows
        else 0 if n in kept else _TYPE_DEFAULT[ty]
        for n, ty in ts.state_vars)
    ns: dict = {}
    exec("\n".join(lines), ns)
    step, campaign = ns["_make"](
        tuple(em.consts), table, Fraction, _norm,
        tuple(pool for _, pool in pools or ()), default)
    return CompiledSystem(
        ts=ts, input_names=input_names, state_names=state_names,
        defined_names=defined_names,
        prop_ids=[pid for pid, _ in ts.properties],
        default_state=default, step=step, scales=kept,
        growing={n: scales[n] for n in grows}, campaign=campaign)


def _campaign(ts: TransitionSystem, slot: dict[str, str],
              pools: Sequence[tuple[str, Sequence]],
              links: Sequence[tuple[str, str]], state: list[str],
              align: list[str], body: list[str], asm: str,
              props: list[str], shared: dict[str, str],
              value: dict[str, str]) -> list[str]:
    """Lines of ``_run(steps, bits)``: the lines of ``body``, the step
    body of ``_step`` less the definitions that nothing reads, in a loop
    that draws its inputs and keeps the state in locals.

    An input drawn from a pool of n values takes k = n.bit_length() bits
    from ``bits``, drawn again while the result is n or more, then that
    index: the body of CPython's ``Random._randbelow_with_getrandbits``,
    which ``Random.choice`` calls on 3.10 to 3.13. So with ``bits`` a
    ``Random(seed).getrandbits``, a run draws what ``choice`` would draw
    from each pool in the same order; a pool of one value is drawn too,
    as ``choice`` draws it, or every later draw would shift."""
    pool_of = {n: f"p{i}" for i, (n, _) in enumerate(pools)}
    loop = list(align)
    for name, pool in pools:
        n = len(pool)
        k = n.bit_length()
        loop += [f"r = bits({k})", f"while r >= {n}: r = bits({k})",
                 f"{slot[name]} = {pool_of[name]}[r]"]
    loop += [f"{slot[name]} = {slot[src]}" for name, src in links]
    loop += body
    if asm:
        loop.append(f"ok = {asm}")
    loop += [f"if not {text}: V.append((t, {pid!r}))"
             for (pid, _), text in zip(ts.properties, props)]
    loop += [f"{local} = {text}" for text, local in shared.items()]
    # a next-state value that reads the state is taken before any state
    # is stored
    state_names = [n for n, _ in ts.state_vars]
    reads = set(state_names)
    trans = dict(ts.trans)
    bound = set(shared.values())
    stores = []
    for target, name in zip(state, state_names):
        v = value[name]
        if v not in bound and any(isinstance(x, Var) and x.name in reads
                                  for x in walk(trans[name])):
            local = f"n{len(bound)}"
            bound.add(local)
            loop.append(f"{local} = {v}")
            v = local
        stores.append(f"{target} = {v}")
    loop += stores
    if asm:
        loop.append(f"if not ok: return V, t, {_tuple(state)}")
    lines = ["  def _run(steps, bits):"]
    if state:
        lines.append(f"      {', '.join(state)}, = S0")
    if pools:
        lines.append(f"      {', '.join(pool_of[n] for n, _ in pools)}, = P")
    lines += ["      V = []", "      for t in range(steps):"]
    lines += _indent(loop, 10)
    lines.append(f"      return V, None, {_tuple(state)}")
    return lines
