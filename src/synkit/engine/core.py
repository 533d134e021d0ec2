"""Property verification over transition systems.

Two proof algorithms share one result vocabulary, each behind its own
entry point: bounded model checking plus k-induction through SMT-LIB2
solver sessions (a configured solver's child process, or the bundled
solver in process), configured by ``EngineConfig``; and
``exhaustive_search``, a breadth-first search for systems whose inputs
and state are all boolean, which needs no solver and no configuration.
A check talks to the solver in at most two conversations, one base
unrolling from the initial states and one step unrolling from any
state; each grows instant by instant and pushes only a query's goal.
Optional template invariants (mined from simulation, proved by Houdini-
style iterative weakening over the same two kinds of unrolling)
strengthen the induction step.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from ..interp import Trace, Value
from ..lang import Binary, Expr, LangError, Type, Var, pretty_expr
from ..smt import SmtSession, SolverFailure
from ..tsys import TransitionSystem, fold_consts, literal, map_vars
from .codegen import CompiledSystem, compile_system
from .encode import Unroller, logic_for

__all__ = [
    "EngineConfig", "Valid", "Falsified", "Unknown", "UnknownReason",
    "VerifyResult", "InternalError", "bmc", "kinduction",
    "exhaustive_search", "generate_invariants", "verify_all",
    "simulate_system", "make_replayer", "eval_formula", "verdict_row",
]


@dataclass
class EngineConfig:
    k_max: int = 20
    timeout: float = 300.0
    solver_command: Optional[str] = None
    use_invariants: bool = False

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


class InternalError(Exception):
    """The engine contradicted itself: a bug, not a verdict. Nothing in
    the engine turns it into a result."""


class _HoudiniGaveUp(Exception):
    """Houdini ran out of time or the solver answered unknown: no
    invariants, not a bug."""


class UnknownReason(Enum):
    KMAX_REACHED = "KMaxReached"
    TIMEOUT = "Timeout"
    SOLVER_ERROR = "SolverError"
    NONLINEAR_SPURIOUS = "NonlinearSpurious"


@dataclass(frozen=True)
class Valid:
    k: int
    invariants_used: tuple[str, ...] = ()


@dataclass(frozen=True)
class Falsified:
    trace: Trace
    step: int


@dataclass(frozen=True)
class Unknown:
    reason: UnknownReason
    detail: str = ""


VerifyResult = Union[Valid, Falsified, Unknown]


def verdict_row(res: VerifyResult) -> dict:
    """A result as a report row: its verdict word, and the depth, step or
    reason behind it."""
    if isinstance(res, Valid):
        row = {"verdict": "valid", "k": res.k}
        if res.invariants_used:
            row["invariants_used"] = list(res.invariants_used)
        return row
    if isinstance(res, Falsified):
        return {"verdict": "falsified", "step": res.step}
    assert isinstance(res, Unknown)
    row = {"verdict": "unknown", "reason": res.reason.value}
    if res.detail:
        row["detail"] = res.detail
    return row


# a replayer validates a candidate counterexample against concrete
# semantics: replay(trace, step) is True when the violation is real
Replayer = Callable[[Trace, int], bool]


class _Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.end


# solver conversations ---------------------------------------------------------

class _Unrolling:
    """One solver conversation over an unrolling that only grows.

    ``extend(n)`` declares and asserts each instant once: its transition
    from the previous instant (the initial condition instead at instant 0
    of a base unrolling; a step unrolling starts anywhere), its
    definitions and assumptions, and the fixed invariants. Each query
    pushes its goals, checks, reads the model if there is one, and pops,
    so the unrolling serves every depth of a check (Een & Sorensson,
    "Temporal induction by incremental SAT solving", BMC 2003)."""

    def __init__(self, un: Unroller, cfg: EngineConfig, *, base: bool,
                 invs: Sequence[Expr] = ()):
        self.un = un
        self.base = base
        self.invs = list(invs)
        self.depth = -1  # last instant asserted
        self.session = SmtSession(cfg.solver_command)
        try:
            self.session.set_logic(logic_for(un.ts))
            un.declare_externs(self.session)
        except SolverFailure:  # a child that died at once
            self.session.close()
            raise

    def __enter__(self) -> "_Unrolling":
        return self

    def __exit__(self, *exc) -> None:
        self.session.close()

    def extend(self, n: int) -> None:
        s, un = self.session, self.un
        while self.depth < n:
            self.depth += 1
            t = self.depth
            un.declare_step(s, t)
            if t > 0:
                un.assert_trans(s, t - 1)
            elif self.base:
                un.assert_init(s)
            un.assert_instant(s, t)
            for inv in self.invs:
                s.assert_text(un.formula(inv, t))

    def hold(self, e: Expr, t: int) -> None:
        """Assert e at instant t for every later query."""
        self.extend(t)
        self.session.assert_text(self.un.formula(e, t))

    def query(self, n: int, goals: Sequence[str],
              decode: Optional[Callable[[SmtSession], object]] = None):
        """Check the unrolling up to instant n together with the goals:
        'unsat', 'unknown', or on 'sat' what decode reads from the model
        ('sat' without decode)."""
        self.extend(n)
        s = self.session
        s.push()
        for g in goals:
            s.assert_text(g)
        verdict = s.check_sat()
        out = decode(s) if verdict == "sat" and decode else verdict
        s.pop()
        return out


# bounded search --------------------------------------------------------------

def _screen_cex(ts: TransitionSystem, trace: Trace, step: int,
                replay: Optional[Replayer]) -> VerifyResult:
    """Counterexamples that lean on uninterpreted nonlinear symbols may
    not survive concrete replay; validate when we can."""
    if ts.extern_symbols and replay is not None and not replay(trace, step):
        return Unknown(UnknownReason.NONLINEAR_SPURIOUS,
                       f"counterexample at step {step} does not replay; "
                       "consider adding refinement assertions for the "
                       "nonlinear terms")
    return Falsified(trace, step)


def _base_case(base: _Unrolling, prop: Expr, n: int,
               replay: Optional[Replayer]) -> Optional[VerifyResult]:
    """The verdict of a violation at depth n from an initial state, or
    None when there is none."""
    un = base.un
    outcome = base.query(n, [f"(not {un.formula(prop, n)})"],
                         lambda s: un.decode_inputs(s, n))
    if isinstance(outcome, Trace):
        return _screen_cex(un.ts, outcome, n, replay)
    if outcome == "unknown":
        return Unknown(UnknownReason.SOLVER_ERROR,
                       f"solver answered unknown at depth {n}")
    return None


def bmc(ts: TransitionSystem, prop_id: str, k: int, cfg: EngineConfig,
        replay: Optional[Replayer] = None) -> VerifyResult:
    """Search for an assumption-satisfying path of length <= k ending in
    a property violation, in one base conversation. Falsified carries the
    shortest such path; Unknown(KMaxReached) means clean up to k."""
    prop = ts.property_formula(prop_id)
    deadline = _Deadline(cfg.timeout)
    try:
        with _Unrolling(Unroller(ts), cfg, base=True) as base:
            for n in range(k + 1):
                if deadline.expired:
                    return Unknown(UnknownReason.TIMEOUT,
                                   f"timed out before depth {n}")
                verdict = _base_case(base, prop, n, replay)
                if verdict is not None:
                    return verdict
    except SolverFailure as e:
        return Unknown(UnknownReason.SOLVER_ERROR, str(e))
    return Unknown(UnknownReason.KMAX_REACHED, f"no violation within {k}")


def kinduction(ts: TransitionSystem, prop_id: str, cfg: EngineConfig,
               replay: Optional[Replayer] = None) -> VerifyResult:
    """k-induction sweep for k = 1..k_max over two conversations: a base
    unrolling from the initial states, checked clean up to depth k, and
    a step unrolling from any state, where the property holds at the
    instants before k and its violation at k is queried."""
    prop = ts.property_formula(prop_id)
    deadline = _Deadline(cfg.timeout)
    invs = (_mine_invariants_for(ts, cfg, deadline) if cfg.use_invariants
            else [])
    inv_texts = tuple(pretty_expr(e) for e in invs)
    un = Unroller(ts)
    try:
        with _Unrolling(un, cfg, base=True, invs=invs) as base, \
                _Unrolling(un, cfg, base=False, invs=invs) as step:
            for k in range(1, cfg.k_max + 1):
                for n in range(base.depth + 1, k + 1):  # clean up to k
                    if deadline.expired:
                        return Unknown(UnknownReason.TIMEOUT,
                                       f"timed out in base at depth {n}")
                    verdict = _base_case(base, prop, n, replay)
                    if verdict is not None:
                        return verdict
                if deadline.expired:
                    return Unknown(UnknownReason.TIMEOUT,
                                   f"timed out before step check k={k}")
                step.hold(prop, k - 1)
                goal = f"(not {un.formula(prop, k)})"
                if step.query(k, [goal]) == "unsat":
                    return Valid(k, inv_texts)
    except SolverFailure as e:
        return Unknown(UnknownReason.SOLVER_ERROR, str(e))
    return Unknown(UnknownReason.KMAX_REACHED,
                   f"not inductive for any k <= {cfg.k_max}")


# exhaustive search for boolean systems ----------------------------------------

_SEARCH_STATE_BITS = 14
_SEARCH_INPUT_BITS = 10


def exhaustive_search(ts: TransitionSystem, prop_id: str,
                      max_depth: Optional[int] = None) -> VerifyResult:
    """Breadth-first reachability up to max_depth (None: to fixpoint),
    for systems whose inputs and state are all boolean; any other system
    is a ValueError. Shortest violations are found level by level, so
    the verdicts agree with bmc exactly. At a fixpoint the result is
    Valid; a clean search to max_depth is Unknown(KMaxReached)."""
    cs = compile_system(ts)
    if not (cs.bool_inputs_only() and cs.bool_state_only()):
        raise ValueError(
            "exhaustive search needs boolean inputs and state")
    if len(cs.state_names) > _SEARCH_STATE_BITS:
        raise ValueError(f"too many state bits ({len(cs.state_names)})")
    if len(cs.input_names) > _SEARCH_INPUT_BITS:
        raise ValueError(f"too many input bits ({len(cs.input_names)})")
    p = cs.prop_ids.index(prop_id)
    inputs = list(itertools.product((False, True),
                                    repeat=len(cs.input_names)))
    level = [s for s in itertools.product((False, True),
                                          repeat=len(cs.state_names))
             if cs.init_ok(s)]
    level.sort(key=lambda s: s != cs.default_state)  # defaults first
    visited = set(level)
    parent: dict[tuple, tuple] = {}
    depth = 0
    while level:
        if max_depth is not None and depth > max_depth:
            break
        nxt = []
        for state in level:
            for inp in inputs:
                s2, asm, props, _ = cs.step(state, inp)
                if not asm:
                    continue
                if not props[p]:
                    return Falsified(
                        _search_trace(cs, parent, state, inp, depth), depth)
                if s2 not in visited:
                    visited.add(s2)
                    parent[s2] = (state, inp)
                    nxt.append(s2)
        nxt.sort()
        level = nxt
        depth += 1
    if max_depth is not None:
        return Unknown(UnknownReason.KMAX_REACHED,
                       f"no violation within {max_depth}")
    return Valid(max(depth - 1, 1), ())


def _search_trace(cs: CompiledSystem, parent: dict, state: tuple,
                  last_input: tuple, depth: int) -> Trace:
    steps = [last_input]
    at = state
    while at in parent:
        at, inp = parent[at]
        steps.append(inp)
    steps.reverse()
    assert len(steps) == depth + 1
    return Trace({name: [step[i] for step in steps]
                  for i, name in enumerate(cs.input_names)})


# simulation and template invariants -------------------------------------------

# Real inputs of simulate_system are n/d with d one of these, so every
# one is a whole number of hundredths
_SIM_DENOMINATORS = (1, 2, 4, 100)
_SIM_SCALE = 100
_SIM_RETRIES = 40


def simulate_system(ts: TransitionSystem, steps: int,
                    seed: int) -> list[dict[str, Value]]:
    """Random run of the compiled system from the default initial state.
    Inputs are resampled up to _SIM_RETRIES times to satisfy the
    assumptions; the run ends at the first instant where no draw does,
    so every row is reachable. Rows map every system variable to its
    value."""
    types = ts.var_types()
    reals = {n: _SIM_SCALE for n, ty in ts.input_vars if ty is Type.REAL}
    cs = compile_system(ts, input_scales=reals)
    rng = random.Random(seed)

    def sample(name: str) -> tuple[Value, Value]:
        """A public input value and its compiled form."""
        ty = types[name]
        if ty is Type.BOOL:
            v = rng.random() < 0.5
            return v, v
        if ty is Type.INT:
            v = rng.randint(-8, 8)
            return v, v
        n, d = rng.randint(-800, 800), rng.choice(_SIM_DENOMINATORS)
        return Fraction(n, d), n * (_SIM_SCALE // d)

    rows: list[dict[str, Value]] = []
    state = cs.default_state
    for _ in range(steps):
        for _ in range(_SIM_RETRIES):
            drawn = [sample(n) for n in cs.input_names]
            s2, asm, _, defs = cs.step(state, tuple(c for _, c in drawn))
            if asm:
                break
        else:
            break
        public_state, public_defs = cs.decode(state, defs)
        row: dict[str, Value] = {}
        row.update(zip(cs.state_names, public_state))
        row.update(zip(cs.input_names, (v for v, _ in drawn)))
        row.update(zip(cs.defined_names, public_defs))
        rows.append(row)
        state = s2
    return rows


_PAIR_SHAPE_CAP = 24


def _mine_candidates(ts: TransitionSystem,
                     rows: list[dict[str, Value]]) -> list[Expr]:
    """Template formulas that every row satisfies: equalities and
    implications between boolean pairs, and the observed interval of
    each number."""
    if not rows:
        return []
    types = ts.var_types()
    internal = [n for n, _ in ts.state_vars + ts.defined_vars]
    bools = [n for n in internal if types[n] is Type.BOOL]
    nums = [n for n in internal if types[n] is not Type.BOOL]
    out: list[Expr] = []

    def bvar(n: str) -> Var:
        return Var(n, ty=Type.BOOL)

    if len(bools) <= _PAIR_SHAPE_CAP:
        for i, a in enumerate(bools):
            for b in bools[i + 1:]:
                if all(row[a] == row[b] for row in rows):
                    out.append(Binary("=", bvar(a), bvar(b), ty=Type.BOOL))
                    continue
                if all(row[b] or not row[a] for row in rows):
                    out.append(Binary("=>", bvar(a), bvar(b), ty=Type.BOOL))
                if all(row[a] or not row[b] for row in rows):
                    out.append(Binary("=>", bvar(b), bvar(a), ty=Type.BOOL))
    for x in nums:
        lo = min(row[x] for row in rows)
        hi = max(row[x] for row in rows)
        ty = types[x]
        xv = Var(x, ty=ty)
        out.append(Binary("and",
                          Binary("<=", literal(lo, ty), xv, ty=Type.BOOL),
                          Binary("<=", xv, literal(hi, ty), ty=Type.BOOL),
                          ty=Type.BOOL))
    return out


def eval_formula(e: Expr, env: dict[str, Value]) -> Value:
    """Evaluate a formula over a full variable environment: each variable
    becomes its value as a literal, and constant folding does the rest."""
    values = map_vars(e, lambda v: literal(env[v.name], v.ty))
    return fold_consts(values).value


_HOUDINI_K = 2


def generate_invariants(ts: TransitionSystem,
                        sim_rows: list[dict[str, Value]],
                        cfg: EngineConfig,
                        deadline: Optional[_Deadline] = None) -> list[Expr]:
    """Template candidates that survive the simulation rows, then a
    joint 2-induction proof with iterative removal. The deadline, an
    unknown answer and solver failure degrade to no invariants; a model
    that violates no candidate is an InternalError."""
    if not sim_rows:
        raise ValueError("need at least one simulation row")
    alive = _mine_candidates(ts, sim_rows)
    if not alive:
        return []
    if deadline is None:
        deadline = _Deadline(cfg.timeout)
    un = Unroller(ts)
    try:
        return _houdini(un, alive, cfg, deadline)
    except (SolverFailure, _HoudiniGaveUp):
        return []


def _houdini(un: Unroller, alive: list[Expr], cfg: EngineConfig,
             deadline: _Deadline) -> list[Expr]:
    """The largest subset of the candidates that holds jointly at depths
    below k from the initial states and is k-inductive, by iterative
    removal over two conversations. A base unrolling asks for a violation
    of some alive candidate at each depth d < k; dropping candidates
    never revives a base case, so each depth is done once. A step
    unrolling then pushes the alive candidates at the instants before k
    with a violation of one at k, until no candidate is violated."""
    k = _HOUDINI_K

    def violation(t: int) -> str:
        bad = " ".join(f"(not {un.formula(c, t)})" for c in alive)
        return f"(or {bad})" if len(alive) > 1 else bad

    def drop_violated(env, t: int) -> None:
        if not isinstance(env, dict):
            raise _HoudiniGaveUp("solver unknown")
        kept = [c for c in alive if eval_formula(c, env)]
        if len(kept) == len(alive):
            raise InternalError(
                f"the solver's model at instant {t} violates none of the "
                f"{len(alive)} candidates it was asked to violate")
        alive[:] = kept

    with _Unrolling(un, cfg, base=True) as base, \
            _Unrolling(un, cfg, base=False) as step:
        for d in range(k):
            while alive:
                if deadline.expired:
                    raise _HoudiniGaveUp("deadline")
                env = base.query(d, [violation(d)],
                                 lambda s: un.model_values(s, un.all_vars, [d])[0])
                if env == "unsat":
                    break
                drop_violated(env, d)
        while alive:
            if deadline.expired:
                raise _HoudiniGaveUp("deadline")
            held = [un.formula(c, t) for t in range(k) for c in alive]
            env = step.query(k, held + [violation(k)],
                             lambda s: un.model_values(s, un.all_vars, [k])[0])
            if env == "unsat":
                break
            drop_violated(env, k)
    return alive


def _mine_invariants_for(ts: TransitionSystem, cfg: EngineConfig,
                         deadline: _Deadline) -> list[Expr]:
    try:
        rows = []
        for seed in range(5):
            rows.extend(simulate_system(ts, steps=60, seed=seed))
    except (LangError, ZeroDivisionError):
        return []  # no concrete semantics for some extern; skip mining
    if not rows:
        return []  # no draw met the assumptions: no reachable row to mine
    return generate_invariants(ts, rows, cfg, deadline)


# batch driver ------------------------------------------------------------------

def verify_all(tasks: Sequence[tuple[TransitionSystem, str]],
               cfg: EngineConfig,
               replays: Optional[dict[str, Replayer]] = None
               ) -> dict[str, VerifyResult]:
    """kinduction over each (system, property) task, one after another;
    results keyed by property id in task order. A language error or a
    solver failure is an Unknown result; a KeyError or ValueError from
    kinduction is an InternalError."""
    ids = [prop for _, prop in tasks]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate property ids in task list")
    replays = replays or {}
    results: dict[str, VerifyResult] = {}
    for ts, prop in tasks:
        try:
            results[prop] = kinduction(ts, prop, cfg,
                                       replay=replays.get(prop))
        except (LangError, SolverFailure) as e:
            results[prop] = Unknown(UnknownReason.SOLVER_ERROR, str(e))
        except (KeyError, ValueError) as e:
            raise InternalError(
                f"verifying {prop} raised {e!r}") from e
    return results


def make_replayer(tp, node: str, prop_id: str,
                  externs: Optional[dict] = None) -> Replayer:
    """Concrete-semantics validation of counterexample traces via the
    interpreter: true when the property is really false at the step and
    no assumption failed up to it. A trace the interpreter rejects
    (InterpError) does not replay; any other exception, from the
    interpreter or an extern, is an InternalError."""
    from ..interp import InterpError, simulate

    def replay(trace: Trace, step: int) -> bool:
        try:
            sim = simulate(tp, node, trace, trace.length, externs=externs)
        except InterpError:
            return False
        except Exception as exc:
            raise InternalError(
                f"replaying {prop_id} of {node} raised {exc!r}") from exc
        if step >= sim.length:
            return False
        ok = sim.assertion_ok or [True] * sim.length
        return (sim.signals[prop_id][step] is False
                and all(ok[: step + 1]))

    return replay
