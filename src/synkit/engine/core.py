"""Property verification over transition systems.

Two proof algorithms share one result vocabulary, each behind its own
entry point: bounded model checking plus k-induction through SMT-LIB2
solver sessions (a configured solver's child process, or the bundled
solver in process), configured by ``EngineConfig``; and
``exhaustive_search``, a breadth-first search for systems whose inputs
and state are all boolean, which needs no solver and no configuration.
A check talks to the solver in one conversation over one unrolling
from any state, which grows instant by instant; each query pushes its
goals, and a base query the initial condition too. Every unrolling is
a cone of influence (`tsys.cone`). Optional template invariants (mined
from simulation, proved by Houdini-style iterative weakening over the
same kind of unrolling) strengthen the induction step. A check's
deadline, `EngineConfig.timeout` seconds from its start, is read before
each query is sent; a query already running is not interrupted.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from ..interp import Trace
from ..lang import Binary, Expr, LangError, Type, Value, Var, pretty_expr
from ..smt import SmtSession, SolverFailure
from ..tsys import INIT_FLAG, TransitionSystem, cone, literal
from .codegen import CompiledSystem, compile_system
from .encode import Unroller, logic_for

__all__ = [
    "EngineConfig", "Valid", "Falsified", "Unknown", "UnknownReason",
    "VerifyResult", "InternalError", "bmc", "kinduction",
    "exhaustive_search", "generate_invariants", "verify_all",
    "simulate_system", "make_replayer", "verdict_row",
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


class _GaveUp(Exception):
    """The check's deadline passed before a query, or Houdini's solver
    answered unknown: an Unknown verdict or no invariants, not a bug."""


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

    ``extend(n)`` sends each instant once: its inputs, the transition
    that defines its state from the previous instant, its definitions
    and assumptions, and the fixed invariants. Equations cross as
    ``define-fun``, never as assertions. The unrolling starts in any
    state; a base query pushes the initial condition with its goals, a
    step query only its goals. Each query checks, reads the model's
    values of the terms it is given if there is one, and pops, so one
    unrolling serves the base and step queries of every depth of a check
    (Een & Sorensson, "Temporal induction by incremental SAT solving",
    BMC 2003). The bundled solver keeps one SAT core and
    tableau for the conversation: each instant is encoded once, each
    defined name is expanded where it is used, and the clauses learned
    by one query serve the next. The check's deadline is read here, and
    only here: before each query sends anything."""

    def __init__(self, un: Unroller, cfg: EngineConfig, deadline: _Deadline,
                 invs: Sequence[Expr] = ()):
        self.un = un
        self.deadline = deadline
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
            un.assert_instant(s, t)
            for inv in self.invs:
                s.assert_text(un.formula(inv, t))

    def query(self, n: int, goals: Sequence[str], read: Sequence[str] = (),
              *, init: bool = False) -> Union[str, list[Value]]:
        """Check the unrolling up to instant n together with the goals,
        and the initial condition when init: 'unsat', 'unknown', or on
        'sat' the model's values of the terms to read, in order. Raises
        _GaveUp once the deadline has passed. The unrolling must not be
        deeper than n, since the assumptions of a later instant could rule
        out paths that end at n."""
        if self.deadline.expired:
            raise _GaveUp(f"deadline passed before the query at depth {n}")
        if self.depth > n:
            raise InternalError(
                f"query at depth {n} on an unrolling {self.depth} deep")
        self.extend(n)
        s = self.session
        s.push()
        if init:
            self.un.assert_init(s)
        for g in goals:
            s.assert_text(g)
        out = s.check_sat()
        if out == "sat":
            out = s.get_values(read) if read else []
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


def _base_case(unr: _Unrolling, prop: Expr, n: int,
               replay: Optional[Replayer]) -> Optional[VerifyResult]:
    """The verdict of a violation at depth n from an initial state, or
    None when there is none."""
    un = unr.un
    outcome = unr.query(n, [f"(not {un.formula(prop, n)})"],
                        un.input_terms(n), init=True)
    if isinstance(outcome, list):
        return _screen_cex(un.ts, un.decode_inputs(outcome), n, replay)
    if outcome == "unknown":
        return Unknown(UnknownReason.SOLVER_ERROR,
                       f"solver answered unknown at depth {n}")
    return None


def bmc(ts: TransitionSystem, prop_id: str, k: int, cfg: EngineConfig,
        replay: Optional[Replayer] = None) -> VerifyResult:
    """Search for an assumption-satisfying path of length <= k ending in
    a property violation, in one conversation over the property's cone
    whose queries each push the initial condition. Falsified carries the
    shortest such path; Unknown(KMaxReached) means clean up to k."""
    prop = ts.property_formula(prop_id)
    try:
        with _Unrolling(Unroller(cone(ts, [prop])), cfg,
                        _Deadline(cfg.timeout)) as unr:
            for n in range(k + 1):
                verdict = _base_case(unr, prop, n, replay)
                if verdict is not None:
                    return verdict
    except _GaveUp as e:
        return Unknown(UnknownReason.TIMEOUT, str(e))
    except SolverFailure as e:
        return Unknown(UnknownReason.SOLVER_ERROR, str(e))
    return Unknown(UnknownReason.KMAX_REACHED, f"no violation within {k}")


def kinduction(ts: TransitionSystem, prop_id: str, cfg: EngineConfig,
               replay: Optional[Replayer] = None) -> VerifyResult:
    """k-induction sweep for k = 1..k_max over one conversation, over
    the cone of the property and its invariants. At each
    k the base queries, which push the initial condition, check that no
    path from an initial state violates the property up to depth k; the
    step query then pushes the property at the instants before k and its
    violation at k, from any state."""
    prop = ts.property_formula(prop_id)
    deadline = _Deadline(cfg.timeout)
    invs = (_mine_invariants_for(ts, cfg, deadline) if cfg.use_invariants
            else [])
    inv_texts = tuple(pretty_expr(e) for e in invs)
    un = Unroller(cone(ts, [prop, *invs]))
    try:
        with _Unrolling(un, cfg, deadline, invs) as unr:
            for k in range(1, cfg.k_max + 1):
                # the base queries of depths 0 and 1 come at k = 1; each
                # later k adds its own depth
                for n in range(0 if k == 1 else k, k + 1):
                    verdict = _base_case(unr, prop, n, replay)
                    if verdict is not None:
                        return verdict
                goals = [un.formula(prop, t) for t in range(k)]
                goals.append(f"(not {un.formula(prop, k)})")
                if unr.query(k, goals) == "unsat":
                    return Valid(k, inv_texts)
    except _GaveUp as e:
        return Unknown(UnknownReason.TIMEOUT, str(e))
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
    Valid; a clean search to max_depth is Unknown(KMaxReached). The
    search starts from the states whose `_init` bit is set."""
    cs = compile_system(ts)
    if any(ty is not Type.BOOL for _, ty in ts.input_vars + ts.state_vars):
        raise ValueError(
            "exhaustive search needs boolean inputs and state")
    if len(cs.state_names) > _SEARCH_STATE_BITS:
        raise ValueError(f"too many state bits ({len(cs.state_names)})")
    if len(cs.input_names) > _SEARCH_INPUT_BITS:
        raise ValueError(f"too many input bits ({len(cs.input_names)})")
    p = cs.prop_ids.index(prop_id)
    inputs = list(itertools.product((False, True),
                                    repeat=len(cs.input_names)))
    init = cs.state_names.index(INIT_FLAG)
    level = [s for s in itertools.product((False, True),
                                          repeat=len(cs.state_names))
             if s[init]]
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
    return _simulate(ts, steps, (seed,))


def _simulate(ts: TransitionSystem, steps: int,
              seeds: Sequence[int]) -> list[dict[str, Value]]:
    """The rows of simulate_system for each seed in turn, from one
    compiled system."""
    types = ts.var_types()
    reals = {n: _SIM_SCALE for n, ty in ts.input_vars if ty is Type.REAL}
    cs = compile_system(ts, input_scales=reals)

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
    for seed in seeds:
        rng = random.Random(seed)
        state = cs.default_state
        for _ in range(steps):
            for _ in range(_SIM_RETRIES):
                drawn = [sample(n) for n in cs.input_names]
                s2, asm, _, defs = cs.step(state,
                                           tuple(c for _, c in drawn))
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


_HOUDINI_K = 2


def generate_invariants(ts: TransitionSystem,
                        sim_rows: list[dict[str, Value]],
                        cfg: EngineConfig,
                        deadline: Optional[_Deadline] = None) -> list[Expr]:
    """Template candidates that survive the simulation rows, then a
    joint 2-induction proof with iterative removal over the candidates'
    cone, which keeps every assumption. The deadline, an unknown answer
    and solver failure degrade to no invariants; a model that violates
    no candidate is an InternalError."""
    if not sim_rows:
        raise ValueError("need at least one simulation row")
    alive = _mine_candidates(ts, sim_rows)
    if not alive:
        return []
    if deadline is None:
        deadline = _Deadline(cfg.timeout)
    try:
        with _Unrolling(Unroller(cone(ts, alive)), cfg, deadline) as unr:
            return _houdini(unr, alive)
    except (SolverFailure, _GaveUp):
        return []


def _houdini(unr: _Unrolling, alive: list[Expr]) -> list[Expr]:
    """The largest subset of the candidates that holds jointly at depths
    below k from the initial states and is k-inductive, by iterative
    removal over one conversation. Base queries, which push the initial
    condition, ask for a violation of some alive candidate at each depth
    d < k; dropping candidates never revives a base case, so each depth
    is done once. Step queries then push the alive candidates at the
    instants before k with a violation of one at k, until no candidate
    is violated. Each sat query reads the alive candidates' values in
    its model to choose which to drop; the invariants rest only on the
    last, unsat, query. An unknown answer raises _GaveUp."""
    k, un = _HOUDINI_K, unr.un

    def drop_violated(t: int, held: Sequence[str] = (),
                      init: bool = False) -> bool:
        """Ask for a model that violates some alive candidate at instant
        t, and drop the candidates it violates. False when there is none."""
        now = [un.formula(c, t) for c in alive]
        bad = " ".join(f"(not {f})" for f in now)
        goal = f"(or {bad})" if len(now) > 1 else bad
        holds = unr.query(t, [*held, goal], now, init=init)
        if holds == "unsat":
            return False
        if holds == "unknown":
            raise _GaveUp(f"solver answered unknown at depth {t}")
        kept = [c for c, ok in zip(alive, holds) if ok]
        if len(kept) == len(alive):
            raise InternalError(
                f"the solver's model at instant {t} violates none of the "
                f"{len(alive)} candidates it was asked to violate")
        alive[:] = kept
        return True

    for d in range(k):
        while alive and drop_violated(d, init=True):
            pass
    while alive and drop_violated(
            k, [un.formula(c, t) for t in range(k) for c in alive]):
        pass
    return alive


def _mine_invariants_for(ts: TransitionSystem, cfg: EngineConfig,
                         deadline: _Deadline) -> list[Expr]:
    try:
        rows = _simulate(ts, steps=60, seeds=range(5))
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
    results keyed by property id in task order. kinduction answers
    Unknown for a solver failure itself; a LangError, KeyError or
    ValueError out of it is a bug, raised as an InternalError."""
    ids = [prop for _, prop in tasks]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate property ids in task list")
    replays = replays or {}
    results: dict[str, VerifyResult] = {}
    for ts, prop in tasks:
        try:
            results[prop] = kinduction(ts, prop, cfg,
                                       replay=replays.get(prop))
        except (LangError, KeyError, ValueError) as e:
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
