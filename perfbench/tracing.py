"""Per-layer measurement for the traced run.

``Tracer`` wraps public functions and methods of ``synkit`` from outside,
records one span per call (name, start, end, parent span, operation id) in
memory, and counts work at the same boundaries.  Nothing under ``src/`` is
changed; ``uninstall`` puts every original back.

Solver internals run in the solver child, where no span can reach them, so
the SMT text each session sent is captured and ``replay_in_process`` feeds
it to ``synkit.smt.bundled.Session`` inside this process with timers on
``Solver`` construction, ``CDCL.solve`` and ``Simplex.check``.

Two probes complete the picture: ``startup_probe`` (a fresh solver session
plus one round trip) and ``step_probe`` (``CompiledSystem.step`` on inputs
drawn in advance, against the driver harness on the same observer).
"""

from __future__ import annotations

import importlib
import io
import statistics
import sys
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import wraps
from time import perf_counter
from typing import Callable, Optional

from synkit import benchlib, compose, engine, interp, safetycase, tsys
from synkit.benchlib import loader
from synkit.engine import codegen, core
from synkit.engine.encode import Unroller
from synkit.smt import SmtSession, bundled, sat, simplex, solver
from synkit.smt.sexpr import parse_all

# ``synkit.lang`` re-exports functions under its submodules' names
parser = importlib.import_module("synkit.lang.parser")
typecheck = importlib.import_module("synkit.lang.typecheck")

ENCODE_METHODS = ("declare_externs", "declare_step", "assert_init",
                  "assert_instant", "assert_trans", "assert_distinct_states",
                  "formula")

# span name -> layer metric that receives its self time
SELF_TIME_METRIC = {
    "lang.parse": "lang.parse_s",
    "lang.typecheck": "lang.typecheck_s",
    "tsys.compile": "tsys.compile_s",
    "encode": "encode.s",
    "session.start": "session.start_s",
    "session.send": "session.send_s",
    "session.check_sat": "session.wait_s",
    "session.get_values": "session.wait_s",
    "session.close": "session.close_s",
    "engine.kinduction": "engine.kinduction_s",
    "engine.verify_all": "engine.kinduction_s",
    "engine.bmc": "engine.bmc_s",
    "engine.houdini": "engine.houdini_s",
    "engine.cex_decode": "engine.cex_decode_s",
    "compose.abstract": "compose.abstract_s",
    "compose.check_component": "compose.check_component_s",
    "compose.check_system": "compose.check_system_s",
    "interp.replay": "interp.replay_s",
    "codegen.compile": "codegen.compile_s",
    "benchlib.load": "benchlib.load_s",
    "benchlib.harness_compile": "benchlib.harness_compile_s",
    "benchlib.harness": "benchlib.harness_s",
    "safetycase.instantiate": "safetycase.instantiate_s",
    "safetycase.validate": "safetycase.validate_s",
    "safetycase.metrics": "safetycase.metrics_s",
    "safetycase.leaf_support": "safetycase.leaf_support_s",
    "safetycase.query": "safetycase.query_s",
    "safetycase.dot": "safetycase.dot_s",
    "safetycase.json": "safetycase.json_s",
}

# counts kept per operation; with the self times above and the query
# counts, the per-layer metrics of every workload
COUNT_METRICS = (
    "lang.typecheck_calls", "tsys.compile_calls", "tsys.ir_vars",
    "encode.smt_bytes", "encode.smt_lines", "session.starts",
    "session.check_sat_calls", "session.get_value_calls",
    "compose.obligations", "interp.replay_steps", "safetycase.elements",
    "safetycase.links",
)

STARTUP_ROUNDS = 5  # sessions the startup probe times
PROBE_STEPS = 2000  # steps per observer in the step probe
PROBE_ROUNDS = 3    # repetitions of each, of which the median counts


def restore(undo: list[tuple[object, str, object]]) -> None:
    """Put back every attribute a patch replaced, newest first."""
    while undo:
        owner, attr, value = undo.pop()
        setattr(owner, attr, value)


@dataclass
class SessionCapture:
    """The SMT text one solver session was sent and its check-sat replies."""

    op: str
    houdini: bool
    base: bool = False
    lines: list[str] = field(default_factory=list)
    replies: list[str] = field(default_factory=list)

    @property
    def kind(self) -> str:
        if self.houdini:
            return "houdini"
        return "base" if self.base else "step"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op = "setup"
        self.counts: dict[str, Counter] = defaultdict(Counter)  # by op
        self.sessions: list[SessionCapture] = []
        self._capture: weakref.WeakKeyDictionary = \
            weakref.WeakKeyDictionary()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``after(result, args)`` may
        count and returns the value handed back to the caller."""
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0,
                   stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            return after(result, args) if after else result

        return traced

    def in_span(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- installation --------------------------------------------------------

    def _patch_function(self, module, attr: str, name: str,
                        after: Optional[Callable] = None) -> None:
        """Replace the function everywhere ``synkit`` bound it by name."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, after)
        for modname, mod in list(sys.modules.items()):
            if modname != "synkit" and not modname.startswith("synkit."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, traced)

    def _patch_method(self, cls, attr: str, name: str,
                      after: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, after))

    def install(self) -> None:
        def count(key: str, amount: int = 1) -> None:
            self.counts[self.op][key] += amount

        def counted(key: str, amount=lambda result, args: 1):
            def after(result, args):
                count(key, amount(result, args))
                return result
            return after

        def compiled(ts, args):
            count("tsys.compile_calls")
            count("tsys.ir_vars", len(ts.input_vars) + len(ts.state_vars)
                  + len(ts.defined_vars))
            return ts

        def session_started(result, args):
            self._capture[args[0]] = cap = SessionCapture(
                self.op, self.in_span("engine.houdini"))
            self.sessions.append(cap)
            count("session.starts")
            return result

        def sent(result, args):
            cap = self._capture.get(args[0])
            if cap is not None:
                cap.lines.append(args[1])
            count("encode.smt_bytes", len(args[1]) + 1)
            count("encode.smt_lines")
            return result

        def checked(result, args):
            cap = self._capture.get(args[0])
            if cap is not None:
                cap.replies.append(result)
            count("session.check_sat_calls")
            return result

        def base_session(result, args):
            cap = self._capture.get(args[1])
            if cap is not None:
                cap.base = True
            return result

        def harness_built(run, args):
            return self.wrap("benchlib.harness", run)

        def graph_built(g, args):
            count("safetycase.elements", len(g.elements))
            count("safetycase.links", len(g.links))
            return g

        fn = self._patch_function
        fn(parser, "parse", "lang.parse")
        fn(parser, "parse_expression", "lang.parse")
        fn(typecheck, "typecheck", "lang.typecheck",
           counted("lang.typecheck_calls"))
        fn(typecheck, "type_expression", "lang.typecheck")
        fn(tsys, "compile", "tsys.compile", compiled)
        fn(core, "kinduction", "engine.kinduction")
        fn(core, "bmc", "engine.bmc")
        fn(core, "generate_invariants", "engine.houdini")
        fn(core, "verify_all", "engine.verify_all",
           counted("compose.obligations", lambda r, a: len(a[0])))
        fn(codegen, "compile_system", "codegen.compile")
        fn(interp, "simulate", "interp.replay",
           counted("interp.replay_steps", lambda r, a: a[3]))
        fn(compose, "_abstract", "compose.abstract")
        fn(compose, "abstract_with_contracts", "compose.abstract")
        fn(compose, "check_component", "compose.check_component")
        fn(compose, "check_system", "compose.check_system")
        fn(compose, "build_argument", "compose.check_system")
        fn(loader, "load_benchmark", "benchlib.load")
        fn(loader, "load_expected", "benchlib.load")
        fn(loader, "driver_harness", "benchlib.harness_compile",
           harness_built)
        fn(safetycase, "instantiate_pattern", "safetycase.instantiate",
           graph_built)
        fn(safetycase, "validate", "safetycase.validate")
        fn(safetycase, "metrics", "safetycase.metrics")
        fn(safetycase, "check_leaf_support", "safetycase.leaf_support")
        fn(safetycase, "query", "safetycase.query")
        fn(safetycase, "export_dot", "safetycase.dot")
        fn(safetycase, "graph_to_json", "safetycase.json")
        fn(safetycase, "graph_from_json", "safetycase.json")

        meth = self._patch_method
        for attr in ENCODE_METHODS:
            meth(Unroller, attr, "encode",
                 base_session if attr == "assert_init" else None)
        meth(Unroller, "decode_inputs", "engine.cex_decode")
        meth(SmtSession, "__init__", "session.start", session_started)
        meth(SmtSession, "send", "session.send", sent)
        meth(SmtSession, "check_sat", "session.check_sat", checked)
        meth(SmtSession, "get_values", "session.get_values",
             counted("session.get_value_calls"))
        meth(SmtSession, "close", "session.close")

    def uninstall(self) -> None:
        restore(self._undo)

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover.  Calls are
        sequential in one thread, so child spans never overlap."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def covered(self, op: str) -> float:
        """Time covered by the top-level spans of one operation."""
        return sum(end - start for _, start, end, parent, o in self.spans
                   if parent is None and o == op)

    def layer_metrics(self, ops: Optional[set[str]] = None) -> dict:
        """Self time per layer metric and the counts, over the spans of the
        given operations (all when None).  A layer without spans or counts
        there reports 0."""
        out: dict[str, float] = dict.fromkeys(
            (*SELF_TIME_METRIC.values(), *COUNT_METRICS), 0)
        for rec, own in zip(self.spans, self.self_times()):
            if ops is None or rec[4] in ops:
                out[SELF_TIME_METRIC[rec[0]]] += own
        queries = Counter()
        for cap in self.sessions:
            if ops is None or cap.op in ops:
                queries[cap.kind] += len(cap.replies)
        out.update({f"engine.queries_{k}": queries[k]
                    for k in ("base", "step", "houdini")})
        for op, counts in self.counts.items():
            if ops is None or op in ops:
                for key, value in counts.items():
                    out[key] += value
        return out

    def span_records(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"id": i, "name": name, "start": start - t0,
                 "end": end - t0, "parent": parent, "op": op}
                for i, (name, start, end, parent, op)
                in enumerate(self.spans)]


# --- in-process solver replay -------------------------------------------------

class SolverTimers:
    """Timers on the solver internals while ``replay_in_process`` runs."""

    def __init__(self):
        self.time: Counter = Counter()
        self.count: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _timed(self, cls, attr: str, key: str,
               total: Optional[tuple[str, Callable]] = None) -> None:
        """Time and count calls of ``cls.attr`` under ``key``.  With
        ``total = (name, read)``, also count under ``name`` how much the
        running total ``read(self)`` grew during each call."""
        original = cls.__dict__[attr]
        time, count = self.time, self.count

        @wraps(original)
        def timed(*args, **kwargs):
            before = total[1](args[0]) if total else 0
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                time[key] += perf_counter() - t0
                count[key] += 1
                if total:
                    count[total[0]] += total[1](args[0]) - before

        self._undo.append((cls, attr, original))
        setattr(cls, attr, timed)

    def __enter__(self) -> "SolverTimers":
        self._timed(solver.Solver, "__init__", "build")
        self._timed(sat.CDCL, "solve", "cdcl",
                    ("conflicts", lambda cdcl: cdcl.conflicts))
        self._timed(simplex.Simplex, "check", "simplex")
        return self

    def __exit__(self, *exc) -> None:
        restore(self._undo)


def replay_in_process(sessions: list[SessionCapture]) -> dict:
    """Run every captured conversation through the bundled solver in this
    process.  Its check-sat answers must equal the ones the solver child
    gave; a difference is counted in ``solver.replay_mismatches``."""
    verdicts: Counter = Counter()
    mismatches = 0
    with SolverTimers() as timers:
        t0 = perf_counter()
        for cap in sessions:
            out = io.StringIO()
            sess = bundled.Session(out)
            for sx in (sx for line in cap.lines for sx in parse_all(line)):
                if not sess.run(sx):  # (exit)
                    break
            answers = [r for r in out.getvalue().splitlines()
                       if r in ("sat", "unsat", "unknown")]
            verdicts.update(answers)
            mismatches += answers != cap.replies
        replay_s = perf_counter() - t0
    return {
        "solver.replay_s": replay_s,
        "solver.build_s": timers.time["build"],
        "solver.cdcl_s": timers.time["cdcl"] - timers.time["simplex"],
        "solver.simplex_s": timers.time["simplex"],
        "solver.simplex_calls": timers.count["simplex"],
        "solver.conflicts": timers.count["conflicts"],
        "solver.sat": verdicts["sat"],
        "solver.unsat": verdicts["unsat"],
        "solver.replay_mismatches": mismatches,
    }


# --- probes -------------------------------------------------------------------

def startup_probe() -> float:
    """Median milliseconds from starting a solver session to its first
    reply."""
    samples = []
    for _ in range(STARTUP_ROUNDS):
        t0 = perf_counter()
        s = SmtSession()
        try:
            s.check_sat()
            samples.append((perf_counter() - t0) * 1e3)
        finally:
            s.close()
    return statistics.median(samples)


def driver_inputs(tp, spec, steps: int, seed: int) -> list[tuple]:
    """The input tuples the driver harness draws for ``(steps, seed)``,
    captured from its calls to the compiled step function."""
    seen: list[tuple] = []
    compile_system = loader.compile_system

    def recording(*args, **kwargs):
        cs = compile_system(*args, **kwargs)
        step = cs.step

        def record(state, inp):
            seen.append(inp)
            return step(state, inp)

        cs.step = record
        return cs

    loader.compile_system = recording
    try:
        benchlib.driver_harness(tp, spec)(steps, seed)
    finally:
        loader.compile_system = compile_system
    return seen


def step_probe(bench, ids, seed: int) -> dict:
    """Microseconds per ``CompiledSystem.step`` on inputs drawn in advance,
    per observer, and the median extra cost per step of the driver harness
    (drawing inputs and checking outputs) over the bare step."""
    out: dict[str, float] = {}
    draw = []
    for pid in ids:
        spec = bench.spec(pid)
        inputs = driver_inputs(bench.tp, spec, PROBE_STEPS, seed)
        cs = engine.compile_system(tsys.compile(bench.tp, spec.observer_node))
        harness = benchlib.driver_harness(bench.tp, spec)
        step_s, harness_s = [], []
        for _ in range(PROBE_ROUNDS):
            state = cs.default_state
            t0 = perf_counter()
            for inp in inputs:
                state = cs.step(state, inp)[0]
            step_s.append(perf_counter() - t0)
            t0 = perf_counter()
            harness(PROBE_STEPS, seed)
            harness_s.append(perf_counter() - t0)
        step_us = statistics.median(step_s) / PROBE_STEPS * 1e6
        out[f"codegen.step_us.{pid}"] = step_us
        draw.append(statistics.median(harness_s) / PROBE_STEPS * 1e6
                    - step_us)
    out["benchlib.draw_us"] = statistics.median(draw)
    return out
