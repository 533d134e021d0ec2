"""The four benchmark workloads and the reference checks on their outputs.

Every workload is a closed loop with one client: a run repeats *passes*,
each a fixed list of operations built from the seed, and each operation
starts when the previous one returns.  An operation returns ``(ok,
detail)``; ``ok`` is False when the output disagrees with a reference that
does not come from the code path under test.

The workloads call only public functions of ``synkit`` (through module
attributes, so that the traced run can wrap them) and change nothing in it.

* ``proofs``  the 17 modeled rows of the flight-control catalog, proved the
  way ``synkit bench run`` proves them.  Unsat-heavy: many solver sessions.
* ``refute``  the same solver layers answering *sat*: every drop-one
  weakening of the contract manifests, two BMC refutations and the
  invariant-mining proof of ``SatChainObs``.  Counterexamples are replayed
  through the interpreter.
* ``drive``   the eight driver observers stepped by their random drivers
  through the compiled step function; no solver.
* ``case``    a GSN safety case over a synthetic requirement tree: a build
  path (instantiate, validate, metrics, DOT, JSON) and seeded reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

from synkit import benchlib, compose, engine, lang, safetycase, tsys

REPO = Path(__file__).resolve().parent.parent
SAT_COUNTER = REPO / "demos" / "sat_counter.lus"

# ``synkit bench run`` proves with k_max 6 and otherwise default settings.
BENCH_CFG = engine.EngineConfig(k_max=6, timeout=300.0)
SATCHAIN_CFG = engine.EngineConfig(k_max=3, timeout=300.0,
                                   use_invariants=True)

# The observers that the tier-1 tests simulate with their random drivers.
DRIVE_IDS = ("G-170", "G-180", "G-210", "G-220", "G-260", "G-200",
             "G-240", "G-290")

# Children per requirement in the ``case`` tree.
BRANCHING = 4

# Steps at which the refutations fail.  BMC and the k-induction base case
# both return the shortest counterexample, so each step is exact.
REFUTE_STEPS = {
    "G-110/G-220": 0, "G-110/G-260g": 0,
    "bmc/G180Raw.Obs": 0, "bmc/Spec.ok_low": 3,
}
REFUTE_DEFAULT_STEP = 1

Outcome = tuple[bool, str]


@dataclass(frozen=True)
class Op:
    """One unit of work.  ``kind`` is ``"op"`` for the operations whose
    latency the benchmark reports and ``"build"`` for per-pass work that
    is timed with the pass and checked, but is not an operation."""

    name: str
    run: Callable[[], Outcome]
    kind: str = "op"


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def describe(res) -> dict:
    """Verdict of an engine result as plain data."""
    if isinstance(res, engine.Valid):
        return {"verdict": "valid", "k": res.k}
    if isinstance(res, engine.Falsified):
        return {"verdict": "falsified", "step": res.step}
    if isinstance(res, engine.Unknown):
        return {"verdict": "unknown",
                "reason": f"{res.reason.value}: {res.detail}"}
    return {"verdict": "none"}


# --- proofs ------------------------------------------------------------------

def check_proof(got: dict, want: dict) -> Outcome:
    """Verdict, depth and per-component depths against expected.json."""
    for key in ("verdict", "k", "components"):
        if key in want and got.get(key) != want[key]:
            return False, f"{key}: got {got.get(key)!r}, want {want[key]!r}"
    return True, ""


class Proofs:
    name = "proofs"

    def __init__(self, seed: int, rows: Optional[Sequence[str]] = None,
                 expected: Optional[dict] = None):
        self.seed = seed
        self.rows = rows
        self.expected = expected

    def setup(self) -> None:
        self.bench = benchlib.load_benchmark()
        if self.expected is None:
            self.expected = benchlib.load_expected()["results"]
        self.specs = [s for s in self.bench.specs if s.modeled
                      and (self.rows is None or s.id in self.rows)]

    def pass_ops(self, index: int) -> list[Op]:
        specs = list(self.specs)
        pass_rng(self.name, self.seed, index).shuffle(specs)
        return [Op(s.id, partial(self.prove, s)) for s in specs]

    def prove(self, spec) -> Outcome:
        tp = self.bench.tp
        if spec.id in self.bench.contracts:
            arg = compose.build_argument(tp, spec.observer_node, "Obs",
                                         self.bench.contracts[spec.id],
                                         BENCH_CFG)
            got = describe(arg.system_result)
            if got["verdict"] == "valid" and not compose.argument_holds(arg):
                got["verdict"] = "sub-obligation failed"
            got["components"] = {
                node: {gid: describe(r).get("k")
                       for gid, r in per.items()}
                for node, per in arg.component_results.items()}
        else:
            ts = tsys.compile(tp, spec.observer_node)
            got = describe(engine.kinduction(ts, "Obs", BENCH_CFG))
        return check_proof(got, self.expected[spec.id])


# --- refute ------------------------------------------------------------------

def check_refutation(res, step: int, replay) -> Outcome:
    """A counterexample at the pinned step that the interpreter, which is
    independent of the SMT path, confirms at that step."""
    got = describe(res)
    if got != {"verdict": "falsified", "step": step}:
        return False, f"got {got}, want falsified at step {step}"
    if not replay(res.trace, res.step):
        return False, f"counterexample does not replay at step {res.step}"
    return True, ""


def drop_one(contracts, fid: str) -> list:
    return [compose.Contract(
        c.node,
        tuple(p for p in c.assumptions if p[0] != fid),
        tuple(p for p in c.guarantees if p[0] != fid)) for c in contracts]


class Refute:
    name = "refute"

    def __init__(self, seed: int, only: Optional[Sequence[str]] = None):
        self.seed = seed
        self.only = only

    def setup(self) -> None:
        bench = benchlib.load_benchmark()
        self.tp = bench.tp
        self.demo = lang.typecheck(lang.parse(SAT_COUNTER.read_text()))
        items: list[tuple[str, Callable[[], Outcome]]] = []
        for pid in sorted(bench.contracts):
            top = bench.spec(pid).observer_node
            full = bench.contracts[pid]
            for c in full:
                for fid, _ in c.assumptions + c.guarantees:
                    name = f"{pid}/{fid}"
                    items.append((name, partial(
                        self.weakened, name, top, drop_one(full, fid))))
        items.append(("bmc/G180Raw.Obs", partial(
            self.bmc, "bmc/G180Raw.Obs", self.tp, "G180Raw", "Obs", 6)))
        items.append(("bmc/Spec.ok_low", partial(
            self.bmc, "bmc/Spec.ok_low", self.demo, "Spec", "ok_low", 5)))
        items.append(("houdini/SatChainObs", self.satchain))
        self.items = [it for it in items
                      if self.only is None or it[0] in self.only]

    def pass_ops(self, index: int) -> list[Op]:
        items = list(self.items)
        pass_rng(self.name, self.seed, index).shuffle(items)
        return [Op(name, fn) for name, fn in items]

    def weakened(self, name: str, top: str, contracts) -> Outcome:
        res = compose.check_system(self.tp, top, "Obs", contracts, BENCH_CFG)
        abstract = compose.abstract_with_contracts(self.tp, top, contracts)
        return check_refutation(
            res, REFUTE_STEPS.get(name, REFUTE_DEFAULT_STEP),
            engine.make_replayer(abstract, top, "Obs"))

    def bmc(self, name: str, tp, node: str, prop: str, k: int) -> Outcome:
        res = engine.bmc(tsys.compile(tp, node), prop, k, BENCH_CFG)
        return check_refutation(res, REFUTE_STEPS[name],
                                engine.make_replayer(tp, node, prop))

    def satchain(self) -> Outcome:
        ts = tsys.compile(self.tp, "SatChainObs")
        got = describe(engine.kinduction(ts, "Obs", SATCHAIN_CFG))
        if got["verdict"] != "valid":
            return False, f"SatChainObs: got {got}, want valid"
        return True, ""


# --- drive -------------------------------------------------------------------

def check_drive(run, steps: int) -> Outcome:
    if run.steps != steps:
        return False, f"ran {run.steps} of {steps} steps"
    if not run.ok:
        return False, f"property violations {run.violations[:3]}"
    return True, ""


class Drive:
    name = "drive"

    def __init__(self, seed: int, block_steps: int = 1000, blocks: int = 5):
        self.seed = seed
        self.block_steps = block_steps
        self.blocks = blocks

    def setup(self) -> None:
        bench = benchlib.load_benchmark()
        self.harness = {pid: benchlib.driver_harness(bench.tp,
                                                     bench.spec(pid))
                        for pid in DRIVE_IDS}

    def pass_ops(self, index: int) -> list[Op]:
        rng = pass_rng(self.name, self.seed, index)
        ops = [Op(pid, partial(self.block, pid, rng.randrange(2 ** 31)))
               for pid in DRIVE_IDS for _ in range(self.blocks)]
        rng.shuffle(ops)
        return ops

    def block(self, pid: str, driver_seed: int) -> Outcome:
        try:
            run = self.harness[pid](self.block_steps, driver_seed)
        except benchlib.BenchmarkError as exc:  # a driver assert breach
            return False, str(exc)
        return check_drive(run, self.block_steps)


# --- case --------------------------------------------------------------------

class HeapTree:
    """Reference shape of ``synthetic_requirements``: node i's children are
    BRANCHING*i+1 .. BRANCHING*i+BRANCHING.  Computed by index arithmetic,
    independently of the safety-case code."""

    def __init__(self, count: int):
        self.count = count
        self.children = [
            list(range(BRANCHING * i + 1,
                       min(BRANCHING * i + 1 + BRANCHING, count)))
            for i in range(count)]
        self.depth = [0] * count
        for i in range(count):
            for c in self.children[i]:
                self.depth[c] = self.depth[i] + 1
        self.size = [1] * count
        self.leaves: list[list[int]] = [[] for _ in range(count)]
        for i in reversed(range(count)):
            if not self.children[i]:
                self.leaves[i] = [i]
            for c in self.children[i]:
                self.size[i] += self.size[c]
                self.leaves[i] = self.leaves[i] + self.leaves[c]

    def at_depth(self, d: int) -> list[int]:
        return [i for i in range(self.count) if self.depth[i] == d]

    @property
    def max_depth(self) -> int:
        return max(self.depth)


def rid(i: int) -> str:
    return f"REQ-{i:03d}"


def check_build(tree: HeapTree, total_law: int, defects: list,
                m: dict, links: int, dot: str, copy, graph) -> Outcome:
    """Count law, a clean validation and metrics that match the tree."""
    r, p = tree.count, len(tree.leaves[0])
    want_counts = {"Goal": r, "Strategy": r, "Context": r, "Solution": p,
                   "Assumption": 0, "Justification": 0}
    if total_law != 3 * r + p or len(graph.elements) != total_law:
        return False, (f"count law {total_law}, graph "
                       f"{len(graph.elements)}, want {3 * r + p}")
    if defects:
        return False, f"validate: {defects[:3]}"
    if (m["total"] != 3 * r + p or m["counts"] != want_counts
            or m["undeveloped"] != 0 or m["formalized_fraction"] != 1.0
            or m["max_depth"] != 2 * tree.max_depth + 1):
        return False, f"metrics {m}"
    if dot.count(" -> ") != links:
        return False, "DOT edge count differs from the link count"
    if (list(copy.elements) != list(graph.elements)
            or copy.links != graph.links):
        return False, "JSON round trip changed the graph"
    return True, ""


def check_read(tree: HeapTree, i: int, related: list, support) -> Outcome:
    """The SupportedBy closure of goal i holds a goal and a strategy per
    requirement below it and a solution per leaf; every leaf is formal."""
    want = 2 * tree.size[i] + len(tree.leaves[i])
    if len(related) != want:
        return False, f"{rid(i)}: query gave {len(related)}, want {want}"
    leaves = {f"goal:{rid(j)}" for j in tree.leaves[i]}
    if (set(support.formal) != leaves or support.informal
            or support.undeveloped):
        return False, f"{rid(i)}: leaf support {support}"
    return True, ""


class Case:
    name = "case"

    def __init__(self, seed: int, requirements: int = 341,
                 reads_per_depth: int = 4):
        self.seed = seed
        self.requirements = requirements
        self.reads_per_depth = reads_per_depth
        self.graph = None

    def setup(self) -> None:
        self.root, self.results = safetycase.synthetic_requirements(
            self.requirements, BRANCHING)
        self.tree = HeapTree(self.requirements)

    def pass_ops(self, index: int) -> list[Op]:
        rng = pass_rng(self.name, self.seed, index)
        reads = [Op(f"depth-{d}", partial(self.read, i))
                 for d in range(1, self.tree.max_depth + 1)
                 for i in rng.choices(self.tree.at_depth(d),
                                      k=self.reads_per_depth)]
        rng.shuffle(reads)
        return [Op("build", self.build, kind="build")] + reads

    def build(self) -> Outcome:
        sc = safetycase
        self.graph = None
        g = sc.instantiate_pattern(sc.DEFAULT_PATTERN, [self.root],
                                   self.results)
        law = sc.count_law(sc.DEFAULT_PATTERN, [self.root], self.results)
        defects = sc.validate(g)
        m = sc.metrics(g)
        dot = sc.export_dot(g)
        copy = sc.graph_from_json(sc.graph_to_json(g))
        outcome = check_build(self.tree, law, defects, m, len(g.links), dot,
                              copy, g)
        if outcome[0]:
            self.graph = g
        return outcome

    def read(self, i: int) -> Outcome:
        if self.graph is None:
            return False, "no valid graph to read"
        related = safetycase.query(self.graph, related_to=f"{rid(i)}:")
        support = safetycase.check_leaf_support(self.graph,
                                                f"goal:{rid(i)}")
        return check_read(self.tree, i, related, support)


WORKLOADS = {w.name: w for w in (Proofs, Refute, Drive, Case)}
