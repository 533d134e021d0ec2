"""The measured process: sets up one workload, runs its passes and reports.

``run.py`` starts this script in a process group of its own, with the
``synkit`` tree under test first on ``PYTHONPATH`` so that the solver
children import the same tree.  It writes one JSON event per line to
stdout; the last one is the result.

    python3 perfbench/worker.py --workload proofs --seed 1 --seconds 25 \
        [--trace 0|1] [--setup-only]
"""

from time import perf_counter

_STARTED = perf_counter()  # before synkit is imported: set-up covers imports

import argparse
import json
import os
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"


def emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Tally:
    """Outcomes of the operations of a run, and their latencies by
    operation name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_ms: dict[str, list[float]] = defaultdict(list)
        self.failures: list[str] = []

    def op_p50_ms(self) -> float:
        """Median over the distinct operations (catalog rows, refutations,
        observers, tree depths) of each one's median latency.  Every
        operation counts once, so the figure stays inside one operation's
        cost instead of jumping between two of different cost."""
        return statistics.median(statistics.median(v)
                                 for v in self.op_ms.values())

    def run(self, op) -> float:
        t0 = perf_counter()
        try:
            ok, detail = op.run()
        except Exception as exc:  # noqa: BLE001 - an op failure, not ours
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{op.name}: {detail}")
        if op.kind == "op":
            self.op_ms[op.name].append(seconds * 1e3)
        emit({"event": "op", "name": op.name, "ok": ok,
              "ms": round(seconds * 1e3, 3)})
        return seconds


def run_pass(wl, index: int, tally: Tally) -> tuple[float, float]:
    """One pass: wall and CPU seconds."""
    ops = wl.pass_ops(index)
    emit({"event": "pass", "index": index, "ops": len(ops)})
    c0, w0 = cpu_seconds(), perf_counter()
    for op in ops:
        tally.run(op)
    return perf_counter() - w0, cpu_seconds() - c0


def run_untraced(wl, seconds: float) -> tuple[dict, Tally]:
    """Passes while the next one would end no more than half a pass after
    ``seconds``; at least one.  Pass metrics are medians over passes."""
    tally = Tally()
    walls, cpus = [], []
    t0 = perf_counter()
    while True:
        wall, cpu = run_pass(wl, len(walls), tally)
        walls.append(wall)
        cpus.append(cpu)
        if perf_counter() - t0 + statistics.median(walls) / 2 > seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb(),
        "op_p50_ms": tally.op_p50_ms(),
    }
    return metrics, tally


def run_traced(wl, name: str, seed: int) -> tuple[dict, Tally, dict]:
    """One untraced pass, then the same pass under the tracer, then the
    probes and the in-process solver replay.  Returns the per-layer metrics,
    the tally and the span dump."""
    import tracing

    untraced, tally = run_untraced(wl, 0.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.setup()
        op_walls: dict[str, float] = {}
        ops = wl.pass_ops(0)
        emit({"event": "pass", "index": 1, "ops": len(ops)})
        w0 = perf_counter()
        for n, op in enumerate(ops):
            tracer.op = f"{n}:{op.name}"
            op_walls[tracer.op] = tally.run(op)
        traced_wall = perf_counter() - w0
    finally:
        tracer.uninstall()

    metrics = tracer.layer_metrics(set(op_walls))
    setup = tracer.layer_metrics({"setup"})
    for key in ("lang.parse_s", "lang.typecheck_s", "benchlib.load_s",
                "benchlib.harness_compile_s"):
        metrics[f"setup.{key}"] = setup.get(key, 0.0)
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.unattributed_s"] = sum(
        wall - tracer.covered(op) for op, wall in op_walls.items())
    metrics["trace.overhead_s"] = traced_wall - untraced["wall_s"]

    startup_ms = tracing.startup_probe()
    metrics["session.startup_ms"] = startup_ms
    bench = workloads.benchlib.load_benchmark()
    metrics.update(tracing.step_probe(bench, workloads.DRIVE_IDS, seed=seed))
    ops_sessions = [c for c in tracer.sessions if c.op in op_walls]
    metrics.update(tracing.replay_in_process(ops_sessions))
    if metrics["solver.replay_mismatches"]:
        tally.failed += 1
        tally.failures.append("in-process replay disagrees with the child")
    launch_s = metrics["session.starts"] * startup_ms / 1e3
    metrics["session.launch_share"] = launch_s / untraced["wall_s"]
    metrics["solver.solve_share"] = (metrics["solver.replay_s"]
                                     / untraced["wall_s"])
    dump = {"workload": name, "seed": seed,
            "untraced_wall_s": untraced["wall_s"],
            "traced_wall_s": traced_wall,
            "ops": op_walls, "spans": tracer.span_records()}
    return metrics, tally, dump


def solver_provenance() -> dict:
    """Which solver the sessions run and, for the bundled one, which
    ``synkit`` tree the child imports."""
    import subprocess

    import synkit
    from synkit.smt import resolve_solver_command

    command = resolve_solver_command()
    if os.environ.get("SOLVER_CMD"):
        kind = "SOLVER_CMD"
    elif command[1:] == ["-m", "synkit.smt.bundled"]:
        kind = "bundled"
    else:
        kind = "z3"
    info = {"solver_kind": kind, "solver_command": command,
            "synkit": synkit.__file__}
    if kind == "bundled":
        child = subprocess.run(
            [command[0], "-c", "import synkit; print(synkit.__file__)"],
            capture_output=True, text=True, timeout=60, check=False)
        info["child_synkit"] = child.stdout.strip()
        info["child_ok"] = info["child_synkit"] == info["synkit"]
    return info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    setup_s = perf_counter() - _STARTED
    emit({"event": "setup", "seconds": setup_s})
    if args.setup_only:
        return 0

    if args.trace:
        metrics, tally, dump = run_traced(wl, args.workload, args.seed)
    else:
        metrics, tally = run_untraced(wl, args.seconds)
        dump = None
    info = solver_provenance()
    info.update(workload=args.workload, seed=args.seed,
                failures=tally.failures[:20])
    correct = tally.failed == 0 and info.get("child_ok", True)
    if dump is not None:
        dump["info"] = info
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(dump))
        info["trace_file"] = str(path.relative_to(OUT_DIR.parent.parent))
    emit({"event": "result", "correct": correct,
          "attempted": tally.attempted, "failed": tally.failed,
          "metrics": metrics, "info": info})
    return 0


if __name__ == "__main__":
    sys.exit(main())
