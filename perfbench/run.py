"""synkit benchmark: one command for the four workloads.

    python3 perfbench/run.py --workload proofs|refute|drive|case \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script measures ``src/synkit`` from
outside: it starts ``worker.py`` in a process group of its own, with the
tree under test first on ``PYTHONPATH`` (the bundled solver child imports
it too), and enforces a deadline on the whole run.  A worker that is still
running at the deadline is killed with its solver children, and the
operations it had not finished count as failed.

With ``--trace 0`` the run reports the end-to-end metrics; set-up time is
the median over several fresh processes.  The times of the timed part are
reported at a reference host speed: while the run goes on, a thread of
this process times a fixed pure-Python loop in CPU time, and each time is
scaled by ``REFERENCE_MS`` over the median of those probes.  A shared
host can change speed by a fifth and more for tens of seconds at a time;
the scaled figures cancel that, and the raw ones are printed too.  With
``--trace 1`` it reports the per-layer metrics of one traced pass.  Every metric is printed by name
with its unit; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("proofs", "refute", "drive", "case")

RUN_LIMIT_S = 170.0  # the whole run, set-up probes included
SETUP_PROBES = 4     # fresh processes besides the measured one

# CPU milliseconds of one ``reference_loop`` at the reference speed: the
# median probe on a 2-core x86-64 VM with Python 3.11.
REFERENCE_MS = 2.2
PROBE_EVERY_S = 0.1

# Worker times that are scaled to the reference speed, by their JSON names.
SCALED = {"wall_s": "wall_norm_s", "cpu_s": "cpu_norm_s",
          "op_p50_ms": "op_p50_norm_ms"}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
             "peak_rss_mb": "MB", "op_p50_ms": "ms", "wall_norm_s": "s",
             "cpu_norm_s": "s", "op_p50_norm_ms": "ms"}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), (".s", "s")):
        if name.endswith(suffix):
            return unit
    if "_us" in name:
        return "us"
    return "count"


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic and dict access."""
    d: dict[int, int] = {}
    s = 0
    for i in range(10000):
        d[i & 63] = i
        s += d.get((i * 7) & 63, 0) ^ i
    return s


class SpeedProbe(threading.Thread):
    """Times ``reference_loop`` every ``PROBE_EVERY_S`` until stopped.  The
    probe counts this thread's CPU time, so it sees how fast the host runs
    code, not how long the program's own processes keep it off a CPU."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples_ms: list[float] = []
        self._done = threading.Event()

    def run(self) -> None:
        while True:
            t0 = time.thread_time()
            reference_loop()
            self.samples_ms.append((time.thread_time() - t0) * 1e3)
            if self._done.wait(PROBE_EVERY_S):
                return

    def finish(self) -> float:
        """Stops the probe; returns its median milliseconds."""
        self._done.set()
        self.join()
        return statistics.median(self.samples_ms)


def pin_to_one_cpu() -> None:
    """Runs this process, and every process it starts, on one CPU, so that
    the speed probe times the CPU that the program runs on.  The CPUs of a
    shared host can run at different speeds at the same time."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def scale_to_reference(metrics: dict, probe_ms: float) -> dict:
    """The JSON metrics: times of the timed part at the reference speed,
    the rest as measured."""
    factor = REFERENCE_MS / probe_ms
    return {SCALED.get(name, name): value * factor if name in SCALED
            else value for name, value in metrics.items()}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


def parse_events(out: bytes) -> list[dict]:
    events = []
    for line in out.splitlines():
        try:
            events.append(json.loads(line))
        except ValueError:  # a line cut short when the worker was killed
            pass
    return events


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def timed_out_result(events: list[dict], elapsed: float,
                     usage: resource.struct_rusage) -> dict:
    """A failed result for a worker killed at the deadline: the operations
    it had not finished in its last pass count as failed.  ``usage`` is the
    worker's own, with that of the solver children it had reaped."""
    done = failed = planned = in_pass = 0
    op_ms: list[float] = []
    setup_s = 0.0
    for ev in events:
        kind = ev.get("event")
        if kind == "setup":
            setup_s = ev["seconds"]
        elif kind == "pass":
            planned, in_pass = ev["ops"], 0
        elif kind == "op":
            done += 1
            in_pass += 1
            failed += not ev["ok"]
            op_ms.append(ev["ms"])
    remaining = max(planned - in_pass, 1)
    wall = max(elapsed - setup_s, 0.0)
    return {
        "correct": False, "attempted": done + remaining,
        "failed": failed + remaining,
        "metrics": {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "op_p50_ms": statistics.median(op_ms) if op_ms else wall * 1e3},
        "info": {"failures": [
            f"run deadline passed; {remaining} operation(s) did not finish"]}}


def supervise(cmd: list[str], env: dict,
              deadline: float) -> tuple[dict, Optional[float]]:
    """Run the worker to its end or to the deadline, then kill whatever is
    left of its process group.  Returns the worker's result event, or on a
    timeout a failed result built from the events it wrote, and the
    worker's set-up seconds.  Raises RuntimeError if the worker ends
    without a result."""
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True)
    usage = None
    try:
        try:
            out, _ = proc.communicate(timeout=max(deadline - t0, 0.0))
        except subprocess.TimeoutExpired:
            elapsed = time.monotonic() - t0
            kill_group(proc)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out, _ = proc.communicate()
    finally:
        kill_group(proc)
        if proc.returncode is None:  # interrupted before the worker ended
            proc.wait()
    events = parse_events(out)
    setup_s = next((ev["seconds"] for ev in events
                    if ev.get("event") == "setup"), None)
    if usage is not None:
        return timed_out_result(events, elapsed, usage), setup_s
    for ev in events:
        if ev.get("event") == "result":
            return ev, setup_s
    raise RuntimeError(
        f"worker exited with code {proc.returncode} and no result")


def setup_probe(args, env: dict, deadline: float) -> float:
    """Set-up seconds of one fresh worker process."""
    out = subprocess.run(
        [sys.executable, str(WORKER), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--setup-only"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        check=True,
        timeout=max(deadline - time.monotonic(), 1.0))
    return json.loads(out.stdout.splitlines()[-1])["seconds"]


def report(args, result: dict, probe_ms: Optional[float] = None) -> None:
    """Prints every metric by name with its unit, then the JSON result.
    With ``probe_ms`` the raw times are printed and the JSON holds them
    scaled to the reference speed."""
    info = result.get("info", {})
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if "solver_kind" in info:
        line = (f"solver: {info['solver_kind']} "
                f"{' '.join(info['solver_command'])}")
        if "child_synkit" in info:
            line += f"; child imports {info['child_synkit'] or 'nothing'}"
        print(line)
        print(f"synkit under test: {info['synkit']}")
    metrics = result["metrics"]
    if probe_ms is not None:
        print(f"speed probe: median {probe_ms:.4g} ms, reference "
              f"{REFERENCE_MS} ms; raw times follow, then scaled ones")
        for name in SCALED:
            print(f"  {name:<34} {metrics[name]:>14.6g} {unit_of(name)}")
        metrics = scale_to_reference(metrics, probe_ms)
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit_of(name)}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<34} {rate:>14.6g} ratio "
          f"({result['failed']}/{result['attempted']} failed)")
    for failure in info.get("failures", []):
        print(f"  FAILED {failure}")
    if "trace_file" in info:
        print(f"spans written to {info['trace_file']}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": json_metrics(metrics)}))


def json_metrics(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="synkit benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "synkit" / "__init__.py").is_file():
        print(f"perfbench: no synkit source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    pin_to_one_cpu()
    env = child_env()
    try:
        setup = [] if args.trace else [setup_probe(args, env, deadline)
                                       for _ in range(SETUP_PROBES)]
        probe = SpeedProbe()
        probe.start()
        try:
            result, worker_setup = supervise(
                [sys.executable, str(WORKER), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], env, deadline)
        finally:
            probe_ms = probe.finish()
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        report(args, result)
        return 0
    if worker_setup is not None:
        setup.append(worker_setup)
    result["metrics"] = {"setup_s": statistics.median(setup),
                         **result["metrics"]}
    report(args, result, probe_ms)
    return 0


if __name__ == "__main__":
    sys.exit(main())
