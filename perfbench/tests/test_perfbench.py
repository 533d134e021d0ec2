"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads as wls  # noqa: E402
from synkit import benchlib, engine, tsys  # noqa: E402
from synkit.interp import Trace  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def solver_child_imports_this_tree(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", run.child_env()["PYTHONPATH"])


def tiny(name: str, seed: int = 1):
    return {
        "proofs": lambda: wls.Proofs(seed, rows=("G-170", "G-140")),
        "refute": lambda: wls.Refute(seed, only=(
            "G-110/G-220", "bmc/Spec.ok_low", "houdini/SatChainObs")),
        "drive": lambda: wls.Drive(seed, block_steps=50, blocks=1),
        "case": lambda: wls.Case(seed, requirements=21, reads_per_depth=1),
    }[name]()


def set_up(wl):
    wl.setup()
    return wl


@pytest.mark.parametrize("name", sorted(wls.WORKLOADS))
def test_each_workload_runs_clean_at_a_tiny_size(name):
    metrics, tally = worker.run_untraced(set_up(tiny(name)), 0.0)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.failures
    assert all(v > 0 for v in metrics.values())
    printed = run.scale_to_reference({"setup_s": 0.2, **metrics},
                                     run.REFERENCE_MS)
    assert printed["wall_norm_s"] == metrics["wall_s"]
    assert set(run.json_metrics(printed)) == {
        m["name"] for m in BENCHMARK["end_to_end"]}


def test_a_flipped_expected_verdict_is_a_failed_operation():
    expected = copy.deepcopy(benchlib.load_expected()["results"])
    expected["G-170"]["verdict"] = "falsified"
    wl = set_up(wls.Proofs(1, rows=("G-170", "G-180"), expected=expected))
    _, tally = worker.run_untraced(wl, 0.0)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failures[0].startswith("G-170: verdict")


def test_a_corrupted_counterexample_does_not_replay():
    wl = set_up(wls.Refute(1, only=()))
    res = engine.bmc(tsys.compile(wl.demo, "Spec"), "ok_low", 5,
                     wls.BENCH_CFG)
    replay = engine.make_replayer(wl.demo, "Spec", "ok_low")
    assert wls.check_refutation(res, 3, replay) == (True, "")
    assert not wls.check_refutation(res, 2, replay)[0]
    cut = Trace({k: v[:3] for k, v in res.trace.signals.items()})
    corrupted = engine.Falsified(cut, res.step)
    ok, detail = wls.check_refutation(corrupted, 3, replay)
    assert not ok and "does not replay" in detail


def test_case_and_drive_references_catch_mismatches():
    wl = set_up(tiny("case"))
    assert wl.build() == (True, "")
    related = wls.safetycase.query(wl.graph, related_to="REQ-005:")
    support = wls.safetycase.check_leaf_support(wl.graph, "goal:REQ-005")
    assert wls.check_read(wl.tree, 5, related, support) == (True, "")
    wrong = wls.HeapTree(22)  # node 5 gains a child
    assert not wls.check_read(wrong, 5, related, support)[0]
    wl.tree = wrong
    assert not wl.build()[0]
    assert not wl.read(1)[0]  # no graph that passed its checks
    bad_run = benchlib.DriverRun(["Obs"], 50, [(7, "Obs")])
    assert not wls.check_drive(bad_run, 50)[0]
    assert not wls.check_drive(benchlib.DriverRun(["Obs"], 49, []), 50)[0]


def counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if run.unit_of(k) in ("count", "bytes")}


@pytest.mark.parametrize("name", sorted(wls.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    metrics, tally, dump = worker.run_traced(set_up(tiny(name)), name, 1)
    assert tally.failed == 0, tally.failures
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"]
    assert dump["spans"] and all(
        s["end"] >= s["start"] for s in dump["spans"])


@pytest.mark.parametrize("name", ["proofs", "case"])
def test_a_repeated_traced_run_reproduces_every_count(name):
    first = worker.run_traced(set_up(tiny(name)), name, 1)[0]
    again = worker.run_traced(set_up(tiny(name)), name, 1)[0]
    assert counts(first) == counts(again)
    key = {"proofs": "session.starts", "case": "safetycase.elements"}[name]
    assert first[key] > 0
    if name == "proofs":
        assert first["encode.smt_bytes"] > 0
        assert first["solver.conflicts"] > 0


def test_the_deadline_ends_a_stuck_run_and_fails_what_is_left():
    stuck = ("import json, time\n"
             "print(json.dumps({'event': 'pass', 'index': 0, 'ops': 3}))\n"
             "print(json.dumps({'event': 'op', 'name': 'a', 'ok': True,"
             " 'ms': 1.0}), flush=True)\n"
             "time.sleep(120)\n")
    t0 = time.monotonic()
    result, _ = run.supervise([sys.executable, "-c", stuck],
                              run.child_env(), time.monotonic() + 2.0)
    assert time.monotonic() - t0 < 30
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert result["metrics"]["cpu_s"] < 1.0  # the stuck worker's own usage


def test_the_command_prints_every_end_to_end_metric_scaled():
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "case", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert "speed probe: median" in proc.stdout


def test_without_the_source_tree_the_command_fails_and_prints_nothing(
        tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "drive", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
