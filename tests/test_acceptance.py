"""Ship gate: ten end-to-end checks, one verdict line each under -v.

Each check holds a subsystem against an independently computed
expectation: exhaustive state enumeration for the solver-free engine,
long random simulation behind every proof, hand-expanded counts for the
safety cases, and the pinned ledger for the full benchmark run.
"""

import itertools
import json
from pathlib import Path
from time import perf_counter

import pytest

from synkit import compose, tsys, safetycase
from synkit.benchlib import driver_harness, load_benchmark
from synkit.cli import main as cli_main
from synkit.engine import (EngineConfig, Falsified, Unknown, Valid, bmc,
                           compile_system, exhaustive_search,
                           generate_invariants, kinduction, make_replayer,
                           simulate_system)
from synkit.lang import parse, pretty, typecheck
from synkit.safetycase import (DEFAULT_PATTERN, Kind, check_leaf_support,
                               count_law, instantiate_pattern, query,
                               validate)

from _random_systems import random_bool_system

REPO = Path(__file__).resolve().parent.parent
DEMOS = REPO / "demos"

SMT = EngineConfig(k_max=8, timeout=120.0)
PROOF = EngineConfig(k_max=4, timeout=30.0)


@pytest.fixture(scope="module")
def bench():
    return load_benchmark()


# --- 1: every shipped model survives parse -> pretty -> parse ---------------

def test_ac01_all_shipped_models_round_trip():
    files = sorted((REPO / "src").rglob("*.lus"))
    files += sorted(DEMOS.rglob("*.lus"))
    assert files, "no shipped models found"
    t0 = perf_counter()
    for path in files:
        prog = parse(path.read_text())
        assert parse(pretty(prog)) == prog, path.name
    assert perf_counter() - t0 < 1.0


# --- 2 and 3: the solver-free engine against exhaustive enumeration --------

def _min_violation_step(ts, k):
    """Breadth-first sweep of the whole reachable boolean state space;
    returns the least step with an assumption-respecting violation."""
    cs = compile_system(ts)
    at = cs.prop_ids.index("ok")
    vectors = list(itertools.product(
        (False, True), repeat=len(cs.input_names)))
    frontier = [cs.default_state]
    seen = {cs.default_state}
    for depth in range(k + 1):
        grown = []
        for state in frontier:
            for vec in vectors:
                nxt, asm_ok, props, _ = cs.step(state, vec)
                if not asm_ok:
                    continue
                if props[at] is False:
                    return depth
                if nxt not in seen:
                    seen.add(nxt)
                    grown.append(nxt)
        frontier = grown
        if not frontier:
            return None
    return None


@pytest.fixture(scope="module")
def differential():
    rows = []
    t0 = perf_counter()
    for seed in range(20):
        src = random_bool_system(seed, max_inputs=8, max_state=12)
        tp = typecheck(parse(src))
        node = tp.order[-1]
        ts = tsys.compile(tp, node)
        got = exhaustive_search(ts, "ok", max_depth=5)
        want = _min_violation_step(ts, 5)
        rows.append((seed, tp, node, got, want))
    return rows, perf_counter() - t0


def test_ac02_bounded_search_matches_exhaustive_enumeration(differential):
    rows, elapsed = differential
    assert len(rows) >= 20
    for seed, _, _, got, want in rows:
        if want is None:
            assert not isinstance(got, Falsified), (seed, got)
        else:
            assert isinstance(got, Falsified), (seed, got, want)
            assert got.step == want, (seed, got.step, want)
    assert elapsed < 60.0


def test_ac03_every_counterexample_replays_at_its_step(differential, bench):
    found = [(tp, node, "ok", res)
             for _, tp, node, res, _ in differential[0]
             if isinstance(res, Falsified)]

    ts = tsys.compile(bench.tp, "G180Raw")
    raw = bmc(ts, "Obs", 6, SMT)
    assert isinstance(raw, Falsified)
    found.append((bench.tp, "G180Raw", "Obs", raw))

    demo = typecheck(parse((DEMOS / "sat_counter.lus").read_text()))
    low = bmc(tsys.compile(demo, "Spec"), "ok_low", 5, SMT)
    assert isinstance(low, Falsified) and low.step == 3
    found.append((demo, "Spec", "ok_low", low))

    assert len(found) >= 5, "too few counterexamples to be meaningful"
    mismatches = [
        (node, pid, res.step)
        for tp, node, pid, res in found
        if not make_replayer(tp, node, pid)(res.trace, res.step)]
    assert mismatches == []


# --- 4 and 5: proofs cross-checked by heavy random simulation --------------

def _prove_then_simulate(bench, prop_id):
    spec = bench.spec(prop_id)
    ts = tsys.compile(bench.tp, spec.observer_node)
    t0 = perf_counter()
    res = kinduction(ts, "Obs", PROOF)
    took = perf_counter() - t0
    assert isinstance(res, Valid), (prop_id, res)
    assert res.k <= 4 and took <= 10.0, (prop_id, res.k, took)
    run = driver_harness(bench.tp, spec)
    for seed in range(100):
        out = run(10_000, seed)
        assert out.ok, (prop_id, seed, out.violations[:3])


def test_ac04_switch_semantics_prove_and_survive_simulation(bench):
    for pid in ("G-170", "G-180", "G-210", "G-220", "G-260"):
        _prove_then_simulate(bench, pid)


def test_ac05_tracking_rows_prove_and_survive_simulation(bench):
    for pid in ("G-200", "G-240", "G-290"):
        _prove_then_simulate(bench, pid)


# --- 6: the compositional argument is load-bearing --------------------------

def test_ac06_every_contract_formula_is_load_bearing(bench):
    contracts = bench.contracts["G-120"]
    t0 = perf_counter()
    arg = compose.build_argument(bench.tp, "G120", "Obs", contracts, SMT)
    assert compose.argument_holds(arg)
    assert isinstance(arg.system_result, Valid)
    for node, per_guarantee in arg.component_results.items():
        for gid, res in per_guarantee.items():
            assert isinstance(res, Valid), (node, gid, res)

    def drop(fid):
        return [compose.Contract(
            c.node,
            tuple(p for p in c.assumptions if p[0] != fid),
            tuple(p for p in c.guarantees if p[0] != fid))
            for c in contracts]

    for fid in ("G-180", "A1", "A2", "FPA1"):
        weakened = compose.check_system(bench.tp, "G120", "Obs",
                                        drop(fid), SMT)
        assert not isinstance(weakened, Valid), fid
    assert perf_counter() - t0 <= 60.0


# --- 7: simulation-mined invariants unlock a stuck proof --------------------

def test_ac07_generated_invariants_unlock_the_proof(bench):
    ts = tsys.compile(bench.tp, "SatChainObs")
    low = EngineConfig(k_max=3, timeout=120.0)
    plain = kinduction(ts, "Obs", low)
    assert isinstance(plain, Unknown), plain
    rows = simulate_system(ts, steps=60, seed=3)
    invs = generate_invariants(ts, rows, low)
    assert invs
    strong = kinduction(ts, "Obs", low, invariants=invs)
    assert isinstance(strong, Valid) and strong.k <= 3, strong


# --- 8: the count law on a synthetic 500-requirement tree -------------------

def test_ac08_synthetic_case_obeys_the_count_law():
    t0 = perf_counter()
    root, results = safetycase.synthetic_requirements()
    graph = instantiate_pattern(DEFAULT_PATTERN, [root], results)
    reqs = list(root.walk())
    proved_leaves = [r for r in reqs if not r.children]
    total = len(graph.elements)
    assert total == 3 * len(reqs) + len(proved_leaves)
    assert total == count_law(DEFAULT_PATTERN, [root], results)
    assert 1800 <= total <= 2200, total
    assert validate(graph) == []
    assert perf_counter() - t0 < 5.0


# --- 9: exact query counts on the shipped G-120 case ------------------------

def test_ac09_shipped_g120_case_answers_queries_exactly():
    reqs = safetycase.requirements_from_json(
        json.loads((DEMOS / "g120_requirements.json").read_text()))
    results = {
        rid: safetycase.evidence_from_json(obj)
        for rid, obj in
        json.loads((DEMOS / "g120_results.json").read_text()).items()}
    g = instantiate_pattern(DEFAULT_PATTERN, reqs, results)

    assert len(g.elements) == 19
    sup = check_leaf_support(g, "goal:G-120")
    assert (len(sup.formal), len(sup.informal), len(sup.undeveloped)) \
        == (4, 0, 0)
    assert len(query(g, kind=Kind.SOLUTION)) == 4
    assert len(query(g, kind=Kind.CONTEXT)) == 5
    assert [e.id for e in query(g, kind=Kind.SOLUTION,
                                related_to="stick input")] \
        == ["solution:G-180"]
    assert len(query(g, kind=Kind.SOLUTION,
                     related_to="flight path angle")) == 4
    assert query(g, kind=Kind.SOLUTION, related_to="warp drive") == []


# --- 10: the benchmark reports its unmodeled rows and never proves them -----

def test_ac10_benchmark_reports_unmodeled_rows_untouched(bench, capsys):
    rc = cli_main(["bench", "run", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    assert report["summary"] == {"valid": 17, "not_modeled": 3, "failed": 0}
    skipped = [r for r in report["rows"] if r["verdict"] == "not-modeled"]
    assert sorted(r["id"] for r in skipped) == ["G-160", "G-190", "G-280"]
    for row in skipped:
        assert row["reason"]
        assert "k" not in row and "seconds" not in row
        spec = bench.spec(row["id"])
        assert not spec.modeled and spec.observer_node is None
