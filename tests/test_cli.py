"""Command-line driver: exit codes, report formats, file plumbing."""

import json
from dataclasses import replace
from importlib import resources

import pytest

import jsonschema

from synkit import compose
from synkit.benchlib import load_benchmark
from synkit.cli import _engine_config, main, parse_args
from synkit.engine import EngineConfig, InternalError, core
from synkit.lang import parse_expression

COUNTER = """\
node Counter() returns (n: int);
let
  n = 0 -> ((pre n) + 1);
tel
"""

# one provable observer (saturated accumulator) and one falsifiable one
TWO_STAGE = """\
node Sat(x: real; lo: real; hi: real) returns (y: real);
let
  y = if x < lo then lo else (if x > hi then hi else x);
tel

node Acc(x: real) returns (y: real);
let
  y = 0.0 -> Sat((pre y) + x, -1.0, 1.0);
tel

node Obs1(x: real) returns (ok: bool);
var v: real;
let
  v = Acc(x);
  ok = (v <= 1.0) and (v >= -1.0);
  --!PROPERTY: ok = true;
tel

node Bad(x: real) returns (ok: bool);
var v: real;
let
  v = 0.0 -> ((pre v) + x);
  ok = (v <= 1.0) and (v >= -1.0);
  --!PROPERTY: ok = true;
tel
"""

# all-boolean: the latch can be set at step 1, so ok fails there
LATCH = """\
node Latch(set: bool) returns (ok: bool);
var q: bool;
let
  q = false -> (pre q or set);
  ok = not q;
  --!PROPERTY: ok = true;
tel
"""

# boolean, but its extern has no concrete semantics to search with
FLIP = """\
extern flip(x: bool) returns (y: bool);

node Obs(a: bool) returns (ok: bool);
let
  ok = flip(a) or not flip(a);
  --!PROPERTY: ok = true;
tel
"""

CYCLIC = """\
node N(x: int) returns (y: int);
let
  y = y + x;
tel
"""


def schema(name):
    path = resources.files("synkit") / "schemas" / name
    return json.loads(path.read_text())


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def counter(tmp_path):
    p = tmp_path / "counter.lus"
    p.write_text(COUNTER)
    return str(p)


@pytest.fixture
def latch(tmp_path):
    p = tmp_path / "latch.lus"
    p.write_text(LATCH)
    return str(p)


@pytest.fixture
def two_stage(tmp_path):
    p = tmp_path / "two_stage.lus"
    p.write_text(TWO_STAGE)
    return str(p)


# --- check --------------------------------------------------------------------

def test_check_clean_file(capsys, counter):
    rc, out, err = run(capsys, "check", counter)
    assert rc == 0
    assert "ok" in out and err == ""


def test_check_reports_causality_cycle(capsys, tmp_path):
    p = tmp_path / "cyc.lus"
    p.write_text(CYCLIC)
    rc, out, err = run(capsys, "check", str(p))
    assert rc == 1
    assert "cycle" in err


def test_check_missing_file_is_io_error(capsys, tmp_path):
    rc, _, err = run(capsys, "check", str(tmp_path / "nope.lus"))
    assert rc == 2
    assert "nope.lus" in err


def test_check_mixes_good_and_bad(capsys, counter, tmp_path):
    bad = tmp_path / "cyc.lus"
    bad.write_text(CYCLIC)
    rc, out, err = run(capsys, "check", counter, str(bad))
    assert rc == 1
    assert "ok" in out and "cycle" in err


# --- sim ----------------------------------------------------------------------

def test_sim_counter_five_steps(capsys, counter):
    rc, out, _ = run(capsys, "sim", counter, "Counter", "-n", "5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,assertion_ok"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1", "2", "3", "4"]


def test_sim_zero_steps_is_header_only(capsys, counter):
    rc, out, _ = run(capsys, "sim", counter, "Counter", "-n", "0")
    assert rc == 0
    assert out.strip() == "n,assertion_ok"


def test_sim_without_steps_or_trace_is_usage_error(capsys, counter):
    rc, _, err = run(capsys, "sim", counter, "Counter")
    assert rc == 2
    assert "--steps" in err


def test_sim_unknown_node(capsys, counter):
    rc, _, err = run(capsys, "sim", counter, "Missing", "-n", "1")
    assert rc == 1
    assert "Missing" in err


@pytest.mark.parametrize("rows,steps", [
    pytest.param(rows, steps, id=str(rows)) for rows, steps in [
        ("set\ntrue,false\n", ()), ("set\nyes\n", ()), ("set\n1/0\n", ()),
        ("set,set\ntrue,false\n", ()), ("set,clear\ntrue,false\n", ()),
        ("sett\ntrue\n", ()), ("set\ntrue\n", ("-n", "2")),
        ("set\ntrue\n5\n", ()), (None, ("-n", "3"))]])
def test_sim_bad_trace_csv_is_usage_error_naming_the_file(capsys, latch,
                                                         tmp_path, rows,
                                                         steps):
    # a row of the wrong width, a cell that is no value, a zero
    # denominator, a repeated column (not merged into one list), a column
    # that names no signal of the node, a missing input, a trace shorter
    # than the steps asked for, a cell of the wrong type, and no trace at
    # all for a node with inputs
    p = tmp_path / "in.csv"
    trace = ()
    if rows is not None:
        p.write_text(rows)
        trace = ("--trace", str(p))
    rc, out, err = run(capsys, "sim", latch, "Latch", *trace, *steps)
    assert rc == 2 and out == ""
    if rows is None:
        assert err == "synkit: 'Latch' has inputs: give them as an input " \
                      "--trace\n"
    else:
        assert err.startswith(f"synkit: {p}: ")
    if rows == "set\ntrue\n5\n":
        assert err == f"synkit: {p}: step 1: 'set' expects bool, got int\n"


def test_sim_deep_output_replays_to_itself(capsys, two_stage, tmp_path):
    # every column sim writes, the instance paths of --deep and
    # assertion_ok included, is one it reads back
    inputs = tmp_path / "x.csv"
    inputs.write_text("x\n0.5\n0.75\n-2.0\n1/4\n")
    deep = tmp_path / "deep.csv"
    rc, _, _ = run(capsys, "sim", two_stage, "Obs1", "--deep",
                   "--trace", str(inputs), "--out", str(deep))
    assert rc == 0
    assert "Acc.Sat.y" in deep.read_text().splitlines()[0]
    rc, out, err = run(capsys, "sim", two_stage, "Obs1", "--deep",
                       "--trace", str(deep))
    assert (rc, err) == (0, "")
    assert out == deep.read_text()


def test_sim_negative_steps_is_usage_error(capsys, counter):
    rc, out, err = run(capsys, "sim", counter, "Counter", "-n", "-1")
    assert rc == 2 and out == ""
    assert "--steps" in err


def test_sim_json_trace(capsys, counter):
    rc, out, _ = run(capsys, "sim", counter, "Counter", "-n", "3", "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["signals"]["n"] == [0, 1, 2]


# --- verify -------------------------------------------------------------------

def test_verify_valid_property(capsys, two_stage):
    rc, out, _ = run(capsys, "verify", two_stage, "--node", "Obs1",
                     "--k-max", "3")
    assert rc == 0
    assert "valid" in out


def test_verify_report_schema_and_exit(capsys, two_stage, tmp_path):
    cex = tmp_path / "cex.csv"
    rc, out, _ = run(capsys, "verify", two_stage, "--k-max", "3",
                     "--json", "--out", str(cex))
    assert rc == 1  # Bad is falsifiable
    report = json.loads(out)
    jsonschema.validate(report, schema("verify_report.schema.json"))
    assert report["engine"] == {"k_max": 3, "use_invariants": False}
    by_node = {r["node"]: r for r in report["results"]}
    assert by_node["Obs1"]["verdict"] == "valid"
    assert by_node["Bad"]["verdict"] == "falsified"
    assert report["ok"] is False

    # the written counterexample replays to the same violation step
    step = by_node["Bad"]["step"]
    rc2, _, err2 = run(capsys, "sim", two_stage, "Bad",
                       "--trace", str(cex))
    assert rc2 == 0
    assert f"property ok false at step {step}" in err2


def test_verify_prop_filter(capsys, two_stage):
    rc, out, _ = run(capsys, "verify", two_stage, "--k-max", "3",
                     "--prop", "Obs1.ok", "--json")
    assert rc == 0
    report = json.loads(out)
    assert [r["node"] for r in report["results"]] == ["Obs1"]


def test_verify_unknown_prop(capsys, two_stage):
    rc, _, err = run(capsys, "verify", two_stage, "--prop", "nosuch")
    assert rc == 1
    assert "nosuch" in err


def test_verify_unknown_node(capsys, two_stage):
    rc, _, err = run(capsys, "verify", two_stage, "--node", "Ghost")
    assert rc == 1
    assert "Ghost" in err


def test_format_flags_are_mutually_exclusive(capsys, two_stage):
    rc, _, _ = run(capsys, "verify", two_stage, "--text", "--json")
    assert rc == 2


def test_verify_compositional_argument(capsys, two_stage, tmp_path):
    spec = {
        "top": {"node": "Obs1", "property": "ok"},
        "contracts": [
            {"node": "Acc",
             "guarantees": {"BOUND": "(y <= 1.0) and (y >= -1.0)"}}
        ],
    }
    cpath = tmp_path / "contracts.json"
    cpath.write_text(json.dumps(spec))
    rc, out, _ = run(capsys, "verify", two_stage, "--k-max", "3",
                     "--compositional", str(cpath), "--json")
    assert rc == 0
    report = json.loads(out)
    jsonschema.validate(report, schema("argument_report.schema.json"))
    assert report["holds"] is True
    assert report["system_verdict"] == "valid"
    assert report["components"] == [
        {"node": "Acc", "guarantee": "BOUND", "verdict": "valid"}]


def test_verify_compositional_bad_spec(capsys, two_stage, tmp_path):
    cpath = tmp_path / "contracts.json"
    cpath.write_text(json.dumps({"contracts": []}))
    rc, _, err = run(capsys, "verify", two_stage,
                     "--compositional", str(cpath))
    assert rc == 2
    assert "contract spec" in err


def test_verify_oracle_mode_falsifies_boolean_model(capsys, latch, tmp_path):
    rc, out, err = run(capsys, "verify", latch, "--oracle-mode")
    assert rc == 1 and err == ""
    assert out.startswith("Latch.ok: falsified at step 1 [")

    cex = tmp_path / "cex.csv"
    rc, out, _ = run(capsys, "verify", latch, "--oracle-mode", "--json",
                     "--out", str(cex))
    assert rc == 1
    report = json.loads(out)
    jsonschema.validate(report, schema("verify_report.schema.json"))
    assert "engine" not in report  # no depth bound, no invariants to mine
    [row] = report["results"]
    assert (row["node"], row["property"]) == ("Latch", "ok")
    assert (row["verdict"], row["step"]) == ("falsified", 1)
    assert report["ok"] is False

    # the search's counterexample replays to the same violation step
    rc, _, err = run(capsys, "sim", latch, "Latch", "--trace", str(cex))
    assert rc == 0
    assert "property ok false at step 1" in err


def test_verify_oracle_mode_on_real_model_is_usage_error(capsys, two_stage):
    rc, out, err = run(capsys, "verify", two_stage, "--oracle-mode")
    assert rc == 2 and out == ""
    assert "boolean" in err


def test_verify_oracle_mode_excludes_compositional(capsys, latch, tmp_path):
    cpath = tmp_path / "contracts.json"
    cpath.write_text(json.dumps({"contracts": []}))
    rc, _, err = run(capsys, "verify", latch, "--oracle-mode",
                     "--compositional", str(cpath))
    assert rc == 2
    assert "not allowed" in err


def test_verify_oracle_mode_on_extern_model_is_usage_error(capsys, tmp_path):
    p = tmp_path / "flip.lus"
    p.write_text(FLIP)
    rc, out, err = run(capsys, "verify", str(p), "--oracle-mode")
    assert rc == 2 and out == ""
    assert err.startswith("synkit: ")
    assert "no concrete semantics for extern flip" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ["--invariants", "--k-max", "1", "--timeout", "0.001", "--json"],
    ["--k-max", "20"],
    ["--timeout", "300"],
    ["--solver-cmd", "z3 -in"],
    ["--invariants"],
])
def test_verify_oracle_mode_refuses_solver_settings(capsys, latch, flags):
    rc, out, err = run(capsys, "verify", latch, "--oracle-mode", *flags)
    assert rc == 2 and out == ""
    assert err.startswith("synkit: --oracle-mode takes none of --k-max")


def test_bench_run_rejects_oracle_mode(capsys):
    rc, out, err = run(capsys, "bench", "run", "--oracle-mode")
    assert rc == 2 and out == ""
    assert "--oracle-mode" in err


@pytest.mark.parametrize("key", ["assumptions", "guarantees"])
def test_verify_compositional_spec_formulas_must_be_an_object(
        capsys, two_stage, tmp_path, key):
    spec = {"top": {"node": "Obs1", "property": "ok"},
            "contracts": [{"node": "Acc", key: ["x >= 0.0"]}]}
    cpath = tmp_path / "contracts.json"
    cpath.write_text(json.dumps(spec))
    rc, out, err = run(capsys, "verify", two_stage,
                       "--compositional", str(cpath))
    assert rc == 2 and out == ""
    assert err.startswith(f"synkit: {cpath}: bad contract spec")


def test_verify_compositional_unknown_property_fails_before_any_proof(
        capsys, two_stage, tmp_path, sessions):
    spec = {"top": {"node": "Obs1", "property": "nope"},
            "contracts": [{"node": "Acc", "guarantees": {"G": "y <= 1.0"}}]}
    cpath = tmp_path / "contracts.json"
    cpath.write_text(json.dumps(spec))
    rc, out, err = run(capsys, "verify", two_stage,
                       "--compositional", str(cpath))
    # as `verify --prop nope` reports it, and no solver session opened
    assert (rc, out, err) == (1, "", "synkit: unknown property nope\n")
    opened, _ = sessions
    assert opened == []


def test_verify_compositional_error_while_proving_is_not_a_spec_error(
        capsys, two_stage, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken abstraction")

    monkeypatch.setattr(compose, "_abstract", broken)
    spec = {"top": {"node": "Obs1", "property": "ok"},
            "contracts": [{"node": "Acc", "guarantees": {"G": "y <= 1.0"}}]}
    cpath = tmp_path / "contracts.json"
    cpath.write_text(json.dumps(spec))
    with pytest.raises(TypeError, match="broken abstraction"):
        main(["verify", two_stage, "--compositional", str(cpath)])


def test_bench_run_engine_error_in_a_direct_row_is_an_internal_error(
        monkeypatch):
    bench = load_benchmark()
    direct = {s.observer_node for s in bench.specs
              if s.modeled and s.id not in bench.contracts}
    kinduction = core.kinduction

    def failing(ts, prop, cfg, **kwargs):
        if ts.node in direct:
            raise ValueError("engine bug")
        return kinduction(ts, prop, cfg, **kwargs)

    monkeypatch.setattr(core, "kinduction", failing)
    with pytest.raises(InternalError, match="engine bug"):
        main(["bench", "run"])


# --- safety-case ----------------------------------------------------------------

@pytest.fixture
def req_files(tmp_path):
    reqs = [{
        "id": "G-120",
        "text": "pitch tracks the commanded flight path angle",
        "children": [
            {"id": "G-180", "text": "engagement guard"},
            {"id": "A1", "text": "altitude mode off"},
            {"id": "A2", "text": "command zero while off"},
            {"id": "FPA1", "text": "pitch moves toward the error"},
        ],
    }]
    results = {
        rid: {"property": rid, "verdict": "valid", "method": m, "k": 1}
        for rid, m in [("G-120", "compositional"), ("G-180", "direct"),
                       ("A1", "direct"), ("A2", "direct"),
                       ("FPA1", "direct")]
    }
    rp = tmp_path / "reqs.json"
    rp.write_text(json.dumps(reqs))
    vp = tmp_path / "results.json"
    vp.write_text(json.dumps(results))
    return str(rp), str(vp)


def test_safety_case_generate_empty_tree(capsys, tmp_path):
    rp = tmp_path / "empty.json"
    rp.write_text("[]")
    rc, out, _ = run(capsys, "safety-case", "generate", str(rp))
    assert rc == 0
    case = json.loads(out)
    jsonschema.validate(case, schema("safety_case.schema.json"))
    assert case["elements"] == [] and case["links"] == []


def test_safety_case_generate_and_validate(capsys, req_files, tmp_path):
    rp, vp = req_files
    out_case = tmp_path / "case.json"
    dot = tmp_path / "case.dot"
    rc, out, _ = run(capsys, "safety-case", "generate", rp,
                     "--results", vp, "--out", str(out_case),
                     "--dot", str(dot))
    assert rc == 0
    assert "19 elements" in out
    case = json.loads(out_case.read_text())
    jsonschema.validate(case, schema("safety_case.schema.json"))
    assert len(case["elements"]) == 19
    assert dot.read_text().startswith("digraph safety_case {")

    rc, out, _ = run(capsys, "safety-case", "validate", str(out_case))
    assert rc == 0
    assert "no defects" in out

    # tampering: a solution may not support anything
    case["links"].append({"kind": "SupportedBy",
                          "from": "solution:A1", "to": "goal:A2"})
    out_case.write_text(json.dumps(case))
    rc, out, _ = run(capsys, "safety-case", "validate", str(out_case),
                     "--json")
    assert rc == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["defects"][0]["kind"] == "link-kind"


def test_safety_case_query_and_metrics(capsys, req_files, tmp_path):
    rp, vp = req_files
    out_case = tmp_path / "case.json"
    run(capsys, "safety-case", "generate", rp, "--results", vp,
        "--out", str(out_case))

    rc, out, _ = run(capsys, "safety-case", "query", str(out_case),
                     "--kind", "Solution", "--json")
    assert rc == 0
    hits = json.loads(out)["elements"]
    assert len(hits) == 4
    assert all(h["kind"] == "Solution" for h in hits)

    rc, out, _ = run(capsys, "safety-case", "query", str(out_case),
                     "--kind", "Solution", "--meta", "formalized=true",
                     "--related-to", "flight path angle", "--json")
    assert len(json.loads(out)["elements"]) == 4

    rc, out, _ = run(capsys, "safety-case", "query", str(out_case),
                     "--root", "goal:G-120", "--json")
    assert rc == 0
    rep = json.loads(out)
    assert len(rep["formal"]) == 4 and rep["undeveloped"] == []

    rc, out, _ = run(capsys, "safety-case", "metrics", str(out_case),
                     "--json")
    assert rc == 0
    m = json.loads(out)
    assert m["total"] == 19 and m["max_depth"] == 3

    rc, _, err = run(capsys, "safety-case", "query", str(out_case),
                     "--root", "goal:NOPE")
    assert rc == 1 and "NOPE" in err


def test_safety_case_synthetic_metrics(capsys):
    rc, out, _ = run(capsys, "safety-case", "metrics", "--synthetic",
                     "--json")
    assert rc == 0
    m = json.loads(out)
    assert 1800 <= m["total"] <= 2200
    assert m["undeveloped"] == 0


def test_safety_case_synthetic_5000_validates(capsys):
    rc, out, _ = run(capsys, "safety-case", "validate", "--synthetic",
                     "5000", "--json")
    assert rc == 0
    assert json.loads(out) == {"defects": [], "ok": True}


def test_safety_case_custom_pattern(capsys, req_files, tmp_path):
    rp, vp = req_files
    pattern = {
        "name": "goals-only",
        "nodes": [{"role": "goal", "kind": "Goal",
                   "text": "{id}: {text}", "per": "requirement"}],
        "links": [],
    }
    pp = tmp_path / "pattern.json"
    pp.write_text(json.dumps(pattern))
    rc, out, _ = run(capsys, "safety-case", "generate", rp,
                     "--results", vp, "--pattern", str(pp))
    assert rc == 0
    case = json.loads(out)
    assert len(case["elements"]) == 5  # one goal per requirement
    assert {e["kind"] for e in case["elements"]} == {"Goal"}


@pytest.mark.parametrize("results", [
    [{"property": "G-120", "verdict": "valid"}], {"G-120": 5}])
def test_safety_case_results_of_the_wrong_shape_are_io_errors(
        capsys, req_files, tmp_path, results):
    rp, _ = req_files
    vp = tmp_path / "shape.json"
    vp.write_text(json.dumps(results))
    rc, out, err = run(capsys, "safety-case", "generate", rp,
                       "--results", str(vp))
    assert rc == 2 and out == ""
    assert str(vp) in err


def test_safety_case_needs_input(capsys):
    rc, _, err = run(capsys, "safety-case", "metrics")
    assert rc == 2
    assert "--synthetic" in err


def test_safety_case_bad_json_is_io_error(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    rc, _, err = run(capsys, "safety-case", "validate", str(p))
    assert rc == 2
    assert "bad JSON" in err


def test_safety_case_malformed_input_is_a_failure(capsys, tmp_path):
    p = tmp_path / "malformed.json"
    for doc, message in (
            ({"elements": ["x"], "links": []}, "bad safety case JSON: "),
            ({"elements": [], "links": [], "roots": 7},
             "bad safety case JSON: "),
            (5, "requirement forest"),
            ([{"id": "R-1", "text": "", "children": "oops"}],
             "requirement node 'R-1'")):
        p.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "safety-case", "validate", str(p))
        assert rc == 1 and out == ""
        assert err.startswith("synkit: " + message)


def test_safety_case_malformed_pattern_is_a_failure(capsys, tmp_path):
    p = tmp_path / "pattern.json"
    for doc in ([], {"nodes": 5}, {"nodes": [5]}, {"nodes": [], "links": [5]},
                {"nodes": [{"role": "goal", "kind": "Goal", "text": 5}]}):
        p.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "safety-case", "generate", "--synthetic",
                           "3", "--pattern", str(p))
        assert rc == 1 and out == ""
        assert err.startswith("synkit: bad pattern JSON: ")


def test_safety_case_too_deeply_nested_json_is_bad_json(capsys, tmp_path):
    # deeper than the JSON decoder nests on any supported Python
    n = 10_000
    p = tmp_path / "deep.json"
    p.write_text('{"id": "R", "text": "", "children": [' * n + "]}" * n)
    rc, out, err = run(capsys, "safety-case", "metrics", str(p))
    assert rc == 2 and out == ""
    assert err == f"synkit: {p}: bad JSON: nested too deeply\n"


def test_safety_case_generate_writes_deep_metadata(capsys, tmp_path):
    p = tmp_path / "deep.json"
    p.write_text('{"id": "R", "text": "t", "metadata": '
                 + '{"k": ' * 400 + "0" + "}" * 400 + "}")
    rc, out, _ = run(capsys, "safety-case", "generate", str(p))
    assert rc == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    # deeper than the writers nest: the decoder refuses it first on some
    # Pythons, the writers on others; either way a message, no traceback
    n = 1200
    p.write_text('{"id": "R", "text": "t", "metadata": '
                 + '{"k": ' * n + "0" + "}" * n + "}")
    for argv in (["generate", str(p)], ["query", str(p), "--json"]):
        rc, out, err = run(capsys, "safety-case", *argv)
        assert rc in (1, 2) and out == ""
        assert err.startswith("synkit: ")
        assert err.endswith("nested too deeply\n")


# --- bench ----------------------------------------------------------------------

def test_bench_run_report(capsys):
    rc1, out1, _ = run(capsys, "bench", "run", "--json")
    assert rc1 == 0
    report = json.loads(out1)
    jsonschema.validate(report, schema("bench_report.schema.json"))
    assert report["summary"] == {"valid": 17, "not_modeled": 3, "failed": 0}
    not_modeled = [r for r in report["rows"] if r["verdict"] == "not-modeled"]
    assert sorted(r["id"] for r in not_modeled) == ["G-160", "G-190", "G-280"]
    # out-of-scope rows are reported, never attempted
    for row in not_modeled:
        assert "k" not in row and "seconds" not in row
        assert row["reason"]

    # deterministic modulo wall-clock time
    rc2, out2, _ = run(capsys, "bench", "run", "--json")
    assert rc2 == 0

    def strip(rep):
        for r in rep["rows"]:
            r.pop("seconds", None)
        return rep

    assert strip(json.loads(out2)) == strip(report)


def test_bench_run_row_with_a_failed_component_has_no_k(capsys, monkeypatch):
    # a guarantee of false fails its component check and makes the system
    # check vacuously valid, so the system's k backs nothing
    import synkit.benchlib
    bench = synkit.benchlib.load_benchmark()
    *kept, fpa = bench.contracts["G-120"]
    broken = replace(fpa, guarantees=fpa.guarantees
                     + (("NEVER", parse_expression("false")),))
    only = bench._replace(specs=[bench.spec("G-120")],
                          contracts={"G-120": [*kept, broken]})
    monkeypatch.setattr(synkit.benchlib, "load_benchmark", lambda: only)
    rc, out, _ = run(capsys, "bench", "run", "--json")
    assert rc == 1
    report = json.loads(out)
    jsonschema.validate(report, schema("bench_report.schema.json"))
    [row] = report["rows"]
    assert row["verdict"] == "unknown"
    assert "k" not in row and "invariants_used" not in row
    assert {(c["guarantee"], c["verdict"]) for c in row["components"]
            if c["verdict"] != "valid"} == {("NEVER", "falsified")}
    # the row says why: the first sub-verdict that is not valid
    assert row["reason"] == "SubObligationFailed"
    assert row["detail"] == f"guarantee {fpa.node}.NEVER falsified at step 0"
    rc, out, _ = run(capsys, "bench", "run")
    first = out.splitlines()[0]
    assert rc == 1 and first.startswith("G-120    CompositionalProof   "
                                        "unknown (k=-) [")
    assert first.endswith(f"s] SubObligationFailed: {row['detail']}")


# --- argument parsing -------------------------------------------------------------

def test_parse_args_builds_config():
    ns = parse_args(["verify", "m.lus", "--prop", "Obs", "--k-max", "4",
                     "--invariants", "--json"])
    assert ns.subcommand == "verify"
    assert ns.files == ["m.lus"]
    assert ns.props == ["Obs"]
    assert ns.fmt == "json" and not ns.oracle_mode
    assert _engine_config(ns) == EngineConfig(k_max=4, use_invariants=True)

    # the defaults: EngineConfig's for verify, k_max 6 for bench
    ns = parse_args(["verify", "m.lus", "--solver-cmd", "z3 -in"])
    assert _engine_config(ns) == EngineConfig(solver_command="z3 -in")
    assert _engine_config(parse_args(["bench", "run"])) == EngineConfig(
        k_max=6)
