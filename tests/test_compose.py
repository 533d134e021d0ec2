"""Contract checks, abstraction, and compositional system proofs."""

from pathlib import Path

import pytest

from synkit import compose, tsys
from synkit.compose import (
    CompositionalArgument,
    Contract,
    abstract_with_contracts,
    argument_holds,
    argument_report,
    build_argument,
    check_component,
    check_noncircular,
    check_system,
    contract_from_text,
)
from synkit.engine import (
    EngineConfig,
    Falsified,
    Unknown,
    UnknownReason,
    Valid,
    simulate_system,
)
from synkit.interp import Trace
from synkit.lang import (LangError, Pre, Type, parse, parse_expression,
                         pretty, type_expression, typecheck, walk)
from synkit.lang.ast import Program

CFG = EngineConfig(k_max=4)
DEMOS = Path(__file__).resolve().parent.parent / "demos"

# Source needs an invariant (v >= 0) to prove anything downstream, and
# Gain hides its offset in a state variable, so inlining either concrete
# body defeats plain k-induction: both contracts carry real weight.
PIPELINE = """
node Source() returns (v: int);
let
  v = 0 -> ((pre v) + 1);
tel

node Consumer(u: int) returns (w: int);
let
  w = u + 1;
tel

node Gain(u: int) returns (w: int);
var s: int;
let
  s = 1 -> (pre s);
  w = u + s;
tel

node Top() returns (ok: bool);
var v, w: int;
let
  v = Source();
  w = Gain(v);
  ok = w >= 1;
  --!PROPERTY: ok = true;
tel
"""


@pytest.fixture(scope="module")
def pipeline():
    return typecheck(parse(PIPELINE))


def contracts_for(tp):
    cs = contract_from_text(tp, "Source", guarantees={"GS": "v >= 0"})
    cg = contract_from_text(tp, "Gain",
                            assumptions={"A1": "u >= 0"},
                            guarantees={"GW": "w > u"})
    return cs, cg


# ---------------------------------------------------------------- contracts

def test_contract_from_text_scopes(pipeline):
    c = contract_from_text(pipeline, "Consumer",
                           assumptions={"A1": "u >= 0"},
                           guarantees={"GW": "w > u"})
    assert c.node == "Consumer"
    assert [a[0] for a in c.assumptions] == ["A1"]
    assert [g[0] for g in c.guarantees] == ["GW"]


def test_contract_rejects_output_in_assumption(pipeline):
    with pytest.raises(LangError) as e:
        contract_from_text(pipeline, "Consumer", assumptions={"A1": "w > 0"})
    assert e.value.kind == "compose"
    assert "A1" in e.value.message


def test_contract_rejects_unknown_signal(pipeline):
    with pytest.raises(LangError):
        contract_from_text(pipeline, "Consumer", guarantees={"G": "zz = 0"})


def test_contract_must_be_boolean(pipeline):
    with pytest.raises(LangError):
        contract_from_text(pipeline, "Consumer", guarantees={"G": "w + 1"})


# ---------------------------------------------------------- component check

def test_component_trivial_guarantee(pipeline):
    c = contract_from_text(pipeline, "Consumer", guarantees={"G0": "true"})
    res = check_component(pipeline, c, CFG)
    assert res == {"G0": Valid(k=1)}


def test_component_false_guarantee_falsified_at_origin():
    tp = typecheck(parse("""
node Zero() returns (y: real);
let
  y = 0.0;
tel
"""))
    c = contract_from_text(tp, "Zero", guarantees={"G": "y = 1.0"})
    res = check_component(tp, c, CFG)
    assert isinstance(res["G"], Falsified)
    assert res["G"].step == 0


def test_component_uses_assumptions(pipeline):
    # w >= 1 needs u >= 0; without the assumption u = -5 breaks it
    with_asm = contract_from_text(pipeline, "Consumer",
                                  assumptions={"A1": "u >= 0"},
                                  guarantees={"G": "w >= 1"})
    without = contract_from_text(pipeline, "Consumer",
                                 guarantees={"G": "w >= 1"})
    assert isinstance(check_component(pipeline, with_asm, CFG)["G"], Valid)
    assert isinstance(check_component(pipeline, without, CFG)["G"], Falsified)


def test_component_guarantee_with_memory():
    tp = typecheck(parse("""
node Delay(x: int) returns (y: int);
let
  y = 0 -> (pre x);
tel
"""))
    c = contract_from_text(tp, "Delay", guarantees={"GD": "y = (0 -> (pre x))"})
    res = check_component(tp, c, CFG)
    assert isinstance(res["GD"], Valid)


def test_component_multiple_guarantees(pipeline):
    c = contract_from_text(pipeline, "Consumer",
                           assumptions={"A1": "u >= 0"},
                           guarantees={"G1": "w > u", "G2": "w >= 1",
                                       "G3": "w < u"})
    res = check_component(pipeline, c, CFG)
    assert isinstance(res["G1"], Valid)
    assert isinstance(res["G2"], Valid)
    assert isinstance(res["G3"], Falsified)


# ------------------------------------------------------------- abstraction

def test_abstract_no_contracts_keeps_call_tree_verbatim(pipeline):
    out = abstract_with_contracts(pipeline, "Top", [])
    kept = {n.name: n for n in out.program.nodes}
    # the closed system is Top's call tree; the uncalled Consumer is gone
    assert set(kept) == {"Source", "Gain", "Top"}
    orig = {n.name: n for n in pipeline.program.nodes}
    for name, decl in kept.items():
        assert pretty(Program([decl])) == pretty(Program([orig[name]]))


def test_abstract_replaces_bodies_and_threads_oracles(pipeline):
    cs, cg = contracts_for(pipeline)
    out = abstract_with_contracts(pipeline, "Top", [cs, cg])
    src = pretty(out.program)
    assert "assert v >= 0;" in src
    assert "assert w > u;" in src
    top = out.program.node("Top")
    names = [v.name for v in top.inputs]
    assert names == ["_oracle__Source__v", "_oracle__Gain__w"]
    # the counter body is gone from Source, the oracle drives its output
    source = out.program.node("Source")
    assert "pre" not in pretty(out.program).split("node Consumer")[0]
    assert [eq.targets for eq in source.equations] == [["v"]]


def test_abstract_installs_assumption_obligations(pipeline):
    cs, cg = contracts_for(pipeline)
    out = abstract_with_contracts(pipeline, "Top", [cs, cg])
    top = out.program.node("Top")
    assert "_asmchk__Gain__A1" in top.properties
    assert "ok" in top.properties


def _slots(exprs):
    """(variant, ty, site, is_extern) of every node under exprs."""
    return [(type(x).__name__, x.ty, getattr(x, "site", None),
             getattr(x, "is_extern", None))
            for e in exprs for x in walk(e)]


def _program_exprs(program):
    return [e for n in program.nodes
            for e in [eq.rhs for eq in n.equations] + n.assertions]


def test_abstractions_leave_program_and_contracts_untouched():
    tp = typecheck(parse(PIPELINE))
    cs, cg = contracts_for(tp)
    # a guarantee typed on its own, so its ty and site slots are filled in
    typed = type_expression(tp, {"u": Type.INT, "w": Type.INT},
                            parse_expression("true -> w - u = pre (w - u)"),
                            Type.BOOL)
    cg = Contract("Gain", cg.assumptions, cg.guarantees + (("GM", typed),))
    contracts = [cs, cg]
    formulas = [f for c in contracts for _, f in (*c.assumptions,
                                                   *c.guarantees)]
    program_text = pretty(tp.program)
    program_slots = _slots(_program_exprs(tp.program))
    formula_slots = _slots(formulas)

    def build():
        system = abstract_with_contracts(tp, "Top", contracts)
        parts = [compose._abstract(tp, c.node, [],
                                   inject_assumes=c.assumptions,
                                   inject_props=c.guarantees).tp
                 for c in contracts]
        return [system] + parts

    first = build()
    second = build()
    assert [pretty(t.program) for t in first] == \
        [pretty(t.program) for t in second]
    assert pretty(tp.program) == program_text
    assert _slots(_program_exprs(tp.program)) == program_slots
    assert _slots(formulas) == formula_slots
    # the guarantee was retyped in context on a copy: behind Gain's own
    # `pre s` its pre is site 1 there, and still site 0 in the contract
    gain = first[2].info("Gain")
    assert [p.site for p in walk(gain.decl.equations[-1].rhs)
            if isinstance(p, Pre)] == [1]
    assert [p.site for p in walk(typed) if isinstance(p, Pre)] == [0]


def test_abstract_unknown_or_uncalled_node(pipeline):
    with pytest.raises(LangError):
        abstract_with_contracts(pipeline, "Top",
                                [Contract("Nowhere")])
    free = typecheck(parse("""
node Loose(x: int) returns (y: int);
let
  y = x;
tel
""" + PIPELINE))
    c = contract_from_text(free, "Loose", guarantees={"G": "y = x"})
    with pytest.raises(LangError) as e:
        abstract_with_contracts(free, "Top", [c])
    assert "not called" in e.value.message


def test_abstract_rejects_contract_on_root(pipeline):
    c = contract_from_text(pipeline, "Top", guarantees={"G": "ok"})
    with pytest.raises(LangError) as e:
        abstract_with_contracts(pipeline, "Top", [c])
    assert "root" in e.value.message


def test_abstract_threads_through_intermediate_node():
    tp = typecheck(parse("""
node Leaf() returns (v: int);
let
  v = 0 -> ((pre v) + 1);
tel

node Mid() returns (m: int);
var t: int;
let
  t = Leaf();
  m = t * 2;
tel

node Root() returns (ok: bool);
var m: int;
let
  m = Mid();
  ok = m >= 0;
  --!PROPERTY: ok = true;
tel
"""))
    c = contract_from_text(tp, "Leaf", guarantees={"G": "v >= 0"})
    out = abstract_with_contracts(tp, "Root", [c])
    mid = out.program.node("Mid")
    root = out.program.node("Root")
    assert [v.name for v in mid.inputs] == ["_oracle__Leaf__v"]
    assert [v.name for v in root.inputs] == ["_oracle__Mid__Leaf__v"]
    assert isinstance(check_system(tp, "Root", "ok", [c], CFG), Valid)


def test_abstract_separates_repeated_instances():
    tp = typecheck(parse("""
node Inc(x: int) returns (y: int);
let
  y = x + 1;
tel

node Two(a: int) returns (ok: bool);
var p, q: int;
let
  p = Inc(a);
  q = Inc(p);
  ok = q > a;
  --!PROPERTY: ok = true;
tel
"""))
    c = contract_from_text(tp, "Inc", guarantees={"G": "y > x"})
    out = abstract_with_contracts(tp, "Two", [c])
    names = [v.name for v in out.program.node("Two").inputs]
    assert names == ["a", "_oracle__Inc1__y", "_oracle__Inc2__y"]
    assert isinstance(check_system(tp, "Two", "ok", [c], CFG), Valid)


def test_abstract_rejects_deep_assumption_discharge():
    tp = typecheck(parse("""
node Leaf(z: int) returns (v: int);
let
  v = z;
tel

node Mid(i: int) returns (m: int);
var t: int;
let
  t = Leaf(i);
  m = t;
tel

node Root(i: int) returns (ok: bool);
var m: int;
let
  m = Mid(i);
  ok = true;
  --!PROPERTY: ok = true;
tel
"""))
    c = contract_from_text(tp, "Leaf", assumptions={"A": "z >= 0"},
                           guarantees={"G": "v >= 0"})
    with pytest.raises(LangError) as e:
        abstract_with_contracts(tp, "Root", [c])
    assert "discharged" in e.value.message


# Top calls Wrap, Wrap calls Leaf; Id reaches no other node
CALL_IN_FORMULA = """
node Leaf(u: int) returns (w: int);
let
  w = u + 1;
tel

node Wrap(u: int) returns (w: int);
let
  w = Leaf(u);
tel

node Id(u: int) returns (w: int);
let
  w = u;
tel

node Other(u: int) returns (w: int);
let
  w = u + 1;
tel

node Top(x: int) returns (ok: bool);
var a, b: int;
let
  a = Wrap(x);
  b = Other(x);
  ok = b > x;
  --!PROPERTY: ok = true;
tel
"""


@pytest.mark.parametrize("callee", ["Wrap", "Leaf"])
def test_contract_formula_cannot_call_into_the_abstraction(callee):
    # the abstraction widens Leaf, and Wrap above it, with oracle inputs,
    # which a call inside a contract formula does not pass
    tp = typecheck(parse(CALL_IN_FORMULA))
    leaf = contract_from_text(tp, "Leaf", guarantees={"GL": "w > u"})
    other = contract_from_text(tp, "Other",
                               guarantees={"GO": f"{callee}(u) > u"})
    for check in (check_system, build_argument):
        with pytest.raises(LangError) as e:
            check(tp, "Top", "ok", [leaf, other], CFG)
        assert e.value.kind == "compose"
        for name in ("'GO'", "'Other'", repr(callee), "'Leaf'"):
            assert name in e.value.message


def test_contract_formula_may_call_a_node_outside_the_abstraction():
    tp = typecheck(parse(CALL_IN_FORMULA))
    leaf = contract_from_text(tp, "Leaf", guarantees={"GL": "w > u"})
    other = contract_from_text(tp, "Other", guarantees={"GO": "w > Id(u)"})
    assert check_system(tp, "Top", "ok", [leaf, other], CFG) == Valid(k=1)


def test_concrete_runs_satisfy_contract_formulas(pipeline):
    # every concrete execution is a behavior the abstraction admits: the
    # guarantees hold on the real components, checked here by simulation
    obs = typecheck(parse(PIPELINE + """
node GObs() returns (ok: bool);
var v, w: int;
let
  v = Source();
  w = Gain(v);
  ok = (v >= 0) and (w > v);
  --!PROPERTY: ok = true;
tel
"""))
    ts = tsys.compile(obs, "GObs")
    for seed in range(100):
        rows = simulate_system(ts, 40, seed)
        assert all(r["ok"] is True for r in rows)


# ------------------------------------------------------------ system check

def test_system_valid_with_both_contracts(pipeline):
    cs, cg = contracts_for(pipeline)
    res = check_system(pipeline, "Top", "ok", [cs, cg], CFG)
    assert isinstance(res, Valid)
    assert res.k == 1


def test_system_weakens_when_a_contract_is_dropped(pipeline):
    cs, cg = contracts_for(pipeline)
    for kept in ([cg], [cs]):
        res = check_system(pipeline, "Top", "ok", kept, CFG)
        assert not isinstance(res, Valid)


def test_system_trivial_property_no_contracts():
    tp = typecheck(parse("""
node T(i: int) returns (ok: bool);
let
  ok = true;
  --!PROPERTY: ok = true;
tel
"""))
    res = check_system(tp, "T", "ok", [], CFG)
    assert res == Valid(k=1)


def test_system_unknown_property_raises(pipeline):
    cs, cg = contracts_for(pipeline)
    with pytest.raises(KeyError):
        check_system(pipeline, "Top", "nope", [cs, cg], CFG)


def test_system_reports_undischarged_assumption(pipeline):
    cs = contract_from_text(pipeline, "Source", guarantees={"GS": "v >= 0"})
    greedy = contract_from_text(pipeline, "Gain",
                                assumptions={"A1": "u >= 5"},
                                guarantees={"GW": "w > u"})
    res = check_system(pipeline, "Top", "ok", [cs, greedy], CFG)
    assert isinstance(res, Falsified)  # the assumption obligation's trace


def test_system_monotone_under_extra_guarantee(pipeline):
    cs, cg = contracts_for(pipeline)
    stronger = Contract(cg.node, cg.assumptions, cg.guarantees + tuple(
        contract_from_text(pipeline, "Gain",
                           guarantees={"GW2": "w >= u + 1"}).guarantees))
    res = check_system(pipeline, "Top", "ok", [cs, stronger], CFG)
    assert isinstance(res, Valid)


def test_system_returns_the_first_failing_assumption_in_obligation_order():
    # A1 fails at step 3 and A2 at step 2: the first obligation wins, not
    # the earliest counterexample
    tp = typecheck(parse("""
node Use(u: int) returns (w: int);
let
  w = u;
tel

node Top() returns (ok: bool);
var c, w: int;
let
  c = 0 -> ((pre c) + 1);
  w = Use(c);
  ok = true;
  --!PROPERTY: ok = true;
tel
"""))
    use = contract_from_text(tp, "Use", assumptions={"A1": "u <= 2",
                                                     "A2": "u <= 1"})
    res = check_system(tp, "Top", "ok", [use], CFG)
    assert isinstance(res, Falsified) and res.step == 3
    arg = build_argument(tp, "Top", "ok", [use], CFG)
    assert [(k, r.step) for k, r in arg.assumption_results.items()] == [
        ("Use.A1", 3), ("Use.A2", 2)]


# -------------------------------------------------------------- circularity

def test_noncircular_tree_shape_ok(pipeline):
    cs, cg = contracts_for(pipeline)
    check_noncircular([cs, cg], pipeline.callees)


def test_noncircular_rejects_mutual_assumptions():
    a = Contract("A", assumptions=(("AA", None),), guarantees=())
    b = Contract("B", assumptions=(("AB", None),), guarantees=())
    cg = {"T": ["A", "B"], "A": [], "B": []}
    with pytest.raises(LangError) as e:
        check_noncircular([a, b], cg)
    assert e.value.message == "circular contract dependency: A -> B -> A"


def test_noncircular_rejects_duplicate_contracts():
    a1 = Contract("A")
    a2 = Contract("A")
    with pytest.raises(LangError):
        check_noncircular([a1, a2], {"A": []})


def test_noncircular_nested_contract_with_assumption_upward():
    # B inside A's call tree and A carries assumptions: A -> B and B -> A
    a = Contract("A", assumptions=(("AA", None),))
    b = Contract("B")
    cg = {"B": ["A"], "A": []}
    with pytest.raises(LangError):
        check_noncircular([a, b], cg)


def test_system_refuses_circular_contracts():
    tp = typecheck(parse("""
node A(x: int) returns (y: int);
let
  y = x;
tel

node B(x2: int) returns (y2: int);
let
  y2 = x2;
tel

node T(i: int) returns (ok: bool);
var a, b: int;
let
  a = A(i);
  b = B(a);
  ok = true;
  --!PROPERTY: ok = true;
tel
"""))
    ca = contract_from_text(tp, "A", assumptions={"XA": "x >= 0"},
                            guarantees={"GA": "y >= 0"})
    cb = contract_from_text(tp, "B", assumptions={"XB": "x2 >= 0"},
                            guarantees={"GB": "y2 >= 0"})
    with pytest.raises(LangError) as e:
        check_system(tp, "T", "ok", [ca, cb], CFG)
    assert "circular" in e.value.message


def _rejected_sets():
    """Contract sets that `compose` refuses, each with its program and
    a word of the error."""
    tp = typecheck(parse(CALL_IN_FORMULA))
    leaf = contract_from_text(tp, "Leaf", guarantees={"GL": "w > u"})
    other = contract_from_text(tp, "Other",
                               guarantees={"GO": "Wrap(u) > u"})
    yield ("formula calls into the abstraction", tp, "Top",
           [leaf, other], "cannot call an abstracted node")
    pipe = typecheck(parse(PIPELINE))
    cs, cg = contracts_for(pipe)
    yield ("two contracts for one node", pipe, "Top", [cs, cg, cs],
           "two contracts given for node 'Source'")
    source = contract_from_text(pipe, "Source", assumptions={"AS": "true"},
                                guarantees={"GS": "v >= 0"})
    yield ("mutual assumptions", pipe, "Top", [source, cg],
           "circular contract dependency")


@pytest.mark.parametrize("check", [check_system, build_argument])
@pytest.mark.parametrize("why,tp,top,contracts,error", [
    pytest.param(*case, id=case[0]) for case in _rejected_sets()])
def test_rejected_contract_set_opens_no_solver_session(sessions, check, why,
                                                      tp, top, contracts,
                                                      error):
    with pytest.raises(LangError) as e:
        check(tp, top, "ok", contracts, CFG)
    assert e.value.kind == "compose" and error in e.value.message
    opened, _ = sessions
    assert opened == []


# ---------------------------------------------------------------- argument

def test_build_argument_and_report(pipeline):
    cs, cg = contracts_for(pipeline)
    arg = build_argument(pipeline, "Top", "ok", [cs, cg], CFG)
    assert argument_holds(arg)
    assert isinstance(arg.system_result, Valid)
    assert isinstance(arg.component_results["Source"]["GS"], Valid)
    assert isinstance(arg.assumption_results["Gain.A1"], Valid)
    rep = argument_report(arg)
    assert rep["top_property"] == "ok"
    assert rep["system_verdict"] == "valid"
    assert rep["holds"] is True
    rows = {(r["node"], r["guarantee"], r["verdict"])
            for r in rep["components"]}
    assert ("Source", "GS", "valid") in rows
    assert ("Gain", "GW", "valid") in rows
    assert rep["assumptions"] == [
        {"assumption": "Gain.A1", "verdict": "valid"}]


def test_argument_flags_failing_component(pipeline):
    bad = contract_from_text(pipeline, "Gain",
                             guarantees={"GBAD": "w < u"})
    cs = contract_from_text(pipeline, "Source", guarantees={"GS": "v >= 0"})
    arg = build_argument(pipeline, "Top", "ok", [cs, bad], CFG)
    assert not argument_holds(arg)
    rep = argument_report(arg)
    rows = {(r["guarantee"], r["verdict"]) for r in rep["components"]}
    assert ("GBAD", "falsified") in rows


def test_report_marks_undischarged_assumption(pipeline):
    cs = contract_from_text(pipeline, "Source", guarantees={"GS": "v >= 0"})
    greedy = contract_from_text(pipeline, "Gain",
                                assumptions={"A1": "u >= 5"},
                                guarantees={"GW": "w > u"})
    arg = build_argument(pipeline, "Top", "ok", [cs, greedy], CFG)
    assert not argument_holds(arg)
    rep = argument_report(arg)
    assert rep["assumptions"][0]["note"] == "assumption not discharged"


def test_assumption_ids_that_sanitize_alike_get_distinct_checks():
    # A-1 and A_1 both sanitize to A_1; the second check takes a suffix,
    # as a clashing guarantee property does
    tp = typecheck(parse((DEMOS / "filter_chain.lus").read_text()))
    filt = contract_from_text(tp, "Filt",
                              assumptions={"A-1": "u >= 0.0",
                                           "A_1": "u <= 10.0"},
                              guarantees={"G": "y >= 0.0 and y <= 10.0"})
    props = abstract_with_contracts(tp, "Chain", [filt]).program.node(
        "Chain").properties
    assert [p for p in props if p.startswith("_asmchk__Filt1__")] == [
        "_asmchk__Filt1__A_1", "_asmchk__Filt1__A_1_2"]
    arg = build_argument(tp, "Chain", "ok", [filt], EngineConfig(k_max=2))
    assert argument_holds(arg)
    assert len(arg.assumption_results) == 6
    assert {k.split("@")[0] for k in arg.assumption_results} == {
        "Filt.A-1", "Filt.A_1"}


_V = Valid(k=1)
_CEX = Falsified(Trace(), step=2)
_TIMEOUT = Unknown(UnknownReason.TIMEOUT)


@pytest.mark.parametrize("components,assumptions,failure", [
    pytest.param({"B": {"G": _V}, "A": {"G1": _V, "G2": _CEX}},
                 {"B.A": _CEX}, "guarantee A.G2 falsified at step 2",
                 id="falsified guarantee"),
    pytest.param({"B": {"G": _TIMEOUT}, "C": {"G": _CEX}}, {},
                 "guarantee B.G unknown (Timeout)", id="unknown guarantee"),
    pytest.param({"A": {"G": _V}}, {"B.A2": _CEX, "A.A1": _V},
                 "assumption B.A2 falsified at step 2",
                 id="falsified assumption"),
    pytest.param({"A": {"G": _V}}, {"A.A1": _V}, None, id="none failing")])
def test_first_failure_components_by_node_then_assumptions_by_key(
        components, assumptions, failure):
    arg = CompositionalArgument("Top", "ok", (), components, assumptions,
                                _V)
    assert arg.first_failure() == failure
    assert argument_holds(arg) is (failure is None)
