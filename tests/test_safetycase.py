"""Safety case construction, validation, queries, and export."""

import itertools
import json
import random
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synkit import safetycase as sc
from synkit.safetycase import (
    DEFAULT_PATTERN,
    LABEL_DIRECT,
    LABEL_FORMAL_COMP,
    LABEL_INFORMAL,
    Evidence,
    GsnElement,
    GsnGraph,
    GsnLink,
    GsnPattern,
    Kind,
    LinkKind,
    PatternLink,
    PatternNode,
    RequirementNode,
    SafetyCaseError,
    check_leaf_support,
    count_law,
    export_dot,
    graph_from_json,
    graph_to_json,
    instantiate_pattern,
    metrics,
    query,
    requirements_from_json,
    synthetic_requirements,
    validate,
)

# Frozen expansion of the flight-path-angle argument: one parent goal
# decomposed over four component obligations, everything proved.  The
# default pattern must produce exactly 19 elements (5 goals, 5
# strategies, 5 contexts, 4 solutions), 13 SupportedBy links (5
# goal->strategy, 4 strategy->child goal, 4 goal->solution), 5
# InContextOf links, and a longest support path of 3 edges.


def g120_tree():
    kids = (
        RequirementNode("G-180", "FPA mode engages only without stick input"),
        RequirementNode("A1", "Altitude mode deselected forces AltEng off"),
        RequirementNode("A2", "Gamma command is zero while disengaged"),
        RequirementNode("FPA1", "Pitch moves toward the gamma error"),
    )
    root = RequirementNode(
        "G-120",
        "Pitch responds upward when commanded flight path angle is high",
        kids)
    results = {
        "G-120": Evidence("G-120", "valid", "compositional", 1,
                          "benchmark expected results"),
        "G-180": Evidence("G-180", "valid", "direct", 1),
        "A1": Evidence("A1", "valid", "direct", 1),
        "A2": Evidence("A2", "valid", "direct", 1),
        "FPA1": Evidence("FPA1", "valid", "direct", 1),
    }
    return root, results


def test_empty_tree_gives_empty_graph():
    g = instantiate_pattern(DEFAULT_PATTERN, [], {})
    assert len(g) == 0
    assert g.links == ()
    assert g.roots == ()
    assert validate(g) == []
    m = metrics(g)
    assert m["total"] == 0
    assert m["max_depth"] == 0
    assert m["formalized_fraction"] == 0.0


def test_single_proved_leaf_is_four_elements():
    root = RequirementNode("R-1", "the output stays in range")
    res = {"R-1": Evidence("R-1", "valid", "direct", 2)}
    g = instantiate_pattern(DEFAULT_PATTERN, root, res)
    assert len(g) == 4
    kinds = sorted(e.kind.value for e in g.elements.values())
    assert kinds == ["Context", "Goal", "Solution", "Strategy"]
    assert len(g.links) == 3
    assert g.roots == ("goal:R-1",)
    strat = g.elements["strategy:R-1"]
    assert strat.metadata["label"] == LABEL_DIRECT
    sol = g.elements["solution:R-1"]
    assert sol.metadata["formalized"] is True
    assert "valid" in sol.text and "k=2" in sol.text
    assert count_law(DEFAULT_PATTERN, root, res) == 4
    assert validate(g) == []


def test_g120_shape_is_pinned():
    root, res = g120_tree()
    g = instantiate_pattern(DEFAULT_PATTERN, root, res)
    assert len(g) == 19
    counts = metrics(g)["counts"]
    assert counts["Goal"] == 5
    assert counts["Strategy"] == 5
    assert counts["Context"] == 5
    assert counts["Solution"] == 4
    sb = [l for l in g.links if l.kind is LinkKind.SUPPORTED_BY]
    ico = [l for l in g.links if l.kind is LinkKind.IN_CONTEXT_OF]
    assert len(sb) == 13
    assert len(ico) == 5
    assert metrics(g)["max_depth"] == 3
    assert g.elements["strategy:G-120"].metadata["label"] == LABEL_FORMAL_COMP
    for rid in ("G-180", "A1", "A2", "FPA1"):
        assert g.elements[f"strategy:{rid}"].metadata["label"] == LABEL_DIRECT
    assert validate(g) == []
    assert count_law(DEFAULT_PATTERN, root, res) == 19


def test_g120_leaf_support_all_formal():
    root, res = g120_tree()
    g = instantiate_pattern(DEFAULT_PATTERN, root, res)
    rep = check_leaf_support(g, "goal:G-120")
    assert sorted(rep.formal) == ["goal:A1", "goal:A2", "goal:FPA1",
                                  "goal:G-180"]
    assert rep.informal == ()
    assert rep.undeveloped == ()


def test_fpa1_downgrade_yields_one_informal_leaf():
    root, res = g120_tree()
    res["FPA1"] = Evidence("FPA1", "informal", "testing",
                           locator="simulation campaign")
    g = instantiate_pattern(DEFAULT_PATTERN, root, res)
    assert len(g) == 19  # the testing solution still counts
    rep = check_leaf_support(g, "goal:G-120")
    assert rep.informal == ("goal:FPA1",)
    assert len(rep.formal) == 3
    strat = g.elements["strategy:G-120"]
    assert strat.metadata["label"] == LABEL_INFORMAL
    assert strat.metadata["unproved_children"] == ["FPA1"]
    assert g.elements["strategy:FPA1"].metadata["label"] == LABEL_INFORMAL
    assert g.elements["solution:FPA1"].metadata["formalized"] is False
    assert metrics(g)["formalized_fraction"] == pytest.approx(0.75)


def test_missing_evidence_leaves_goal_undeveloped():
    root, res = g120_tree()
    del res["A2"]
    g = instantiate_pattern(DEFAULT_PATTERN, root, res)
    assert len(g) == 18  # no solution for A2
    rep = check_leaf_support(g, "goal:G-120")
    assert rep.undeveloped == ("goal:A2",)
    assert g.elements["strategy:G-120"].metadata["label"] == LABEL_INFORMAL


def test_results_override_tree_verification():
    root, res = g120_tree()
    baked = RequirementNode(
        root.id, root.text,
        tuple(RequirementNode(c.id, c.text,
                              verification=Evidence(c.id, "informal"))
              for c in root.children),
        verification=Evidence(root.id, "unknown"))
    g_baked = instantiate_pattern(DEFAULT_PATTERN, baked, res)
    g_plain = instantiate_pattern(DEFAULT_PATTERN, root, res)
    assert graph_to_json(g_baked) == graph_to_json(g_plain)
    # without the override the baked verdicts win
    g_fallback = instantiate_pattern(DEFAULT_PATTERN, baked, {})
    assert g_fallback.elements["strategy:G-120"].metadata["label"] \
        == LABEL_INFORMAL


def test_goal_metadata_passes_through():
    root = RequirementNode("G-130", "descending flight path capture",
                           metadata={"depends_on_assumptions": ["G-180"],
                                     "risk": "medium"})
    g = instantiate_pattern(DEFAULT_PATTERN, root,
                            {"G-130": Evidence("G-130", "valid")})
    goal = g.elements["goal:G-130"]
    assert goal.metadata["depends_on_assumptions"] == ["G-180"]
    assert goal.metadata["risk"] == "medium"
    assert goal.metadata["formalized"] is True


def test_duplicate_requirement_ids_rejected():
    twins = [RequirementNode("R-1", "a"), RequirementNode("R-1", "b")]
    with pytest.raises(SafetyCaseError, match="twice"):
        instantiate_pattern(DEFAULT_PATTERN, twins, {})


def test_pattern_must_have_one_goal_role():
    bad = GsnPattern("no-goal", (
        PatternNode("strategy", Kind.STRATEGY, "s", "requirement"),),
        ())
    with pytest.raises(SafetyCaseError, match="arity mismatch"):
        instantiate_pattern(bad, RequirementNode("R", "r"), {})


def test_pattern_placeholder_limit():
    nodes = tuple(PatternNode(f"g{i}", Kind.GOAL, "x", "requirement")
                  for i in range(20))
    with pytest.raises(SafetyCaseError, match="limit"):
        instantiate_pattern(GsnPattern("big", nodes, ()),
                            RequirementNode("R", "r"), {})


def test_pattern_link_roles_must_exist():
    bad = GsnPattern("dangling", (
        PatternNode("goal", Kind.GOAL, "g", "requirement"),),
        (PatternLink(LinkKind.SUPPORTED_BY, "goal", "nowhere"),))
    with pytest.raises(SafetyCaseError, match="unknown role"):
        instantiate_pattern(bad, RequirementNode("R", "r"), {})


# --- hand-built defective graphs --------------------------------------------

def mini(*elements, links=(), roots=()):
    return GsnGraph(elements, links, roots)


def test_validate_flags_solution_with_outgoing_support():
    g = mini(
        GsnElement("g", Kind.GOAL, "goal"),
        GsnElement("sn", Kind.SOLUTION, "done"),
        GsnElement("g2", Kind.GOAL, "sub"),
        links=(GsnLink(LinkKind.SUPPORTED_BY, "g", "sn"),
               GsnLink(LinkKind.SUPPORTED_BY, "sn", "g2"),
               GsnLink(LinkKind.SUPPORTED_BY, "g2", "sn")),
        roots=("g",))
    kinds = [d.kind for d in validate(g)]
    assert kinds.count("link-kind") == 1
    bad = [d for d in validate(g) if d.kind == "link-kind"][0]
    assert bad.subject == "sn->g2"


def test_validate_flags_context_under_supported_by():
    g = mini(
        GsnElement("g", Kind.GOAL, "goal"),
        GsnElement("c", Kind.CONTEXT, "ctx"),
        links=(GsnLink(LinkKind.SUPPORTED_BY, "g", "c"),),
        roots=("g",))
    assert any(d.kind == "link-kind" and "Context" in d.detail
               for d in validate(g))


def test_validate_flags_in_context_of_to_goal():
    g = mini(
        GsnElement("g", Kind.GOAL, "goal"),
        GsnElement("g2", Kind.GOAL, "sub"),
        GsnElement("sn", Kind.SOLUTION, "ev"),
        links=(GsnLink(LinkKind.IN_CONTEXT_OF, "g", "g2"),
               GsnLink(LinkKind.SUPPORTED_BY, "g", "sn"),
               GsnLink(LinkKind.SUPPORTED_BY, "g2", "sn")),
        roots=("g", "g2"))
    assert any(d.kind == "link-kind" and d.subject == "g->g2"
               for d in validate(g))


def test_validate_flags_cycles():
    g = mini(
        GsnElement("a", Kind.GOAL, "a"),
        GsnElement("b", Kind.GOAL, "b"),
        links=(GsnLink(LinkKind.SUPPORTED_BY, "a", "b"),
               GsnLink(LinkKind.SUPPORTED_BY, "b", "a")),
        roots=("a",))
    defects = validate(g)
    assert any(d.kind == "cycle" for d in defects)
    assert not any(d.kind == "link-kind" for d in defects)


def test_validate_flags_self_cycle():
    g = mini(GsnElement("a", Kind.GOAL, "a"),
             links=(GsnLink(LinkKind.SUPPORTED_BY, "a", "a"),),
             roots=("a",))
    assert any(d.kind == "cycle" for d in validate(g))


def test_validate_flags_undeveloped_goal_and_orphan():
    g = mini(
        GsnElement("g", Kind.GOAL, "bare goal"),
        GsnElement("stray", Kind.JUSTIFICATION, "unattached"),
        roots=("g",))
    defects = validate(g)
    assert any(d.kind == "undeveloped-goal" and d.subject == "g"
               for d in defects)
    assert any(d.kind == "orphan" and d.subject == "stray"
               for d in defects)


def test_validate_flags_dangling_link_and_missing_root():
    g = mini(GsnElement("g", Kind.GOAL, "goal"),
             links=(GsnLink(LinkKind.SUPPORTED_BY, "g", "ghost"),),
             roots=("g", "ghost"))
    defects = validate(g)
    assert any(d.kind == "link-kind" and "dangling" in d.detail
               for d in defects)
    assert any(d.kind == "link-kind" and d.subject == "ghost"
               for d in defects)


def test_duplicate_element_ids_rejected():
    with pytest.raises(SafetyCaseError, match="duplicate"):
        mini(GsnElement("x", Kind.GOAL, "a"),
             GsnElement("x", Kind.GOAL, "b"))


# --- queries ------------------------------------------------------------------

def test_query_filters_are_conjunctive():
    root, res = g120_tree()
    g = instantiate_pattern(DEFAULT_PATTERN, root, res)
    assert len(query(g)) == 19
    assert len(query(g, kind=Kind.SOLUTION)) == 4
    assert len(query(g, kind=Kind.CONTEXT, text="Operating context")) == 5
    assert len(query(g, kind=Kind.SOLUTION, text="A2")) == 1
    hits = query(g, kind=Kind.SOLUTION,
                 metadata=lambda m: m.get("formalized") is True)
    assert len(hits) == 4


def test_query_related_to_uses_support_closure():
    root, res = g120_tree()
    res["FPA1"] = Evidence("FPA1", "informal", "testing")
    g = instantiate_pattern(DEFAULT_PATTERN, root, res)
    # the root goal's text mentions the id, so its whole argument is in
    # scope; contexts hang off InContextOf and stay out
    sols = query(g, kind=Kind.SOLUTION, related_to="G-120")
    assert len(sols) == 4
    assert query(g, kind=Kind.CONTEXT, related_to="G-120") == []
    formal = query(g, kind=Kind.SOLUTION, related_to="G-120",
                   metadata=lambda m: m.get("formalized") is True)
    assert len(formal) == 3
    # a leaf goal's closure only sees its own evidence
    assert len(query(g, kind=Kind.SOLUTION, related_to="stick input")) == 1
    assert query(g, related_to="no such text") == []


def test_check_leaf_support_rejects_unknown_root():
    root, res = g120_tree()
    g = instantiate_pattern(DEFAULT_PATTERN, root, res)
    with pytest.raises(SafetyCaseError, match="unknown root"):
        check_leaf_support(g, "goal:MISSING")
    with pytest.raises(SafetyCaseError, match="unknown root"):
        check_leaf_support(g, "strategy:G-120")


def test_check_leaf_support_on_bare_root():
    g = mini(GsnElement("g", Kind.GOAL, "alone"), roots=("g",))
    rep = check_leaf_support(g, "g")
    assert rep.undeveloped == ("g",)
    assert rep.formal == rep.informal == ()


# --- serialization -------------------------------------------------------------

def test_json_round_trip_is_lossless():
    root, res = g120_tree()
    res["FPA1"] = Evidence("FPA1", "informal", "testing")
    g = instantiate_pattern(DEFAULT_PATTERN, root, res)
    text = graph_to_json(g)
    again = graph_from_json(text)
    assert graph_to_json(again) == text
    obj = json.loads(text)
    assert set(obj) == {"elements", "links", "roots"}
    assert obj["links"][0].keys() == {"kind", "from", "to"}


def test_graph_json_rejects_bad_kind():
    with pytest.raises(SafetyCaseError, match="bad safety case JSON"):
        graph_from_json(json.dumps({
            "elements": [{"id": "x", "kind": "Banana", "text": ""}],
            "links": [], "roots": []}))
    with pytest.raises(SafetyCaseError):
        graph_from_json("{not json")


def test_requirements_json_round_trip():
    root, res = g120_tree()
    baked = RequirementNode(
        root.id, root.text,
        tuple(RequirementNode(c.id, c.text, verification=res[c.id],
                              metadata={"risk": "low"})
              for c in root.children),
        verification=res[root.id])
    obj = {"id": "G-120", "text": root.text,
           "verification": {"property": "G-120", "verdict": "valid",
                            "method": "compositional", "k": 1,
                            "locator": "benchmark expected results"},
           "children": [{"id": c.id, "text": c.text,
                         "verification": {"property": c.id,
                                          "verdict": "valid",
                                          "method": "direct", "k": 1},
                         "metadata": {"risk": "low"}}
                        for c in root.children]}
    assert requirements_from_json([obj]) == [baked]
    # a single dict is accepted as a one-root forest
    assert requirements_from_json(obj) == [baked]


def test_requirements_json_missing_field():
    with pytest.raises(SafetyCaseError, match="missing"):
        requirements_from_json({"text": "no id"})


# --- DOT export ----------------------------------------------------------------

def test_dot_export_shapes():
    root = RequirementNode("R-1", "the output stays in range")
    g = instantiate_pattern(DEFAULT_PATTERN, root,
                            {"R-1": Evidence("R-1", "valid", "direct", 2)})
    dot = export_dot(g)
    assert dot.startswith("digraph safety_case {")
    assert dot.count(" -> ") == 3
    assert 'shape=box]' in dot
    assert "shape=parallelogram" in dot
    assert "shape=box, style=rounded" in dot
    assert "shape=circle" in dot
    assert dot.count("style=dashed") == 1


def test_dot_export_escapes_quotes():
    g = mini(GsnElement("g", Kind.GOAL, 'say "hi"'), roots=("g",))
    assert '\\"hi\\"' in export_dot(g)


def test_dot_export_refuses_defective_links():
    g = mini(
        GsnElement("g", Kind.GOAL, "goal"),
        GsnElement("c", Kind.CONTEXT, "ctx"),
        links=(GsnLink(LinkKind.SUPPORTED_BY, "g", "c"),),
        roots=("g",))
    with pytest.raises(SafetyCaseError, match="link-kind"):
        export_dot(g)


# --- the link index against a full scan -----------------------------------------

class _ScanGraph(GsnGraph):
    """Reference graph: out_links scans every link, as before the index."""

    def out_links(self, eid, kind=None):
        return [l for l in self.links
                if l.src == eid and (kind is None or l.kind is kind)]


def _recursive_max_depth(g):
    """The recursive depth walk that metrics used to run, kept as the
    reference for its cycle semantics."""
    memo = {}

    def depth(eid, trail):
        if eid in memo:
            return memo[eid]
        if eid in trail:
            return 0
        best = 0
        for l in g.out_links(eid, LinkKind.SUPPORTED_BY):
            if l.dst in g.elements:
                best = max(best, 1 + depth(l.dst, trail | {eid}))
        memo[eid] = best
        return best

    return max((depth(r, frozenset()) for r in g.roots
                if r in g.elements), default=0)


def _rescan_cycle_defects(g):
    """The cycle pass that validate used to run, which rebuilds a node's
    children each time its frame is popped; the reference for the order
    of cycle defects."""
    out = []
    color = {}
    for start in g.elements:
        if color.get(start):
            continue
        stack = [(start, 0)]
        while stack:
            node, i = stack.pop()
            if i == 0:
                if color.get(node) == 2:
                    continue
                color[node] = 1
            succ = [l.dst for l in g.out_links(node, LinkKind.SUPPORTED_BY)
                    if l.dst in g.elements]
            if i < len(succ):
                stack.append((node, i + 1))
                nxt = succ[i]
                if color.get(nxt) == 1:
                    out.append(nxt)
                elif not color.get(nxt):
                    stack.append((nxt, 0))
            else:
                color[node] = 2
    return out


_IDS = ("a", "b", "c", "d", "e", "f")
_GHOSTS = ("x", "y")  # ids that name no element


@st.composite
def small_graphs(draw):
    """Small graphs of any shape: both link kinds, duplicate links,
    self-loops, cycles, dangling endpoints and missing roots."""
    present = draw(st.lists(st.sampled_from(_IDS), unique=True,
                            min_size=2, max_size=6))
    elements = [GsnElement(i, draw(st.sampled_from(list(Kind))),
                           f"element {i}",
                           {"formalized": draw(st.booleans())})
                for i in present]
    # endpoints among the present ids make cycles common
    ends = st.sampled_from(tuple(present) + _GHOSTS)
    links = draw(st.lists(st.builds(GsnLink, st.sampled_from(list(LinkKind)),
                                    ends, ends), min_size=3, max_size=20))
    roots = draw(st.lists(ends, max_size=3))
    return elements, links, roots


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_link_index_matches_a_full_scan(graph):
    elements, links, roots = graph
    g = GsnGraph(elements, links, roots)
    ref = _ScanGraph(elements, links, roots)
    for eid in _IDS + _GHOSTS:
        for kind in (None, *LinkKind):
            assert g.out_links(eid, kind) == ref.out_links(eid, kind)
        assert g.support_closure(eid) == ref.support_closure(eid)
        assert query(g, related_to=eid) == query(ref, related_to=eid)
    assert query(g, related_to="") == query(ref, related_to="")
    assert validate(g) == validate(ref)
    assert [d.subject for d in validate(g) if d.kind == "cycle"] \
        == _rescan_cycle_defects(ref)
    assert metrics(g) == metrics(ref)
    assert metrics(g)["max_depth"] == _recursive_max_depth(ref)
    for goal in g.by_kind(Kind.GOAL):
        assert check_leaf_support(g, goal.id) \
            == check_leaf_support(ref, goal.id)
    # export_dot refuses exactly the graphs whose validate report has a
    # link-kind defect, and names the first one
    bad = [d for d in validate(ref) if d.kind == "link-kind"]
    if bad:
        with pytest.raises(SafetyCaseError) as exc:
            export_dot(g)
        assert str(exc.value) == (
            f"cannot export: {len(bad)} link-kind defect(s), first is "
            f"{bad[0].subject}: {bad[0].detail}")
    else:
        assert export_dot(g).count(" -> ") == len(links)


def test_deep_support_chain_needs_no_recursion():
    n = 1200
    goals = [GsnElement(f"g{i}", Kind.GOAL, f"step {i}") for i in range(n)]
    sol = GsnElement("sn", Kind.SOLUTION, "proved", {"formalized": True})
    links = [GsnLink(LinkKind.SUPPORTED_BY, f"g{i}", f"g{i + 1}")
             for i in range(n - 1)]
    links.append(GsnLink(LinkKind.SUPPORTED_BY, f"g{n - 1}", "sn"))
    g = GsnGraph(goals + [sol], links, ["g0"])
    assert metrics(g)["max_depth"] == n
    assert validate(g) == []
    assert check_leaf_support(g, "g0").formal == (f"g{n - 1}",)


def test_related_to_query_is_linear_on_a_long_chain():
    # every goal of the chain matches and each one's closure holds the
    # rest of the chain, so a union of per-goal closures is quadratic
    n = 2000
    elements = [GsnElement(f"g{i}", Kind.GOAL, f"hold {i}") for i in range(n)]
    elements += [GsnElement(f"sn{i}", Kind.SOLUTION, f"proof {i}")
                 for i in range(n)]
    elements += [GsnElement("x", Kind.GOAL, "other"),
                 GsnElement("snx", Kind.SOLUTION, "proof x")]
    random.Random(4).shuffle(elements)
    sb = LinkKind.SUPPORTED_BY
    links = [GsnLink(sb, f"g{i}", f"g{i + 1}") for i in range(n - 1)]
    links += [GsnLink(sb, f"g{i}", f"sn{i}") for i in range(n)]
    links += [GsnLink(sb, "x", "snx"), GsnLink(sb, "x", "g0")]
    g = GsnGraph(elements, links, ["x"])
    # the union of the matching goals' closures; a goal already in it
    # adds nothing, since its closure lies in the one that reached it
    want: set[str] = set()
    for el in g.elements.values():
        if el.kind is Kind.GOAL and "hold" in el.text and el.id not in want:
            want.update(g.support_closure(el.id))
    t0 = perf_counter()
    got = query(g, related_to="hold")
    took = perf_counter() - t0
    assert [el.id for el in got] == [i for i in g.elements if i in want]
    assert len(got) == 2 * n
    assert took < 1.0, took


# --- synthetic scale and the count law -----------------------------------------

def test_synthetic_tree_hits_the_closed_form():
    root, results = synthetic_requirements()
    n_req = sum(1 for _ in root.walk())
    leaves = sum(1 for r in root.walk() if not r.children)
    assert n_req == 500 and leaves == 375
    g = instantiate_pattern(DEFAULT_PATTERN, root, results)
    assert len(g) == 3 * n_req + leaves == 1875
    assert count_law(DEFAULT_PATTERN, root, results) == len(g)
    assert validate(g) == []
    m = metrics(g)
    assert m["undeveloped"] == 0
    assert m["formalized_fraction"] == 1.0
    assert m["max_depth"] == 11
    # a four-placeholder pattern stands in for the whole case
    assert len(g) / len(DEFAULT_PATTERN.nodes) >= 100
    assert g.elements["strategy:REQ-000"].metadata["label"] \
        == LABEL_FORMAL_COMP


def test_synthetic_case_at_5000_requirements():
    root, results = synthetic_requirements(5000)
    g = instantiate_pattern(DEFAULT_PATTERN, root, results)
    leaves = sum(1 for r in root.walk() if not r.children)
    assert leaves == 3750
    assert len(g) == count_law(DEFAULT_PATTERN, root, results) \
        == 3 * 5000 + leaves == 18750
    assert validate(g) == []
    m = metrics(g)
    assert m["max_depth"] == 13
    assert m["undeveloped"] == 0
    assert export_dot(g).count(" -> ") == len(g.links)


def shape_strategy(depth=0):
    if depth >= 4:
        return st.just(None)
    return st.one_of(
        st.just(None),
        st.lists(shape_strategy(depth + 1), min_size=1, max_size=3))


@st.composite
def tree_and_results(draw):
    shape = draw(shape_strategy())
    ids = itertools.count()
    results = {}

    def build(s):
        rid = f"R{next(ids)}"
        kids = tuple(build(c) for c in (s or ()))
        verdict = draw(st.sampled_from(
            ("valid", "valid", "informal", "unknown", None)))
        if verdict is not None:
            results[rid] = Evidence(rid, verdict, "direct", 1)
        return RequirementNode(rid, f"requirement {rid}", kids)

    return build(shape), results


@settings(max_examples=60, deadline=None)
@given(tree_and_results())
def test_count_law_matches_brute_force(tr):
    root, results = tr
    g = instantiate_pattern(DEFAULT_PATTERN, root, results)
    n_req = sum(1 for _ in root.walk())
    evidenced = sum(1 for r in root.walk()
                    if not r.children and r.id in results)
    assert len(g) == 3 * n_req + evidenced
    assert count_law(DEFAULT_PATTERN, root, results) == len(g)
    assert validate(g) == []
    # construction is deterministic and its taxonomy is closed
    assert graph_to_json(instantiate_pattern(DEFAULT_PATTERN, root,
                                             results)) == graph_to_json(g)
    for strat in g.by_kind(Kind.STRATEGY):
        assert strat.metadata["label"] in sc.STRATEGY_LABELS
