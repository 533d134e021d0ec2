"""Goal-structuring-notation safety cases.

A case is a graph of six element kinds joined by two link kinds:
SupportedBy edges carry the argument (goals decompose through strategies
down to solutions), InContextOf edges attach context, assumptions and
justifications.  Cases are built by instantiating a small argument
pattern over a requirement tree annotated with verification results,
then queried, measured, validated, and exported (canonical JSON, DOT).

Graphs are immutable after construction; all queries are read-only.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

__all__ = [
    "Kind", "LinkKind", "GsnElement", "GsnLink", "GsnGraph",
    "Evidence", "RequirementNode", "PatternNode", "PatternLink",
    "GsnPattern", "DEFAULT_PATTERN",
    "LABEL_DIRECT", "LABEL_FORMAL_COMP", "LABEL_INFORMAL",
    "SafetyCaseError", "Defect", "LeafSupport",
    "instantiate_pattern", "count_law", "validate", "check_leaf_support",
    "query", "metrics", "export_dot",
    "graph_to_json", "graph_from_json",
    "pattern_from_json_obj",
    "requirements_from_json",
    "synthetic_requirements",
]


class SafetyCaseError(Exception):
    """Malformed pattern, tree, results, or serialized case."""


class Kind(enum.Enum):
    GOAL = "Goal"
    STRATEGY = "Strategy"
    CONTEXT = "Context"
    SOLUTION = "Solution"
    ASSUMPTION = "Assumption"
    JUSTIFICATION = "Justification"


class LinkKind(enum.Enum):
    SUPPORTED_BY = "SupportedBy"
    IN_CONTEXT_OF = "InContextOf"


# legal targets: SupportedBy carries argument structure, InContextOf
# hangs contextual elements off it
_SB_TARGETS = {
    Kind.GOAL: {Kind.GOAL, Kind.STRATEGY, Kind.SOLUTION},
    Kind.STRATEGY: {Kind.GOAL},
}
_ICO_SOURCES = {Kind.GOAL, Kind.STRATEGY}
_ICO_TARGETS = {Kind.CONTEXT, Kind.ASSUMPTION, Kind.JUSTIFICATION}

LABEL_DIRECT = "argument by direct formal proof"
LABEL_FORMAL_COMP = ("formal compositional reasoning over formally "
                     "proved component goals")
LABEL_INFORMAL = "informal compositional reasoning"
STRATEGY_LABELS = (LABEL_DIRECT, LABEL_FORMAL_COMP, LABEL_INFORMAL)


@dataclass(frozen=True)
class GsnElement:
    id: str
    kind: Kind
    text: str
    metadata: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
class GsnLink:
    kind: LinkKind
    src: str
    dst: str


class GsnGraph:
    """Element store plus links and designated root goals.  Construction
    only enforces id uniqueness; structural health is ``validate``'s
    job, so defective graphs can be loaded and diagnosed.

    Links are fixed at construction and indexed by source, so
    ``out_links`` costs the out-degree of one element, not a scan of
    every link; every walk over the argument goes through it."""

    def __init__(self, elements: Iterable[GsnElement] = (),
                 links: Iterable[GsnLink] = (),
                 roots: Iterable[str] = ()):
        self.elements: dict[str, GsnElement] = {}
        for el in elements:
            if el.id in self.elements:
                raise SafetyCaseError(f"duplicate element id {el.id!r}")
            self.elements[el.id] = el
        self.links: tuple[GsnLink, ...] = tuple(links)
        self.roots: tuple[str, ...] = tuple(roots)
        self._out: dict[str, list[GsnLink]] = {}
        for l in self.links:
            self._out.setdefault(l.src, []).append(l)

    def __len__(self) -> int:
        return len(self.elements)

    def by_kind(self, kind: Kind) -> list[GsnElement]:
        return [e for e in self.elements.values() if e.kind is kind]

    def out_links(self, eid: str,
                  kind: Optional[LinkKind] = None) -> list[GsnLink]:
        """Links leaving eid, optionally of one kind, in link order."""
        return [l for l in self._out.get(eid, ())
                if kind is None or l.kind is kind]

    def solutions_of(self, goal_id: str) -> list[GsnElement]:
        out = []
        for l in self.out_links(goal_id, LinkKind.SUPPORTED_BY):
            el = self.elements.get(l.dst)
            if el is not None and el.kind is Kind.SOLUTION:
                out.append(el)
        return out

    def support_closure(self, *starts: str) -> list[str]:
        """Ids reachable from the starts along SupportedBy edges, starts
        included, in BFS order: one walk with one seen set, so each id
        is visited once however many starts reach it."""
        seen = list(dict.fromkeys(starts))
        seen_set = set(seen)
        i = 0
        while i < len(seen):
            for l in self.out_links(seen[i], LinkKind.SUPPORTED_BY):
                if l.dst not in seen_set and l.dst in self.elements:
                    seen_set.add(l.dst)
                    seen.append(l.dst)
            i += 1
        return seen


# --- verification evidence and requirement trees ----------------------------

@dataclass(frozen=True)
class Evidence:
    """What is known about one requirement: a formal verdict, an
    informal substitute (testing, review), or nothing."""

    property_id: str
    verdict: str                # "valid", "falsified", "unknown", "informal"
    method: str = ""
    k: Optional[int] = None
    locator: str = ""

    @property
    def formal(self) -> bool:
        return self.verdict == "valid"

    @property
    def informal(self) -> bool:
        return self.verdict == "informal"

    def detail(self) -> str:
        bits = [f"{self.property_id} {self.verdict}"]
        extra = ", ".join(x for x in (
            self.method, f"k={self.k}" if self.k is not None else "") if x)
        if extra:
            bits.append(f"({extra})")
        if self.locator:
            bits.append(f"[{self.locator}]")
        return " ".join(bits)


def evidence_from_json(obj: Mapping) -> Evidence:
    try:
        return Evidence(property_id=obj["property"],
                        verdict=obj["verdict"],
                        method=obj.get("method", ""),
                        k=obj.get("k"),
                        locator=obj.get("locator", ""))
    except KeyError as exc:
        raise SafetyCaseError(f"evidence record missing {exc}") from exc


@dataclass(frozen=True)
class RequirementNode:
    id: str
    text: str
    children: tuple["RequirementNode", ...] = ()
    verification: Optional[Evidence] = None
    metadata: Mapping = field(default_factory=dict)

    def walk(self) -> Iterable["RequirementNode"]:
        yield self
        for c in self.children:
            yield from c.walk()


def requirements_from_json(obj: Union[Mapping, Sequence]
                           ) -> list[RequirementNode]:
    """Parse a requirement tree (or forest) from its JSON form."""
    def node(o: Mapping) -> RequirementNode:
        try:
            ver = o.get("verification")
            return RequirementNode(
                id=o["id"], text=o["text"],
                children=tuple(node(c) for c in o.get("children", ())),
                verification=evidence_from_json(ver) if ver else None,
                metadata=dict(o.get("metadata", {})))
        except KeyError as exc:
            raise SafetyCaseError(
                f"requirement node missing {exc}") from exc

    roots = [obj] if isinstance(obj, Mapping) else list(obj)
    return [node(r) for r in roots]


# --- argument patterns -------------------------------------------------------

@dataclass(frozen=True)
class PatternNode:
    """One placeholder: instantiated once per requirement or once per
    evidenced leaf.  Text templates may use {id}, {text}, {label},
    {unproved}, {detail}."""

    role: str
    kind: Kind
    text: str
    per: str  # "requirement" | "evidenced-leaf"


@dataclass(frozen=True)
class PatternLink:
    kind: LinkKind
    src: str
    dst: str  # role name, or "child-goal" for the per-child expansion


@dataclass(frozen=True)
class GsnPattern:
    name: str
    nodes: tuple[PatternNode, ...]
    links: tuple[PatternLink, ...]


DEFAULT_PATTERN = GsnPattern(
    name="requirement-argument",
    nodes=(
        PatternNode("goal", Kind.GOAL, "{id}: {text}", "requirement"),
        PatternNode("strategy", Kind.STRATEGY, "{label}{unproved}",
                    "requirement"),
        PatternNode("context", Kind.CONTEXT, "Operating context of {id}",
                    "requirement"),
        PatternNode("solution", Kind.SOLUTION, "{detail}", "evidenced-leaf"),
    ),
    links=(
        PatternLink(LinkKind.SUPPORTED_BY, "goal", "strategy"),
        PatternLink(LinkKind.IN_CONTEXT_OF, "goal", "context"),
        PatternLink(LinkKind.SUPPORTED_BY, "strategy", "child-goal"),
        PatternLink(LinkKind.SUPPORTED_BY, "goal", "solution"),
    ),
)


def pattern_from_json_obj(obj: Mapping) -> GsnPattern:
    try:
        return GsnPattern(
            name=obj.get("name", "pattern"),
            nodes=tuple(PatternNode(n["role"], Kind(n["kind"]), n["text"],
                                    n.get("per", "requirement"))
                        for n in obj["nodes"]),
            links=tuple(PatternLink(LinkKind(l["kind"]), l["from"], l["to"])
                        for l in obj.get("links", ())))
    except (KeyError, ValueError) as exc:
        raise SafetyCaseError(f"bad pattern JSON: {exc}") from exc


def _check_pattern(pattern: GsnPattern) -> PatternNode:
    """Structural checks; returns the per-requirement goal role."""
    if len(pattern.nodes) >= 20:
        raise SafetyCaseError(
            f"pattern {pattern.name!r} has {len(pattern.nodes)} "
            "placeholders; the limit is 19")
    roles = [n.role for n in pattern.nodes]
    if len(set(roles)) != len(roles):
        raise SafetyCaseError("pattern role names must be unique")
    for n in pattern.nodes:
        if n.per not in ("requirement", "evidenced-leaf"):
            raise SafetyCaseError(f"role {n.role!r}: unknown multiplicity "
                                  f"{n.per!r}")
    goals = [n for n in pattern.nodes
             if n.kind is Kind.GOAL and n.per == "requirement"]
    if len(goals) != 1:
        raise SafetyCaseError(
            "pattern/tree arity mismatch: need exactly one per-requirement "
            f"Goal role, found {len(goals)}")
    known = set(roles) | {"child-goal"}
    for l in pattern.links:
        if l.src not in known or l.dst not in known:
            raise SafetyCaseError(
                f"pattern link {l.src!r} -> {l.dst!r} references an "
                "unknown role")
    return goals[0]


# --- instantiation -----------------------------------------------------------

class _Fmt(dict):
    def __missing__(self, key: str) -> str:
        return ""


def _resolve(results: Mapping[str, Evidence],
             req: RequirementNode) -> Optional[Evidence]:
    # the results mapping wins over verification baked into the tree
    return results.get(req.id, req.verification)


def _fully_formal(req: RequirementNode,
                  results: Mapping[str, Evidence]) -> bool:
    e = _resolve(results, req)
    if e is None or not e.formal:
        return False
    return all(_fully_formal(c, results) for c in req.children)


def _strategy_label(req: RequirementNode,
                    results: Mapping[str, Evidence]
                    ) -> tuple[str, list[str]]:
    e = _resolve(results, req)
    if not req.children:
        if e is not None and e.formal:
            return LABEL_DIRECT, []
        return LABEL_INFORMAL, []
    unproved = [c.id for c in req.children if not _fully_formal(c, results)]
    if e is not None and e.formal and not unproved:
        return LABEL_FORMAL_COMP, []
    return LABEL_INFORMAL, unproved


def instantiate_pattern(pattern: GsnPattern,
                        requirements: Union[RequirementNode,
                                            Sequence[RequirementNode]],
                        results: Optional[Mapping[str, Evidence]] = None
                        ) -> GsnGraph:
    """Expand the pattern over the requirement tree: one root Goal per
    root requirement, strategy labels chosen from the verification
    results (direct formal proof for proved leaves, formal compositional
    when a composition check and all children are proved, informal
    otherwise), a Context per Goal, and a Solution per evidenced leaf.

    A pure function of its inputs: same pattern, tree, and results give
    the same graph, element for element.
    """
    roots = ([requirements] if isinstance(requirements, RequirementNode)
             else list(requirements))
    res: Mapping[str, Evidence] = dict(results or {})
    goal_role = _check_pattern(pattern)

    seen_ids: set[str] = set()
    for r in roots:
        for req in r.walk():
            if req.id in seen_ids:
                raise SafetyCaseError(
                    f"requirement id {req.id!r} appears twice in the tree")
            seen_ids.add(req.id)

    elements: list[GsnElement] = []
    links: list[GsnLink] = []
    role_kind = {n.role: n.kind for n in pattern.nodes}

    def eid(role: str, req_id: str) -> str:
        return f"{role}:{req_id}"

    def emit(req: RequirementNode) -> str:
        e = _resolve(res, req)
        label, unproved = _strategy_label(req, res)
        evidenced_leaf = not req.children and e is not None
        fmt = _Fmt(id=req.id, text=req.text, label=label,
                   unproved=("; unproved children: " + ", ".join(unproved)
                             if unproved else ""),
                   detail=e.detail() if e else "")
        made: dict[str, str] = {}
        for pn in pattern.nodes:
            if pn.per == "evidenced-leaf" and not evidenced_leaf:
                continue
            meta: dict = {}
            if pn.kind is Kind.GOAL:
                meta["formalized"] = _fully_formal(req, res)
                meta.update(req.metadata)
            elif pn.kind is Kind.STRATEGY:
                meta["label"] = label
                if unproved:
                    meta["unproved_children"] = list(unproved)
            elif pn.kind is Kind.SOLUTION and e is not None:
                meta["formalized"] = e.formal
                meta["property"] = e.property_id
                meta["verdict"] = e.verdict
            made[pn.role] = eid(pn.role, req.id)
            elements.append(GsnElement(made[pn.role], pn.kind,
                                       pn.text.format_map(fmt), meta))
        child_goals = [emit(c) for c in req.children]
        for pl in pattern.links:
            if pl.dst == "child-goal":
                if pl.src in made:
                    links.extend(GsnLink(pl.kind, made[pl.src], cg)
                                 for cg in child_goals)
            elif pl.src in made and pl.dst in made:
                links.append(GsnLink(pl.kind, made[pl.src], made[pl.dst]))
        return made[goal_role.role]

    root_ids = [emit(r) for r in roots]
    return GsnGraph(elements, links, root_ids)


def count_law(pattern: GsnPattern,
              requirements: Union[RequirementNode,
                                  Sequence[RequirementNode]],
              results: Optional[Mapping[str, Evidence]] = None) -> int:
    """Closed-form element count of an instantiation: (requirements x
    per-requirement roles) + (evidenced leaves x per-leaf roles).  With
    the default pattern this is 3R + P."""
    roots = ([requirements] if isinstance(requirements, RequirementNode)
             else list(requirements))
    res: Mapping[str, Evidence] = dict(results or {})
    per_req = sum(n.per == "requirement" for n in pattern.nodes)
    per_leaf = sum(n.per == "evidenced-leaf" for n in pattern.nodes)
    n_req = 0
    n_ev = 0
    for r in roots:
        for req in r.walk():
            n_req += 1
            if not req.children and _resolve(res, req) is not None:
                n_ev += 1
    return n_req * per_req + n_ev * per_leaf


# --- validation --------------------------------------------------------------

@dataclass(frozen=True)
class Defect:
    kind: str     # "link-kind" | "cycle" | "undeveloped-goal" | "orphan"
    subject: str  # element id or "src->dst"
    detail: str


def _link_kind_defects(g: GsnGraph) -> list[Defect]:
    """Links whose endpoint kinds GSN forbids or that dangle, then roots
    that name no element."""
    out: list[Defect] = []
    for l in g.links:
        name = f"{l.src}->{l.dst}"
        src = g.elements.get(l.src)
        dst = g.elements.get(l.dst)
        if src is None or dst is None:
            out.append(Defect("link-kind", name, "dangling endpoint"))
            continue
        if l.kind is LinkKind.SUPPORTED_BY:
            allowed = _SB_TARGETS.get(src.kind, set())
            if dst.kind not in allowed:
                out.append(Defect(
                    "link-kind", name,
                    f"SupportedBy {src.kind.value} -> {dst.kind.value} "
                    "is not allowed"))
        else:
            if src.kind not in _ICO_SOURCES or dst.kind not in _ICO_TARGETS:
                out.append(Defect(
                    "link-kind", name,
                    f"InContextOf {src.kind.value} -> {dst.kind.value} "
                    "is not allowed"))
    for r in g.roots:
        if r not in g.elements:
            out.append(Defect("link-kind", r,
                              "root references a missing element"))
    return out


def _support_children(g: GsnGraph, eid: str) -> list[str]:
    return [l.dst for l in g.out_links(eid, LinkKind.SUPPORTED_BY)
            if l.dst in g.elements]


def validate(g: GsnGraph) -> list[Defect]:
    """Structural health report: bad link kinds (including dangling
    endpoints), SupportedBy cycles, undeveloped goals, and elements no
    root can reach.  Defects are data, not exceptions."""
    out = _link_kind_defects(g)

    # SupportedBy cycles via iterative three-color DFS
    color: dict[str, int] = {}
    for start in g.elements:
        if color.get(start):
            continue
        color[start] = 1
        # frames: [node, children, next child index]
        stack = [[start, _support_children(g, start), 0]]
        while stack:
            frame = stack[-1]
            node, succ, i = frame
            if i == len(succ):
                color[node] = 2
                stack.pop()
                continue
            frame[2] = i + 1
            nxt = succ[i]
            if color.get(nxt) == 1:
                out.append(Defect("cycle", nxt,
                                  "SupportedBy cycle through this "
                                  "element"))
            elif not color.get(nxt):
                color[nxt] = 1
                stack.append([nxt, _support_children(g, nxt), 0])

    for el in g.elements.values():
        if el.kind is Kind.GOAL:
            if not g.out_links(el.id, LinkKind.SUPPORTED_BY):
                out.append(Defect("undeveloped-goal", el.id,
                                  "goal has no support and no solution"))

    reach: set[str] = set()
    for r in g.roots:
        if r in g.elements:
            reach.update(g.support_closure(r))
    # context-kind elements ride along their anchors
    for l in g.links:
        if l.kind is LinkKind.IN_CONTEXT_OF and l.src in reach:
            reach.add(l.dst)
    for el in g.elements.values():
        if el.id not in reach and el.id not in g.roots:
            out.append(Defect("orphan", el.id,
                              "not reachable from any root"))
    return out


# --- queries and reports -----------------------------------------------------

@dataclass(frozen=True)
class LeafSupport:
    root: str
    formal: tuple[str, ...]
    informal: tuple[str, ...]
    undeveloped: tuple[str, ...]


def check_leaf_support(g: GsnGraph, root: str) -> LeafSupport:
    """Classify every leaf goal under the given root goal by the quality
    of the evidence attached to it."""
    el = g.elements.get(root)
    if el is None or el.kind is not Kind.GOAL:
        raise SafetyCaseError(f"unknown root goal {root!r}")
    closure = g.support_closure(root)
    goals = [i for i in closure if g.elements[i].kind is Kind.GOAL]

    def has_child_goal(gid: str) -> bool:
        for l in g.out_links(gid, LinkKind.SUPPORTED_BY):
            nxt = g.elements.get(l.dst)
            if nxt is None:
                continue
            if nxt.kind is Kind.GOAL:
                return True
            if nxt.kind is Kind.STRATEGY:
                if any(g.elements.get(m.dst) is not None
                       and g.elements[m.dst].kind is Kind.GOAL
                       for m in g.out_links(nxt.id, LinkKind.SUPPORTED_BY)):
                    return True
        return False

    formal: list[str] = []
    informal: list[str] = []
    undeveloped: list[str] = []
    for gid in goals:
        if has_child_goal(gid):
            continue
        sols = g.solutions_of(gid)
        if any(s.metadata.get("formalized") is True for s in sols):
            formal.append(gid)
        elif sols:
            informal.append(gid)
        else:
            undeveloped.append(gid)
    return LeafSupport(root, tuple(formal), tuple(informal),
                       tuple(undeveloped))


def query(g: GsnGraph,
          kind: Optional[Kind] = None,
          text: Optional[str] = None,
          metadata: Optional[Callable[[Mapping], bool]] = None,
          related_to: Optional[str] = None) -> list[GsnElement]:
    """Conjunctive element filter.  ``related_to`` restricts to the
    SupportedBy closure of the goals whose text contains the given
    substring."""
    pool: Iterable[GsnElement] = g.elements.values()
    if related_to is not None:
        anchor = set(g.support_closure(
            *(el.id for el in g.elements.values()
              if el.kind is Kind.GOAL and related_to in el.text)))
        pool = [g.elements[i] for i in g.elements if i in anchor]
    out = []
    for el in pool:
        if kind is not None and el.kind is not kind:
            continue
        if text is not None and text not in el.text:
            continue
        if metadata is not None and not metadata(el.metadata):
            continue
        out.append(el)
    return out


def _support_depths(g: GsnGraph) -> Iterable[int]:
    """Longest SupportedBy path (in edges) below each root that exists.

    An explicit-stack DFS with a memo shared across roots.  A child
    already on the current path counts 0 (the cycle guard; validate
    reports the cycle), and a node's depth is memoized when its walk
    ends, so on a cyclic graph the value depends on the path that
    reached the node first, exactly as a recursive walk would give."""
    memo: dict[str, int] = {}
    for root in g.roots:
        if root not in g.elements:
            continue
        if root not in memo:
            on_path = {root}
            # frames: [node, children, next child index, best so far]
            stack = [[root, _support_children(g, root), 0, 0]]
            while stack:
                frame = stack[-1]
                node, succ, i, best = frame
                if i == len(succ):
                    memo[node] = best
                    on_path.remove(node)
                    stack.pop()
                    if stack:
                        stack[-1][3] = max(stack[-1][3], 1 + best)
                    continue
                frame[2] = i + 1
                nxt = succ[i]
                if nxt in memo:
                    frame[3] = max(best, 1 + memo[nxt])
                elif nxt in on_path:
                    frame[3] = max(best, 1)
                else:
                    on_path.add(nxt)
                    stack.append([nxt, _support_children(g, nxt), 0, 0])
        yield memo[root]


def metrics(g: GsnGraph) -> dict:
    """Counts per kind, total, longest SupportedBy path from a root (in
    edges), undeveloped goal count, and the fraction of solutions that
    are formal.  The depth walk is iterative, so a deep argument needs
    no recursion, and it keeps the cycle guard: on a SupportedBy cycle
    the path stops where it meets itself."""
    counts = {k.value: 0 for k in Kind}
    for el in g.elements.values():
        counts[el.kind.value] += 1

    max_depth = max(_support_depths(g), default=0)
    undeveloped = sum(
        1 for el in g.elements.values()
        if el.kind is Kind.GOAL
        and not g.out_links(el.id, LinkKind.SUPPORTED_BY))
    sols = g.by_kind(Kind.SOLUTION)
    formal = sum(1 for s in sols if s.metadata.get("formalized") is True)
    return {
        "counts": counts,
        "total": len(g),
        "max_depth": max_depth,
        "undeveloped": undeveloped,
        "formalized_fraction": formal / len(sols) if sols else 0.0,
    }


# --- serialization -----------------------------------------------------------

def graph_to_json_obj(g: GsnGraph) -> dict:
    return {
        "elements": [
            {"id": e.id, "kind": e.kind.value, "text": e.text,
             "metadata": dict(e.metadata)}
            for e in g.elements.values()],
        "links": [
            {"kind": l.kind.value, "from": l.src, "to": l.dst}
            for l in g.links],
        "roots": list(g.roots),
    }


def graph_to_json(g: GsnGraph) -> str:
    return json.dumps(graph_to_json_obj(g), indent=2)


def graph_from_json_obj(obj: Mapping) -> GsnGraph:
    try:
        elements = [GsnElement(e["id"], Kind(e["kind"]), e["text"],
                               dict(e.get("metadata", {})))
                    for e in obj["elements"]]
        links = [GsnLink(LinkKind(l["kind"]), l["from"], l["to"])
                 for l in obj["links"]]
        roots = list(obj.get("roots", []))
    except (KeyError, ValueError) as exc:
        raise SafetyCaseError(f"bad safety case JSON: {exc}") from exc
    return GsnGraph(elements, links, roots)


def graph_from_json(text: str) -> GsnGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SafetyCaseError(f"bad safety case JSON: {exc}") from exc
    return graph_from_json_obj(obj)


_DOT_SHAPE = {
    Kind.GOAL: "shape=box",
    Kind.STRATEGY: "shape=parallelogram",
    Kind.CONTEXT: "shape=box, style=rounded",
    Kind.SOLUTION: "shape=circle",
    Kind.ASSUMPTION: "shape=ellipse",
    Kind.JUSTIFICATION: "shape=ellipse",
}


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def export_dot(g: GsnGraph) -> str:
    """Graphviz rendering with the usual GSN shapes.  Refuses graphs
    whose links are structurally wrong; run validate first."""
    bad = _link_kind_defects(g)
    if bad:
        raise SafetyCaseError(
            f"cannot export: {len(bad)} link-kind defect(s), first is "
            f"{bad[0].subject}: {bad[0].detail}")
    lines = ["digraph safety_case {", "  rankdir=TB;"]
    for el in g.elements.values():
        lines.append(f'  "{_dot_escape(el.id)}" '
                     f'[label="{_dot_escape(el.text)}", '
                     f'{_DOT_SHAPE[el.kind]}];')
    for l in g.links:
        style = ("" if l.kind is LinkKind.SUPPORTED_BY
                 else " [style=dashed, arrowhead=empty]")
        lines.append(f'  "{_dot_escape(l.src)}" -> '
                     f'"{_dot_escape(l.dst)}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- synthetic requirement trees ---------------------------------------------

def synthetic_requirements(count: int = 500, branching: int = 4
                           ) -> tuple[RequirementNode,
                                      dict[str, Evidence]]:
    """A deterministic requirement tree of the given size in heap
    layout (node i's children are at branching*i + 1..branching), with
    every leaf formally proved and every internal composition checked.
    With the default pattern the instance has 3*count + leaves
    elements; at 500 requirements and branching 4 that is 1875."""
    if count < 1:
        raise SafetyCaseError("need at least one requirement")
    results: dict[str, Evidence] = {}

    def build(i: int) -> RequirementNode:
        rid = f"REQ-{i:03d}"
        kids = tuple(build(j) for j in
                     range(branching * i + 1,
                           min(branching * i + 1 + branching, count)))
        results[rid] = Evidence(
            property_id=rid, verdict="valid",
            method="compositional" if kids else "direct",
            k=1, locator="synthetic")
        return RequirementNode(rid, f"Synthetic requirement {i}", kids)

    return build(0), results
