"""Goal-structuring-notation safety cases.

A case is a graph of six element kinds joined by two link kinds:
SupportedBy edges carry the argument (goals decompose through strategies
down to solutions), InContextOf edges attach context, assumptions and
justifications.  Cases are built by instantiating a small argument
pattern over a requirement tree annotated with verification results,
then queried, measured, validated, and exported (canonical JSON, DOT).

The JSON text is exactly ``json.dumps(obj, indent=2)`` of the case's
JSON object.  It is written by hand because on CPython 3.10 to 3.12 the
C encoder cannot indent, so ``indent=2`` runs the pure-Python encoder,
which costs about five times as much.

Graphs are immutable after construction; all queries are read-only.
"""

from __future__ import annotations

import enum
import json
from json.encoder import encode_basestring_ascii as _quote
from dataclasses import dataclass, field, replace
from typing import (Callable, Iterable, Iterator, Mapping, Optional, Sequence,
                    Union)

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


# graph_from_json_obj's value tables: one dict lookup per element or link
# instead of a call of Enum.__call__
_KIND_OF_VALUE = {k.value: k for k in Kind}
_LINK_KIND_OF_VALUE = {k.value: k for k in LinkKind}


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

    Links are fixed at construction.  ``supported_by`` maps each element
    to its SupportedBy targets in link order, dangling targets kept; it
    is the one index, and every walk over the argument reads it."""

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
        self.supported_by: dict[str, list[str]] = {}
        for l in self.links:
            if l.kind is LinkKind.SUPPORTED_BY:
                self.supported_by.setdefault(l.src, []).append(l.dst)

    def __len__(self) -> int:
        return len(self.elements)

    def by_kind(self, kind: Kind) -> list[GsnElement]:
        return [e for e in self.elements.values() if e.kind is kind]

    def support_closure(self, *starts: str) -> list[str]:
        """Ids reachable from the starts along SupportedBy edges, starts
        included, in BFS order: one walk with one seen set, so each id
        is visited once however many starts reach it."""
        seen = list(dict.fromkeys(starts))
        seen_set = set(seen)
        i = 0
        while i < len(seen):
            for dst in self.supported_by.get(seen[i], ()):
                if dst not in seen_set and dst in self.elements:
                    seen_set.add(dst)
                    seen.append(dst)
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
    if not isinstance(obj, Mapping):
        raise SafetyCaseError(f"evidence record {obj!r:.40} is not an object")
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
        """This requirement and all below it, in preorder."""
        stack = [self]
        while stack:
            req = stack.pop()
            yield req
            stack.extend(reversed(req.children))


def _fold_tree(roots: Sequence, down: Callable, up: Callable) -> list:
    """Fold trees without recursion. down(x), called in preorder,
    returns the children of x; up(x, values), called once the children's
    subtrees are done, returns the value of x from its children's values.
    Returns the values of the roots."""
    values: list = []
    todo: list = [(x, None) for x in reversed(roots)]
    while todo:
        x, n = todo.pop()
        if n is None:
            kids = down(x)
            todo.append((x, len(kids)))
            todo.extend((c, None) for c in reversed(kids))
        else:
            cut = len(values) - n
            value = up(x, values[cut:])
            values[cut:] = [value]
    return values


def requirements_from_json(obj: Union[Mapping, Sequence]
                           ) -> list[RequirementNode]:
    """Parse a requirement tree (or forest) from its JSON form."""
    def check(o: Mapping) -> list:
        if not isinstance(o, Mapping):
            raise SafetyCaseError(
                f"requirement node {o!r:.40} is not an object")
        for key in ("id", "text"):
            if key not in o:
                raise SafetyCaseError(f"requirement node missing {key!r}")
        children = o.get("children", [])
        if not isinstance(children, list):
            raise SafetyCaseError(
                f"requirement node {o['id']!r}: children is not a list")
        if not isinstance(o.get("metadata", {}), Mapping):
            raise SafetyCaseError(
                f"requirement node {o['id']!r}: metadata is not an object")
        return children

    def node(o: Mapping, children: list) -> RequirementNode:
        ver = o.get("verification")
        return RequirementNode(
            id=o["id"], text=o["text"], children=tuple(children),
            verification=evidence_from_json(ver) if ver else None,
            metadata=dict(o.get("metadata", {})))

    if isinstance(obj, Mapping):
        obj = [obj]
    elif not isinstance(obj, list):
        raise SafetyCaseError(
            f"requirement forest {obj!r:.40} is neither an object nor a list")
    return _fold_tree(obj, check, node)


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
    if not isinstance(obj, Mapping):
        raise SafetyCaseError(
            f"bad pattern JSON: pattern {obj!r:.40} is not an object")
    for key, fields in (("nodes", ("role", "kind", "text", "per")),
                        ("links", ("kind", "from", "to"))):
        items = obj.get(key, [])
        if not isinstance(items, list):
            raise SafetyCaseError(f"bad pattern JSON: {key} is not a list")
        for o in items:
            if not isinstance(o, Mapping):
                raise SafetyCaseError(f"bad pattern JSON: {key} entry "
                                      f"{o!r:.40} is not an object")
            for f in fields:
                if not isinstance(o.get(f, ""), str):
                    raise SafetyCaseError(f"bad pattern JSON: {f} "
                                          f"{o[f]!r:.40} is not a string")
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


def _strategy_label(req: RequirementNode, e: Optional[Evidence],
                    formal: Mapping[str, bool]) -> tuple[str, list[str]]:
    if not req.children:
        if e is not None and e.formal:
            return LABEL_DIRECT, []
        return LABEL_INFORMAL, []
    unproved = [c.id for c in req.children if not formal[c.id]]
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
    the same graph, element for element.  Linear in the size of the
    tree: each requirement's evidence is looked up twice.
    """
    roots = ([requirements] if isinstance(requirements, RequirementNode)
             else list(requirements))
    res: Mapping[str, Evidence] = dict(results or {})
    goal_role = _check_pattern(pattern)

    # formal[id]: the requirement and its whole subtree are proved. A
    # requirement's elements precede its subtree's but depend on it, so
    # their slots are taken on the way down and filled on the way up.
    formal: dict[str, bool] = {}
    elements: list = []
    links: list[GsnLink] = []
    first_slot: dict[str, int] = {}

    def eid(role: str, req_id: str) -> str:
        return f"{role}:{req_id}"

    def roles(req: RequirementNode, e: Optional[Evidence]) -> list:
        evidenced_leaf = not req.children and e is not None
        return [pn for pn in pattern.nodes
                if pn.per == "requirement" or evidenced_leaf]

    def claim(req: RequirementNode) -> tuple[RequirementNode, ...]:
        if req.id in formal:
            raise SafetyCaseError(
                f"requirement id {req.id!r} appears twice in the tree")
        formal[req.id] = False  # claims the id before the subtree is seen
        first_slot[req.id] = len(elements)
        elements.extend([None] * len(roles(req, _resolve(res, req))))
        return req.children

    def emit(req: RequirementNode, child_goals: list[str]) -> str:
        e = _resolve(res, req)
        formal[req.id] = (e is not None and e.formal
                          and all(formal[c.id] for c in req.children))
        label, unproved = _strategy_label(req, e, formal)
        fmt = _Fmt(id=req.id, text=req.text, label=label,
                   unproved=("; unproved children: " + ", ".join(unproved)
                             if unproved else ""),
                   detail=e.detail() if e else "")
        made: dict[str, str] = {}
        for i, pn in enumerate(roles(req, e), first_slot.pop(req.id)):
            meta: dict = {}
            if pn.kind is Kind.GOAL:
                meta["formalized"] = formal[req.id]
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
            elements[i] = GsnElement(made[pn.role], pn.kind,
                                     pn.text.format_map(fmt), meta)
        for pl in pattern.links:
            if pl.dst == "child-goal":
                if pl.src in made:
                    links.extend(GsnLink(pl.kind, made[pl.src], cg)
                                 for cg in child_goals)
            elif pl.src in made and pl.dst in made:
                links.append(GsnLink(pl.kind, made[pl.src], made[pl.dst]))
        return made[goal_role.role]

    # a requirement's links come after its subtree's
    root_ids = _fold_tree(roots, claim, emit)
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
    return [c for c in g.supported_by.get(eid, ()) if c in g.elements]


def _support_walk(g: GsnGraph, starts: Iterable[str]
                  ) -> Iterator[tuple[str, Optional[list[str]]]]:
    """Depth-first walk along SupportedBy from each start in turn, each
    element entered once and starts that name no element skipped.
    Yields (id, children) as an element's walk ends, children being its
    existing SupportedBy targets in link order, and (id, None) for each
    edge back onto the current path, when the walk meets it.  Iterative,
    so a deep argument needs no recursion."""
    entered: set[str] = set()
    on_path: set[str] = set()

    def enter(eid: str) -> tuple[str, list[str], Iterator[str]]:
        entered.add(eid)
        on_path.add(eid)
        kids = _support_children(g, eid)
        return eid, kids, iter(kids)

    for start in starts:
        if start in entered or start not in g.elements:
            continue
        stack = [enter(start)]
        while stack:
            eid, kids, todo = stack[-1]
            for nxt in todo:
                if nxt in on_path:
                    yield nxt, None
                elif nxt not in entered:
                    stack.append(enter(nxt))
                    break
            else:
                stack.pop()
                on_path.remove(eid)
                yield eid, kids


def validate(g: GsnGraph) -> list[Defect]:
    """Structural health report: bad link kinds (including dangling
    endpoints), SupportedBy cycles, undeveloped goals, and elements no
    root can reach.  Defects are data, not exceptions."""
    out = _link_kind_defects(g)
    for eid, kids in _support_walk(g, g.elements):
        if kids is None:
            out.append(Defect("cycle", eid,
                              "SupportedBy cycle through this element"))

    for el in g.elements.values():
        if el.kind is Kind.GOAL and el.id not in g.supported_by:
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
        for c in _support_children(g, gid):
            kind = g.elements[c].kind
            if kind is Kind.GOAL:
                return True
            if kind is Kind.STRATEGY and any(
                    g.elements[m].kind is Kind.GOAL
                    for m in _support_children(g, c)):
                return True
        return False

    formal: list[str] = []
    informal: list[str] = []
    undeveloped: list[str] = []
    for gid in goals:
        if has_child_goal(gid):
            continue
        sols = [g.elements[c] for c in _support_children(g, gid)
                if g.elements[c].kind is Kind.SOLUTION]
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


def metrics(g: GsnGraph) -> dict:
    """Counts per kind, total, longest SupportedBy path from a root (in
    edges), undeveloped goal count, and the fraction of solutions that
    are formal.  The depth walk is iterative, so a deep argument needs
    no recursion, and it keeps the cycle guard: on a SupportedBy cycle
    the path stops where it meets itself."""
    counts = {k.value: 0 for k in Kind}
    for el in g.elements.values():
        counts[el.kind.value] += 1

    # a child still on the path, the far end of a cycle, counts 0
    depth: dict[str, int] = {}
    for eid, kids in _support_walk(g, g.roots):
        if kids is not None:
            depth[eid] = max((1 + depth.get(c, 0) for c in kids), default=0)
    max_depth = max((depth[r] for r in g.roots if r in depth), default=0)
    undeveloped = sum(
        1 for el in g.elements.values()
        if el.kind is Kind.GOAL and el.id not in g.supported_by)
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

# graph_to_json writes the case's fixed shape itself and hands only the
# free-form values (metadata, roots) to _json_value

def _json_float(o: float) -> str:
    if o != o:
        return "NaN"
    if o == float("inf"):
        return "Infinity"
    if o == float("-inf"):
        return "-Infinity"
    return float.__repr__(o)


def _json_key(k) -> str:
    if isinstance(k, str):
        return _quote(k)
    if isinstance(k, float):
        return _quote(_json_float(k))
    if k is True:
        return '"true"'
    if k is False:
        return '"false"'
    if k is None:
        return '"null"'
    if isinstance(k, int):
        return _quote(int.__repr__(k))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


def _json_value(o, level: int) -> str:
    """o as json.dumps(o, indent=2) writes it when it sits at the given
    nesting level, in the same order of type tests.  One call per level
    of nesting, as in the standard encoder, so it nests as deep."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _json_float(o)
    parts = []
    if isinstance(o, (list, tuple)):
        brackets = "[]"
        for v in o:
            parts.append(_json_value(v, level + 1))
    elif isinstance(o, dict):
        brackets = "{}"
        for k, v in o.items():
            parts.append(_json_key(k) + ": " + _json_value(v, level + 1))
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} "
                        "is not JSON serializable")
    if not parts:
        return brackets
    pad = "\n" + "  " * (level + 1)
    return (brackets[0] + pad + ("," + pad).join(parts)
            + "\n" + "  " * level + brackets[1])


def _json_items(items: list[str]) -> str:
    return "[" + ",".join(items) + "\n  ]" if items else "[]"


def graph_to_json(g: GsnGraph) -> str:
    """The case as ``json.dumps(obj, indent=2)`` writes it, byte for byte,
    where obj is ``{"elements": [{"id", "kind", "text", "metadata"}, ...],
    "links": [{"kind", "from", "to"}, ...], "roots": [...]}``.  Element
    ids and texts and link ends are strings, as the reader enforces."""
    q = _quote
    elements = [
        f'\n    {{\n      "id": {q(e.id)},\n      "kind": '
        f'{q(e.kind._value_)},\n      "text": {q(e.text)},\n      '
        f'"metadata": {_json_value(dict(e.metadata), 3)}\n    }}'
        for e in g.elements.values()]
    links = [
        f'\n    {{\n      "kind": {q(l.kind._value_)},\n      "from": '
        f'{q(l.src)},\n      "to": {q(l.dst)}\n    }}'
        for l in g.links]
    return (f'{{\n  "elements": {_json_items(elements)},\n  "links": '
            f'{_json_items(links)},\n  "roots": '
            f'{_json_value(list(g.roots), 1)}\n}}')


def _bad_case(what: str) -> SafetyCaseError:
    return SafetyCaseError(f"bad safety case JSON: {what}")


def _json_list(obj: Mapping, key: str) -> list:
    v = obj[key]
    if not isinstance(v, list):
        raise _bad_case(f"{key!r} is not a list")
    return v


def graph_from_json_obj(obj: Mapping) -> GsnGraph:
    """The case a parsed JSON document describes.  Raises SafetyCaseError
    when the document does not have the shape graph_to_json writes."""
    if not isinstance(obj, Mapping):
        raise _bad_case(f"{obj!r:.40} is not an object")
    kinds, link_kinds = _KIND_OF_VALUE, _LINK_KIND_OF_VALUE
    elements = []
    links = []
    try:
        for e in _json_list(obj, "elements"):
            if not isinstance(e, dict):
                raise _bad_case(f"element {e!r:.40} is not an object")
            eid, text, meta = e["id"], e["text"], e.get("metadata", {})
            kind = kinds.get(e["kind"])
            if kind is None:
                raise _bad_case(f"{e['kind']!r} is not a valid Kind")
            if not (isinstance(eid, str) and isinstance(text, str)):
                raise _bad_case(f"element {eid!r}: id and text must be "
                                "strings")
            if not isinstance(meta, dict):
                raise _bad_case(f"element {eid!r}: metadata is not an "
                                "object")
            elements.append(GsnElement(eid, kind, text, dict(meta)))
        for l in _json_list(obj, "links"):
            if not isinstance(l, dict):
                raise _bad_case(f"link {l!r:.40} is not an object")
            src, dst = l["from"], l["to"]
            kind = link_kinds.get(l["kind"])
            if kind is None:
                raise _bad_case(f"{l['kind']!r} is not a valid LinkKind")
            if not (isinstance(src, str) and isinstance(dst, str)):
                raise _bad_case(f"link {src!r} -> {dst!r}: ends must be "
                                "strings")
            links.append(GsnLink(kind, src, dst))
        roots = _json_list(obj, "roots") if "roots" in obj else []
    except KeyError as exc:
        raise _bad_case(f"missing {exc}") from exc
    except TypeError as exc:  # an unhashable kind
        raise _bad_case(str(exc)) from exc
    if not all(isinstance(r, str) for r in roots):
        raise _bad_case("'roots' must hold strings")
    return GsnGraph(elements, links, roots)


def graph_from_json(text: str) -> GsnGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _bad_case(str(exc)) from exc
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

    def children(i: int) -> range:
        return range(branching * i + 1,
                     min(branching * i + 1 + branching, count))

    def build(i: int, kids: list[RequirementNode]) -> RequirementNode:
        rid = f"REQ-{i:03d}"
        results[rid] = Evidence(
            property_id=rid, verdict="valid",
            method="compositional" if kids else "direct",
            k=1, locator="synthetic")
        return RequirementNode(rid, f"Synthetic requirement {i}",
                               tuple(kids))

    (root,) = _fold_tree([0], children, build)
    return root, results
