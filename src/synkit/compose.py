"""Assume/guarantee reasoning over node contracts.

A contract states a component's interface behavior: assumptions over its
inputs, guarantees over its inputs and outputs. Component checks prove each
guarantee on the concrete node with the assumptions asserted. System checks
replace every contracted callee by an abstraction whose outputs are fresh
unconstrained inputs bounded only by the guarantees, then prove the top
property on that abstraction. Each contracted component's assumptions are
re-verified as properties of the abstraction, so an undischarged assumption
blocks the argument.

Contracts live outside the source language (they come from manifests, not
node syntax) and must form an acyclic dependency relation. `_abstract` is
the one place that decides whether a contract set is admissible, and
`check_system` and `build_argument` build and check the system abstraction
before any proof runs, so a bad contract set fails before the first solver
session. `CompositionalArgument.first_failure` is the one place that
decides which sub-verdict an argument fails on, and `argument_holds` reads
it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from . import tsys
from .engine import (EngineConfig, Falsified, Valid, VerifyResult,
                     verdict_row, verify_all)
from .lang import (
    Call,
    Equation,
    Expr,
    LangError,
    NodeDecl,
    Program,
    Type,
    Var,
    VarDecl,
    instance_names,
    parse_expression,
    rebuild,
    type_expression,
    typecheck,
    walk,
)
from .lang.typecheck import Cycle, TypedProgram, dependency_order

__all__ = [
    "Contract",
    "CompositionalArgument",
    "contract_from_text",
    "check_noncircular",
    "abstract_with_contracts",
    "check_component",
    "check_system",
    "build_argument",
    "argument_holds",
    "argument_report",
]

# Names invented by the abstraction use a leading underscore, which the
# lexer rejects for source identifiers, so they can never collide with
# signals a model declares.
_ORACLE = "_oracle__"
_ASMCHK = "_asmchk__"


@dataclass(frozen=True)
class Contract:
    """Interface obligations of one node.

    Assumption formulas range over the node's inputs; guarantee formulas
    over inputs and outputs, and may use pre/->. Both are expression ASTs
    in the modeling language, kept untyped here and typed in context.
    """

    node: str
    assumptions: tuple[tuple[str, Expr], ...] = ()
    guarantees: tuple[tuple[str, Expr], ...] = ()


@dataclass
class CompositionalArgument:
    """Everything a compositional proof rests on, with per-piece verdicts."""

    top_node: str
    top_property: str
    contracts: tuple[Contract, ...]
    component_results: dict[str, dict[str, VerifyResult]]
    assumption_results: dict[str, VerifyResult]
    system_result: VerifyResult

    def first_failure(self) -> Optional[str]:
        """The first sub-verdict that is not Valid, components in node
        order before assumptions in key order, or None when all hold."""
        subs = [(f"guarantee {node}.{gid}", res)
                for node in sorted(self.component_results)
                for gid, res in self.component_results[node].items()]
        subs += [(f"assumption {key}", self.assumption_results[key])
                 for key in sorted(self.assumption_results)]
        for what, res in subs:
            if isinstance(res, Falsified):
                return f"{what} falsified at step {res.step}"
            if not isinstance(res, Valid):
                return f"{what} unknown ({res.reason.value})"
        return None


_Pairs = Union[Mapping[str, str], Sequence[tuple[str, str]]]


def _items(spec: Optional[_Pairs]) -> list[tuple[str, str]]:
    if spec is None:
        return []
    if isinstance(spec, Mapping):
        return list(spec.items())
    return list(spec)


def contract_from_text(tp: TypedProgram, node: str,
                       assumptions: Optional[_Pairs] = None,
                       guarantees: Optional[_Pairs] = None) -> Contract:
    """Parse and scope-check named contract formulas for a node.

    Assumptions are typed against the node's inputs, guarantees against
    inputs plus outputs; anything else in scope is an error.
    """
    decl = tp.info(node).decl
    in_env = {v.name: v.type for v in decl.inputs}
    io_env = dict(in_env)
    io_env.update({v.name: v.type for v in decl.outputs})

    def build(pairs: list[tuple[str, str]],
              env: dict[str, Type], kind: str) -> tuple:
        out = []
        for fid, text in pairs:
            e = parse_expression(text)
            try:
                type_expression(tp, env, e, Type.BOOL)
            except LangError as err:
                raise LangError("compose",
                                f"{kind} {fid!r} of {node!r}: {err.message}",
                                err.pos) from err
            out.append((fid, e))
        return tuple(out)

    return Contract(node,
                    build(_items(assumptions), in_env, "assumption"),
                    build(_items(guarantees), io_env, "guarantee"))


def check_noncircular(contracts: Sequence[Contract],
                      cg: Mapping[str, Sequence[str]]) -> None:
    """Reject circular contract dependencies.

    An edge A -> B means proving A's obligations relies on B's guarantees.
    That happens when B sits in A's call tree, and, conservatively, when A
    carries assumptions: those are discharged on the system abstraction,
    where every other contract's guarantees are in force. Raises on any
    cycle with the offending node sequence.
    """
    nodes = [c.node for c in contracts]
    if len(set(nodes)) != len(nodes):
        dup = next(n for n in nodes if nodes.count(n) > 1)
        raise LangError("compose", f"two contracts given for node {dup!r}")
    by_node = {c.node: c for c in contracts}
    edges: dict[str, list[str]] = {}
    for a in nodes:
        below = set(dependency_order([a], cg.__getitem__))
        edges[a] = [b for b in nodes if b != a
                    and (b in below or by_node[a].assumptions)]
    try:
        dependency_order(nodes, edges.__getitem__)
    except Cycle as c:
        raise LangError("compose",
                        f"circular contract dependency: {c}") from None


def _called_nodes(e: Expr) -> set[str]:
    """Names of the non-extern nodes an expression calls, at any depth."""
    return {x.callee for x in walk(e)
            if isinstance(x, Call) and not x.is_extern}


def _san(fid: str) -> str:
    return re.sub(r"\W", "_", fid)


def _fresh(base: str, taken: set[str]) -> str:
    """The first of base, base_2, base_3, ... not in taken, added to it:
    two ids that differ only in non-word characters get two names."""
    name, n = base, 1
    while name in taken:
        n += 1
        name = f"{base}_{n}"
    taken.add(name)
    return name


@dataclass
class _Obligation:
    prop_id: str     # property name installed on the root
    node: str        # contracted node whose assumption this discharges
    assumption: str  # assumption id within that contract
    instance: str    # call path from the root


@dataclass
class _Abstraction:
    tp: TypedProgram
    root: str
    guarantee_props: dict[str, str] = field(default_factory=dict)
    obligations: list[_Obligation] = field(default_factory=list)


def _abstract(tp: TypedProgram, root: str, contracts: Sequence[Contract],
              inject_assumes: Sequence[tuple[str, Expr]] = (),
              inject_props: Sequence[tuple[str, Expr]] = ()
              ) -> _Abstraction:
    """Build the contract abstraction rooted at a node.

    Contracted callees lose their bodies: each output is driven by a fresh
    oracle input, the guarantees become assertions, and the oracle inputs
    thread up through intermediate callers to the root. Assumptions of a
    contracted callee become properties at its call site; that site must be
    in the root node itself, since properties elsewhere are invisible.
    Every `compose` error a contract set can raise is raised here.
    """
    tp.info(root)  # an unknown root gets its own error
    reachable = set(dependency_order([root], tp.callees.__getitem__))
    for c in contracts:
        if c.node == root:
            raise LangError("compose",
                            f"cannot abstract the root node {c.node!r}")
        if c.node not in reachable:
            tp.info(c.node)  # unknown node gets its own error
            raise LangError("compose",
                            f"contracted node {c.node!r} is not called from "
                            f"{root!r}")
    # every contracted node is now known, so it has call-graph entries
    check_noncircular(contracts, tp.callees)
    by_node = {c.node: c for c in contracts}
    keep = set(reachable)
    # a formula keeps its calls as written, so what it calls must keep
    # its interface: no contracted node may sit in a callee's call tree
    injected = Contract(root, tuple(inject_assumes), tuple(inject_props))
    for c in (*contracts, injected):
        for kind, pairs in (("assumption", c.assumptions),
                            ("guarantee", c.guarantees)):
            for fid, f in pairs:
                for callee in sorted(_called_nodes(f)):
                    below = set(dependency_order(
                        [callee], tp.callees.__getitem__))
                    hit = sorted(below & by_node.keys())
                    if hit:
                        raise LangError(
                            "compose",
                            f"{kind} {fid!r} of {c.node!r} calls "
                            f"{callee!r}, whose call tree holds contracted "
                            f"node {hit[0]!r}; a contract formula cannot "
                            "call an abstracted node")
                    keep |= below

    added: dict[str, list[VarDecl]] = {}
    rebuilt: dict[str, NodeDecl] = {}
    result = _Abstraction(tp, root)

    def rewrite(name: str) -> None:
        info = tp.info(name)
        d = info.decl
        inames = instance_names(info)
        is_root = name == root
        extra_in: list[VarDecl] = []
        extra_loc: list[VarDecl] = []
        extra_eqs: list[Equation] = []
        extra_props: list[str] = []
        checks: set[str] = set()

        def fix(e: Expr) -> Expr:
            c = rebuild(e, fix)
            if not isinstance(c, Call) or c.is_extern:
                return c
            inst = inames[c.site]
            for v in added.get(c.callee, []):
                nm = _ORACLE + inst + "__" + v.name[len(_ORACLE):]
                extra_in.append(VarDecl(nm, v.type))
                c.args.append(Var(nm))
            ct = by_node.get(c.callee)
            if ct is not None and ct.assumptions:
                if not is_root:
                    raise LangError(
                        "compose",
                        f"assumptions of {c.callee!r} cannot be "
                        f"discharged at its call site in {name!r}; only "
                        f"calls in the root node {root!r} are supported")
                params = tp.info(c.callee).decl.inputs
                sub = {p.name: a for p, a in zip(params, c.args)}
                for aid, a in ct.assumptions:
                    pid = _fresh(_ASMCHK + inst + "__" + _san(aid), checks)
                    extra_loc.append(VarDecl(pid, Type.BOOL))
                    extra_eqs.append(Equation(
                        [pid], tsys.map_vars(a, lambda v: sub.get(v.name, v))))
                    extra_props.append(pid)
                    result.obligations.append(
                        _Obligation(pid, c.callee, aid, inst))
            return c

        eqs = [Equation(list(eq.targets), fix(eq.rhs), pos=eq.pos)
               for eq in d.equations]
        asserts = [fix(a) for a in d.assertions]
        props = list(d.properties)
        if is_root:
            asserts += [a for _, a in inject_assumes]
            taken = set(props) | {v.name for v in d.declared()}
            for gid, g in inject_props:
                pid = _fresh("g_" + _san(gid), taken)
                extra_loc.append(VarDecl(pid, Type.BOOL))
                extra_eqs.append(Equation([pid], g))
                props.append(pid)
                result.guarantee_props[pid] = gid
        if not (extra_in or extra_loc or extra_eqs or is_root):
            return
        rebuilt[name] = NodeDecl(
            name,
            [VarDecl(v.name, v.type) for v in d.inputs] + extra_in,
            [VarDecl(v.name, v.type) for v in d.outputs],
            [VarDecl(v.name, v.type) for v in d.locals] + extra_loc,
            eqs + extra_eqs, asserts, props + extra_props, pos=d.pos)
        if extra_in:
            added[name] = extra_in

    for name in tp.order:
        if name not in reachable:
            continue
        ct = by_node.get(name)
        if ct is not None:
            d = tp.info(name).decl
            oracles = [VarDecl(_ORACLE + o.name, o.type) for o in d.outputs]
            rebuilt[name] = NodeDecl(
                name,
                [VarDecl(v.name, v.type) for v in d.inputs] + oracles,
                [VarDecl(v.name, v.type) for v in d.outputs],
                [],
                [Equation([o.name], Var(_ORACLE + o.name))
                 for o in d.outputs],
                [g for _, g in ct.guarantees],
                [], pos=d.pos)
            added[name] = oracles
        else:
            rewrite(name)

    # The closed system is the root's call tree (plus anything the contract
    # formulas call); unrelated nodes would keep stale arities at call sites
    # of the widened callees, so they are dropped rather than rewritten.
    nodes = [rebuilt.get(n.name, n) for n in tp.program.nodes
             if n.name in keep]
    result.tp = typecheck(Program(nodes, list(tp.program.externs)))
    return result


def abstract_with_contracts(tp: TypedProgram, top_node: str,
                            contracts: Sequence[Contract]) -> TypedProgram:
    """Replace contracted callees under top_node by their contracts.

    Every output of a contracted node becomes a fresh input of the
    abstraction, constrained only by the guarantees (installed as
    assertions). Uncontracted callees keep their bodies. With no contracts
    the program comes back unchanged apart from retypechecking. Refuses
    the contract sets `check_system` refuses.
    """
    return _abstract(tp, top_node, contracts).tp


def check_component(tp: TypedProgram, contract: Contract,
                    cfg: Optional[EngineConfig] = None
                    ) -> dict[str, VerifyResult]:
    """Prove each guarantee on the concrete component.

    The contract's assumptions are asserted (they hold at every step), each
    guarantee becomes a property of a variant of the node, and the verdicts
    come back keyed by guarantee id.
    """
    cfg = cfg or EngineConfig()
    abs_ = _abstract(tp, contract.node, [],
                     inject_assumes=contract.assumptions,
                     inject_props=contract.guarantees)
    ts = tsys.compile(abs_.tp, contract.node)
    results = verify_all([(ts, pid) for pid in abs_.guarantee_props], cfg)
    return {abs_.guarantee_props[pid]: res for pid, res in results.items()}


def _system(tp: TypedProgram, top_node: str, top_property: str,
            contracts: Sequence[Contract]) -> tuple[list, list[_Obligation]]:
    """Build and check the system abstraction, and list its proof tasks:
    the top property, then each assumption obligation. Proves nothing."""
    abs_ = _abstract(tp, top_node, contracts)
    ts = tsys.compile(abs_.tp, top_node)
    ts.property_formula(top_property)  # unknown property: fail fast
    tasks = [(ts, top_property)] + [(ts, o.prop_id) for o in abs_.obligations]
    return tasks, abs_.obligations


def check_system(tp: TypedProgram, top_node: str, top_property: str,
                 contracts: Sequence[Contract],
                 cfg: Optional[EngineConfig] = None) -> VerifyResult:
    """Verify the top property on the contract abstraction.

    Assumptions of contracted components are discharged alongside: if one
    fails, the first failing one in obligation order is returned instead
    of the top property's result, so an undischarged assumption can never
    be mistaken for a proof. Refuses to run on inadmissible contract sets,
    circular ones included.
    """
    tasks, obligations = _system(tp, top_node, top_property, contracts)
    results = verify_all(tasks, cfg or EngineConfig())
    top = results[top_property]
    if isinstance(top, Valid):
        return next((results[o.prop_id] for o in obligations
                     if not isinstance(results[o.prop_id], Valid)), top)
    return top


def build_argument(tp: TypedProgram, top_node: str, top_property: str,
                   contracts: Sequence[Contract],
                   cfg: Optional[EngineConfig] = None
                   ) -> CompositionalArgument:
    """Run every piece of the compositional proof and collect verdicts:
    the system abstraction is built and checked first (a component's adds
    nothing it has not typed), then components are proved, then the
    system."""
    cfg = cfg or EngineConfig()
    tasks, obligations = _system(tp, top_node, top_property, contracts)
    component_results = {c.node: check_component(tp, c, cfg)
                         for c in contracts}
    results = verify_all(tasks, cfg)
    labeled: dict[str, VerifyResult] = {}
    for o in obligations:
        key = f"{o.node}.{o.assumption}"
        if key in labeled:
            key = f"{o.node}.{o.assumption}@{o.instance}"
        labeled[key] = results[o.prop_id]
    return CompositionalArgument(top_node, top_property, tuple(contracts),
                                 component_results, labeled,
                                 results[top_property])


def argument_holds(arg: CompositionalArgument) -> bool:
    """True when the system check and every sub-verdict came back Valid."""
    return (isinstance(arg.system_result, Valid)
            and arg.first_failure() is None)


def argument_report(arg: CompositionalArgument) -> dict:
    """JSON-ready summary of a compositional argument."""
    components = []
    for node in sorted(arg.component_results):
        for gid, res in arg.component_results[node].items():
            components.append({"node": node, "guarantee": gid,
                               "verdict": verdict_row(res)["verdict"]})
    assumptions = []
    for key in sorted(arg.assumption_results):
        res = arg.assumption_results[key]
        row = {"assumption": key, "verdict": verdict_row(res)["verdict"]}
        if not isinstance(res, Valid):
            row["note"] = "assumption not discharged"
        assumptions.append(row)
    report = {
        "top_property": arg.top_property,
        "system_verdict": verdict_row(arg.system_result)["verdict"],
        "components": components,
        "holds": argument_holds(arg),
    }
    if assumptions:
        report["assumptions"] = assumptions
    return report
