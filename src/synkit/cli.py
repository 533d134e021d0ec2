"""Command-line driver: check, simulate, verify, safety cases, benchmark.

Exit codes are a stable contract: 0 success, 1 verification or
diagnostic failure, 2 usage or I/O error.  Results go to stdout
(`--json` for machine-readable reports, text otherwise); diagnostics go
to stderr.  Each command reads the parsed `argparse.Namespace` as is,
and the engine flags become an `EngineConfig` in one place.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from . import safetycase as sc
from . import tsys
from .compose import (argument_holds, argument_report, build_argument,
                      contract_from_text)
from .engine import (EngineConfig, Falsified, Valid, exhaustive_search,
                     kinduction, make_replayer, verdict_row, verify_all)
from .interp import InterpError, Trace, simulate
from .lang import LangError, parse, typecheck

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _engine_settings(cfg: argparse.Namespace) -> dict[str, object]:
    """The `EngineConfig` fields that the command line sets.  A flag left
    out parses to None (False for --invariants) and is not a setting, so
    its field keeps EngineConfig's default."""
    given = {"k_max": cfg.k_max, "timeout": cfg.timeout,
             "solver_command": cfg.solver_cmd,
             "use_invariants": cfg.invariants or None}
    return {field: v for field, v in given.items() if v is not None}


def _engine_config(cfg: argparse.Namespace) -> EngineConfig:
    return EngineConfig(**_engine_settings(cfg))


class _Failure(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _Failure(f"{path}: {exc.strerror or exc}", EXIT_USAGE) from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Failure(f"{path}: {exc.strerror or exc}", EXIT_USAGE) from exc


def _load_json(path: str):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise _Failure(f"{path}: bad JSON: {exc}", EXIT_USAGE) from exc


def _load_program(path: str):
    text = _read(path)
    try:
        return typecheck(parse(text))
    except LangError as exc:
        raise _Failure(f"{path}: {exc}", EXIT_FAIL) from exc


def _emit(cfg: argparse.Namespace, obj: dict, text_lines) -> None:
    if cfg.fmt == "json":
        print(json.dumps(obj, indent=2))
    else:
        for line in text_lines(obj):
            print(line)


# --- check -------------------------------------------------------------------

def cmd_check(cfg: argparse.Namespace) -> int:
    status = EXIT_OK
    for path in cfg.files:
        text = _read(path)
        try:
            typecheck(parse(text))
        except LangError as exc:
            print(f"{path}:{exc}", file=sys.stderr)
            status = EXIT_FAIL
        else:
            print(f"{path}: ok")
    return status


# --- sim ---------------------------------------------------------------------

def cmd_sim(cfg: argparse.Namespace) -> int:
    tp = _load_program(cfg.files[0])
    node = cfg.node
    names = {n.name for n in tp.program.nodes}
    if node not in names:
        raise _Failure(f"unknown node {node!r}", EXIT_FAIL)
    trace = Trace.from_csv(_read(cfg.trace_in)) if cfg.trace_in else Trace()
    n = cfg.steps if cfg.steps is not None else trace.length
    if cfg.steps is None and not cfg.trace_in:
        raise _Failure("need --steps or an input --trace", EXIT_USAGE)
    try:
        out = simulate(tp, node, trace, n, deep=cfg.deep)
    except (LangError, InterpError) as exc:
        raise _Failure(str(exc), EXIT_FAIL) from exc

    # a violated property or assumption is worth a note; the trace
    # itself is the result, so the run still succeeds
    for pid in tp.info(node).decl.properties:
        col = out.signals.get(pid, [])
        for i, v in enumerate(col):
            if v is False:
                print(f"property {pid} false at step {i}", file=sys.stderr)
                break
    if out.assertion_ok is not None and False in out.assertion_ok:
        step = out.assertion_ok.index(False)
        print(f"assertion violated at step {step}", file=sys.stderr)

    payload = out.to_json() if cfg.fmt == "json" else out.to_csv()
    if cfg.out:
        _write(cfg.out, payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


# --- verify ------------------------------------------------------------------

def _compositional_verify(cfg: argparse.Namespace, tp) -> int:
    spec = _load_json(cfg.compositional)
    try:
        top = spec["top"]
        contracts = [
            contract_from_text(
                tp, c["node"],
                assumptions=list(c.get("assumptions", {}).items()),
                guarantees=list(c.get("guarantees", {}).items()))
            for c in spec["contracts"]]
        arg = build_argument(tp, top["node"], top["property"], contracts,
                             _engine_config(cfg))
    except (KeyError, TypeError) as exc:
        raise _Failure(f"{cfg.compositional}: bad contract spec: {exc}",
                       EXIT_USAGE) from exc
    except LangError as exc:
        raise _Failure(str(exc), EXIT_FAIL) from exc
    report = argument_report(arg)
    report["top_node"] = arg.top_node

    def lines(rep: dict):
        yield (f"system {rep['top_node']}.{rep['top_property']}: "
               f"{rep['system_verdict']}")
        for row in rep["components"]:
            yield (f"  component {row['node']}.{row['guarantee']}: "
                   f"{row['verdict']}")
        for row in rep.get("assumptions", ()):
            yield f"  assumption {row['assumption']}: {row['verdict']}"
        yield f"argument holds: {str(rep['holds']).lower()}"

    _emit(cfg, report, lines)
    return EXIT_OK if argument_holds(arg) else EXIT_FAIL


def cmd_verify(cfg: argparse.Namespace) -> int:
    if cfg.oracle_mode and _engine_settings(cfg):
        raise _Failure("--oracle-mode takes none of --k-max, --timeout, "
                       "--solver-cmd, --invariants", EXIT_USAGE)
    tp = _load_program(cfg.files[0])
    if cfg.compositional:
        return _compositional_verify(cfg, tp)

    carriers = [n.name for n in tp.program.nodes if n.properties]
    if cfg.node is not None:
        if cfg.node not in {n.name for n in tp.program.nodes}:
            raise _Failure(f"unknown node {cfg.node!r}", EXIT_FAIL)
        carriers = [n for n in carriers if n == cfg.node]
    tasks = []  # (label, node, pid, ts)
    seen_pids: dict[str, int] = {}
    for name in carriers:
        for pid in tp.info(name).decl.properties:
            seen_pids[pid] = seen_pids.get(pid, 0) + 1
    for name in carriers:
        ts = tsys.compile(tp, name)
        for pid, _ in ts.properties:
            label = pid if seen_pids[pid] == 1 else f"{name}.{pid}"
            tasks.append((label, name, pid, ts))
    if cfg.props:
        wanted = set(cfg.props)
        tasks = [t for t in tasks if t[0] in wanted or t[2] in wanted]
        hit = {t[0] for t in tasks} | {t[2] for t in tasks}
        missing = wanted - hit
        if missing:
            raise _Failure(
                f"unknown property {', '.join(sorted(missing))}", EXIT_FAIL)
    if not tasks:
        raise _Failure("no properties to verify", EXIT_FAIL)

    ecfg = _engine_config(cfg)
    rows = []
    ok = True
    cex: Optional[Trace] = None
    for _, name, pid, ts in tasks:
        t0 = time.perf_counter()
        if cfg.oracle_mode:
            try:
                res = exhaustive_search(ts, pid)
            except LangError as exc:
                raise _Failure(f"--oracle-mode: {exc}", EXIT_USAGE) from exc
        else:
            replays = {pid: make_replayer(tp, name, pid)}
            res = verify_all([(ts, pid)], ecfg, replays=replays)[pid]
        row = {"node": name, "property": pid, **verdict_row(res),
               "seconds": round(time.perf_counter() - t0, 4)}
        rows.append(row)
        if not isinstance(res, Valid):
            ok = False
            if isinstance(res, Falsified) and cex is None:
                cex = res.trace
    if cfg.out and cex is not None:
        _write(cfg.out, cex.to_csv())

    report = {"file": cfg.files[0],
              "engine": {"k_max": ecfg.k_max,
                         "use_invariants": ecfg.use_invariants},
              "results": rows, "ok": ok}
    if cfg.oracle_mode:  # the search has no depth bound and mines nothing
        del report["engine"]

    def lines(rep: dict):
        for r in rep["results"]:
            extra = ""
            if r["verdict"] == "valid":
                extra = f" (k={r['k']})"
            elif r["verdict"] == "falsified":
                extra = f" at step {r['step']}"
            elif "reason" in r:
                extra = f" ({r['reason']})"
            yield (f"{r['node']}.{r['property']}: {r['verdict']}{extra} "
                   f"[{r['seconds']:.2f}s]")

    _emit(cfg, report, lines)
    return EXIT_OK if ok else EXIT_FAIL


# --- safety-case -------------------------------------------------------------

def _case_inputs(cfg: argparse.Namespace):
    """Resolve the graph this action works on.  A case file is used as
    is; a requirement forest (with optional results and pattern) is
    instantiated first; --synthetic generates the scale fixture."""
    pattern = sc.DEFAULT_PATTERN
    if cfg.pattern_path:
        pattern = sc.pattern_from_json_obj(_load_json(cfg.pattern_path))
    if cfg.synthetic is not None:
        root, results = sc.synthetic_requirements(cfg.synthetic)
        return sc.instantiate_pattern(pattern, root, results)
    if not cfg.files:
        raise _Failure("need an input file or --synthetic", EXIT_USAGE)
    obj = _load_json(cfg.files[0])
    if isinstance(obj, dict) and "elements" in obj:
        return sc.graph_from_json_obj(obj)
    roots = sc.requirements_from_json(obj)
    results = {}
    if cfg.results_path:
        raw = _load_json(cfg.results_path)
        results = {rid: sc.evidence_from_json(rec)
                   for rid, rec in raw.items()}
    return sc.instantiate_pattern(pattern, roots, results)


def _meta_predicate(pairs: Sequence[str]):
    wanted = []
    for item in pairs:
        if "=" not in item:
            raise _Failure(f"--meta wants key=value, got {item!r}",
                           EXIT_USAGE)
        key, _, raw = item.partition("=")
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        wanted.append((key, val))
    return lambda m: all(m.get(k) == v for k, v in wanted)


def cmd_safety_case(cfg: argparse.Namespace) -> int:
    try:
        g = _case_inputs(cfg)
    except sc.SafetyCaseError as exc:
        raise _Failure(str(exc), EXIT_FAIL) from exc

    if cfg.dot:
        try:
            _write(cfg.dot, sc.export_dot(g))
        except sc.SafetyCaseError as exc:
            raise _Failure(str(exc), EXIT_FAIL) from exc

    if cfg.action == "generate":
        payload = sc.graph_to_json(g)
        if cfg.out:
            _write(cfg.out, payload + "\n")
            m = sc.metrics(g)
            print(f"wrote {cfg.out}: {m['total']} elements, "
                  f"{len(g.links)} links")
        else:
            print(payload)
        return EXIT_OK

    if cfg.action == "validate":
        defects = sc.validate(g)
        report = {"defects": [{"kind": d.kind, "subject": d.subject,
                               "detail": d.detail} for d in defects],
                  "ok": not defects}
        _emit(cfg, report, lambda rep: (
            [f"{d['kind']}: {d['subject']}: {d['detail']}"
             for d in rep["defects"]] or ["no defects"]))
        return EXIT_OK if not defects else EXIT_FAIL

    if cfg.action == "metrics":
        report = sc.metrics(g)

        def lines(rep: dict):
            for kind, n in rep["counts"].items():
                if n:
                    yield f"{kind:>14}: {n}"
            yield f"{'total':>14}: {rep['total']}"
            yield f"{'max depth':>14}: {rep['max_depth']}"
            yield f"{'undeveloped':>14}: {rep['undeveloped']}"
            yield f"{'formalized':>14}: {rep['formalized_fraction']:.0%}"

        _emit(cfg, report, lines)
        return EXIT_OK

    assert cfg.action == "query"
    if cfg.root is not None:
        try:
            rep = sc.check_leaf_support(g, cfg.root)
        except sc.SafetyCaseError as exc:
            raise _Failure(str(exc), EXIT_FAIL) from exc
        report = {"root": rep.root, "formal": list(rep.formal),
                  "informal": list(rep.informal),
                  "undeveloped": list(rep.undeveloped)}
        _emit(cfg, report, lambda r: (
            [f"formal evidence: {len(r['formal'])}",
             f"informal evidence: {len(r['informal'])}",
             f"undeveloped: {len(r['undeveloped'])}"]
            + [f"  undeveloped: {i}" for i in r["undeveloped"]]))
        return EXIT_OK
    kind = None
    if cfg.kind is not None:
        try:
            kind = sc.Kind(cfg.kind)
        except ValueError:
            raise _Failure(f"unknown kind {cfg.kind!r}", EXIT_USAGE)
    meta = _meta_predicate(cfg.meta) if cfg.meta else None
    hits = sc.query(g, kind=kind, text=cfg.contains, metadata=meta,
                    related_to=cfg.related_to)
    report = {"elements": [
        {"id": e.id, "kind": e.kind.value, "text": e.text,
         "metadata": dict(e.metadata)} for e in hits]}
    _emit(cfg, report, lambda r: (
        [f"{e['kind']:>13}  {e['id']}  {e['text']}"
         for e in r["elements"]]))
    return EXIT_OK


# --- bench -------------------------------------------------------------------

def cmd_bench(cfg: argparse.Namespace) -> int:
    from .benchlib import load_benchmark

    bench = load_benchmark()
    ecfg = _engine_config(cfg)
    rows = []
    ok = True
    for spec in bench.specs:
        row: dict = {"id": spec.id, "class": spec.expected_class.value}
        if not spec.modeled:
            row["verdict"] = "not-modeled"
            row["reason"] = spec.reason
            rows.append(row)
            continue
        t0 = time.perf_counter()
        if spec.id in bench.contracts:
            arg = build_argument(bench.tp, spec.observer_node, "Obs",
                                 bench.contracts[spec.id], ecfg)
            if (isinstance(arg.system_result, Valid)
                    and not argument_holds(arg)):
                # a sub-obligation failed: the system's k backs nothing
                row["verdict"] = "unknown"
            else:
                row.update(verdict_row(arg.system_result))
            row["components"] = [
                {"node": node, "guarantee": gid, **verdict_row(res)}
                for node in sorted(arg.component_results)
                for gid, res in arg.component_results[node].items()]
        else:
            ts = tsys.compile(bench.tp, spec.observer_node)
            res = kinduction(ts, "Obs", ecfg)
            row.update(verdict_row(res))
        row["seconds"] = round(time.perf_counter() - t0, 4)
        rows.append(row)
        if row["verdict"] != "valid":
            ok = False

    summary = {
        "valid": sum(r["verdict"] == "valid" for r in rows),
        "not_modeled": sum(r["verdict"] == "not-modeled" for r in rows),
        "failed": sum(r["verdict"] not in ("valid", "not-modeled")
                      for r in rows),
    }
    report = {"engine": {"k_max": ecfg.k_max,
                         "use_invariants": ecfg.use_invariants},
              "rows": rows, "summary": summary, "ok": ok}

    def lines(rep: dict):
        for r in rep["rows"]:
            if r["verdict"] == "not-modeled":
                yield f"{r['id']:<8} {r['class']:<20} not modeled: " \
                      f"{r['reason']}"
            else:
                yield (f"{r['id']:<8} {r['class']:<20} {r['verdict']}"
                       f" (k={r.get('k', '-')}) [{r['seconds']:.2f}s]")
        s = rep["summary"]
        yield (f"{s['valid']} valid, {s['not_modeled']} not modeled, "
               f"{s['failed']} failed")

    _emit(cfg, report, lines)
    return EXIT_OK if ok else EXIT_FAIL


# --- argument parsing ---------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="synkit",
        description="Synchronous dataflow verification toolkit")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def fmt_flags(p):
        grp = p.add_mutually_exclusive_group()
        grp.add_argument("--text", dest="fmt", action="store_const",
                         const="text", help="human-readable output")
        grp.add_argument("--json", dest="fmt", action="store_const",
                         const="json", help="machine-readable output")
        p.set_defaults(fmt="text")

    def engine_flags(p, k_max: Optional[int] = None):
        p.add_argument("--k-max", type=int, default=k_max)
        p.add_argument("--timeout", type=float, default=None)
        p.add_argument("--solver-cmd", default=None,
                       help="SMT solver command, run as a child process "
                            "(default: SOLVER_CMD env, then z3; with "
                            "neither, the bundled solver runs in process)")
        p.add_argument("--invariants", action="store_true",
                       help="mine auxiliary invariants before k-induction")

    p = sub.add_parser("check", help="parse and typecheck files")
    p.add_argument("files", nargs="+")

    p = sub.add_parser("sim", help="simulate a node, emit the trace")
    p.add_argument("files", nargs=1, metavar="file")
    p.add_argument("node")
    p.add_argument("-n", "--steps", type=int, default=None)
    p.add_argument("--trace", dest="trace_in", default=None,
                   help="input trace CSV")
    p.add_argument("--out", default=None, help="write trace here "
                                               "(default stdout)")
    p.add_argument("--deep", action="store_true",
                   help="log signals of called instances too")
    fmt_flags(p)

    p = sub.add_parser("verify", help="prove or refute node properties")
    p.add_argument("files", nargs=1, metavar="file")
    p.add_argument("--node", default=None,
                   help="restrict to one node's properties")
    p.add_argument("--prop", dest="props", action="append", default=[],
                   help="property id (repeatable)")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--compositional", default=None, metavar="CONTRACTS",
                     help="contract spec JSON for an assume-guarantee "
                          "proof")
    grp.add_argument("--oracle-mode", action="store_true",
                     help="exhaustive search of boolean models, no solver")
    p.add_argument("--out", default=None,
                   help="write the first counterexample trace CSV here")
    engine_flags(p)
    fmt_flags(p)

    p = sub.add_parser("safety-case", help="build and inspect GSN cases")
    p.add_argument("action",
                   choices=["generate", "validate", "query", "metrics"])
    p.add_argument("files", nargs="*", metavar="input",
                   help="requirement forest JSON or generated case JSON")
    p.add_argument("--results", dest="results_path", default=None,
                   help="verification results JSON")
    p.add_argument("--pattern", dest="pattern_path", default=None,
                   help="argument pattern JSON (default: built-in)")
    p.add_argument("--synthetic", type=int, nargs="?", const=500,
                   default=None, metavar="N",
                   help="use the generated N-requirement tree as input")
    p.add_argument("--dot", default=None, help="also write Graphviz here")
    p.add_argument("--out", default=None, help="write the case JSON here")
    p.add_argument("--root", default=None,
                   help="query: leaf-support report under this goal")
    p.add_argument("--kind", default=None,
                   choices=[k.value for k in sc.Kind])
    p.add_argument("--contains", default=None,
                   help="query: element text substring")
    p.add_argument("--related-to", dest="related_to", default=None,
                   help="query: within the argument of matching goals")
    p.add_argument("--meta", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="query: metadata equality (repeatable)")
    fmt_flags(p)

    p = sub.add_parser("bench", help="run the property table")
    p.add_argument("action", choices=["run"])
    engine_flags(p, k_max=6)
    fmt_flags(p)

    return top


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    return _build_parser().parse_args(argv)


_COMMANDS = {
    "check": cmd_check,
    "sim": cmd_sim,
    "verify": cmd_verify,
    "safety-case": cmd_safety_case,
    "bench": cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[cfg.subcommand](cfg)
    except _Failure as exc:
        print(f"synkit: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"synkit: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
