"""Benchmark loader: the flight-control models, their requirement
catalog, and the contract manifests for the compositional rows.

The catalog is data, not code: ``properties.json`` carries one entry per
requirement (prose, observer node, expected proof class, and a random
driver for simulation), ``contracts.json`` carries the component
contract formulas and which requirement uses which.  ``load_benchmark``
cross-checks the three against each other and against the models before
handing anything out.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import gcd, lcm
from typing import NamedTuple, Optional

from ..compose import Contract, contract_from_text
from ..engine import compile_system
from ..lang import LangError, TypedProgram, parse, typecheck
from ..lang.ast import Type
from .. import tsys

MODEL_FILES = (
    "stdlib.lus",
    "autopilot.lus",
    "controllers.lus",
    "loops.lus",
    "observers_green.lus",
    "observers_gray.lus",
    "fpa_trig.lus",
)

NOT_MODELED_IDS = frozenset({"G-160", "G-280", "G-190"})
COMPOSITIONAL_IDS = frozenset(
    {"G-250", "G-110", "G-120", "G-130", "G-140", "G-150"})


class BenchmarkError(Exception):
    """The shipped benchmark data is internally inconsistent."""


class ExpectedClass(enum.Enum):
    DIRECT = "DirectProof"
    COMPOSITIONAL = "CompositionalProof"
    NOT_MODELED = "NotModeled"


@dataclass(frozen=True)
class PropertySpec:
    id: str
    prose: str
    node_under_test: Optional[str]
    observer_node: Optional[str]
    assumptions_used: tuple[str, ...]
    expected_class: ExpectedClass
    driver: Optional[dict] = None
    reason: Optional[str] = None

    @property
    def modeled(self) -> bool:
        return self.expected_class is not ExpectedClass.NOT_MODELED


class Benchmark(NamedTuple):
    tp: TypedProgram
    specs: list[PropertySpec]
    contracts: dict[str, list[Contract]]

    def spec(self, prop_id: str) -> PropertySpec:
        for s in self.specs:
            if s.id == prop_id:
                return s
        raise KeyError(prop_id)


def _data_text(name: str) -> str:
    root = resources.files(__package__) / "data"
    return (root / name).read_text()


def benchmark_source() -> str:
    """The models as one compilation unit (declaration order is free)."""
    return "\n".join(_data_text("models/" + f) for f in MODEL_FILES)


def _parse_specs(raw: list[dict]) -> list[PropertySpec]:
    specs = []
    for row in raw:
        try:
            cls = ExpectedClass(row["expected_class"])
            specs.append(PropertySpec(
                id=row["id"], prose=row["prose"],
                node_under_test=row["node_under_test"],
                observer_node=row["observer_node"],
                assumptions_used=tuple(row["assumptions_used"]),
                expected_class=cls,
                driver=row.get("driver"),
                reason=row.get("reason")))
        except (KeyError, ValueError) as exc:
            raise BenchmarkError(
                f"bad property entry {row.get('id', '?')!r}: {exc}") from exc
    return specs


def _build_contracts(tp: TypedProgram,
                     raw: dict) -> dict[str, list[Contract]]:
    formulas = raw["formulas"]
    out: dict[str, list[Contract]] = {}
    for pid, manifest in raw["manifests"].items():
        cs = []
        for node, fids in manifest.items():
            pool = formulas.get(node)
            if pool is None:
                raise BenchmarkError(
                    f"{pid}: no contract formulas defined for {node!r}")
            missing = [f for f in fids
                       if f not in pool["guarantees"]
                       and f not in pool["assumptions"]]
            if missing:
                raise BenchmarkError(
                    f"{pid}: unknown formula ids {missing} for {node!r}")
            try:
                cs.append(contract_from_text(
                    tp, node,
                    assumptions={f: pool["assumptions"][f] for f in fids
                                 if f in pool["assumptions"]},
                    guarantees={f: pool["guarantees"][f] for f in fids
                                if f in pool["guarantees"]}))
            except LangError as exc:
                raise BenchmarkError(
                    f"{pid}: contract for {node!r} does not type: "
                    f"{exc}") from exc
        out[pid] = cs
    return out


def _check_integrity(tp: TypedProgram, specs: list[PropertySpec],
                     contracts: dict[str, list[Contract]]) -> None:
    ids = [s.id for s in specs]
    if len(ids) != len(set(ids)):
        raise BenchmarkError("duplicate property ids")
    if len(specs) != 20:
        raise BenchmarkError(f"expected 20 properties, found {len(specs)}")

    not_modeled = {s.id for s in specs
                   if s.expected_class is ExpectedClass.NOT_MODELED}
    if not_modeled != NOT_MODELED_IDS:
        raise BenchmarkError(
            f"NotModeled set is {sorted(not_modeled)}, expected "
            f"{sorted(NOT_MODELED_IDS)}")
    comp = {s.id for s in specs
            if s.expected_class is ExpectedClass.COMPOSITIONAL}
    if comp != COMPOSITIONAL_IDS:
        raise BenchmarkError(
            f"CompositionalProof set is {sorted(comp)}, expected "
            f"{sorted(COMPOSITIONAL_IDS)}")

    for s in specs:
        if not s.modeled:
            if s.observer_node or s.node_under_test or s.driver:
                raise BenchmarkError(
                    f"{s.id}: NotModeled rows carry no observer or driver")
            if not s.reason:
                raise BenchmarkError(f"{s.id}: NotModeled needs a reason")
            if s.id in contracts:
                raise BenchmarkError(f"{s.id}: NotModeled has a manifest")
            continue
        if not s.observer_node or not s.node_under_test:
            raise BenchmarkError(f"{s.id}: missing observer or subject node")
        try:
            obs = tp.info(s.observer_node)
            tp.info(s.node_under_test)
        except LangError as exc:
            raise BenchmarkError(f"{s.id}: {exc}") from exc
        if not obs.decl.properties:
            raise BenchmarkError(
                f"{s.id}: observer {s.observer_node} declares no property")
        if s.driver is None:
            raise BenchmarkError(f"{s.id}: modeled rows need a driver")
        have = set(s.driver)
        want = {v.name for v in obs.decl.inputs}
        if have != want:
            raise BenchmarkError(
                f"{s.id}: driver covers {sorted(have)}, observer takes "
                f"{sorted(want)}")
        is_comp = s.expected_class is ExpectedClass.COMPOSITIONAL
        if is_comp and s.id not in contracts:
            raise BenchmarkError(f"{s.id}: compositional row with no "
                                 "contract manifest")
        if not is_comp and s.id in contracts:
            raise BenchmarkError(f"{s.id}: direct row with a contract "
                                 "manifest")


def load_benchmark() -> Benchmark:
    """Parse and cross-check the whole benchmark.  Returns the typed
    model program, the 20 property specs (17 formalizable plus the 3
    out-of-scope rows), and the per-property contract lists."""
    try:
        tp = typecheck(parse(benchmark_source()))
    except LangError as exc:
        raise BenchmarkError(f"models do not compile: {exc}") from exc
    specs = _parse_specs(json.loads(_data_text("properties.json"))
                         ["properties"])
    contracts = _build_contracts(tp, json.loads(_data_text("contracts.json")))
    _check_integrity(tp, specs, contracts)
    return Benchmark(tp, specs, contracts)


def load_expected() -> dict:
    """Pinned engine verdicts (verdict, proof method, induction depth)."""
    return json.loads(_data_text("expected.json"))


# --- random drivers ---------------------------------------------------------

def _parse_value(text: str, ty: Type):
    if ty is Type.BOOL:
        if text not in ("true", "false"):
            raise ValueError(f"bad bool literal {text!r}")
        return text == "true"
    if ty is Type.INT:
        return int(text)
    return Fraction(text)


def _literals(texts) -> list[str]:
    if not isinstance(texts, list) or not all(isinstance(t, str)
                                              for t in texts):
        raise ValueError("not a list of literal strings")
    return texts


def _driver_pool(spec: dict, ty: Type) -> tuple[list, Optional[int]]:
    """The pool and scale of one sampled driver entry; ValueError for an
    entry of the wrong shape."""
    if "choice" in spec:
        pool = [_parse_value(t, ty) for t in _literals(spec["choice"])]
        scale = None
        if ty is Type.REAL:
            scale = lcm(*(v.denominator for v in pool))
            pool = [v.numerator * (scale // v.denominator) for v in pool]
        return pool, scale
    if "uniform" not in spec:
        raise ValueError("unknown driver form")
    if ty is not Type.REAL:
        raise ValueError("uniform pools are real")
    uniform = spec["uniform"]
    if not isinstance(uniform, list) or len(uniform) != 3:
        raise ValueError("uniform takes [low, high, denominator]")
    lo, hi = _literals(uniform[:2])
    den = uniform[2]
    if not isinstance(den, int) or isinstance(den, bool) or den < 1:
        raise ValueError(f"denominator {den!r} is not a positive integer")
    lo_n = Fraction(lo) * den
    hi_n = Fraction(hi) * den
    if lo_n.denominator != 1 or hi_n.denominator != 1:
        raise ValueError(f"bounds do not land on the 1/{den} grid")
    pool = list(range(int(lo_n), int(hi_n) + 1))
    g = gcd(den, *pool)
    return [i // g for i in pool], den // g


def _compile_driver(driver: dict, types: dict[str, Type]):
    """Pre-parse driver pools so the hot loop only draws and indexes.
    Returns (samplers, copies).  A sampler is (name, pool, scale): a real
    pool holds the ints value*scale, scale being the lcm of the values'
    denominators; any other pool holds the values, with scale None.
    Each pool keeps the length and order of the values in the driver
    text, so an index drawn for it picks the value ``Random.choice``
    would pick from the text."""
    samplers: list[tuple[str, list, Optional[int]]] = []
    copies: list[tuple[str, str]] = []
    for name, spec in driver.items():
        if name not in types:
            raise BenchmarkError(f"{name}: not an input of the observer")
        if not isinstance(spec, dict):
            raise BenchmarkError(f"{name}: driver entry {spec!r} is not "
                                 "an object")
        if "copy" in spec:
            copies.append((name, spec["copy"]))
            continue
        try:
            pool, scale = _driver_pool(spec, types[name])
        except (ValueError, ZeroDivisionError) as exc:
            raise BenchmarkError(
                f"{name}: bad driver entry {spec}: {exc}") from exc
        if not pool:
            raise BenchmarkError(f"{name}: empty driver pool")
        samplers.append((name, pool, scale))
    for name, src in copies:
        if not any(n == src for n, _, _ in samplers):
            raise BenchmarkError(f"{name}: copy source {src!r} not sampled")
    missing = [name for name in types if name not in driver]
    if missing:
        raise BenchmarkError(f"no driver entry for {', '.join(missing)}")
    return samplers, copies


def sample_step(driver: dict, types: dict[str, Type],
                rng: random.Random) -> dict:
    """One instant of driver inputs.  Copies resolve against the signals
    sampled in the same instant."""
    samplers, copies = _compile_driver(driver, types)
    row = {}
    for name, pool, scale in samplers:
        v = rng.choice(pool)
        row[name] = v if scale is None else Fraction(v, scale)
    for name, src in copies:
        row[name] = row[src]
    return row


@dataclass
class DriverRun:
    prop_ids: list[str]
    steps: int
    violations: list[tuple[int, str]]  # (step, property id)

    @property
    def ok(self) -> bool:
        return not self.violations


def driver_harness(tp: TypedProgram, spec: PropertySpec,
                   externs: Optional[dict] = None):
    """Compile the observer and driver pools once; the returned callable
    runs (steps, seed) campaigns against the same compiled system.  Each
    real input is compiled at its pool's scale and drawn from the pool
    of ints, so the observer steps on plain ints wherever the rest of its
    arithmetic allows.  A run reports the property violations it meets;
    the pools are built to meet the observer's environment asserts, so a
    broken assert means the data is wrong and raises BenchmarkError.

    The whole run is the compiled system's ``campaign``, one generated
    loop per observer that draws the inputs, runs the step body and
    checks the properties (``engine.codegen.compile_system``).  It draws
    from ``Random(seed).getrandbits`` as ``Random.choice`` does, so a
    seed gives the inputs that ``sample_step`` draws."""
    if spec.driver is None:
        raise BenchmarkError(f"{spec.id}: not a modeled property")
    ts = tsys.compile(tp, spec.observer_node)
    try:
        samplers, copies = _compile_driver(spec.driver, dict(ts.input_vars))
    except BenchmarkError as exc:
        raise BenchmarkError(f"{spec.id}: {exc}") from exc
    scales = {name: scale for name, _, scale in samplers
              if scale is not None}
    scales.update((name, scales[src]) for name, src in copies
                  if src in scales)
    cs = compile_system(ts, externs, input_scales=scales,
                        pools=[(name, pool) for name, pool, _ in samplers],
                        links=copies)

    def run(steps: int, seed: int) -> DriverRun:
        violations, breach, _ = cs.campaign(
            steps, random.Random(seed).getrandbits)
        if breach is not None:
            raise BenchmarkError(
                f"{spec.id}: driver violated an environment assert at "
                f"step {breach}")
        return DriverRun(list(cs.prop_ids), steps, violations)

    return run
