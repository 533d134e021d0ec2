"""Bridge from the benchmark catalog to safety case inputs.

Produces a requirement forest and a verification-results map in the
JSON shapes the safety case module consumes, so a case for the full
property table can be generated without hand-written fixtures.  The
compositional row keeps its component obligations as child
requirements; rows outside the modeled boundary carry no evidence and
surface as undeveloped leaves.
"""

from __future__ import annotations

from .loader import load_benchmark, load_expected

__all__ = ["benchmark_requirements"]

_ROOT_ID = "GNC-150"
_ROOT_TEXT = ("The autopilot shall provide altitude hold, altitude "
              "capture, flight path angle control, heading hold, and "
              "autothrottle speed management, engaging only under "
              "crew-selected modes.")


def benchmark_requirements() -> tuple[list[dict], dict[str, dict]]:
    """(requirement forest, results) for the property table.

    Both halves are plain JSON values: the forest nests one root over
    the twenty table rows, compositional rows nest their contract
    obligations, and the results map carries one evidence record per
    verified requirement, read from the pinned verdicts of
    ``data/expected.json``, not from a live run.
    """
    bench = load_benchmark()
    pinned = load_expected()["results"]

    results: dict[str, dict] = {}
    rows: list[dict] = []
    for spec in bench.specs:
        row: dict = {"id": spec.id, "text": spec.prose}
        meta: dict = {}
        if spec.assumptions_used:
            meta["depends_on_assumptions"] = list(spec.assumptions_used)
        if not spec.modeled:
            meta["status"] = "not modeled"
            meta["reason"] = spec.reason
            row["metadata"] = meta
            rows.append(row)
            continue
        if meta:
            row["metadata"] = meta
        pin = pinned[spec.id]
        results[spec.id] = {
            "property": spec.id,
            "verdict": pin["verdict"],
            "method": pin["method"],
            "k": pin["k"],
            "locator": "benchmark expected results",
        }
        kids = []
        for node, guarantees in pin.get("components", {}).items():
            for gid, k in guarantees.items():
                cid = f"{spec.id}/{gid}"
                kids.append({
                    "id": cid,
                    "text": f"Contract {gid} holds on {node}",
                })
                results[cid] = {
                    "property": gid,
                    "verdict": "valid",
                    "method": "component contract",
                    "k": k,
                    "locator": f"component check on {node}",
                }
        if kids:
            row["children"] = kids
        rows.append(row)

    forest = [{"id": _ROOT_ID, "text": _ROOT_TEXT, "children": rows}]
    return forest, results
