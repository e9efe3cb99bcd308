"""Golden routes: PathFinder output held bit-identical.

``tests/data/golden_routes.json`` was recorded from the object-graph
PathFinder, before the router moved to flat per-node arrays and an
incrementally kept node-cost array.  Every case replays the flow's
channel-width loop (start width, then x1.5 per failed attempt) on a
fixed placement and must reproduce, per attempt, the route digest, the
PathFinder iteration count and the wire-node count exactly.
``boundtop`` fails at 20 tracks before it routes at 30, so the
failed-attempt path (its early bail-out included) is pinned too.

The file is a recording, not a specification: regenerate it only for a
declared routing change (one that also bumps ``FLOW_CACHE_VERSION``)::

    PYTHONPATH=src python tests/test_golden_routes.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro.arch.layout import FabricLayout, TileType
from repro.arch.params import ArchParams
from repro.arch.rrgraph import build_rr_graph
from repro.cad.pack import pack_netlist
from repro.cad.place import Placement, place
from repro.cad.route import RoutingError, RoutingResult, route
from repro.netlists.generator import NetlistSpec, generate_netlist
from repro.netlists.netlist import Netlist
from repro.netlists.vtr_suite import vtr_benchmark

DATA = Path(__file__).parent / "data"
GOLDEN_ROUTES = DATA / "golden_routes.json"
GOLDEN_PLACEMENTS = DATA / "golden_placements.json"

CASES = {
    # name: (design, placement seed, first channel width)
    "tiny_seed3_w40": ("tiny", 3, 40),
    "sha_seed7_w40": ("sha", 7, 40),
    "boundtop_seed7_w20": ("boundtop", 7, 20),
}
MAX_ATTEMPTS = 4


def _netlist(design: str) -> Netlist:
    if design == "tiny":
        golden = json.loads(GOLDEN_PLACEMENTS.read_text(encoding="utf-8"))
        return generate_netlist(NetlistSpec(**golden["netlist_spec"]))
    return vtr_benchmark(design)


def _digest(payload: object) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def placement_digest(placement: Placement) -> str:
    return _digest(sorted(
        [cluster_id, list(xy)] for cluster_id, xy in placement.location.items()
    ))


def route_digest(routing: RoutingResult) -> str:
    """SHA-256 over sorted (net id, source node, sorted sink paths)."""
    return _digest([
        [net_id, net.source_node,
         sorted([sink, path] for sink, path in net.sink_paths.items())]
        for net_id, net in sorted(routing.routes.items())
    ])


def replay(case: str) -> Dict[str, object]:
    """Place once, then route as the flow does: widen by 1.5x on failure."""
    design, seed, width = CASES[case]
    arch = ArchParams()
    packed = pack_netlist(_netlist(design), arch)
    counts = {t: 0 for t in TileType}
    for cluster in packed.clusters:
        counts[cluster.type] += 1
    layout = FabricLayout.for_netlist(
        arch, counts[TileType.CLB], counts[TileType.BRAM],
        counts[TileType.DSP], counts[TileType.IO],
    )
    placement = place(packed, layout, seed=seed)
    attempts: List[Dict[str, object]] = []
    for _ in range(MAX_ATTEMPTS):
        graph = build_rr_graph(
            arch.with_changes(routed_channel_tracks=width), layout
        )
        try:
            routing = route(packed, placement, graph)
        except RoutingError as error:
            attempts.append(
                {"width": width, "ok": False, "iterations": error.iterations}
            )
            width = int(width * 1.5)
            continue
        attempts.append({
            "width": width,
            "ok": True,
            "iterations": routing.iterations,
            "wire_nodes": routing.total_wire_nodes(),
            "route_sha256": route_digest(routing),
        })
        break
    return {"placement_sha256": placement_digest(placement), "attempts": attempts}


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN_ROUTES.read_text(encoding="utf-8"))["cases"]


def test_cases_match_recording(golden):
    assert sorted(golden) == sorted(CASES)


def test_a_failed_attempt_is_pinned(golden):
    failed = [
        attempt
        for case in golden.values()
        for attempt in case["attempts"]
        if not attempt["ok"]
    ]
    assert failed and all(attempt["iterations"] >= 12 for attempt in failed)


@pytest.mark.parametrize("case", sorted(CASES))
def test_routes_bit_identical(golden, case):
    replayed = replay(case)
    # A placement mismatch would make every route mismatch: say which.
    assert replayed["placement_sha256"] == golden[case]["placement_sha256"]
    assert replayed["attempts"] == golden[case]["attempts"]


def record() -> None:
    cases = {case: replay(case) for case in sorted(CASES)}
    GOLDEN_ROUTES.write_text(
        json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
