"""Per-layer timing taken from outside the program.

:class:`LayerProbe` replaces, for the length of a traced phase, the names
that ``repro.cad.flow`` and ``repro.runner.engine`` import from the layer
modules (pack, place, RR graph, route, STA build, COFFE fabric build and
the two Algorithm-1 entry points) with timing wrappers, then restores
them.  The program's own code is untouched; a traced run therefore pays
only the wrappers' cost, which ``observe.trace_overhead_frac`` reports.
"""

from __future__ import annotations

import re
import time
from typing import Any, Callable, Dict, List, Optional

from common import ratio

_OVERUSED = re.compile(r"\((\d+) overused nodes\)")

_FLOW_NAMES = ("pack_netlist", "place", "build_rr_graph", "route",
               "TimingAnalyzer")
_ENGINE_NAMES = ("build_fabric", "thermal_aware_guardband",
                 "thermal_aware_guardband_batch")


class LayerProbe:
    """Install with ``with LayerProbe() as probe:``; read ``probe.*``."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.route_rows: List[Dict[str, object]] = []
        self._width_of_graph: Dict[int, int] = {}
        self._saved: List[tuple] = []

    def _add(self, key: str, seconds: float = 0.0, count: float = 1) -> None:
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds
        self.counts[key] = self.counts.get(key, 0) + count

    def _count(self, key: str, count: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + count

    def _timed(self, key: str, fn: Callable[..., Any],
               after: Optional[Callable[..., None]] = None) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self._add(key, time.perf_counter() - start)
            if after is not None:
                after(result, *args)
            return result
        return wrapper

    # -- per-layer bookkeeping -------------------------------------------------

    def _after_pack(self, packed: Any, *args: Any) -> None:
        self._count("pack.clusters", len(packed.clusters))

    def _after_place(self, placement: Any, packed: Any, *args: Any) -> None:
        self._count("place.clusters", len(packed.clusters))

    def _after_rrgraph(self, graph: Any, arch: Any, *args: Any) -> None:
        self._width_of_graph[id(graph)] = arch.routed_channel_tracks
        self._count("rrgraph.nodes", graph.n_nodes)

    def _route(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        from repro.cad.route import RoutingError

        def wrapper(packed: Any, placement: Any, graph: Any,
                    *args: Any, **kwargs: Any) -> Any:
            row: Dict[str, object] = {
                "width": self._width_of_graph.get(id(graph)),
                "design": packed.netlist.name,
            }
            start = time.perf_counter()
            try:
                routing = fn(packed, placement, graph, *args, **kwargs)
            except RoutingError as error:
                row["seconds"] = time.perf_counter() - start
                match = _OVERUSED.search(str(error))
                row.update(ok=False, overused=int(match.group(1)) if match else None)
                self.route_rows.append(row)
                raise
            row["seconds"] = time.perf_counter() - start
            row.update(ok=True, overused=0,
                       wire_nodes=routing.total_wire_nodes())
            self.route_rows.append(row)
            return routing
        return wrapper

    def _guardband(self, fn: Callable[..., Any], batched: bool) -> Callable[..., Any]:
        def wrapper(flow: Any, fabric: Any, cells: Any, *args: Any, **kwargs: Any) -> Any:
            config = kwargs.get("config")
            mode = getattr(config, "mode", "frequency")
            start = time.perf_counter()
            result = fn(flow, fabric, cells, *args, **kwargs)
            n_cells = len(cells) if batched else 1
            self._add(f"guardband.{mode}", time.perf_counter() - start, n_cells)
            return result
        return wrapper

    # -- install / restore ------------------------------------------------------

    def __enter__(self) -> "LayerProbe":
        import repro.cad.flow as flow
        import repro.runner.engine as engine

        for module, names in ((flow, _FLOW_NAMES), (engine, _ENGINE_NAMES)):
            for name in names:
                self._saved.append((module, name, getattr(module, name)))
        flow.pack_netlist = self._timed("pack", flow.pack_netlist, self._after_pack)
        flow.place = self._timed("place", flow.place, self._after_place)
        flow.build_rr_graph = self._timed(
            "rrgraph", flow.build_rr_graph, self._after_rrgraph)
        flow.route = self._route(flow.route)
        flow.TimingAnalyzer = self._timed("sta", flow.TimingAnalyzer)
        engine.build_fabric = self._timed("coffe", engine.build_fabric)
        engine.thermal_aware_guardband = self._guardband(
            engine.thermal_aware_guardband, batched=False)
        engine.thermal_aware_guardband_batch = self._guardband(
            engine.thermal_aware_guardband_batch, batched=True)
        return self

    def __exit__(self, *exc: object) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    # -- summary ----------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        rows = self.route_rows
        failed = [r for r in rows if not r["ok"]]
        place_s = self.seconds.get("place", 0.0)
        clusters = self.counts.get("place.clusters", 0)
        freq_s = self.seconds.get("guardband.frequency", 0.0)
        energy_s = self.seconds.get("guardband.energy", 0.0)
        freq_n = self.counts.get("guardband.frequency", 0)
        energy_n = self.counts.get("guardband.energy", 0)
        return {
            "route.busy_s": sum(float(r["seconds"]) for r in rows),
            "route.attempts": len(rows),
            "route.failed_attempts": len(failed),
            "route.failed_s": sum(float(r["seconds"]) for r in failed),
            "route.useful_ratio": ratio(len(rows) - len(failed), len(rows)),
            "route.wire_nodes": sum(int(r.get("wire_nodes", 0)) for r in rows),
            "place.busy_s": place_s,
            "place.s_per_cluster": ratio(place_s, clusters),
            "rrgraph.build_s": self.seconds.get("rrgraph", 0.0),
            "rrgraph.nodes": self.counts.get("rrgraph.nodes", 0),
            "pack.busy_s": self.seconds.get("pack", 0.0),
            "pack.clusters": self.counts.get("pack.clusters", 0),
            "sta.build_s": self.seconds.get("sta", 0.0),
            "coffe.build_fabric_s": self.seconds.get("coffe", 0.0),
            "coffe.build_fabric_calls": self.counts.get("coffe", 0),
            "guardband.busy_s": freq_s + energy_s,
            "guardband.freq_s_per_cell": ratio(freq_s, freq_n),
            "guardband.energy_s_per_cell": ratio(energy_s, energy_n),
        }
