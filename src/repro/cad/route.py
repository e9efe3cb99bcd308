"""PathFinder negotiated-congestion routing.

Classic Ebeling/McMurchie PathFinder on the RR graph of
:mod:`repro.arch.rrgraph`: every net is maze-routed (Dijkstra expansion
seeded from the net's growing route tree) with a node cost of

``cost(n) = (base + history(n)) * present(n)``

where ``present`` penalizes current over-subscription and ``history``
accumulates persistent congestion.  Iterate rip-up-and-reroute with an
escalating present factor until no node is over capacity.

The expansion runs on flat per-node lists built at the start of each
:func:`route` call (coordinates, a pin-blocked flag, successor ids) and
on a ``cost`` list that always holds ``_node_cost`` of every node for
the current occupancy: it is filled once per PathFinder iteration and
refreshed only on the nodes of a net when that net is ripped up or
committed.  Every route is fixed by that cost expression and by the
``(f, node)`` heap order; ``tests/data/golden_routes.json`` pins them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.arch.rrgraph import RRGraph, RRNodeType
from repro.cad.pack import PackedNetlist
from repro.cad.place import Placement

PRES_FAC_FIRST = 0.6
PRES_FAC_MULT = 1.5
HIST_FAC = 0.4
MAX_ITERATIONS = 40
BBOX_MARGIN = 4


class RoutingError(RuntimeError):
    """Raised when the router cannot find a legal solution.

    A PathFinder failure carries ``iterations`` (how many ran before the
    router gave up) and ``overuse_trend`` (overused-node count after each
    of them), so a trace can explain a failed channel-width attempt.
    Other errors, such as a sink with no path at all, leave both empty.
    """

    def __init__(
        self,
        message: str,
        iterations: int = 0,
        overuse_trend: Sequence[int] = (),
    ) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.overuse_trend = list(overuse_trend)

    @property
    def overused(self) -> int:
        """Overused nodes after the last iteration (0 if none ran)."""
        return self.overuse_trend[-1] if self.overuse_trend else 0


@dataclass
class NetRoute:
    """Routing of one netlist net."""

    net_id: int
    source_node: int
    sink_paths: Dict[int, List[int]]
    """sink tile-key node -> node path from a tree node to that sink."""

    def all_nodes(self) -> Set[int]:
        nodes: Set[int] = {self.source_node}
        for path in self.sink_paths.values():
            nodes.update(path)
        return nodes


@dataclass
class RoutingResult:
    """All net routes plus convergence metadata."""

    graph: RRGraph
    routes: Dict[int, NetRoute]
    iterations: int
    overused_nodes: int

    def total_wire_nodes(self) -> int:
        total = 0
        for route in self.routes.values():
            for node_id in route.all_nodes():
                if self.graph.nodes[node_id].type in (
                    RRNodeType.CHANX,
                    RRNodeType.CHANY,
                ):
                    total += 1
        return total

    def validate(self, packed: PackedNetlist, placement: Placement) -> None:
        """Check routing legality; raise :class:`RoutingError` naming the net.

        Every multi-tile net must have a route from its source to each of
        its sinks; every sink path must start on the net's route tree (as
        grown in routing order) and follow RR edges; and no node may be
        used by more nets than its capacity.  Costs O(routed nodes).
        """
        out_edges = self.graph.out_edges
        nodes = self.graph.nodes
        occupancy: Dict[int, int] = {}
        for net_id, source, sinks, _bbox in _routable_nets(
            packed, placement, self.graph
        ):
            net = self.routes.get(net_id)
            if net is None:
                raise RoutingError(f"net {net_id}: no route")
            if net.source_node != source:
                raise RoutingError(
                    f"net {net_id}: route starts at node {net.source_node}, "
                    f"not at its source node {source}"
                )
            missing = [sink for sink in sinks if sink not in net.sink_paths]
            if missing:
                raise RoutingError(
                    f"net {net_id}: sink node(s) {missing} not routed"
                )
            tree = {source}
            for sink, path in net.sink_paths.items():
                if not path or path[0] not in tree or path[-1] != sink:
                    raise RoutingError(
                        f"net {net_id}: path to sink node {sink} does not "
                        f"run from the route tree to that sink"
                    )
                for u, v in zip(path, path[1:]):
                    if not any(edge.dst == v for edge in out_edges[u]):
                        raise RoutingError(
                            f"net {net_id}: hop {u} -> {v} is not an RR edge"
                        )
                tree.update(path)
            for node_id in tree:
                occupancy[node_id] = occupancy.get(node_id, 0) + 1
                if occupancy[node_id] > nodes[node_id].capacity:
                    raise RoutingError(
                        f"net {net_id}: node {node_id} used by "
                        f"{occupancy[node_id]} nets, capacity "
                        f"{nodes[node_id].capacity}"
                    )


def route(
    packed: PackedNetlist,
    placement: Placement,
    graph: RRGraph,
    max_iterations: int = MAX_ITERATIONS,
) -> RoutingResult:
    """Route every multi-tile net of the packed design."""
    nets = _routable_nets(packed, placement, graph)
    n_nodes = graph.n_nodes
    occupancy = [0] * n_nodes
    history = [0.0] * n_nodes
    capacity = [node.capacity for node in graph.nodes]
    search = _Search(graph)
    cost = search.cost
    routes: Dict[int, NetRoute] = {}
    pres_fac = PRES_FAC_FIRST
    overuse_trend: List[int] = []

    for iteration in range(1, max_iterations + 1):
        # History and pres_fac change only between iterations, occupancy
        # only on rip-up and commit: refreshing cost[] at exactly those
        # points keeps it equal to _node_cost for every expansion.
        cost[:] = [
            _node_cost(i, occupancy, history, capacity, pres_fac)
            for i in range(n_nodes)
        ]
        for net_id, source, sinks, bbox in nets:
            if net_id in routes:
                for node_id in routes[net_id].all_nodes():
                    occupancy[node_id] -= 1
                    cost[node_id] = _node_cost(
                        node_id, occupancy, history, capacity, pres_fac
                    )
            routes[net_id] = search.route_net(source, sinks, bbox, net_id)
            for node_id in routes[net_id].all_nodes():
                occupancy[node_id] += 1
                cost[node_id] = _node_cost(
                    node_id, occupancy, history, capacity, pres_fac
                )

        overused = [
            i for i in range(n_nodes) if occupancy[i] > capacity[i]
        ]
        if not overused:
            return RoutingResult(graph, routes, iteration, 0)
        overuse_trend.append(len(overused))
        # Bail early on hopeless congestion so the flow can retry with a
        # wider channel instead of burning all iterations here.
        if iteration >= 12 and min(overuse_trend[-4:]) >= overuse_trend[-8]:
            break
        for i in overused:
            history[i] += HIST_FAC * (occupancy[i] - capacity[i])
        pres_fac *= PRES_FAC_MULT

    iterations = len(overuse_trend)
    raise RoutingError(
        f"routing did not converge after {iterations} iterations "
        f"({overuse_trend[-1] if overuse_trend else 0} overused nodes); "
        f"increase the channel width (arch.routed_channel_tracks)",
        iterations=iterations,
        overuse_trend=overuse_trend,
    )


def _routable_nets(
    packed: PackedNetlist, placement: Placement, graph: RRGraph
) -> List[Tuple[int, int, List[int], Tuple[int, int, int, int]]]:
    """(net id, source node, sink nodes, bbox) for every multi-tile net,
    highest fanout first."""
    out = []
    for net in packed.netlist.nets:
        driver_cluster = packed.cluster_of_block[net.driver]
        src_xy = placement.location[driver_cluster]
        sink_tiles: Set[Tuple[int, int]] = set()
        for sink in net.sinks:
            xy = placement.location[packed.cluster_of_block[sink]]
            if xy != src_xy:
                sink_tiles.add(xy)
        if not sink_tiles:
            continue
        source = graph.source_of[src_xy]
        sinks = [graph.sink_of[xy] for xy in sorted(sink_tiles)]
        xs = [src_xy[0]] + [xy[0] for xy in sink_tiles]
        ys = [src_xy[1]] + [xy[1] for xy in sink_tiles]
        bbox = (
            max(0, min(xs) - BBOX_MARGIN),
            max(0, min(ys) - BBOX_MARGIN),
            min(placement.layout.width - 1, max(xs) + BBOX_MARGIN),
            min(placement.layout.height - 1, max(ys) + BBOX_MARGIN),
        )
        out.append((net.id, source, sinks, bbox))
    out.sort(key=lambda item: (-len(item[2]), item[0]))
    return out


def _node_cost(
    node_id: int,
    occupancy: Sequence[int],
    history: Sequence[float],
    capacity: Sequence[int],
    pres_fac: float,
) -> float:
    over = occupancy[node_id] + 1 - capacity[node_id]
    present = 1.0 + max(0, over) * pres_fac
    return (1.0 + history[node_id]) * present


class _Search:
    """Flat per-node arrays of one RR graph for the A* expansion.

    Built per :func:`route` call and never stored on the
    :class:`RRGraph`, which is pickled in every cached flow result.
    ``cost`` is owned by :func:`route`; ``dist`` is all-infinite between
    sink searches (each search resets the entries it touched), and
    ``prev`` is only read along a chain the current search wrote.
    """

    def __init__(self, graph: RRGraph) -> None:
        nodes = graph.nodes
        n_nodes = len(nodes)
        self.x = [node.x for node in nodes]
        self.y = [node.y for node in nodes]
        # Never route through another tile's SOURCE/SINK pins: a blocked
        # node is entered only when it is the search's target sink.
        self.blocked = [
            node.type in (RRNodeType.SOURCE, RRNodeType.SINK) for node in nodes
        ]
        self.succ = [[edge.dst for edge in edges] for edges in graph.out_edges]
        self.cost = [0.0] * n_nodes
        self.dist = [math.inf] * n_nodes
        self.prev = [0] * n_nodes

    def route_net(
        self,
        source: int,
        sinks: List[int],
        bbox: Tuple[int, int, int, int],
        net_id: int,
    ) -> NetRoute:
        """Route one net: A* expansion from the growing route tree to each
        sink.

        The heuristic is the Manhattan tile distance divided by the
        maximum wire span — a lower bound on the number of RR nodes still
        to traverse (each costs at least the base cost of 1), so the
        expansion stays optimal while exploring far fewer nodes than plain
        Dijkstra.  Nodes outside the net's bounding box are never entered
        (sinks are inside by construction).
        """
        x_lo, y_lo, x_hi, y_hi = bbox
        xs, ys, blocked, succ = self.x, self.y, self.blocked, self.succ
        cost, dist, prev = self.cost, self.dist, self.prev
        inf = math.inf
        max_span = 4.0
        heappush, heappop = heapq.heappush, heapq.heappop
        tree_nodes: Set[int] = {source}
        sink_paths: Dict[int, List[int]] = {}

        for target in sinks:
            tx, ty = xs[target], ys[target]
            touched = list(tree_nodes)
            for n in touched:
                dist[n] = 0.0
            heap: List[Tuple[float, int]] = [
                ((abs(xs[n] - tx) + abs(ys[n] - ty)) / max_span, n)
                for n in touched
            ]
            heapq.heapify(heap)
            found = False
            while heap:
                f, u = heappop(heap)
                d = dist[u]
                if f > d + (abs(xs[u] - tx) + abs(ys[u] - ty)) / max_span + 1e-12:
                    continue
                if u == target:
                    found = True
                    break
                for v in succ[u]:
                    x = xs[v]
                    y = ys[v]
                    if x < x_lo or x > x_hi or y < y_lo or y > y_hi:
                        continue
                    if blocked[v] and v != target:
                        continue
                    nd = d + cost[v]
                    if nd < dist[v]:
                        if dist[v] == inf:
                            touched.append(v)
                        dist[v] = nd
                        prev[v] = u
                        heappush(heap, (nd + (abs(x - tx) + abs(y - ty)) / max_span, v))
            for n in touched:
                dist[n] = inf
            if not found:
                raise RoutingError(
                    f"net {net_id}: no path from route tree to sink node {target}"
                )
            path = [target]
            while path[-1] not in tree_nodes:
                path.append(prev[path[-1]])
            path.reverse()
            tree_nodes.update(path)
            sink_paths[target] = path

        return NetRoute(net_id, source, sink_paths)
