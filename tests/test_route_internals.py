"""Tests for PathFinder internals: cost model, net ordering, route trees,
failure diagnostics and the routing legality check."""

import copy
import pickle

import pytest

from repro.arch.layout import FabricLayout, TileType
from repro.arch.rrgraph import RRNodeType, build_rr_graph
from repro.cad.pack import pack_netlist
from repro.cad.place import place
from repro.cad.route import (
    NetRoute,
    RoutingError,
    RoutingResult,
    _node_cost,
    _routable_nets,
    route,
)


@pytest.fixture(scope="module")
def routed(tiny_netlist, arch):
    packed = pack_netlist(tiny_netlist, arch)
    counts = {t: 0 for t in TileType}
    for c in packed.clusters:
        counts[c.type] += 1
    layout = FabricLayout.for_netlist(
        arch, counts[TileType.CLB], counts[TileType.BRAM],
        counts[TileType.DSP], counts[TileType.IO],
    )
    placement = place(packed, layout, seed=21)
    graph = build_rr_graph(arch, layout)
    return packed, placement, graph, route(packed, placement, graph)


class TestCostModel:
    def test_free_node_costs_base(self):
        assert _node_cost(0, [0], [0.0], [1], pres_fac=1.0) == pytest.approx(1.0)

    def test_full_node_penalized(self):
        free = _node_cost(0, [0], [0.0], [1], pres_fac=2.0)
        full = _node_cost(0, [1], [0.0], [1], pres_fac=2.0)
        assert full > free

    def test_history_accumulates_cost(self):
        fresh = _node_cost(0, [0], [0.0], [1], pres_fac=1.0)
        scarred = _node_cost(0, [0], [3.0], [1], pres_fac=1.0)
        assert scarred == pytest.approx(4.0 * fresh)

    def test_pres_fac_scales_overuse(self):
        mild = _node_cost(0, [2], [0.0], [1], pres_fac=0.5)
        harsh = _node_cost(0, [2], [0.0], [1], pres_fac=5.0)
        assert harsh > mild


class TestNetOrdering:
    def test_high_fanout_first(self, routed):
        packed, placement, graph, _ = routed
        nets = _routable_nets(packed, placement, graph)
        fanouts = [len(sinks) for _net, _src, sinks, _bb in nets]
        assert fanouts == sorted(fanouts, reverse=True)

    def test_bounding_boxes_contain_terminals(self, routed):
        packed, placement, graph, _ = routed
        for net_id, source, sinks, (x_lo, y_lo, x_hi, y_hi) in _routable_nets(
            packed, placement, graph
        ):
            for node_id in [source] + sinks:
                node = graph.nodes[node_id]
                assert x_lo <= node.x <= x_hi
                assert y_lo <= node.y <= y_hi


class TestRouteTrees:
    def test_all_nodes_includes_source(self, routed):
        *_, result = routed
        for net_route in result.routes.values():
            assert net_route.source_node in net_route.all_nodes()

    def test_tree_paths_share_prefixes_not_conflict(self, routed):
        packed, placement, graph, result = routed
        # A net's sink paths form a tree: the union of nodes never contains
        # two distinct incoming tree edges for the same node.
        for net_route in result.routes.values():
            parent = {}
            for path in net_route.sink_paths.values():
                for a, b in zip(path, path[1:]):
                    if b in parent:
                        assert parent[b] == a, "node has two tree parents"
                    parent[b] = a

    def test_wire_accounting(self, routed):
        *_, result = routed
        total = result.total_wire_nodes()
        assert total > 0
        # Upper bound: cannot exceed the number of wires used per net summed.
        upper = sum(
            sum(1 for n in r.all_nodes()
                if result.graph.nodes[n].type in (RRNodeType.CHANX, RRNodeType.CHANY))
            for r in result.routes.values()
        )
        assert total == upper

    def test_no_overuse_reported(self, routed):
        *_, result = routed
        assert result.overused_nodes == 0


class TestFailureDiagnostics:
    @pytest.fixture(scope="class")
    def failure(self, routed, arch):
        packed, placement, graph, _ = routed
        starved = build_rr_graph(
            arch.with_changes(routed_channel_tracks=8), graph.layout
        )
        with pytest.raises(RoutingError) as info:
            route(packed, placement, starved, max_iterations=5)
        return info.value

    def test_carries_iterations_and_overuse_trend(self, failure):
        assert failure.iterations == 5
        assert len(failure.overuse_trend) == 5
        assert all(count > 0 for count in failure.overuse_trend)
        assert failure.overused == failure.overuse_trend[-1]
        assert "after 5 iterations" in str(failure)
        assert f"({failure.overused} overused nodes)" in str(failure)

    def test_attributes_survive_pickling(self, failure):
        # Sweep workers ship errors across process boundaries.
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.iterations == failure.iterations
        assert clone.overuse_trend == failure.overuse_trend

    def test_zero_iterations_is_a_diagnosed_failure(self, routed):
        packed, placement, graph, _ = routed
        with pytest.raises(RoutingError, match="after 0 iterations") as info:
            route(packed, placement, graph, max_iterations=0)
        assert info.value.iterations == 0 and info.value.overused == 0


def _tree_chain(net: NetRoute, sink: int) -> list:
    """Node chain from the net's source to ``sink`` through its route tree."""
    parent = {}
    for path in net.sink_paths.values():
        for u, v in zip(path, path[1:]):
            parent.setdefault(v, u)
    chain = [sink]
    while chain[-1] != net.source_node:
        chain.append(parent[chain[-1]])
    return chain[::-1]


class TestValidate:
    """``RoutingResult.validate`` rejects corrupted routes, naming the net."""

    @pytest.fixture()
    def corrupt(self, routed):
        packed, placement, graph, result = routed

        def check(routes):
            broken = RoutingResult(graph, routes, result.iterations, 0)
            broken.validate(packed, placement)

        return copy.deepcopy(result.routes), check

    def test_router_output_is_legal(self, routed):
        packed, placement, _graph, result = routed
        result.validate(packed, placement)

    def test_missing_net(self, corrupt):
        routes, check = corrupt
        net_id = next(iter(routes))
        del routes[net_id]
        with pytest.raises(RoutingError, match=f"net {net_id}: no route"):
            check(routes)

    def test_missing_sink(self, corrupt):
        routes, check = corrupt
        net = next(r for r in routes.values() if len(r.sink_paths) > 1)
        sink = list(net.sink_paths)[-1]
        del net.sink_paths[sink]
        with pytest.raises(
            RoutingError, match=rf"net {net.net_id}: sink node\(s\) \[{sink}\]"
        ):
            check(routes)

    def test_severed_hop(self, corrupt, routed):
        routes, check = corrupt
        graph = routed[2]
        for net in routes.values():
            for path in net.sink_paths.values():
                for i in range(1, len(path) - 1):
                    successors = {e.dst for e in graph.out_edges[path[i - 1]]}
                    if path[i + 1] not in successors:
                        del path[i]
                        with pytest.raises(
                            RoutingError,
                            match=f"net {net.net_id}: hop .* not an RR edge",
                        ):
                            check(routes)
                        return
        pytest.fail("no path hop could be severed")

    def test_wrong_source(self, corrupt):
        routes, check = corrupt
        net = next(iter(routes.values()))
        net.source_node += 1
        with pytest.raises(RoutingError, match=f"net {net.net_id}: route starts"):
            check(routes)

    def test_over_capacity_node(self, corrupt):
        routes, check = corrupt
        # Two nets from the same source tile, one with a single sink the
        # other also reaches: reroute the first along the other's tree.
        # Every hop is a real edge, but the shared wires now carry 2 nets.
        for net in routes.values():
            for other in routes.values():
                if (
                    other is not net
                    and other.source_node == net.source_node
                    and len(net.sink_paths) == 1
                    and set(net.sink_paths) <= set(other.sink_paths)
                ):
                    sink = next(iter(net.sink_paths))
                    net.sink_paths[sink] = _tree_chain(other, sink)
                    with pytest.raises(
                        RoutingError, match=r"used by 2 nets, capacity 1"
                    ):
                        check(routes)
                    return
        pytest.fail("no pair of nets shares a source and a sink")
