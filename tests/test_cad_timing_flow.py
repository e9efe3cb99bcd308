"""Tests for the temperature-aware STA and the end-to-end flow driver."""

import numpy as np
import pytest

import repro.cad.flow as flow_module
from repro import observe
from repro.arch.params import ArchParams
from repro.cad.flow import run_flow
from repro.cad.route import RoutingError
from repro.observe.report import load_traces, render_report, report_dict
from repro.cad.timing import FF_CLK_TO_Q_S, FF_SETUP_S
from repro.netlists.netlist import BlockType


class TestTimingAnalyzer:
    def test_critical_path_positive(self, tiny_flow, fabric25, uniform_25):
        report = tiny_flow.timing.critical_path(fabric25, uniform_25)
        assert report.critical_path_s > FF_CLK_TO_Q_S + FF_SETUP_S
        assert report.frequency_hz == pytest.approx(1.0 / report.critical_path_s)

    def test_scalar_temperature_broadcasts(self, tiny_flow, fabric25, uniform_25):
        a = tiny_flow.timing.critical_path(fabric25, uniform_25)
        b = tiny_flow.timing.critical_path(fabric25, np.asarray(25.0))
        assert a.critical_path_s == pytest.approx(b.critical_path_s)

    def test_wrong_vector_length_rejected(self, tiny_flow, fabric25):
        with pytest.raises(ValueError, match="tiles"):
            tiny_flow.timing.critical_path(fabric25, np.full(3, 25.0))

    def test_hotter_is_slower(self, tiny_flow, fabric25, uniform_25):
        cold = tiny_flow.timing.critical_path(fabric25, uniform_25)
        hot = tiny_flow.timing.critical_path(fabric25, uniform_25 + 75.0)
        assert hot.critical_path_s > 1.2 * cold.critical_path_s

    def test_local_hotspot_only_matters_on_path(self, tiny_flow, fabric25, uniform_25):
        # Heating a tile *off* the critical path must not slow it more than
        # heating the whole die.
        base = tiny_flow.timing.critical_path(fabric25, uniform_25)
        hot_everywhere = tiny_flow.timing.critical_path(fabric25, uniform_25 + 50.0)
        one_tile = uniform_25.copy()
        one_tile[0] += 50.0
        hot_corner = tiny_flow.timing.critical_path(fabric25, one_tile)
        assert base.critical_path_s <= hot_corner.critical_path_s + 1e-15
        assert hot_corner.critical_path_s <= hot_everywhere.critical_path_s

    def test_critical_path_blocks_form_a_chain(self, tiny_flow, fabric25, uniform_25):
        report = tiny_flow.timing.critical_path(fabric25, uniform_25)
        netlist = tiny_flow.netlist
        assert len(report.critical_blocks) >= 2
        for prev, cur in zip(report.critical_blocks, report.critical_blocks[1:]):
            fanout = {
                sink
                for net_id in netlist.blocks[prev].output_nets
                for sink in netlist.nets[net_id].sinks
            }
            assert cur in fanout
        assert report.critical_blocks[-1] == report.critical_endpoint

    def test_startpoint_is_sequential_or_input(self, tiny_flow, fabric25, uniform_25):
        report = tiny_flow.timing.critical_path(fabric25, uniform_25)
        start = tiny_flow.netlist.blocks[report.critical_blocks[0]]
        assert start.type in (BlockType.INPUT, BlockType.FF, BlockType.BRAM)

    def test_resource_mix_sums_to_one(self, tiny_flow, fabric25, uniform_25):
        mix = tiny_flow.timing.critical_path_resource_mix(fabric25, uniform_25)
        assert sum(mix.values()) == pytest.approx(1.0)
        assert all(0.0 <= v <= 1.0 for v in mix.values())


class TestFlowDriver:
    def test_in_memory_cache(self, tiny_netlist, arch, tiny_flow):
        assert run_flow(tiny_netlist, arch, seed=11) is tiny_flow

    def test_layout_fits_design(self, tiny_flow):
        from repro.arch.layout import TileType

        packed = tiny_flow.packed
        layout = tiny_flow.layout
        for type_ in (TileType.CLB, TileType.BRAM, TileType.DSP):
            needed = len(packed.clusters_of_type(type_))
            assert layout.capacity_of(type_) >= needed

    def test_seed_changes_placement(self, tiny_netlist, arch, tiny_flow):
        other = run_flow(tiny_netlist, arch, seed=12)
        assert other.placement.location != tiny_flow.placement.location

    def test_n_tiles_property(self, tiny_flow):
        assert tiny_flow.n_tiles == tiny_flow.layout.width * tiny_flow.layout.height


class TestFlowRouteAttempts:
    """One ``flow.route.attempt`` span per channel width tried.

    At 16 tracks the tiny design fails PathFinder's early bail-out and
    routes at the next width (24), so both outcomes are traced.
    """

    @pytest.fixture(scope="class")
    def traced(self, tiny_netlist, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "flow.jsonl"
        with observe.enabled(jsonl_path=str(path)):
            flow = run_flow(
                tiny_netlist, ArchParams(routed_channel_tracks=16), seed=11,
                use_cache=False,
            )
        return flow, load_traces(str(path))

    def test_attempt_spans_under_flow_route(self, traced):
        flow, trace_file = traced
        (trace,) = trace_file.traces
        (route_span,) = [n for n in trace.spans if n.name == "flow.route"]
        attempts = [n.record for n in route_span.children]
        assert [a["name"] for a in attempts] == ["flow.route.attempt"] * 2
        assert route_span.attrs["attempts"] == 2
        failed, routed = (a["attrs"] for a in attempts)
        assert failed["width"] == 16 and failed["ok"] is False
        assert failed["iterations"] == len(failed["overuse_trend"]) >= 12
        assert failed["overused"] == failed["overuse_trend"][-1] > 0
        assert routed == {
            "width": 24, "ok": True,
            "iterations": flow.routing.iterations, "overused": 0,
        }

    def test_report_explains_the_failed_attempt(self, traced):
        _flow, trace_file = traced
        text = render_report(trace_file)
        assert "flow.route.attempt" in text
        assert "width=16 ok=False iterations=" in text
        assert "width=24 ok=True" in text


class TestFlowPlaceLevels:
    """One ``place.level`` event per anneal temperature level."""

    @pytest.fixture(scope="class")
    def traced(self, tiny_netlist, arch, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "flow.jsonl"
        with observe.enabled(jsonl_path=str(path)):
            flow = run_flow(tiny_netlist, arch, seed=11, use_cache=False)
        return flow, load_traces(str(path))

    def test_one_event_per_level_under_flow_place(self, traced):
        flow, trace_file = traced
        (trace,) = trace_file.traces
        (place_span,) = [n for n in trace.spans if n.name == "flow.place"]
        levels = [
            e["attrs"] for e in trace.events
            if e["name"] == "place.level"
            and e["span_id"] == place_span.span_id
        ]
        n_levels = flow.placement.anneal_levels
        assert n_levels > 0 and len(levels) == n_levels
        assert place_span.attrs["levels"] == n_levels
        assert place_span.attrs["moves"] == flow.placement.anneal_moves > 0
        assert flow.placement.anneal_moves % n_levels == 0
        assert [e["level"] for e in levels] == list(range(n_levels))
        for event in levels:
            assert set(event) == {"level", "t", "acceptance", "range_limit", "cost"}
            assert 0.0 <= event["acceptance"] <= 1.0
            assert event["range_limit"] >= 1.0
        temperatures = [e["t"] for e in levels]
        assert temperatures == sorted(temperatures, reverse=True)

    def test_tracing_does_not_change_the_placement(self, traced, tiny_netlist, arch):
        flow, _trace_file = traced
        untraced = run_flow(tiny_netlist, arch, seed=11, use_cache=False)
        assert untraced.placement.location == flow.placement.location

    def test_report_shows_the_anneal(self, traced):
        flow, trace_file = traced
        text = render_report(trace_file)
        assert "anneal summary" in text
        assert f"levels={flow.placement.anneal_levels}" in text
        (row,) = report_dict(trace_file)["traces"][0]["anneals"]
        assert row["netlist"] == flow.netlist.name
        assert row["levels"] == row["level_events"] == flow.placement.anneal_levels
        assert row["moves"] == flow.placement.anneal_moves
        assert row["t_first"] > row["t_last"]


class TestFlowRouteLegality:
    def test_flow_rejects_an_illegal_route(self, tiny_netlist, arch, monkeypatch):
        real_route = flow_module.route

        def route_dropping_a_net(*args, **kwargs):
            routing = real_route(*args, **kwargs)
            routing.routes.pop(next(iter(routing.routes)))
            return routing

        monkeypatch.setattr(flow_module, "route", route_dropping_a_net)
        with pytest.raises(RoutingError, match=r"net \d+: no route"):
            run_flow(tiny_netlist, arch, seed=11, use_cache=False)
