"""Tests for grouped Algorithm 1 runs and the grouped sweep engine.

:func:`thermal_aware_guardband_batch` runs every cell through
:func:`thermal_aware_guardband`, so each outcome must be bit-identical
to a single-cell call (DESIGN.md §12).  A diverging cell must not
affect the other cells of its group, and the engine's same-flow work
units must keep its per-cell record/store/resume semantics.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import observe
from repro.core.guardband import (
    BatchCell,
    GuardbandConfig,
    GuardbandError,
    GuardbandResult,
    thermal_aware_guardband,
    thermal_aware_guardband_batch,
)
from repro.netlists.generator import NetlistSpec
from repro.observe.sinks import InMemorySink
from repro.runner import ExperimentSpec, JobFailure, JobResult, run_sweep
from repro.runner import engine as engine_module
from repro.store import open_store, store_digest

AMBIENTS = (5.0, 25.0, 45.0, 65.0)

BATCH_A = NetlistSpec("batch_tiny_a", n_luts=10, depth=3, seed=71,
                      base_activity=0.2)
BATCH_B = NetlistSpec("batch_tiny_b", n_luts=12, depth=3, seed=72,
                      base_activity=0.18)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "flows"))
    return tmp_path


@pytest.fixture(scope="module")
def looped(tiny_flow, fabric25):
    """Single-cell reference runs, one per ambient."""
    return {
        t: thermal_aware_guardband(tiny_flow, fabric25, t_ambient=t)
        for t in AMBIENTS
    }


def _trajectory(result: GuardbandResult) -> list:
    """Per-iteration telemetry without the wall-clock phase timings."""
    return [
        (it.frequency_hz, it.total_power_w, it.max_tile_celsius,
         it.mean_tile_celsius, it.max_delta_celsius)
        for it in result.history
    ]


def _assert_same_run(got: object, want: GuardbandResult) -> None:
    """Bit-identical outcome, temperature bytes and history included."""
    assert isinstance(got, GuardbandResult)
    assert got.t_ambient == want.t_ambient
    assert got.frequency_hz == want.frequency_hz
    assert got.vdd_v == want.vdd_v
    assert got.iterations == want.iterations
    assert got.warm_started == want.warm_started
    assert got.tile_temperatures.tobytes() == want.tile_temperatures.tobytes()
    assert _trajectory(got) == _trajectory(want)


class TestBatchEquivalence:
    def test_matches_looped_within_margin(self, tiny_flow, fabric25, looped):
        """Stricter than the margin: every cell equals its looped run."""
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric25, list(AMBIENTS)
        )
        assert len(outcomes) == len(AMBIENTS)
        for t_ambient, outcome in zip(AMBIENTS, outcomes):
            _assert_same_run(outcome, looped[t_ambient])

    def test_randomized_ambients_and_activity(self, tiny_flow, fabric25):
        """Randomized operating points under a non-default activity."""
        rng = np.random.default_rng(17)
        ambients = sorted(float(t) for t in rng.uniform(0.0, 80.0, size=6))
        config = GuardbandConfig(base_activity=0.45)
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric25, ambients, config=config
        )
        for t_ambient, outcome in zip(ambients, outcomes):
            _assert_same_run(
                outcome,
                thermal_aware_guardband(
                    tiny_flow, fabric25, t_ambient, config=config
                ),
            )

    def test_other_corner_fabric(self, tiny_flow, fabric70):
        """The group is generic in the fabric corner it runs against."""
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric70, [25.0, 55.0]
        )
        for t_ambient, outcome in zip((25.0, 55.0), outcomes):
            _assert_same_run(
                outcome, thermal_aware_guardband(tiny_flow, fabric70, t_ambient)
            )

    def test_histories_match_looped_trajectories(
        self, tiny_flow, fabric25, looped
    ):
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric25, list(AMBIENTS)
        )
        for t_ambient, outcome in zip(AMBIENTS, outcomes):
            assert _trajectory(outcome) == _trajectory(looped[t_ambient])

    def test_single_cell_batch_matches_single_run(
        self, tiny_flow, fabric25, looped
    ):
        (outcome,) = thermal_aware_guardband_batch(
            tiny_flow, fabric25, [25.0]
        )
        _assert_same_run(outcome, looped[25.0])

    def test_empty_batch(self, tiny_flow, fabric25):
        assert thermal_aware_guardband_batch(tiny_flow, fabric25, []) == []

    def test_results_do_not_alias_each_other(self, tiny_flow, fabric25):
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric25, [25.0, 45.0]
        )
        a, b = outcomes
        assert isinstance(a, GuardbandResult)
        assert isinstance(b, GuardbandResult)
        assert not np.shares_memory(a.tile_temperatures, b.tile_temperatures)

    def test_mixed_convergence_speeds(self, tiny_flow, fabric25, looped):
        """A warm-started cell converges in fewer iterations than its
        cold neighbours; every cell still equals its own looped run."""
        reference = looped[25.0]
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric25,
            [
                BatchCell(25.0, warm_start=reference.tile_temperatures),
                BatchCell(25.0),
                BatchCell(65.0),
            ],
        )
        warm, cold, hot = outcomes
        assert isinstance(warm, GuardbandResult)
        assert warm.warm_started
        assert warm.iterations < reference.iterations
        _assert_same_run(
            warm,
            thermal_aware_guardband(
                tiny_flow, fabric25, 25.0,
                warm_start=reference.tile_temperatures,
            ),
        )
        _assert_same_run(cold, reference)
        _assert_same_run(hot, looped[65.0])

    def test_diverging_cell_does_not_poison_batch_mates(
        self, tiny_flow, fabric25, looped
    ):
        """With the budget set below the cold iteration count, the cold
        cell diverges while its warm-started neighbour still converges
        to the same result as its own looped run."""
        reference = looped[25.0]
        assert reference.iterations >= 2, "fixture no longer exercises this"
        config = GuardbandConfig(max_iterations=reference.iterations - 1)
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric25,
            [
                BatchCell(25.0),
                BatchCell(25.0, warm_start=reference.tile_temperatures),
            ],
            config=config,
        )
        diverged, converged = outcomes
        assert isinstance(diverged, GuardbandError)
        assert "did not converge" in str(diverged)
        _assert_same_run(
            converged,
            thermal_aware_guardband(
                tiny_flow, fabric25, 25.0, config=config,
                warm_start=reference.tile_temperatures,
            ),
        )

    def test_diverged_cell_carries_diagnostics(
        self, tiny_flow, fabric25, looped
    ):
        reference = looped[25.0]
        budget = reference.iterations - 1
        config = GuardbandConfig(max_iterations=budget)
        (outcome,) = thermal_aware_guardband_batch(
            tiny_flow, fabric25, [25.0], config=config
        )
        assert isinstance(outcome, GuardbandError)
        assert outcome.iterations == budget
        assert len(outcome.history) == budget
        assert outcome.t_ambient == 25.0
        assert outcome.last_temperatures is not None
        assert outcome.last_temperatures.shape == (tiny_flow.n_tiles,)
        assert outcome.last_max_delta_celsius is not None
        assert outcome.last_max_delta_celsius > config.delta_t

    def test_all_cells_diverge_like_looped_path(self, tiny_flow, fabric25):
        from repro.thermal.package import ThermalPackage

        weak = ThermalPackage(g_vertical_w_per_k=1e-6, g_lateral_w_per_k=1e-5)
        config = GuardbandConfig(delta_t=0.05, max_iterations=2, package=weak)
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric25, [25.0, 45.0], config=config
        )
        assert all(isinstance(o, GuardbandError) for o in outcomes)

    def test_warm_start_validation(self, tiny_flow, fabric25):
        with pytest.raises(ValueError, match="shape"):
            thermal_aware_guardband_batch(
                tiny_flow, fabric25,
                [BatchCell(25.0, warm_start=np.zeros(tiny_flow.n_tiles + 1))],
            )
        seed = np.full(tiny_flow.n_tiles, 30.0)
        seed[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            thermal_aware_guardband_batch(
                tiny_flow, fabric25, [BatchCell(25.0, warm_start=seed)]
            )

    def test_bad_last_warm_start_raises_before_any_cell_runs(
        self, tiny_flow, fabric25
    ):
        bad = BatchCell(65.0, warm_start=np.zeros(tiny_flow.n_tiles + 1))
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            with pytest.raises(ValueError, match="shape"):
                thermal_aware_guardband_batch(
                    tiny_flow, fabric25, [25.0, 45.0, bad]
                )
        assert [s for s in sink.spans() if s["name"] == "guardband.run"] == []


class TestLoopedErrorDiagnostics:
    def test_looped_raise_carries_partial_state(self, tiny_flow, fabric25):
        from repro.thermal.package import ThermalPackage

        weak = ThermalPackage(g_vertical_w_per_k=1e-6, g_lateral_w_per_k=1e-5)
        with pytest.raises(GuardbandError) as info:
            thermal_aware_guardband(
                tiny_flow, fabric25, 25.0,
                config=GuardbandConfig(
                    delta_t=0.05, max_iterations=2, package=weak
                ),
            )
        error = info.value
        assert error.iterations == 2
        assert len(error.history) == 2
        assert error.t_ambient == 25.0
        assert error.last_temperatures is not None
        assert error.last_temperatures.shape == (tiny_flow.n_tiles,)
        assert error.last_max_delta_celsius == pytest.approx(
            error.history[-1].max_delta_celsius
        )

    def test_bare_message_still_constructs(self):
        error = GuardbandError("nope")
        assert error.history == []
        assert error.last_temperatures is None
        assert error.iterations == 0
        assert error.last_max_delta_celsius is None


class TestBatchedPowerModel:
    """Power-breakdown caching and deterministic per-iteration telemetry."""

    @pytest.fixture(scope="class")
    def model(self, tiny_flow, fabric25):
        from repro.activity.ace import estimate_activity
        from repro.power.model import PowerModel

        activity = estimate_activity(tiny_flow.netlist, 0.2)
        return PowerModel(tiny_flow, fabric25, activity)

    def test_breakdown_totals_cached(self, model, tiny_flow):
        breakdown = model.evaluate(2e8, np.full(tiny_flow.n_tiles, 30.0))
        assert breakdown.total_w is breakdown.total_w
        np.testing.assert_array_equal(
            breakdown.total_w, breakdown.dynamic_w + breakdown.leakage_w
        )
        assert breakdown.total_watts == breakdown.total_watts
        assert breakdown.total_watts == float(breakdown.total_w.sum())

    def test_caches_do_not_leak_between_breakdowns(self, model, tiny_flow):
        cool = model.evaluate(2e8, np.full(tiny_flow.n_tiles, 25.0))
        hot = model.evaluate(2e8, np.full(tiny_flow.n_tiles, 80.0))
        assert cool.total_watts < hot.total_watts
        assert cool.total_w is not hot.total_w

    def test_iteration_telemetry_bit_identical_across_runs(
        self, tiny_flow, fabric25
    ):
        """Regression for the total-power caching: the looped path's
        per-iteration telemetry must stay deterministic bit for bit."""
        first = thermal_aware_guardband(tiny_flow, fabric25, t_ambient=25.0)
        second = thermal_aware_guardband(tiny_flow, fabric25, t_ambient=25.0)
        assert first.frequency_hz == second.frequency_hz
        assert first.total_power_w == second.total_power_w
        assert len(first.history) == len(second.history)
        for a, b in zip(first.history, second.history):
            assert a.frequency_hz == b.frequency_hz
            assert a.total_power_w == b.total_power_w
            assert a.max_tile_celsius == b.max_tile_celsius
            assert a.mean_tile_celsius == b.mean_tile_celsius
            assert a.max_delta_celsius == b.max_delta_celsius


def _batch_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        benchmarks=(BATCH_A, BATCH_B), ambients=(15.0, 30.0, 45.0)
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestBatchedSweep:
    def test_groups_same_flow_cells(self):
        jobs = _batch_spec().expand()
        units = engine_module._work_units(jobs)
        # One unit per (benchmark, corner) pair, holding every ambient.
        assert [len(unit) for unit in units] == [3, 3]
        for unit in units:
            assert len({job.benchmark for job in unit}) == 1
            assert len({job.t_ambient for job in unit}) == 3

    def test_different_corners_not_grouped(self):
        jobs = _batch_spec(corners=(25.0, 70.0)).expand()
        units = engine_module._work_units(jobs)
        for unit in units:
            assert len({(job.benchmark, job.corner) for job in unit}) == 1

    def test_batched_matches_looped_sweep(self, cache_dir):
        from repro.cad.flow import run_flow
        from repro.core.margins import worst_case_frequency

        spec = _batch_spec()
        batch = run_sweep(spec, workers=1)
        assert batch.ok
        assert [r.job_id for r in batch.results] == [
            job.job_id for job in spec.expand()
        ]
        for job, b in zip(spec.expand(), batch.results):
            # A grouped cell equals a single-cell run (DESIGN.md §12).
            flow = run_flow(job.resolve_netlist(), job.arch, seed=job.seed)
            fabric = engine_module._fabric_for(job.corner, job.arch)
            a = thermal_aware_guardband(
                flow, fabric, job.t_ambient, config=job.config
            )
            assert b.frequency_hz == a.frequency_hz
            assert b.total_power_w == a.total_power_w
            assert b.iterations == a.iterations
            assert b.worst_case_hz == worst_case_frequency(flow, fabric)

    def test_parallel_batched_matches_serial_batched(self, cache_dir):
        spec = _batch_spec()
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial.ok and parallel.ok
        assert parallel.frequencies() == serial.frequencies()

    def test_per_cell_records_and_store_writes(self, cache_dir, tmp_path):
        spec = _batch_spec()
        store_root = tmp_path / "store"
        jsonl = tmp_path / "sweep.jsonl"
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            sweep = run_sweep(
                spec, workers=1,
                store=str(store_root), jsonl_path=str(jsonl),
            )
        assert sweep.ok
        # One JSONL line and one sweep.cell span per cell, not per batch.
        lines = [l for l in jsonl.read_text().splitlines() if l.strip()]
        assert len(lines) == spec.n_jobs
        cells = [s for s in sink.spans() if s["name"] == "sweep.cell"]
        assert len(cells) == spec.n_jobs
        # One store entry per cell.
        assert len(open_store(store_root).digests()) == spec.n_jobs
        assert sweep.store_totals() == {"hit": 0, "miss": spec.n_jobs}

    def test_store_hits_served_per_cell(self, cache_dir, tmp_path):
        spec = _batch_spec()
        store_root = str(tmp_path / "store")
        first = run_sweep(spec, workers=1, store=store_root)
        again = run_sweep(spec, workers=1, store=store_root)
        assert first.ok and again.ok
        assert again.store_totals() == {"hit": spec.n_jobs, "miss": 0}
        assert again.frequencies() == first.frequencies()
        assert all(r.phase_seconds == {} for r in again.results)

    def test_partial_store_hits_batch_only_remainder(
        self, cache_dir, tmp_path
    ):
        spec = _batch_spec(benchmarks=(BATCH_A,))
        store_root = str(tmp_path / "store")
        # Pre-populate exactly one cell through a one-cell sweep.
        one = ExperimentSpec(benchmarks=(BATCH_A,), ambients=(30.0,))
        assert run_sweep(one, workers=1, store=store_root).ok
        sweep = run_sweep(spec, workers=1, store=store_root)
        assert sweep.ok
        assert sweep.store_totals() == {"hit": 1, "miss": spec.n_jobs - 1}
        hit = sweep.result_for(BATCH_A.name, 30.0, 25.0)
        assert hit is not None and hit.store_event == "hit"

    def test_resume_skips_batched_cells(self, cache_dir, tmp_path):
        spec = _batch_spec()
        jsonl = tmp_path / "sweep.jsonl"
        first = run_sweep(spec, workers=1, jsonl_path=str(jsonl))
        assert first.ok
        resumed = run_sweep(
            spec, workers=1, resume_from=str(jsonl),
        )
        assert resumed.ok and resumed.n_resumed == spec.n_jobs
        assert resumed.frequencies() == first.frequencies()

    def test_unit_mates_seed_later_cells(self, cache_dir, tmp_path):
        # Nothing has completed when the two units are dispatched, so
        # every warm start below comes from an earlier cell of the same
        # unit, in each of the two workers.
        spec = _batch_spec(
            config=GuardbandConfig(warm_start_policy="nearest")
        )
        sweep = run_sweep(spec, workers=2, store=str(tmp_path / "store"))
        assert sweep.ok
        assert [r.warm_started for r in sweep.results] == [
            False, True, True, False, True, True,
        ]

    def test_cell_wall_time_is_its_own(self, cache_dir, monkeypatch):
        real = engine_module.thermal_aware_guardband

        def slow_at_45(flow, fabric, t_ambient, **kwargs):
            if t_ambient == 45.0:
                time.sleep(0.3)
            return real(flow, fabric, t_ambient, **kwargs)

        spec = _batch_spec(benchmarks=(BATCH_A,))
        assert run_sweep(spec, workers=1).ok  # place and route once
        monkeypatch.setattr(
            engine_module, "thermal_aware_guardband", slow_at_45
        )
        sweep = run_sweep(spec, workers=1)
        walls = {r.t_ambient: r.wall_seconds for r in sweep.results}
        # An even split of the unit's wall clock would give each cell
        # about 0.1 s; the slow cell keeps its own 0.3 s.
        assert walls[45.0] >= 0.3
        assert walls[15.0] < 0.15 and walls[30.0] < 0.15
        assert sum(walls.values()) <= sweep.wall_seconds

    def test_diverged_cell_recorded_with_diagnostics(self, cache_dir):
        # A one-iteration budget with a tight threshold: every cell
        # diverges, and each failure record carries the partial state.
        spec = _batch_spec(
            benchmarks=(BATCH_A,),
            config=GuardbandConfig(delta_t=0.01, max_iterations=1),
        )
        sweep = run_sweep(spec, workers=1)
        assert len(sweep.failures) == spec.n_jobs
        for failure in sweep.failures:
            assert failure.error_type == "GuardbandError"
            assert failure.diagnostics["iterations"] == 1
            assert failure.diagnostics["last_max_delta_celsius"] > 0.01

    def test_looped_failure_records_diagnostics_in_jsonl(
        self, cache_dir, tmp_path
    ):
        spec = ExperimentSpec(
            benchmarks=(BATCH_A,), ambients=(25.0,),
            config=GuardbandConfig(delta_t=0.01, max_iterations=1),
        )
        jsonl = tmp_path / "sweep.jsonl"
        sweep = run_sweep(spec, workers=1, jsonl_path=str(jsonl))
        assert len(sweep.failures) == 1
        import json

        (record,) = [
            json.loads(line)
            for line in jsonl.read_text().splitlines()
            if line.strip()
        ]
        assert record["type"] == "failure"
        assert record["diagnostics"]["iterations"] == 1
        assert record["diagnostics"]["last_max_delta_celsius"] > 0.01

    def test_mixed_success_and_failure_in_one_batch(self, cache_dir, tmp_path):
        """Per-cell isolation end-to-end: one batched work unit records
        JobResults and JobFailures side by side — a store-served cell
        succeeds while its batch-mates exhaust a one-iteration budget."""
        tight = GuardbandConfig(delta_t=0.01, max_iterations=1)
        store_root = str(tmp_path / "store")
        # Converge one cell outside the budget constraint and persist it
        # under the digest the tight-config sweep will look up.
        from repro.cad.flow import run_flow

        (job,) = ExperimentSpec(
            benchmarks=(BATCH_A,), ambients=(30.0,), config=tight
        ).expand()
        flow = run_flow(job.resolve_netlist(), job.arch, seed=job.seed)
        converged = thermal_aware_guardband(
            flow, engine_module._fabric_for(job.corner, job.arch),
            t_ambient=30.0,
        )
        store = open_store(store_root)
        store.put(
            store_digest(flow.cache_key, tight, 30.0, job.corner), converged
        )
        sweep = run_sweep(
            _batch_spec(benchmarks=(BATCH_A,), config=tight),
            workers=1, store=store_root,
        )
        assert [r.t_ambient for r in sweep.results] == [30.0]
        assert sweep.results[0].store_event == "hit"
        assert {f.t_ambient for f in sweep.failures} == {15.0, 45.0}
        assert all(
            f.error_type == "GuardbandError" for f in sweep.failures
        )


class TestWarmStartMissObservability:
    def _job(self, spec=BATCH_A, **overrides):
        defaults = dict(
            benchmarks=(spec,), ambients=(40.0,),
            config=GuardbandConfig(warm_start_policy="nearest"),
        )
        defaults.update(overrides)
        (job,) = ExperimentSpec(**defaults).expand()
        return job

    def test_quarantined_neighbour_counts_as_miss(self, cache_dir, tmp_path):
        from dataclasses import replace

        from repro.cad.flow import run_flow

        job = self._job()
        flow = run_flow(job.resolve_netlist(), job.arch, seed=job.seed)
        store = open_store(tmp_path / "store")
        digest = store_digest(flow.cache_key, job.config, 25.0, job.corner)
        # A neighbour entry exists on disk but is unreadable.
        store.put(
            digest,
            thermal_aware_guardband(
                flow, engine_module._fabric_for(job.corner, job.arch),
                t_ambient=25.0, config=job.config,
            ),
        )
        store.path_for(digest).write_bytes(b"torn garbage")
        job = replace(job, warm_start_cells=((25.0, job.corner),))
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            seed_vec = engine_module._warm_start_vector(store, flow, job)
        assert seed_vec is None
        events = [
            e for e in sink.events() if e["name"] == "store.warm_start_miss"
        ]
        assert len(events) == 1
        assert events[0]["attrs"]["reason"] == "quarantined"
        misses = [
            m for m in sink.metrics() if m["name"] == "store.warm_start_miss"
        ]
        assert misses and misses[-1]["value"] == 1

    def test_layout_mismatch_counts_as_miss(self, cache_dir, tmp_path):
        from dataclasses import replace as dc_replace

        from repro.cad.flow import run_flow

        job = self._job()
        flow = run_flow(job.resolve_netlist(), job.arch, seed=job.seed)
        fabric = engine_module._fabric_for(job.corner, job.arch)
        good = thermal_aware_guardband(
            flow, fabric, t_ambient=25.0, config=job.config
        )
        mangled = dc_replace(
            good, tile_temperatures=np.append(good.tile_temperatures, 25.0)
        )
        store = open_store(tmp_path / "store")
        digest = store_digest(flow.cache_key, job.config, 25.0, job.corner)
        store.put(digest, mangled)
        job = dc_replace(job, warm_start_cells=((25.0, job.corner),))
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            seed_vec = engine_module._warm_start_vector(store, flow, job)
        assert seed_vec is None
        events = [
            e for e in sink.events() if e["name"] == "store.warm_start_miss"
        ]
        assert len(events) == 1
        assert events[0]["attrs"]["reason"] == "layout_mismatch"

    def test_absent_neighbour_is_silent(self, cache_dir, tmp_path):
        from dataclasses import replace as dc_replace

        from repro.cad.flow import run_flow

        job = self._job()
        flow = run_flow(job.resolve_netlist(), job.arch, seed=job.seed)
        store = open_store(tmp_path / "store")
        job = dc_replace(job, warm_start_cells=((25.0, job.corner),))
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            seed_vec = engine_module._warm_start_vector(store, flow, job)
        assert seed_vec is None
        assert [
            e for e in sink.events() if e["name"] == "store.warm_start_miss"
        ] == []

    def test_usable_neighbour_still_seeds(self, cache_dir, tmp_path):
        from dataclasses import replace as dc_replace

        from repro.cad.flow import run_flow

        job = self._job()
        flow = run_flow(job.resolve_netlist(), job.arch, seed=job.seed)
        fabric = engine_module._fabric_for(job.corner, job.arch)
        good = thermal_aware_guardband(
            flow, fabric, t_ambient=25.0, config=job.config
        )
        store = open_store(tmp_path / "store")
        digest = store_digest(flow.cache_key, job.config, 25.0, job.corner)
        store.put(digest, good)
        job = dc_replace(job, warm_start_cells=((25.0, job.corner),))
        seed_vec = engine_module._warm_start_vector(store, flow, job)
        assert seed_vec is not None
        np.testing.assert_allclose(
            seed_vec, good.tile_temperatures - 25.0 + job.t_ambient
        )


class TestBatchedJobRouting:
    def test_single_cell_units_route_through_execute_unit(
        self, cache_dir, monkeypatch
    ):
        """A cell with no same-flow neighbour is a unit of one, dispatched
        through the same ``_execute_unit`` as a grouped unit."""
        seen = []

        def fake(unit, store=None):
            seen.append([job.job_id for job in unit])
            return [
                JobResult(
                    job_id=job.job_id, benchmark=job.benchmark,
                    t_ambient=job.t_ambient, corner=job.corner,
                    frequency_hz=1e9, worst_case_hz=5e8, gain=1.0,
                    iterations=1, total_power_w=1.0, max_tile_celsius=50.0,
                    mean_tile_celsius=40.0, wall_seconds=0.0,
                )
                for job in unit
            ]

        monkeypatch.setattr(engine_module, "_execute_unit", fake)
        spec = ExperimentSpec(
            benchmarks=(BATCH_A, BATCH_B), ambients=(25.0,)
        )
        sweep = run_sweep(spec, workers=1)
        assert sweep.ok
        assert seen == [[job.job_id] for job in spec.expand()]

    def test_batch_failure_falls_back_per_job(self, cache_dir, monkeypatch):
        """A unit-level crash (not a per-cell divergence) records one
        failure per member cell."""

        def boom(unit, store=None):
            raise RuntimeError("batch infrastructure crashed")

        monkeypatch.setattr(engine_module, "_execute_unit", boom)
        spec = _batch_spec(benchmarks=(BATCH_A,))
        sweep = run_sweep(spec, workers=1)
        assert len(sweep.failures) == spec.n_jobs
        assert all(
            f.error_type == "RuntimeError" for f in sweep.failures
        )
        assert {f.job_id for f in sweep.failures} == {
            j.job_id for j in spec.expand()
        }
