"""Algorithm 1's reused per-flow inputs (repro.core.inputs).

The activity estimate, power model and thermal factorization are built
once per (flow, fabric, base activity, package) and shared by every
later run; the energy mode's voltage tables are shared process-wide.
These tests hold the contract that makes sharing safe: shared arrays
are read-only, a caller cannot perturb a later cell, every distinct key
gets its own entry, and nothing outlives the flow it was built from.
"""

from __future__ import annotations

import copy
import gc
import weakref

import pytest

from repro.cad.flow import run_flow
from repro.core.guardband import (
    GuardbandConfig,
    thermal_aware_guardband,
    thermal_aware_guardband_batch,
)
from repro.core import inputs as inputs_module
from repro.core.inputs import algorithm_inputs, worst_case_hz
from repro.core.margins import worst_case_frequency
from repro.power.voltage import VoltageScaling
from repro.thermal.package import ThermalPackage

ENERGY = GuardbandConfig(mode="energy", target_frequency_hz=50e6)


def _outputs(result):
    return (
        result.frequency_hz,
        result.iterations,
        result.vdd_v,
        result.total_power_w,
        result.tile_temperatures.tobytes(),
    )


class TestReadOnly:
    def test_activity_alpha(self, tiny_flow, fabric25):
        inputs = algorithm_inputs(tiny_flow, fabric25, 0.15)
        with pytest.raises(ValueError):
            inputs.activity.alpha[0] = 0.5

    def test_power_model_arrays(self, tiny_flow, fabric25):
        model = algorithm_inputs(tiny_flow, fabric25, 0.15).power_model
        arrays = [
            model._counts, model._alpha_matrix, model._pdyn_base,
            model._leak_table, *model._leak_split,
            *model._dyn_tiles.values(), *model._dyn_alphas.values(),
        ]
        for array in arrays:
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            model._alpha_matrix[0, 0] = 1.0
        with pytest.raises(ValueError):
            model._leak_table[0, 0] = 1.0

    def test_thermal_conductance(self, tiny_flow, fabric25):
        solver = algorithm_inputs(tiny_flow, fabric25, 0.15).solver
        with pytest.raises(ValueError):
            solver._conductance.data[0] = 0.0

    def test_voltage_tables(self):
        scaling = VoltageScaling()
        for table in (
            scaling.delay_scale_table(0.7), scaling.leakage_scale_table(0.7)
        ):
            with pytest.raises(ValueError):
                table[0] = 2.0

    def test_voltage_tables_are_process_wide(self):
        assert VoltageScaling().delay_scale_table(0.6) is (
            VoltageScaling().delay_scale_table(0.6)
        )


class TestReuse:
    def test_second_run_reuses_every_input(self, tiny_flow, fabric25):
        first = algorithm_inputs(tiny_flow, fabric25, 0.15)
        again = algorithm_inputs(tiny_flow, fabric25, 0.15)
        assert not again.built
        assert again.activity is first.activity
        assert again.power_model is first.power_model
        assert again.solver is first.solver

    def test_base_activity_gets_its_own_entry(self, tiny_flow, fabric25):
        base = algorithm_inputs(tiny_flow, fabric25, 0.15)
        other = algorithm_inputs(tiny_flow, fabric25, 0.3)
        assert other.activity is not base.activity
        assert other.power_model is not base.power_model
        assert other.solver is base.solver
        assert other.activity.mean() > base.activity.mean()

    def test_package_gets_its_own_entry(self, tiny_flow, fabric25):
        base = algorithm_inputs(tiny_flow, fabric25, 0.15)
        default = algorithm_inputs(tiny_flow, fabric25, 0.15, ThermalPackage())
        other = algorithm_inputs(
            tiny_flow, fabric25, 0.15, ThermalPackage(g_vertical_w_per_k=1e-4)
        )
        assert default.solver is base.solver
        assert other.solver is not base.solver
        assert other.power_model is base.power_model

    def test_fabric_gets_its_own_power_model(self, tiny_flow, fabric25, fabric70):
        cool = algorithm_inputs(tiny_flow, fabric25, 0.15)
        hot = algorithm_inputs(tiny_flow, fabric70, 0.15)
        assert hot.power_model is not cool.power_model
        assert hot.power_model.fabric is fabric70
        assert hot.activity is cool.activity

    def test_caller_activity_is_not_kept(self, tiny_flow, fabric25):
        own = algorithm_inputs(tiny_flow, fabric25, 0.15).activity
        mine = copy.deepcopy(own)
        first = algorithm_inputs(tiny_flow, fabric25, 0.15, activity=mine)
        again = algorithm_inputs(tiny_flow, fabric25, 0.15, activity=mine)
        assert first.built and again.built
        assert again.power_model is not first.power_model
        assert again.activity is mine


class TestWorstCaseBaseline:
    def test_timed_once_per_fabric(
        self, tiny_flow, fabric25, fabric70, monkeypatch
    ):
        calls = []

        def counted(flow, fabric):
            calls.append(fabric.corner_celsius)
            return worst_case_frequency(flow, fabric)

        flow = copy.copy(tiny_flow)  # a copy starts with no derived entries
        monkeypatch.setattr(inputs_module, "worst_case_frequency", counted)
        cool = [worst_case_hz(flow, fabric25) for _ in range(3)]
        hot = [worst_case_hz(flow, fabric70) for _ in range(3)]
        assert calls == [fabric25.corner_celsius, fabric70.corner_celsius]
        assert cool == [worst_case_frequency(tiny_flow, fabric25)] * 3
        assert hot == [worst_case_frequency(tiny_flow, fabric70)] * 3

    def test_new_timing_analyzer_is_retimed(self, tiny_flow, fabric25):
        flow = copy.copy(tiny_flow)
        worst_case_hz(flow, fabric25)
        flow.timing = copy.deepcopy(tiny_flow.timing)
        entry = flow.derived["algorithm_inputs"].worst_case[id(fabric25)]
        assert worst_case_hz(flow, fabric25) == worst_case_frequency(
            tiny_flow, fabric25
        )
        retimed = flow.derived["algorithm_inputs"].worst_case[id(fabric25)]
        assert retimed is not entry and retimed[1] is flow.timing


class TestNoPoisoning:
    """A caller that tries to write shared state fails loudly, and the
    cells after it stay bit-identical."""

    @staticmethod
    def _cells(flow, fabric, config):
        looped = [
            thermal_aware_guardband(flow, fabric, t, config=config)
            for t in (25.0, 60.0)
        ]
        batched = thermal_aware_guardband_batch(
            flow, fabric, (25.0, 60.0), config=config
        )
        return [_outputs(r) for r in looped + batched]

    @pytest.mark.parametrize("config", [GuardbandConfig(), ENERGY])
    def test_later_cells_bit_identical(self, arch, fabric25, tiny_netlist, config):
        flow = run_flow(tiny_netlist, arch, seed=5, use_cache=False)
        reference = self._cells(flow, fabric25, config)
        inputs = algorithm_inputs(flow, fabric25, config.base_activity)
        for array in (
            inputs.activity.alpha,
            inputs.power_model._alpha_matrix,
            inputs.power_model._leak_table,
            VoltageScaling().leakage_scale_table(0.6),
        ):
            with pytest.raises(ValueError):
                array *= 2.0
        fresh = run_flow(tiny_netlist, arch, seed=5, use_cache=False)
        assert self._cells(flow, fabric25, config) == reference
        assert self._cells(fresh, fabric25, config) == reference


def test_uncached_flow_releases_its_inputs(arch, fabric25, tiny_netlist):
    flow = run_flow(tiny_netlist, arch, seed=5, use_cache=False)
    thermal_aware_guardband(flow, fabric25, 25.0)
    inputs = algorithm_inputs(flow, fabric25, 0.15)
    assert not inputs.built
    refs = [
        weakref.ref(obj)
        for obj in (flow, inputs.activity, inputs.power_model, inputs.solver)
    ]
    del flow, inputs
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
