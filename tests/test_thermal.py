"""Tests for the steady-state thermal solver."""

import numpy as np
import pytest

from repro.arch.layout import FabricLayout
from repro.arch.params import ArchParams
from repro.thermal.hotspot import ThermalSolver, xpe_cross_validation
from repro.thermal.package import ThermalPackage


@pytest.fixture(scope="module")
def layout():
    return FabricLayout(ArchParams(), 8, 8)


@pytest.fixture(scope="module")
def solver(layout):
    return ThermalSolver(layout)


class TestThermalSolver:
    def test_zero_power_is_ambient(self, solver, layout):
        temps = solver.solve(np.zeros(layout.n_tiles), 25.0)
        assert np.allclose(temps, 25.0)

    def test_uniform_power_uniform_rise(self, solver, layout):
        power = np.full(layout.n_tiles, 1e-4)
        temps = solver.solve(power, 25.0)
        expected = 25.0 + 1e-4 / solver.package.g_vertical_w_per_k
        assert np.allclose(temps, expected, rtol=1e-9)

    def test_energy_conservation(self, solver, layout):
        rng = np.random.default_rng(3)
        power = rng.uniform(0.0, 1e-3, layout.n_tiles)
        temps = solver.solve(power, 30.0)
        heat_out = solver.package.g_vertical_w_per_k * (temps - 30.0)
        assert heat_out.sum() == pytest.approx(power.sum(), rel=1e-9)

    def test_hotspot_peaks_at_source(self, solver, layout):
        power = np.zeros(layout.n_tiles)
        center = layout.tile_index(4, 4)
        power[center] = 2e-3
        temps = solver.solve(power, 25.0)
        assert np.argmax(temps) == center
        assert temps[center] > temps[layout.tile_index(0, 0)] + 0.5

    def test_lateral_spreading_monotone_with_distance(self, solver, layout):
        power = np.zeros(layout.n_tiles)
        power[layout.tile_index(4, 4)] = 2e-3
        temps = solver.solve(power, 25.0)
        t_near = temps[layout.tile_index(4, 5)]
        t_far = temps[layout.tile_index(4, 7)]
        assert t_near > t_far

    def test_linearity_in_power(self, solver, layout):
        power = np.zeros(layout.n_tiles)
        power[10] = 1e-3
        rise1 = solver.solve(power, 25.0) - 25.0
        rise2 = solver.solve(2.0 * power, 25.0) - 25.0
        assert np.allclose(rise2, 2.0 * rise1, rtol=1e-9)

    def test_ambient_shift(self, solver, layout):
        power = np.full(layout.n_tiles, 5e-5)
        a = solver.solve(power, 25.0)
        b = solver.solve(power, 70.0)
        assert np.allclose(b - a, 45.0, rtol=1e-9)

    def test_rejects_negative_power(self, solver, layout):
        power = np.zeros(layout.n_tiles)
        power[0] = -1e-3
        with pytest.raises(ValueError, match="negative"):
            solver.solve(power, 25.0)

    def test_rejects_wrong_shape(self, solver):
        with pytest.raises(ValueError, match="shape"):
            solver.solve(np.zeros(7), 25.0)

    def test_unfactored_rejects_batch(self, solver, layout):
        with pytest.raises(ValueError, match="single"):
            solver.solve_unfactored(np.zeros((2, layout.n_tiles)), 25.0)

    def test_stronger_package_cools_better(self, layout):
        weak = ThermalSolver(layout, ThermalPackage(1e-5, 2e-4))
        strong = ThermalSolver(layout, ThermalPackage(1e-3, 2e-4))
        power = np.full(layout.n_tiles, 1e-4)
        assert weak.average_rise(power, 25.0) > strong.average_rise(power, 25.0)


class TestPackage:
    def test_rejects_nonpositive_vertical(self):
        with pytest.raises(ValueError):
            ThermalPackage(g_vertical_w_per_k=0.0)

    def test_rth_inverse(self):
        pkg = ThermalPackage(g_vertical_w_per_k=1e-4)
        assert pkg.rth_tile_k_per_w == pytest.approx(1e4)


class TestXpeCrossValidation:
    def test_paper_formula(self):
        # Paper Sec. IV-A: dT ~= 0.7 p_design/p_base.
        assert xpe_cross_validation(0.2, 0.1) == pytest.approx(1.4)

    def test_rejects_zero_base(self):
        with pytest.raises(ValueError):
            xpe_cross_validation(1.0, 0.0)
