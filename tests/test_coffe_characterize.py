"""Tests for the characterization/calibration layer itself."""

import dataclasses

import numpy as np
import pytest

from repro.arch.params import ArchParams
from repro.coffe import characterize
from repro.coffe.characterize import (
    AREA_BUDGET_HEADROOM,
    REFERENCE_CORNER_CELSIUS,
    T_GRID_CELSIUS,
    CircuitKey,
    build_circuits,
    calibration_scales,
    characterize_fabric,
    characterize_resource,
    circuit_key,
    corner_sizing,
    reference_sizings,
)
from repro.coffe.fabric import build_fabric
from test_golden_fabrics import fabric_digests
from repro.technology.temperature import celsius_to_kelvin


class TestBuildCircuits:
    def test_all_eight_resources(self, arch):
        circuits = build_circuits(arch, 25.0)
        assert len(circuits) == 8
        assert {"bram", "dsp"} <= set(circuits)

    def test_bram_carries_design_corner(self, arch):
        hot = build_circuits(arch, 100.0)["bram"]
        assert hot.design_corner_kelvin == pytest.approx(celsius_to_kelvin(100.0))


class TestReferenceSizings:
    def test_cached_per_arch(self, arch):
        assert reference_sizings(arch) is reference_sizings(arch)

    def test_covers_all_resources(self, arch):
        refs = reference_sizings(arch)
        assert set(refs) == set(build_circuits(arch, 25.0))

    def test_reference_corner_is_25(self, arch):
        for ref in reference_sizings(arch).values():
            assert ref.corner_kelvin == pytest.approx(
                celsius_to_kelvin(REFERENCE_CORNER_CELSIUS)
            )


class TestCornerSizing:
    def test_respects_headroom_budget(self, arch):
        refs = reference_sizings(arch)
        for name, circuit in build_circuits(arch, 70.0).items():
            variant, sizing = corner_sizing(arch, circuit, 70.0)
            budget = refs[name].area_um2 * AREA_BUDGET_HEADROOM
            assert sizing.area_um2 <= budget * (1.0 + 1e-9), name

    def test_hot_corner_prefers_tgate_muxes(self, arch):
        cold_variant, _ = corner_sizing(
            arch, build_circuits(arch, 0.0)["lut"], 0.0
        )
        hot_variant, _ = corner_sizing(
            arch, build_circuits(arch, 100.0)["lut"], 100.0
        )
        assert cold_variant.pass_style == "nmos"
        assert hot_variant.pass_style == "tgate"

    def test_cold_corner_keeps_flat_bram(self, arch):
        cold_variant, _ = corner_sizing(
            arch, build_circuits(arch, 0.0)["bram"], 0.0
        )
        hot_variant, _ = corner_sizing(
            arch, build_circuits(arch, 100.0)["bram"], 100.0
        )
        assert cold_variant.n_banks == 1
        assert hot_variant.n_banks > 1


class TestCharacterizeResource:
    def test_grid_is_one_degree_steps(self):
        assert T_GRID_CELSIUS[0] == 0.0
        assert T_GRID_CELSIUS[-1] == 100.0
        assert np.all(np.diff(T_GRID_CELSIUS) == 1.0)

    def test_fit_round_trips(self, arch):
        circuit = build_circuits(arch, 25.0)["sb_mux"]
        variant, sizing = corner_sizing(arch, circuit, 25.0)
        char = characterize_resource(variant, 25.0, sizing)
        intercept, slope = char.delay_fit()
        mid = intercept + slope * 50.0
        assert mid == pytest.approx(float(char.delay_at(50.0)), rel=0.02)

    def test_leak_fit_positive(self, arch):
        circuit = build_circuits(arch, 25.0)["lut"]
        variant, sizing = corner_sizing(arch, circuit, 25.0)
        char = characterize_resource(variant, 25.0, sizing)
        c, k = char.leakage_fit()
        assert c > 0.0 and k > 0.0


class TestCalibration:
    def test_scales_cover_everything(self, arch):
        scales = calibration_scales(arch)
        for mapping in (scales.delay, scales.area, scales.leakage, scales.pdyn):
            assert set(mapping) == set(build_circuits(arch, 25.0))

    def test_scales_positive(self, arch):
        scales = calibration_scales(arch)
        for mapping in (scales.delay, scales.area, scales.leakage, scales.pdyn):
            assert all(v > 0.0 for v in mapping.values())

    def test_scales_cached(self, arch):
        assert calibration_scales(arch) is calibration_scales(arch)

    def test_different_arch_different_scales(self):
        small = ArchParams().with_changes(lut_size=4)
        default = ArchParams()
        assert calibration_scales(small).delay["lut"] != calibration_scales(
            default
        ).delay["lut"]


def _circuit_fingerprints(arch, corner=25.0):
    return {
        name: (type(circuit).__name__, repr(sorted(vars(circuit).items())))
        for name, circuit in build_circuits(arch, corner).items()
    }


def _perturbed(arch, name):
    """``arch`` with one field moved to another valid value."""
    value = getattr(arch, name)
    return arch.with_changes(**{name: value + 1 if isinstance(value, int) else value * 0.9})


_ARCH_FIELDS = [f.name for f in dataclasses.fields(ArchParams)]
_KEY_FIELDS = [f.name for f in dataclasses.fields(CircuitKey)]


class TestCircuitKey:
    """Sizing, calibration and characterization memos are keyed on the
    fields ``build_circuits`` reads; the key must hold all of them."""

    def test_key_fields_are_arch_fields(self):
        assert set(_KEY_FIELDS) < set(_ARCH_FIELDS)
        assert len(_KEY_FIELDS) == 10

    def test_fingerprint_is_deterministic(self, arch):
        assert _circuit_fingerprints(arch) == _circuit_fingerprints(ArchParams())
        assert " at 0x" not in repr(_circuit_fingerprints(arch))

    @pytest.mark.parametrize(
        "field", [f for f in _ARCH_FIELDS if f not in _KEY_FIELDS]
    )
    def test_fields_outside_the_key_change_nothing(self, arch, field):
        other = _perturbed(arch, field)
        assert circuit_key(other) == circuit_key(arch)
        assert _circuit_fingerprints(other) == _circuit_fingerprints(arch)
        base, moved = build_fabric(25.0, arch), build_fabric(25.0, other)
        assert moved.arch == other and moved is not base
        assert fabric_digests(moved) == fabric_digests(base)

    @pytest.mark.parametrize("field", _KEY_FIELDS)
    def test_every_key_field_changes_the_circuits(self, arch, field):
        other = _perturbed(arch, field)
        assert circuit_key(other) != circuit_key(arch)
        assert _circuit_fingerprints(other) != _circuit_fingerprints(arch)

    def test_memos_shared_across_a_key(self, arch):
        other = arch.with_changes(routed_channel_tracks=20)
        assert reference_sizings(other) is reference_sizings(arch)
        assert calibration_scales(other) is calibration_scales(arch)

    def test_uncached_build_outside_the_key_matches(self, arch, monkeypatch):
        """Same numbers when nothing is memoized yet (a cold process)."""
        base = fabric_digests(build_fabric(70.0, arch))
        for memo in ("_BUDGET_CACHE", "_CALIBRATION_CACHE", "_RAW_CACHE"):
            monkeypatch.setattr(characterize, memo, {})
        other = arch.with_changes(routed_channel_tracks=20, cluster_size=8)
        assert fabric_digests(build_fabric(70.0, other, use_cache=False)) == base


class TestNoPoisoning:
    """Characterizations handed out never alias the memo."""

    @staticmethod
    def _mutate(resources):
        for char in resources.values():
            char.delay_s *= 2.0
            char.leakage_w[:] = 0.0
            char.t_grid_celsius[:] = -1.0
            char.sizes.clear()
            char.area_um2 = -1.0

    @pytest.mark.parametrize("calibrated", [True, False])
    def test_mutating_a_characterization(self, arch, calibrated):
        before = fabric_digests(build_fabric(25.0, arch, use_cache=False))
        raw_before = characterize_fabric(arch, 25.0, calibrated=False)
        self._mutate(characterize_fabric(arch, 25.0, calibrated=calibrated))
        assert fabric_digests(build_fabric(25.0, arch, use_cache=False)) == before
        raw_after = characterize_fabric(arch, 25.0, calibrated=False)
        for name, char in raw_after.items():
            assert np.array_equal(char.delay_s, raw_before[name].delay_s)
            assert np.array_equal(char.t_grid_celsius, T_GRID_CELSIUS)
            assert char.sizes == raw_before[name].sizes

    def test_mutating_a_fabric(self, arch):
        before = fabric_digests(build_fabric(25.0, arch, use_cache=False))
        self._mutate(build_fabric(25.0, arch, use_cache=False).resources)
        assert fabric_digests(build_fabric(25.0, arch, use_cache=False)) == before

    def test_fabric_cached_per_arch_and_corner(self, arch):
        assert build_fabric(25.0, arch) is build_fabric(25.0, arch)
        assert build_fabric(25.0, arch) is not build_fabric(70.0, arch)
