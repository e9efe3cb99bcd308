"""Golden guardband: Algorithm 1's per-cell outputs held bit-identical.

``tests/data/golden_guardband.json`` holds, per cell, the exact ``repr``
of ``frequency_hz``, ``vdd_v`` and ``total_power_w``, the iteration
count and a SHA-256 of the converged ``tile_temperatures`` bytes.  The
cells cover three Table I designs at two ambients and two design
corners, in frequency and energy mode, through both the single-cell
entry point (:func:`thermal_aware_guardband`) and the grouped one
(:func:`thermal_aware_guardband_batch`).  The energy target is 95 % of
the design's slower worst-case clock over the two corners, so every
cell closes at nominal supply.

Cases replay in one process, in file order, so later cells run on
inputs an earlier cell already built.  A speed change to Algorithm 1 or
to the inputs it reuses must reproduce every number exactly.

The file is a recording, not a specification: regenerate it only for a
declared change to the device, power or thermal models::

    PYTHONPATH=src python tests/test_golden_guardband.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro.arch.params import ArchParams
from repro.cad.flow import run_flow
from repro.coffe.fabric import build_fabric
from repro.core.guardband import (
    GuardbandConfig,
    GuardbandResult,
    thermal_aware_guardband,
    thermal_aware_guardband_batch,
)
from repro.core.margins import worst_case_frequency
from repro.netlists.vtr_suite import vtr_benchmark

GOLDEN_GUARDBAND = Path(__file__).parent / "data" / "golden_guardband.json"

DESIGNS = ("sha", "boundtop", "or1200")
AMBIENTS = (25.0, 60.0)
CORNERS = (25.0, 70.0)
MODES = ("frequency", "energy")
KERNELS = ("looped", "batched")
ENERGY_TARGET_FRACTION = 0.95


def cell_record(result: GuardbandResult) -> Dict[str, object]:
    return {
        "t_ambient": repr(float(result.t_ambient)),
        "frequency_hz": repr(result.frequency_hz),
        "iterations": result.iterations,
        "vdd_v": repr(result.vdd_v),
        "total_power_w": repr(result.total_power_w),
        "tile_temperatures": hashlib.sha256(
            result.tile_temperatures.tobytes()
        ).hexdigest(),
    }


def replay(design: str) -> Dict[str, object]:
    """Every cell of one design, keyed ``corner/mode/kernel``."""
    arch = ArchParams()
    flow = run_flow(vtr_benchmark(design), arch)
    fabrics = {corner: build_fabric(corner, arch) for corner in CORNERS}
    target = ENERGY_TARGET_FRACTION * min(
        worst_case_frequency(flow, fabric) for fabric in fabrics.values()
    )
    cases: Dict[str, List[Dict[str, object]]] = {}
    for corner, fabric in fabrics.items():
        for mode in MODES:
            config = (
                GuardbandConfig(mode="energy", target_frequency_hz=target)
                if mode == "energy"
                else GuardbandConfig()
            )
            looped = [
                thermal_aware_guardband(flow, fabric, t, config=config)
                for t in AMBIENTS
            ]
            batched = thermal_aware_guardband_batch(
                flow, fabric, AMBIENTS, config=config
            )
            for kernel, results in (("looped", looped), ("batched", batched)):
                assert all(isinstance(r, GuardbandResult) for r in results)
                cases[f"c{corner:g}/{mode}/{kernel}"] = [
                    cell_record(r) for r in results  # type: ignore[arg-type]
                ]
    return {"energy_target_hz": repr(target), "cases": cases}


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN_GUARDBAND.read_text(encoding="utf-8"))["designs"]


def test_designs_match_recording(golden):
    assert sorted(golden) == sorted(DESIGNS)
    for recorded in golden.values():
        assert sorted(recorded["cases"]) == sorted(
            f"c{corner:g}/{mode}/{kernel}"
            for corner in CORNERS
            for mode in MODES
            for kernel in KERNELS
        )


@pytest.mark.parametrize("design", DESIGNS)
def test_guardband_bit_identical(golden, design):
    assert replay(design) == golden[design]


def record() -> None:
    designs = {design: replay(design) for design in DESIGNS}
    GOLDEN_GUARDBAND.write_text(
        json.dumps({"designs": designs}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
