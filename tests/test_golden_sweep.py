"""Golden sweep records: the engine's per-cell records held fixed.

``tests/data/golden_sweep_records.json`` holds the records of two serial
sweeps, one per cell in grid order, as :meth:`JobResult.to_record`
writes them to the JSONL stream:

- ``mixed``: a frequency grid (two designs x three ambients x two
  corners) and an energy grid (one design x two ambients x two corners)
  run as one sweep;
- ``warm``: a ``warm_start_policy="nearest"`` sweep with a result
  store, whose ambients are listed out of order and whose tight
  ``delta_t`` takes three or four iterations a cell, so the records pin
  which cells were warm-started, from where, and how many iterations
  each took.

The fields that measure time (``wall_seconds``, ``phase_seconds``) or
the process's flow cache (``cache_key``, ``cache_events``) are left out;
everything else must match exactly.  A change to how the engine groups,
dispatches or records cells must reproduce every record.

The file is a recording, not a specification: regenerate it only for a
declared change to the device, power or thermal models, or to the
engine's warm-start rule::

    PYTHONPATH=src python tests/test_golden_sweep.py --record
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Union

import pytest

from repro.cad.flow import run_flow
from repro.coffe.fabric import build_fabric
from repro.core.guardband import GuardbandConfig
from repro.core.margins import worst_case_frequency
from repro.netlists.generator import NetlistSpec, generate_netlist
from repro.runner import ExperimentSpec, JobFailure, JobResult, run_sweep

GOLDEN_SWEEP = Path(__file__).parent / "data" / "golden_sweep_records.json"

DESIGN_A = NetlistSpec("golden_sweep_a", n_luts=14, depth=4, seed=81,
                       base_activity=0.2)
DESIGN_B = NetlistSpec("golden_sweep_b", n_luts=16, depth=4, seed=82,
                       base_activity=0.18)
CORNERS = (25.0, 70.0)
FREQUENCY_AMBIENTS = (15.0, 35.0, 55.0)
ENERGY_AMBIENTS = (25.0, 45.0)
WARM_AMBIENTS = (45.0, 25.0, 65.0, 35.0)
ENERGY_TARGET_FRACTION = 0.95
UNPINNED = ("wall_seconds", "phase_seconds", "cache_key", "cache_events")


def energy_target() -> float:
    """95 % of design A's slower worst-case clock over the corners."""
    flow = run_flow(generate_netlist(DESIGN_A))
    return ENERGY_TARGET_FRACTION * min(
        worst_case_frequency(flow, build_fabric(corner))
        for corner in CORNERS
    )


def pinned(outcome: Union[JobResult, JobFailure]) -> Dict[str, object]:
    record = outcome.to_record()
    return {k: v for k, v in record.items() if k not in UNPINNED}


def grid_records(outcomes: List[Union[JobResult, JobFailure]],
                 order: List[str]) -> List[Dict[str, object]]:
    by_id = {outcome.job_id: outcome for outcome in outcomes}
    assert len(by_id) == len(order)
    return [pinned(by_id[job_id]) for job_id in order]


def mixed_sweep(target: float) -> List[Dict[str, object]]:
    jobs = ExperimentSpec(
        benchmarks=(DESIGN_A, DESIGN_B), ambients=FREQUENCY_AMBIENTS,
        corners=CORNERS,
    ).expand() + ExperimentSpec(
        benchmarks=(DESIGN_A,), ambients=ENERGY_AMBIENTS, corners=CORNERS,
        mode="energy", target_frequency_hz=target,
    ).expand()
    sweep = run_sweep(jobs, workers=1)
    return grid_records(
        sweep.results + sweep.failures, [job.job_id for job in jobs]
    )


def warm_sweep(store_root: Path) -> List[Dict[str, object]]:
    spec = ExperimentSpec(
        benchmarks=(DESIGN_A, DESIGN_B), ambients=WARM_AMBIENTS,
        corners=CORNERS,
        config=GuardbandConfig(base_activity=0.2, delta_t=0.001,
                               warm_start_policy="nearest"),
    )
    sweep = run_sweep(spec, workers=1, store=str(store_root))
    return grid_records(
        sweep.results + sweep.failures, [job.job_id for job in spec.expand()]
    )


def replay(workdir: Path) -> Dict[str, object]:
    target = energy_target()
    return {
        "energy_target_hz": repr(target),
        "mixed": mixed_sweep(target),
        "warm": warm_sweep(workdir / "store"),
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, object]:
    return json.loads(GOLDEN_SWEEP.read_text(encoding="utf-8"))


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "flows"))
    return tmp_path


def test_recording_covers_both_sweeps(golden):
    mixed, warm = golden["mixed"], golden["warm"]
    assert len(mixed) == 2 * 3 * 2 + 2 * 2
    assert {r["mode"] for r in mixed} == {"frequency", "energy"}
    assert all(r["type"] == "result" for r in mixed + warm)
    assert len(warm) == 2 * 4 * 2
    assert any(r["warm_started"] for r in warm)
    assert not all(r["warm_started"] for r in warm)
    assert {r["store_event"] for r in warm} == {"miss"}


def test_sweep_records_match_recording(golden, cache_dir):
    assert replay(cache_dir) == golden


def record() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        os.environ["REPRO_CACHE_DIR"] = str(Path(workdir) / "flows")
        recording = replay(Path(workdir))
    GOLDEN_SWEEP.write_text(
        json.dumps(recording, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
