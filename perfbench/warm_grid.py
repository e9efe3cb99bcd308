"""Workload ``warm_grid``: Algorithm 1 on a grid where every flow is cached.

Set-up places and routes five Table I designs and characterizes the
0/25/70 C corner fabrics.  The measured phase then repeats a serial
``run_sweep(workers=1)`` over designs x ambients x corners in frequency
mode, then over every second ambient in energy mode, on the default
looped path: no
place-and-route runs, so Algorithm 1 (STA, power, thermal) and the
engine's per-cell dispatch do all the work.  The seed jitters every
ambient but 25 C by less than one degree.

Run as a script with ``--setup DIR``, this module is the child
interpreter of one set-up repetition.
"""

from __future__ import annotations

import argparse
import contextlib
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from layers import LayerProbe  # noqa: E402

DESIGNS = ("sha", "ch_intrinsics", "boundtop", "diffeq2", "or1200")
CORNERS = (0.0, 25.0, 70.0)
BASE_AMBIENTS = (5.0, 15.0, 25.0, 35.0, 45.0, 55.0, 65.0, 75.0)
ENERGY_EVERY = 2
"""Energy mode runs every second ambient: with twice as many frequency
cells, the latency median falls inside the fast frequency-mode cluster
and the p95 inside the slow energy-mode one, not in the gap between."""
T_FIG6 = 25.0
SETUP_REPEATS = 3


def _ambients(seed: int) -> Tuple[float, ...]:
    rng = random.Random(seed)
    return tuple(a if a == T_FIG6 else round(a + rng.random(), 3)
                 for a in BASE_AMBIENTS)


def _setup(cache_dir: Path) -> List:
    """The set-up work: cold P&R of every design and every corner fabric,
    by way of one cell per (design, corner)."""
    common.use_program(cache_dir)
    from repro.api import ExperimentSpec, run_sweep

    sweep = run_sweep(ExperimentSpec(benchmarks=DESIGNS, ambients=(T_FIG6,),
                                     corners=CORNERS), workers=1)
    if sweep.failures:
        raise RuntimeError(f"set-up cells failed: {sweep.failures}")
    return sweep.results


def _grids(seed: int, setup_cells: List) -> Tuple[List, List, Dict[str, float]]:
    from repro.api import ExperimentSpec

    ambients = _ambients(seed)
    freq = ExperimentSpec(benchmarks=DESIGNS, ambients=ambients,
                          corners=CORNERS).expand()
    targets = {
        d: common.ENERGY_TARGET_FRACTION * min(
            c.worst_case_hz for c in setup_cells if c.benchmark == d)
        for d in DESIGNS
    }
    energy = []
    for d in DESIGNS:
        energy += ExperimentSpec(benchmarks=(d,), ambients=ambients[::ENERGY_EVERY],
                                 corners=CORNERS, mode="energy",
                                 target_frequency_hz=targets[d]).expand()
    return freq, energy, targets


def _measure(freq: List, energy: List) -> Tuple[float, List, List, float]:
    """One repetition: (seconds, results, failures, runner overhead)."""
    from repro.api import run_sweep

    start = time.perf_counter()
    sweeps = [run_sweep(freq, workers=1), run_sweep(energy, workers=1)]
    seconds = time.perf_counter() - start
    results = [r for s in sweeps for r in s.results]
    failures = [f for s in sweeps for f in s.failures]
    overhead = sum(s.wall_seconds - sum(r.wall_seconds for r in s.results)
                   for s in sweeps)
    return seconds, results, failures, overhead


def _outputs(results: List) -> Dict[str, tuple]:
    return {f"{r.mode}:{r.job_id}": (r.frequency_hz, r.iterations, r.vdd_v)
            for r in results}


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    setup = [
        common.run_child([str(Path(__file__)), "--setup", str(workdir / f"setup{i}")],
                         common.child_env(workdir / f"setup{i}"))
        for i in range(SETUP_REPEATS - 1)
    ]
    # The last repetition runs in this process, which keeps its caches warm
    # for the measured phase.
    start = time.perf_counter()
    common.use_program(workdir / "flows")  # before the probe imports repro
    setup_probe = LayerProbe()
    with setup_probe if trace else contextlib.nullcontext():
        setup_cells = _setup(workdir / "flows")
    setup.append(time.perf_counter() - start)

    from repro.api import VDD_NOMINAL, run_flow, vtr_benchmark, ArchParams
    from repro.cad.flow import cache_counters

    freq, energy, targets = _grids(seed, setup_cells)
    checks = common.Checks()
    reps = []
    cache0 = cache_counters()
    begin = time.perf_counter()
    while not reps or time.perf_counter() - begin < seconds:
        reps.append(_measure(freq, energy))
    cache1 = cache_counters()
    checks.expect(cache1["miss"] == cache0["miss"],
                  "flow cache missed in the warm measured phase")

    traced = None
    probe = LayerProbe()
    if trace:
        cache_t0 = cache_counters()
        with probe:
            traced = _measure(freq, energy)
        cache_t1 = cache_counters()

    baseline = _outputs(reps[0][1])
    for rep in reps + ([traced] if traced else []):
        checks.expect(_outputs(rep[1]) == baseline,
                      "cell outputs differ between repetitions")
    results = reps[0][1]
    for r in results:
        if r.mode == "frequency":
            checks.expect(r.gain > 0, f"{r.job_id}: gain {r.gain:.4f} <= 0")
            if r.t_ambient == T_FIG6 and r.corner == T_FIG6:
                lo, hi = common.FIG6_GAIN_RANGE
                checks.expect(lo <= r.gain <= hi,
                              f"{r.job_id}: gain {r.gain:.4f} outside Fig. 6 range")
        else:
            target = targets[r.benchmark]
            checks.expect(abs(r.frequency_hz - target) <= 1e-9 * target,
                          f"{r.job_id}: energy cell not at its target")
            checks.expect(r.vdd_v <= VDD_NOMINAL,
                          f"{r.job_id}: vdd {r.vdd_v} above nominal")
    for d in DESIGNS:
        problems = common.routing_problems(run_flow(vtr_benchmark(d), ArchParams()))
        checks.expect(not problems, f"{d}: illegal routing: {problems[:3]}")

    all_results = [r for rep in reps for r in rep[1]]
    latencies_ms = [r.wall_seconds * 1e3 for r in all_results]
    n_cells = len(freq) + len(energy)
    report = {
        "setup_s": common.percentile(setup, 50),
        # Total over total, not a median of repetitions: the host's speed
        # swings between two levels for seconds at a time, and a median of
        # a few repetitions jumps between them.
        "cells_per_s": len(all_results) / sum(rep[0] for rep in reps),
        "query_p50_ms": common.percentile(latencies_ms, 50),
        "query_p95_ms": common.percentile(latencies_ms, 95),
        "gain_pct_mean": 100 * common.mean(r.gain for r in results
                                           if r.mode == "frequency"),
        "energy_saving_pct_mean": 100 * common.mean(
            r.energy_saving for r in results if r.mode == "energy"),
        "peak_rss_mb": common.own_peak_mb(),
        "samples": {"setup_s": len(setup), "cells": len(all_results),
                    "repetitions": len(reps), "grid_cells": n_cells},
        "attempted": n_cells * len(reps),
        "failed": sum(len(rep[2]) for rep in reps),
        "checks": checks,
    }
    if traced:
        seconds_t, results_t, _, overhead_t = traced
        untraced_s = common.mean(rep[0] for rep in reps)
        layers = probe.metrics()
        coffe = setup_probe.metrics()
        phases = common.phase_totals(r.phase_seconds for r in results_t)
        layers.update({
            "coffe.build_fabric_s": coffe["coffe.build_fabric_s"],
            "coffe.build_fabric_calls": coffe["coffe.build_fabric_calls"],
            "flowcache.hits": cache_t1["hit"] - cache_t0["hit"],
            "flowcache.misses": cache_t1["miss"] - cache_t0["miss"],
            "guardband.iterations_mean": common.mean(r.iterations for r in results_t),
            "guardband.sta_s": phases.get("sta", 0.0),
            "guardband.power_s": phases.get("power", 0.0),
            "guardband.thermal_s": phases.get("thermal", 0.0),
            "runner.overhead_s": overhead_t,
            "runner.cells": len(results_t),
            "observe.trace_overhead_frac": seconds_t / untraced_s - 1.0,
        })
        report["layers"] = layers
    return report


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup", type=Path, required=True)
    _setup(parser.parse_args().setup)
