"""Workload ``cold_flow``: a serial cold sweep where place and route do the work.

Five designs, each one guardbanded cell at Tamb = 25 C in frequency mode,
run by ``run_sweep(workers=1)`` in a fresh interpreter with an empty flow
cache directory and an empty result store, so every repetition pays the
full pack -> place -> route -> STA build.  The seed only orders the
designs; the mappings themselves are pinned (placement seed 7) so the
channel-width attempts are the same on every run.  The first design of
each architecture also pays that architecture's fabric build, so the
seed leaves those two first and shuffles the rest and the order of the
two architectures: per-design latencies then do not depend on the seed.

A query here is one cold pass, so ``query_p50_ms``/``query_p95_ms`` are
taken over the run's passes.  Run as a script, this module is the child
interpreter of one cold pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from layers import LayerProbe  # noqa: E402

DESIGNS = (
    # (design, routed channel tracks)
    ("sha", 40),            # soft logic, Table I arch
    ("diffeq1", 40),        # DSP-heavy, Table I arch
    ("mkPktMerge", 40),     # BRAM-heavy, Table I arch
    ("boundtop", 20),       # tight channel: fails at 20, routes at 30
    ("mkSMAdapter4B", 20),  # tight channel: fails at 20, routes at 30
)
TABLE_I_TRACKS = 40
T_AMBIENT = 25.0
SETUP_REPEATS = 3


# -- child: one cold pass -------------------------------------------------------


def _child(workdir: Path, order: List[int], traced: bool, out: Path) -> None:
    common.use_program(workdir / "flows")
    from repro.api import (ArchParams, ExperimentSpec, VDD_NOMINAL,
                           open_store, run_flow, run_sweep, store_digest,
                           vtr_benchmark)
    from repro.cad.flow import cache_counters
    from repro.store.store import store_counters

    designs = [DESIGNS[i] for i in order]
    jobs = []
    for name, tracks in designs:
        jobs += ExperimentSpec(
            benchmarks=(name,), ambients=(T_AMBIENT,), corners=(T_AMBIENT,),
            arch=ArchParams(routed_channel_tracks=tracks),
        ).expand()
    store = open_store(workdir / "store")
    cache0, store0 = cache_counters(), store_counters()
    probe = LayerProbe()
    start = time.perf_counter()
    with probe if traced else contextlib.nullcontext():
        sweep = run_sweep(jobs, workers=1, store=store)
    measured_s = time.perf_counter() - start
    cache1, store1 = cache_counters(), store_counters()

    # Everything below is checking, outside the timed phase.
    cells = [
        {"job_id": r.job_id, "frequency_hz": r.frequency_hz,
         "worst_case_hz": r.worst_case_hz, "gain": r.gain,
         "iterations": r.iterations, "wall_seconds": r.wall_seconds,
         "phase_seconds": r.phase_seconds,
         "tracks": dict(designs)[r.benchmark]}
        for r in sweep.results
    ]
    load_s = []
    for r in sweep.results:
        job = next(j for j in jobs if j.job_id == r.job_id)
        digest = store_digest(r.cache_key, job.config, job.t_ambient, job.corner)
        t0 = time.perf_counter()
        store.load(digest)
        load_s.append(time.perf_counter() - t0)
    legality = {}
    energy_jobs = []
    worst = {r.benchmark: r.worst_case_hz for r in sweep.results}
    for name, tracks in designs:
        if name not in worst:  # failed cell, already counted
            continue
        arch = ArchParams(routed_channel_tracks=tracks)
        legality[name] = common.routing_problems(run_flow(vtr_benchmark(name), arch))
        energy_jobs += ExperimentSpec(
            benchmarks=(name,), ambients=(T_AMBIENT,), corners=(T_AMBIENT,),
            arch=arch, mode="energy",
            target_frequency_hz=common.ENERGY_TARGET_FRACTION * worst[name],
        ).expand()
    energy = run_sweep(energy_jobs, workers=1)
    targets = {j.benchmark: j.config.target_frequency_hz for j in energy_jobs}
    out.write_text(json.dumps({
        "measured_s": measured_s,
        "sweep_wall_s": sweep.wall_seconds,
        "n_jobs": len(jobs),
        "cells": cells,
        "failures": [f.job_id for f in sweep.failures],
        "flowcache": {k: cache1[k] - cache0[k] for k in ("hit", "miss")},
        "store": {k: store1[k] - store0[k] for k in ("hit", "miss", "put")},
        "store_load_s": load_s,
        "legality": legality,
        "energy": [
            {"job_id": r.job_id, "frequency_hz": r.frequency_hz,
             "target_hz": targets[r.benchmark], "vdd_v": r.vdd_v,
             "saving": r.energy_saving}
            for r in energy.results
        ],
        "energy_failures": [f.job_id for f in energy.failures],
        "vdd_nominal": VDD_NOMINAL,
        "layers": probe.metrics() if traced else None,
        "route_rows": probe.route_rows,
    }))


# -- parent ---------------------------------------------------------------------


def _setup_once(workdir: Path) -> float:
    """A fresh interpreter that loads the program: what a cold user pays
    before the first design is read."""
    return common.run_child(
        ["-c", "import repro.api as a; a.run_sweep; a.open_store"],
        common.child_env(workdir / "flows-setup"),
    )


def _cold_pass(workdir: Path, order: List[int], traced: bool, tag: str) -> dict:
    passdir = workdir / tag
    passdir.mkdir()
    out = passdir / "result.json"
    argv = [str(Path(__file__)), "--child", str(passdir),
            "--order", ",".join(map(str, order)), "--out", str(out)]
    if traced:
        argv.append("--traced")
    common.run_child(argv, common.child_env(passdir / "flows"))
    return json.loads(out.read_text())


def _check_pass(result: dict, checks: common.Checks) -> None:
    for cell in result["cells"]:
        checks.expect(cell["gain"] > 0, f"{cell['job_id']}: gain {cell['gain']:.4f} <= 0")
        if cell["tracks"] == TABLE_I_TRACKS:
            lo, hi = common.FIG6_GAIN_RANGE
            checks.expect(lo <= cell["gain"] <= hi,
                          f"{cell['job_id']}: gain {cell['gain']:.4f} outside Fig. 6 range")
    for e in result["energy"]:
        checks.expect(abs(e["frequency_hz"] - e["target_hz"]) <= 1e-9 * e["target_hz"],
                      f"{e['job_id']}: energy cell not at its target")
        checks.expect(e["vdd_v"] <= result["vdd_nominal"],
                      f"{e['job_id']}: vdd {e['vdd_v']} above nominal")
    for design, problems in result["legality"].items():
        checks.expect(not problems, f"{design}: illegal routing: {problems[:3]}")
    fc = result["flowcache"]
    checks.expect(fc["miss"] == len(DESIGNS) and fc["hit"] == 0,
                  f"cold pass flow cache not cold: {fc}")


def _outputs(result: dict) -> dict:
    return {c["job_id"]: (c["frequency_hz"], c["iterations"]) for c in result["cells"]}


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    rng = random.Random(seed)
    groups = []
    for tracks in sorted({t for _, t in DESIGNS}):
        members = [i for i, (_, t) in enumerate(DESIGNS) if t == tracks]
        rest = members[1:]
        rng.shuffle(rest)
        groups.append(members[:1] + rest)
    rng.shuffle(groups)
    order = [i for group in groups for i in group]
    setup = [_setup_once(workdir) for _ in range(SETUP_REPEATS)]

    checks = common.Checks()
    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        passes.append(_cold_pass(workdir, order, False, f"pass{len(passes)}"))
    traced = _cold_pass(workdir, order, True, "traced") if trace else None
    for result in passes + ([traced] if traced else []):
        _check_pass(result, checks)
        checks.expect(_outputs(result) == _outputs(passes[0]),
                      "cell outputs differ between repetitions")

    cells = [c for p in passes for c in p["cells"]]
    energy = [e for p in passes for e in p["energy"]]
    attempted = sum(p["n_jobs"] + len(p["energy"]) + len(p["energy_failures"])
                    for p in passes)
    failed = sum(len(p["failures"]) + len(p["energy_failures"]) for p in passes)
    # A cold query is the whole sweep: five designs from an empty cache.
    # (Per-cell times would rank five different designs, whose middle one
    # changes with noise.)
    latencies_ms = [p["measured_s"] * 1e3 for p in passes]
    report = {
        "setup_s": common.percentile(setup, 50),
        "cells_per_s": len(cells) / sum(p["measured_s"] for p in passes),
        "query_p50_ms": common.percentile(latencies_ms, 50),
        "query_p95_ms": common.percentile(latencies_ms, 95),
        "gain_pct_mean": 100 * common.mean(c["gain"] for c in cells),
        "energy_saving_pct_mean": 100 * common.mean(e["saving"] for e in energy),
        "peak_rss_mb": common.own_peak_mb() + common.child_peak_mb(),
        "samples": {"setup_s": len(setup), "cells": len(cells), "passes": len(passes)},
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
    }
    if traced:
        report["layers"] = _layers(traced, passes[0])
        report["route_rows"] = traced["route_rows"]
    return report


def _layers(traced: dict, untraced: dict) -> Dict[str, float]:
    layers = dict(traced["layers"])
    cells = traced["cells"]
    phases = common.phase_totals(c["phase_seconds"] for c in cells)
    hits, misses = traced["store"]["hit"], traced["store"]["miss"]
    layers.update({
        "flowcache.hits": traced["flowcache"]["hit"],
        "flowcache.misses": traced["flowcache"]["miss"],
        "guardband.iterations_mean": common.mean(c["iterations"] for c in cells),
        "guardband.sta_s": phases.get("sta", 0.0),
        "guardband.power_s": phases.get("power", 0.0),
        "guardband.thermal_s": phases.get("thermal", 0.0),
        "runner.overhead_s": traced["sweep_wall_s"] - sum(c["wall_seconds"] for c in cells),
        "runner.cells": len(cells),
        "store.hits": hits,
        "store.misses": misses,
        "store.puts": traced["store"]["put"],
        "store.hit_ratio": common.ratio(hits, hits + misses),
        "store.load_ms": 1e3 * common.mean(traced["store_load_s"]),
        "observe.trace_overhead_frac":
            traced["measured_s"] / untraced["measured_s"] - 1.0,
    })
    return layers


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--child", type=Path, required=True)
    parser.add_argument("--order", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    _child(args.child, [int(i) for i in args.order.split(",")], args.traced, args.out)
