"""The repo benchmark: one command, three workloads.

    python3 perfbench/run.py --workload cold_flow --seed 1 --seconds 10 --trace 0

Prints a human-readable report (every metric by name, unit and sample
count, the environment, any failed output check), then, as the last line
of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with no probes
installed; ``--trace 1`` additionally runs a traced pass and reports the
per-layer metrics instead.  See ``perfbench/NOTES.md`` for why each
workload exists and which layer metric should move which end-to-end one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "ok_frac": "ratio",
    "gain_pct_mean": "%",
    "energy_saving_pct_mean": "%",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "route.busy_s": "s", "route.attempts": "count",
    "route.failed_attempts": "count", "route.failed_s": "s",
    "route.useful_ratio": "ratio", "route.wire_nodes": "count",
    "place.busy_s": "s", "place.s_per_cluster": "s",
    "rrgraph.build_s": "s", "rrgraph.nodes": "count",
    "pack.busy_s": "s", "pack.clusters": "count", "sta.build_s": "s",
    "flowcache.hits": "count", "flowcache.misses": "count",
    "coffe.build_fabric_s": "s", "coffe.build_fabric_calls": "count",
    "guardband.busy_s": "s", "guardband.freq_s_per_cell": "s",
    "guardband.energy_s_per_cell": "s",
    "guardband.iterations_mean": "count", "guardband.sta_s": "s",
    "guardband.power_s": "s", "guardband.thermal_s": "s",
    "runner.overhead_s": "s", "runner.cells": "count",
    "store.hits": "count", "store.misses": "count", "store.puts": "count",
    "store.hit_ratio": "ratio", "store.load_ms": "ms",
    "service.submit_ms": "ms", "service.events_ms": "ms",
    "service.result_ms": "ms", "service.hit_query_ms": "ms",
    "service.miss_query_ms": "ms", "service.store_hits": "count",
    "observe.trace_overhead_frac": "ratio",
}

WORKLOADS = ("cold_flow", "warm_grid", "served_mix")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not common.program_present():
        print(f"error: no program to measure: {common.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2

    if args.workload == "cold_flow":
        import cold_flow as workload
    elif args.workload == "warm_grid":
        import warm_grid as workload
    else:
        import served_mix as workload

    workdir = common.make_workdir(args.workload)
    try:
        report = workload.run(args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        common.remove_workdir(workdir)

    checks: common.Checks = report["checks"]
    attempted = int(report["attempted"])
    failed = min(attempted, int(report["failed"]) + len(checks.failures))
    report["ok_frac"] = 1.0 - failed / attempted

    if args.trace:
        layers = report["layers"]
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": float(report[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}

    env = common.environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  ({env['cores']} cores, Python {env['python']}, "
          f"numpy {env['numpy']})")
    print(f"samples: {report['samples']}  attempted {attempted}  failed {failed}  "
          f"checks {checks.n_checked} ({len(checks.failures)} failed)")
    for row in report.get("route_rows", []):
        print(f"  route attempt {row['design']:<14} width {row['width']:>3}  "
              f"{'ok    ' if row['ok'] else 'FAILED'} {row['seconds']:7.3f} s  "
              f"overused {row['overused']}")
    for name, metric in metrics.items():
        print(f"  {name:<30} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
