"""Workload ``served_mix``: a closed-loop client against ``repro serve``.

Set-up starts ``python -m repro serve`` with its defaults (two pool
workers, batched) on a fresh store and flow cache, and populates the
store with a base grid: two designs over six ambients in frequency mode,
plus the first design in energy mode.  Place-and-route and the fabric
builds happen there, inside the server's workers.

The measured phase is one client (``SweepClient(url=...)``) sending
single-cell queries back to back.  Four in five repeat a base-grid cell
and are served from the store; one in five asks for an ambient of the
first design no query has used, which the server computes and writes to
the store.  The seed fixes the order of the repeats and the unseen
ambients.

The server is stopped with SIGINT, and no process of its tree may
outlive it.  (``Popen.terminate()``, i.e. SIGTERM, leaves both pool
workers running with parent pid 1; see NOTES.md.)
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

BASE_DESIGNS = ("sha", "ch_intrinsics")
ENERGY_DESIGN = MISS_DESIGN = "sha"
BASE_AMBIENTS = (15.0, 25.0, 35.0, 45.0, 55.0, 65.0)
CORNER = 25.0
MISS_RANGE = (20.0, 60.0)
HITS_PER_MISS = 4
GOLDEN = (5 ** 0.5 - 1) / 2
SETUP_REPEATS = 3
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
CHUNK_QUERIES = 250
"""Queries per statistics chunk: p95 keeps 12 samples beyond it."""
COMPARED_FIELDS = ("frequency_hz", "iterations", "total_power_w",
                   "max_tile_celsius", "mean_tile_celsius")


class Server:
    """One ``repro serve`` process on a fresh store and flow cache."""

    def __init__(self, workdir: Path, trace: Optional[Path]) -> None:
        workdir.mkdir()
        self.store = workdir / "store"
        argv = [sys.executable, "-m", "repro", "serve", "--json",
                "--store", str(self.store), "--port", "0"]
        if trace is not None:
            argv += ["--trace", str(trace)]
        out = workdir / "server.out"
        with out.open("w") as sink:
            self.proc = subprocess.Popen(
                argv, env=common.child_env(workdir / "flows"),
                cwd=str(common.ROOT), stdout=sink, stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            text = out.read_text()
            if text.endswith("\n"):
                self.url = json.loads(text.splitlines()[0])["url"]
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise RuntimeError(f"repro serve did not start: {text!r}")
            time.sleep(0.01)

    def pin(self) -> set:
        """Put the client (this process) and the whole server tree on one
        core; returns the client's previous affinity.  With one client in
        a closed loop only one of them runs at a time, and waking a process
        on another virtual core made latencies swing by half between runs
        on the 2-core development host."""
        previous = os.sched_getaffinity(0)
        core = {min(previous)}
        for pid in common.process_tree(self.proc.pid):
            os.sched_setaffinity(pid, core)
        os.sched_setaffinity(0, core)
        return previous

    def peak_rss_mb(self) -> float:
        return sum(common.peak_rss_mb(pid)
                   for pid in common.process_tree(self.proc.pid))

    def stop(self) -> List[int]:
        """SIGINT the server; returns the pids of its tree still alive
        afterwards (killed, so nothing outlives the benchmark)."""
        tree = common.process_tree(self.proc.pid)
        self.proc.send_signal(signal.SIGINT)
        common.wait_or_kill(self.proc, STOP_TIMEOUT_S)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(common.alive, tree)):
            time.sleep(0.05)
        survivors = [pid for pid in tree if common.alive(pid)]
        common.kill_all(survivors)
        return survivors

    def kill(self) -> None:
        tree = common.process_tree(self.proc.pid)
        common.kill_all(tree)
        self.proc.wait()


def _spec(design: str, ambients, target: Optional[float] = None):
    from repro.api import ExperimentSpec

    return ExperimentSpec(benchmarks=(design,), ambients=tuple(ambients),
                          corners=(CORNER,),
                          mode="frequency" if target is None else "energy",
                          target_frequency_hz=target)


def _ask(client, spec) -> Tuple[dict, Dict[str, float]]:
    """Submit, follow the event stream to its end, fetch the result."""
    t0 = time.perf_counter()
    job_id = client.submit(spec)
    t1 = time.perf_counter()
    for _ in client.stream(job_id):
        pass
    t2 = time.perf_counter()
    result = client.result(job_id)
    t3 = time.perf_counter()
    return result, {"submit": t1 - t0, "events": t2 - t1, "result": t3 - t2,
                    "total": t3 - t0}


def _populate(client) -> Tuple[Dict[tuple, dict], float]:
    """The base grid, keyed by (mode, design, ambient): frequency mode
    for every base design at once (both workers busy), then the energy
    grid at 95 % of the first design's worst-case clock."""
    jobs = [client.submit(_spec(d, BASE_AMBIENTS)) for d in BASE_DESIGNS]
    base = {}
    for job_id in jobs:
        for _ in client.stream(job_id):
            pass
        for cell in client.result(job_id)["cells"]:
            base[("frequency", cell["benchmark"], cell["t_ambient"])] = cell
    worst = min(base[("frequency", ENERGY_DESIGN, a)]["worst_case_hz"]
                for a in BASE_AMBIENTS)
    target = common.ENERGY_TARGET_FRACTION * worst
    result, _ = _ask(client, _spec(ENERGY_DESIGN, BASE_AMBIENTS, target))
    for cell in result["cells"]:
        base[("energy", cell["benchmark"], cell["t_ambient"])] = cell
    return base, target


def _warm_workers(client, rng: random.Random) -> None:
    """Load the miss design's flow and fabric into both pool workers, so
    the first measured misses do not pay for them."""
    for _ in range(3):
        jobs = [client.submit(_spec(MISS_DESIGN, [round(rng.uniform(70, 80), 3)]))
                for _ in range(2)]
        for job_id in jobs:
            for _ in client.stream(job_id):
                pass


def _queries(seed: int, base_keys: List[tuple]):
    """Endless seeded query sequence of (kind, key).

    Repeats walk shuffled passes over the base grid and unseen ambients
    follow a golden-ratio sequence from a seeded start, so the mix's mean
    gain barely depends on how many queries a run completes."""
    rng = random.Random(seed)
    seen = {a for _, _, a in base_keys}
    phase = rng.random()
    lo, hi = MISS_RANGE
    order: List[tuple] = []
    while True:
        for _ in range(HITS_PER_MISS):
            if not order:
                order = list(base_keys)
                rng.shuffle(order)
            yield "hit", order.pop()
        ambient = None
        while ambient is None or ambient in seen:
            phase = (phase + GOLDEN) % 1.0
            ambient = round(lo + (hi - lo) * phase, 3)
        seen.add(ambient)
        yield "miss", ("frequency", MISS_DESIGN, ambient)


def _measure(client, seed: int, seconds: float, base: dict, target: float,
             checks: common.Checks) -> dict:
    queries = _queries(seed, sorted(base))
    rows = []
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        kind, (mode, design, ambient) = next(queries)
        spec = _spec(design, [ambient], target if mode == "energy" else None)
        result, timing = _ask(client, spec)
        cells = result["cells"]
        ok = result["status"] == "done" and len(cells) == 1 and cells[0]["ok"]
        row = {"kind": kind, "mode": mode, "ok": ok, "timing": timing,
               "t_end": time.perf_counter() - begin,
               "key": (mode, design, ambient), "store_hits": result["n_store_hits"]}
        if ok:
            cell = cells[0]
            row["cell"] = cell
            if kind == "hit":
                populated = base[(mode, design, ambient)]
                checks.expect(cell["source"] == "store" and all(
                    cell[f] == populated[f] for f in COMPARED_FIELDS),
                    f"hit {design}@{ambient} ({mode}) differs from the populating record")
                row["gain"] = populated.get("gain")
                row["saving"] = populated.get("energy_saving")
            else:
                row["gain"] = cell.get("gain")
                checks.expect(cell["source"] == "computed" and row["gain"] > 0,
                              f"miss {design}@{ambient}: {cell['source']} gain {row['gain']}")
        rows.append(row)
    return {"rows": rows, "seconds": time.perf_counter() - begin}


def _chunk_stats(rows: List[dict]) -> List[Tuple[float, float, float]]:
    """(completed queries/s, p50 ms, p95 ms) per chunk of consecutive
    queries; the run reports the median chunk, so a few seconds of host
    noise move it less than a pooled figure.  A trailing partial chunk
    is folded into the one before it."""
    n_chunks = max(1, len(rows) // CHUNK_QUERIES)
    stats = []
    start_s = 0.0
    for k in range(n_chunks):
        chunk = rows[k * CHUNK_QUERIES:
                     None if k == n_chunks - 1 else (k + 1) * CHUNK_QUERIES]
        latencies = [1e3 * r["timing"]["total"] for r in chunk]
        end_s = chunk[-1]["t_end"]
        stats.append((sum(r["ok"] for r in chunk) / (end_s - start_s),
                      common.percentile(latencies, 50),
                      common.percentile(latencies, 95)))
        start_s = end_s
    return stats


def _check_base(base: dict, target: float, checks: common.Checks) -> None:
    from repro.api import VDD_NOMINAL

    for (mode, design, ambient), cell in base.items():
        checks.expect(cell["ok"], f"base cell {mode} {design}@{ambient} failed")
        if mode == "frequency":
            checks.expect(cell["gain"] > 0, f"base {design}@{ambient}: gain <= 0")
            if ambient == CORNER:
                lo, hi = common.FIG6_GAIN_RANGE
                checks.expect(lo <= cell["gain"] <= hi,
                              f"base {design}@{ambient}: gain outside Fig. 6 range")
        else:
            checks.expect(abs(cell["frequency_hz"] - target) <= 1e-9 * target,
                          f"energy {design}@{ambient}: not at its target")
            checks.expect(cell["vdd_v"] <= VDD_NOMINAL,
                          f"energy {design}@{ambient}: vdd above nominal")


def _setup_server(workdir: Path, trace: Optional[Path], seed: int):
    from repro.api import SweepClient

    start = time.perf_counter()
    server = Server(workdir, trace)
    try:
        client = SweepClient(url=server.url)
        base, target = _populate(client)
        _warm_workers(client, random.Random(seed))
    except BaseException:
        server.kill()
        raise
    return server, client, base, target, time.perf_counter() - start


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    common.use_program(workdir / "client-flows")
    checks = common.Checks()
    setup = []
    measured: List[dict] = []
    peak_server_mb = 0.0
    for i in range(SETUP_REPEATS):
        last = i == SETUP_REPEATS - 1
        traced = trace and last
        trace_path = workdir / "trace.jsonl" if traced else None
        server, client, base, target, setup_s = _setup_server(
            workdir / f"server{i}", trace_path, seed)
        setup.append(setup_s)
        try:
            _check_base(base, target, checks)
            if last or (trace and i == SETUP_REPEATS - 2):
                offset = trace_path.stat().st_size if traced else 0
                client_cpus = server.pin()
                run_ = _measure(client, seed, seconds, base, target, checks)
                os.sched_setaffinity(0, client_cpus)
                run_["trace_offset"] = offset
                run_["store"] = server.store
                measured.append(run_)
                peak_server_mb = max(peak_server_mb, server.peak_rss_mb())
        finally:
            survivors = server.stop()
        checks.expect(not survivors,
                      f"server processes outlived SIGINT: {survivors}")

    final = measured[-1]
    rows = final["rows"]
    ok_rows = [r for r in rows if r["ok"]]
    if len(measured) == 2:
        outputs = [{r["key"]: tuple(r["cell"][f] for f in COMPARED_FIELDS)
                    for r in m["rows"] if r["ok"]} for m in measured]
        common_keys = outputs[0].keys() & outputs[1].keys()
        checks.expect(all(outputs[0][k] == outputs[1][k] for k in common_keys),
                      "query outputs differ between repetitions")
    chunks = _chunk_stats(rows)
    report = {
        "setup_s": common.percentile(setup, 50),
        "cells_per_s": common.percentile([c[0] for c in chunks], 50),
        "query_p50_ms": common.percentile([c[1] for c in chunks], 50),
        "query_p95_ms": common.percentile([c[2] for c in chunks], 50),
        "gain_pct_mean": 100 * common.mean(
            r["gain"] for r in ok_rows
            if r["mode"] == "frequency" and r["gain"] is not None),
        "energy_saving_pct_mean": 100 * common.mean(r["saving"] for r in ok_rows
                                                    if r["mode"] == "energy"),
        "peak_rss_mb": common.own_peak_mb() + peak_server_mb,
        "samples": {"setup_s": len(setup), "queries": len(rows),
                    "chunks": len(chunks),
                    "hits": sum(r["kind"] == "hit" for r in rows),
                    "misses": sum(r["kind"] == "miss" for r in rows)},
        "attempted": len(rows),
        "failed": len(rows) - len(ok_rows),
        "checks": checks,
    }
    if trace:
        report["layers"] = _layers(measured[0], final, workdir)
    return report


def _layers(untraced: dict, traced: dict, workdir: Path) -> Dict[str, float]:
    """Per-layer numbers from the traced server's trace, restricted to the
    measured phase, plus the client-side service timings."""
    from repro.api import open_store
    from repro.observe.report import event_summary, load_traces, phase_summary

    window = workdir / "trace-window.jsonl"
    with (workdir / "trace.jsonl").open("rb") as trace:
        trace.seek(traced["trace_offset"])
        window.write_bytes(trace.read())
    spans: Dict[str, Tuple[int, float]] = {}
    events: Dict[str, int] = {}
    route_attempts = 0
    for t in load_traces(str(window)).traces:
        for name, count, total, *_ in phase_summary(t):
            n, s = spans.get(name, (0, 0.0))
            spans[name] = (n + count, s + total)
        for name, count in event_summary(t).items():
            events[name] = events.get(name, 0) + count
        route_attempts += sum(int(node.attrs.get("attempts", 0))
                              for node in t.spans if node.name == "flow.route")

    rows = traced["rows"]
    computed = [r["cell"] for r in rows if r["ok"] and r["cell"]["source"] == "computed"]

    def median_ms(values) -> float:
        values = list(values)
        return 1e3 * common.percentile(values, 50) if values else 0.0

    def span_s(name: str) -> float:
        return spans.get(name, (0, 0.0))[1]

    store = open_store(traced["store"])
    load_s = []
    for digest in store.digests():
        t0 = time.perf_counter()
        store.load(digest)
        load_s.append(time.perf_counter() - t0)
    hits, misses = events.get("store.hit", 0), events.get("store.miss", 0)
    guardband_s = span_s("guardband.run") + span_s("guardband.batch")
    return {
        "route.attempts": route_attempts,
        "route.busy_s": span_s("flow.route"),
        "place.busy_s": span_s("flow.place"),
        "pack.busy_s": span_s("flow.pack"),
        "sta.build_s": span_s("flow.sta_build"),
        "flowcache.hits": events.get("flow.cache.hit", 0),
        "flowcache.misses": events.get("flow.cache.miss", 0),
        "guardband.busy_s": guardband_s,
        "guardband.freq_s_per_cell": common.ratio(guardband_s, len(computed)),
        "guardband.iterations_mean": common.mean(c["iterations"] for c in computed),
        "guardband.sta_s": span_s("guardband.sta"),
        "guardband.power_s": span_s("guardband.power"),
        "guardband.thermal_s": span_s("guardband.thermal"),
        "runner.cells": spans.get("sweep.cell", (0, 0.0))[0],
        "store.hits": hits,
        "store.misses": misses,
        "store.puts": events.get("store.put", 0),
        "store.hit_ratio": common.ratio(hits, hits + misses),
        "store.load_ms": 1e3 * common.mean(load_s),
        "service.submit_ms": median_ms(r["timing"]["submit"] for r in rows),
        "service.events_ms": median_ms(r["timing"]["events"] for r in rows),
        "service.result_ms": median_ms(r["timing"]["result"] for r in rows),
        "service.hit_query_ms": median_ms(r["timing"]["total"] for r in rows
                                          if r["kind"] == "hit"),
        "service.miss_query_ms": median_ms(r["timing"]["total"] for r in rows
                                           if r["kind"] == "miss"),
        "service.store_hits": sum(r["store_hits"] for r in rows),
        "observe.trace_overhead_frac":
            (len(untraced["rows"]) / untraced["seconds"])
            / (len(rows) / traced["seconds"]) - 1.0,
    }
