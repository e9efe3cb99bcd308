"""Parallel, fault-tolerant sweep engine.

:func:`run_sweep` expands an :class:`~repro.runner.spec.ExperimentSpec`
into jobs, groups the jobs that share one placed flow into work units
(:func:`_work_units`) and executes the units either in-process
(``workers=1``) or on a ``ProcessPoolExecutor``.  Design points:

- **One dispatch path** — every unit, a single cell included, runs
  through the same pure :func:`_execute_unit`: the flow, fabric and
  worst-case baseline are resolved once, then each cell runs its own
  Algorithm 1.  Serial and parallel sweeps run that same function, so a
  parallel sweep is bit-identical to a serial one.
- **Graceful degradation** — a unit that raises records one
  :class:`~repro.runner.results.JobFailure` per cell, and a cell whose
  fixed point diverges fails alone; the sweep always returns a complete
  :class:`~repro.runner.results.SweepResult`.  A worker killed mid-unit
  (``BrokenProcessPool``) triggers a pool rebuild and a bounded
  re-dispatch of the in-flight units.
- **Bounded retry** — transient errors (:class:`RoutingError`, ``OSError``
  and friends, broken pools) retry the unit up to ``max_retries`` extra
  attempts; deterministic failures are not retried.  A
  :class:`RoutingError` retry perturbs the placement seed — the flow is
  deterministic (and already escalates channel width internally), so an
  identical re-run would only fail identically.
- **Observability** — each finished cell fires the ``progress`` callback
  and, when a JSONL path is given, streams one record (including its
  Algorithm 1 phase timings and its own wall time).  The JSONL file is
  truncated at the start of each run, so one file is one run.  When an
  observability session is active (CLI ``--trace``), the sweep
  additionally emits a ``sweep.run`` span, per-cell ``sweep.cell``
  lifecycle spans and ``job.terminal``/``job.retry`` events — including
  for timed-out and killed-worker cells, whose worker-side spans never
  close — and ships a :class:`~repro.observe.context.TraceContext` to
  every pool worker so worker spans re-parent under the sweep's trace.
- **Per-cell timeout** — ``job_timeout`` is per cell: a parallel unit of
  ``n`` cells overdue past ``n * job_timeout`` seconds records a timeout
  failure for each of its cells.  At most ``workers`` units are
  dispatched to the pool at a time (the rest wait in an engine-side
  ready queue), so the timeout clock starts at execution start, not
  submission — queue wait behind a full pool never counts against it.
  A genuinely wedged worker cannot be force-killed through
  ``concurrent.futures``; its slot is parked until the late result
  arrives and is discarded, and if every slot wedges the pool is
  rebuilt.  (Ignored on the serial path.)
- **Persistence and resume** — with a :class:`~repro.store.ResultStore`
  attached, every converged cell is persisted under its content digest
  (flow cache key x config x ambient x corner x schema version); a
  digest hit in any later sweep serves the stored fixed point without
  re-running Algorithm 1.  ``resume_from`` reloads a prior run's JSONL:
  recorded successes are re-emitted as ``sweep.cell_skipped`` events
  (never ``sweep.cell`` execution spans) and only the remainder is
  dispatched.
- **Warm starts** — for configs with ``warm_start_policy="nearest"``
  and a store attached, each cell's fixed point is seeded with the
  converged per-tile profile of the nearest completed same-benchmark
  cell (re-based onto the cell's ambient), cutting iterations.  The
  candidates are the cells completed when the unit was dispatched plus
  the unit's own cells completed before this one, so a serial sweep
  seeds exactly as if every cell were dispatched alone.  The converged
  frequency agrees with a cold start within the ``delta_t``
  compensation tolerance (DESIGN.md §11), which also means a
  warm-started parallel sweep is *tolerance-identical* — not
  bit-identical — to a serial one, since completion order picks the
  neighbours.

The shared on-disk flow cache (:mod:`repro.cad.flow`) is safe under this
fan-out: per-entry file locks serialise place-and-route so concurrent
workers needing the same mapping share one computation.
"""

from __future__ import annotations

import json
import os
from collections import deque

import numpy as np
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import (
    Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple, Union,
)

from repro import observe
from repro.arch.params import ArchParams
from repro.cad.flow import FlowResult, cache_counters, run_flow
from repro.cad.route import RoutingError
from repro.observe.clock import monotonic
from repro.observe.context import TraceContext
from repro.coffe.fabric import Fabric, build_fabric
from repro.core.guardband import (
    GuardbandError,
    GuardbandResult,
    thermal_aware_guardband,
    thermal_aware_guardband_batch,  # noqa: F401  (perfbench patches it here)
)
from repro.core.inputs import worst_case_hz
from repro.core.margins import guardband_gain
from repro.runner.results import JobFailure, JobResult, SweepResult
from repro.runner.spec import ExperimentSpec, SweepJob
from repro.store import ResultStore, store_digest

ProgressCallback = Callable[[Union[JobResult, JobFailure], int, int], None]

RETRYABLE_ERRORS: Tuple[type, ...] = (
    RoutingError,
    OSError,
    EOFError,
    BrokenProcessPool,
)
"""Error classes worth a bounded re-attempt: congestion that may clear
under a different placement seed (see :func:`_retry_job`),
filesystem/cache races, and pool breakage from a killed worker.
Everything else is deterministic and fails fast."""

DEFAULT_MAX_RETRIES = 1
"""Extra attempts after the first, per work unit."""

_FABRIC_MEMO: Dict[Tuple[float, ArchParams], Fabric] = {}
"""Per-process memo: corner characterization is identical for every job
sharing (corner, arch), and workers are long-lived."""


def _fabric_for(corner: float, arch: ArchParams) -> Fabric:
    key = (corner, arch)
    if key not in _FABRIC_MEMO:
        _FABRIC_MEMO[key] = build_fabric(corner, arch)
    return _FABRIC_MEMO[key]


def _warm_start_miss(job: SweepJob, reason: str) -> None:
    """An attached neighbour existed but could not seed the fixed point.

    Distinguished from "no neighbour was attached" (which is silent):
    these misses measure warm-start *efficacy* — a stored entry that was
    quarantined as unreadable, or whose profile no longer matches the
    layout — and surface in ``python -m repro.observe report`` via the
    ``store.warm_start_miss`` counter/event.
    """
    observe.counter("store.warm_start_miss").inc()
    observe.event("store.warm_start_miss", job_id=job.job_id, reason=reason)


def _nearest(
    job: SweepJob, cells: Sequence[Tuple[float, float]]
) -> Tuple[Tuple[float, float], ...]:
    """The (up to) three completed cells nearest ``job``, nearest first;
    ties go to the lower ambient, then corner, never completion order."""
    return tuple(sorted(cells, key=lambda c: (
        abs(c[0] - job.t_ambient) + abs(c[1] - job.corner), c[0], c[1],
    ))[:3])


def _warm_start_vector(
    store: Optional[ResultStore],
    flow: FlowResult,
    job: SweepJob,
    unit_done: Sequence[Tuple[float, float]] = (),
) -> Optional["np.ndarray"]:
    """Seed vector from the nearest stored neighbour, or ``None``.

    ``job.warm_start_cells`` holds completed same-benchmark grid
    coordinates (nearest first) attached at dispatch; ``unit_done``
    adds the cells of the job's own unit that completed since, and the
    nearest of both are tried.  The neighbour's converged profile is
    re-based onto this cell's ambient (the *rise* over ambient is what
    transfers between operating points).  Any unusable candidate —
    quarantined entry, layout mismatch from a retry's perturbed seed —
    is counted as a ``store.warm_start_miss`` (unusable is not the same
    as absent) and falls through to the next, ultimately to the cold
    ambient start.
    """
    if (
        store is None
        or job.config.warm_start_policy != "nearest"
        or flow.cache_key is None
    ):
        return None
    candidates = job.warm_start_cells
    if unit_done:
        candidates = _nearest(job, candidates + tuple(unit_done))
    for t_ambient, corner in candidates:
        digest = store_digest(flow.cache_key, job.config, t_ambient, corner)
        existed = digest in store
        neighbour = store.get(digest)
        if neighbour is None:
            if existed:
                # The entry was on disk but unreadable (now quarantined)
                # — without the counter this would be indistinguishable
                # from "no neighbour exists".
                _warm_start_miss(job, "quarantined")
            continue
        if neighbour.tile_temperatures.shape != (flow.layout.n_tiles,):
            _warm_start_miss(job, "layout_mismatch")
            continue
        return (
            neighbour.tile_temperatures
            - neighbour.t_ambient
            + job.t_ambient
        )
    return None


def _unit_key(job: SweepJob) -> Tuple[object, ...]:
    """Everything a work unit must share: one flow, one fabric, one config.

    Jobs agreeing on this key resolve to the same flow cache key (the
    netlist/arch/seed triple determines it) and differ only in ambient,
    so one flow, fabric and worst-case baseline serve the whole unit.
    """
    return (
        job.benchmark,
        job.netlist_spec,
        job.arch,
        job.seed,
        job.timing_driven,
        job.corner,
        job.config,
    )


def _work_units(jobs: List[SweepJob]) -> List[List[SweepJob]]:
    """Group same-flow jobs into work units, grid order preserved.

    Each unit is dispatched (and retried, and timed out) as one work
    item; a job with no same-flow neighbour is a unit of one.  Cells
    still record individually: one JSONL line, one ``sweep.cell`` span
    and one store write per cell.
    """
    grouped: Dict[Tuple[object, ...], List[SweepJob]] = {}
    for job in jobs:
        grouped.setdefault(_unit_key(job), []).append(job)
    return list(grouped.values())


_CellOutcome = Tuple[Union[GuardbandResult, GuardbandError], Optional[str]]
"""A cell's converged result (or its divergence) and its store event."""


def _run_cell(
    job: SweepJob,
    flow: FlowResult,
    fabric: Fabric,
    result_store: Optional[ResultStore],
    unit_done: List[Tuple[float, float]],
) -> _CellOutcome:
    """One cell of a unit: served from the store, or computed and stored.

    ``unit_done`` holds the coordinates of the unit's cells that already
    have a result; under ``warm_start_policy="nearest"`` they are
    warm-start candidates alongside the neighbours attached at dispatch.
    """
    store_event: Optional[str] = None
    job_span = observe.span(
        "sweep.job",
        job_id=job.job_id,
        benchmark=job.benchmark,
        t_ambient=job.t_ambient,
        corner=job.corner,
    )
    try:
        with job_span:
            result: Optional[GuardbandResult] = None
            digest: Optional[str] = None
            if result_store is not None and flow.cache_key is not None:
                digest = store_digest(
                    flow.cache_key, job.config, job.t_ambient, job.corner
                )
                result = result_store.get(digest)
                store_event = "hit" if result is not None else "miss"
            if result is None:
                warm = _warm_start_vector(result_store, flow, job, unit_done)
                result = thermal_aware_guardband(
                    flow, fabric, job.t_ambient, config=job.config,
                    warm_start=warm,
                )
                if result_store is not None and digest is not None:
                    result_store.put(digest, result)
            job_span.set_attrs(
                frequency_hz=result.frequency_hz,
                iterations=result.iterations,
                warm_started=result.warm_started,
                **({"store": store_event} if store_event else {}),
            )
    except GuardbandError as error:
        # A diverged cell fails alone; its unit-mates still run.
        return error, store_event
    return result, store_event


def _cell_record(
    job: SweepJob,
    outcome: Union[GuardbandResult, GuardbandError],
    store_event: Optional[str],
    wall_seconds: float,
    baseline_hz: float,
    flow: FlowResult,
    cache_events: Dict[str, int],
) -> Union[JobResult, JobFailure]:
    if isinstance(outcome, GuardbandError):
        return _failure_from(job, outcome, 1, wall_seconds)
    energy = outcome.energy
    return JobResult(
        job_id=job.job_id,
        benchmark=job.benchmark,
        t_ambient=job.t_ambient,
        corner=job.corner,
        frequency_hz=outcome.frequency_hz,
        worst_case_hz=baseline_hz,
        gain=guardband_gain(outcome.frequency_hz, baseline_hz),
        iterations=outcome.iterations,
        total_power_w=outcome.total_power_w,
        max_tile_celsius=float(outcome.tile_temperatures.max()),
        mean_tile_celsius=float(outcome.tile_temperatures.mean()),
        wall_seconds=wall_seconds,
        # A store hit did no Algorithm 1 work in this process; claiming
        # the stored run's phase timings here would double-count them.
        phase_seconds=(
            {}
            if store_event == "hit"
            else observe.total_phase_seconds(
                iteration.phase_seconds for iteration in outcome.history
            )
        ),
        cache_key=flow.cache_key,
        cache_events=cache_events,
        warm_started=outcome.warm_started,
        store_event=store_event,
        mode=outcome.mode,
        vdd_v=outcome.vdd_v,
        energy_saving=energy.power_saving_fraction if energy else None,
        energy_per_cycle_j=energy.energy_per_cycle_j if energy else None,
    )


def _execute_unit(
    unit: List[SweepJob], store: Optional[str] = None
) -> List[Union[JobResult, JobFailure]]:
    """Run one work unit of same-flow cells end to end.

    Pure: deterministic in ``unit`` (with a ``store``, up to the
    warm-start tolerance — see DESIGN.md §11).  Module-level so the
    process pool can pickle it by reference; the serial path calls it
    directly, guaranteeing identical numerics.

    The placed netlist, fabric and worst-case baseline are resolved once
    (a ``sweep.resolve`` span).  Then each cell, in order and under its
    own ``sweep.job`` span, is served from the result store or runs
    Algorithm 1 and is persisted (:func:`_run_cell`).  Returns one
    :class:`JobResult` per cell in input order, or a :class:`JobFailure`
    for a cell whose fixed point diverged; any other error escapes, and
    the caller retries or fails the whole unit.

    Always runs under :func:`repro.observe.enabled` — timing-only when
    nothing else opened a session (so ``phase_seconds`` is collected),
    nested into the surrounding session when the CLI enabled tracing or
    a worker attached a :class:`TraceContext`.

    A cell's ``wall_seconds`` is its own time plus an even share of the
    unit's shared work (resolution, records), so the cells of a unit sum
    to its wall clock; the flow-cache events of the resolution are
    attributed to the first cell.  ``store`` is the result-store root (a
    path, so it crosses the pool boundary cheaply).
    """
    start = monotonic()
    result_store = ResultStore(store) if store is not None else None
    lead = unit[0]
    cells: List[Tuple[SweepJob, _CellOutcome, float]] = []
    with observe.enabled():
        cache_before = cache_counters()
        with observe.span(
            "sweep.resolve",
            benchmark=lead.benchmark,
            corner=lead.corner,
            n_cells=len(unit),
        ):
            flow = run_flow(
                lead.resolve_netlist(), lead.arch, seed=lead.seed,
                timing_driven=lead.timing_driven,
                thermal_weight=lead.config.thermal_weight,
            )
            fabric = _fabric_for(lead.corner, lead.arch)
            baseline_hz = worst_case_hz(flow, fabric)
        cache_after = cache_counters()
        cache_events = {
            kind: cache_after[kind] - cache_before[kind]
            for kind in cache_after
            if cache_after[kind] > cache_before[kind]
        }
        unit_done: List[Tuple[float, float]] = []
        for job in unit:
            cell_start = monotonic()
            outcome = _run_cell(job, flow, fabric, result_store, unit_done)
            if isinstance(outcome[0], GuardbandResult):
                unit_done.append((job.t_ambient, job.corner))
            cells.append((job, outcome, monotonic() - cell_start))
    shared_share = (monotonic() - start - sum(c[2] for c in cells)) / len(unit)
    return [
        _cell_record(
            job, outcome, store_event, own + shared_share, baseline_hz, flow,
            cache_events if i == 0 else {},
        )
        for i, (job, (outcome, store_event), own) in enumerate(cells)
    ]


def _run_unit_in_worker(
    unit: List[SweepJob],
    context: Optional[TraceContext],
    store: Optional[str] = None,
) -> List[Union[JobResult, JobFailure]]:
    """Pool-worker entry point: join the dispatching sweep's trace.

    ``context`` is the engine's :func:`repro.observe.propagation_context`
    at dispatch time (``None`` when tracing is off).  The worker attaches
    for exactly this unit, appending its spans to the sweep's JSONL file
    and flushing its metric deltas on detach.
    """
    with observe.attach(context):
        return _execute_unit(unit, store=store)


class _JsonlWriter:
    """Per-run JSONL stream of per-cell records, flushed per line.

    The path is truncated on open so one file always holds exactly one
    run — re-running a sweep with the same ``--jsonl`` path never mixes
    records from different runs.  Without a path nothing is written, and
    no record is built.
    """

    def __init__(self, path: Optional[str]) -> None:
        self._handle = open(path, "w", encoding="utf-8") if path else None

    def write(self, outcome: Union[JobResult, JobFailure]) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(outcome.to_record()) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()


def _retry_job(job: SweepJob, error: BaseException) -> SweepJob:
    """The job to submit for the next attempt after a retryable error.

    ``run_flow`` is deterministic for a given (netlist, arch, seed) and
    already escalates channel width internally, so re-running an
    unroutable cell unchanged would only fail identically; a
    :class:`RoutingError` retry therefore perturbs the placement seed to
    explore a different mapping.  Other transient errors (filesystem
    races, pool breakage) re-run the job unchanged.
    """
    if isinstance(error, RoutingError):
        return replace(job, seed=job.seed + 1)
    return job


def _failure_diagnostics(error: BaseException) -> Dict[str, object]:
    """Structured forensics to record alongside a failure, when available.

    A diverged Algorithm 1 cell carries its partial fixed point on the
    :class:`GuardbandError`; surfacing the iteration count and the last
    ``||dT||_inf`` in the JSONL record makes divergence debuggable
    without re-running the cell.
    """
    if isinstance(error, GuardbandError) and error.history:
        return {
            "iterations": error.iterations,
            "last_max_delta_celsius": error.last_max_delta_celsius,
        }
    return {}


def _failure_from(
    job: SweepJob,
    error: BaseException,
    attempts: int,
    wall_seconds: float,
    diagnostics: Optional[Dict[str, object]] = None,
) -> JobFailure:
    return JobFailure(
        job_id=job.job_id,
        benchmark=job.benchmark,
        t_ambient=job.t_ambient,
        corner=job.corner,
        error_type=type(error).__name__,
        message=str(error) or type(error).__name__,
        attempts=attempts,
        wall_seconds=wall_seconds,
        retryable=isinstance(error, RETRYABLE_ERRORS),
        diagnostics=diagnostics or _failure_diagnostics(error),
    )


def _record_retry(job: SweepJob, attempts: int, error: BaseException) -> None:
    """Trace a bounded re-attempt (no-op when observability is off)."""
    observe.counter("sweep.retries").inc()
    observe.event(
        "job.retry",
        job_id=job.job_id,
        attempts=attempts,
        error_type=type(error).__name__,
    )


@dataclass
class _Tracked:
    """Book-keeping for one in-flight parallel work unit."""

    unit: List[SweepJob]
    attempts: int
    started: float
    submitted: float


def run_sweep(
    spec: Union[ExperimentSpec, List[SweepJob]],
    workers: Optional[int] = 1,
    max_retries: int = DEFAULT_MAX_RETRIES,
    job_timeout: Optional[float] = None,
    jsonl_path: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    store: Union[ResultStore, str, None] = None,
    resume_from: Optional[str] = None,
) -> SweepResult:
    """Execute an experiment grid; never raises for a failing cell.

    ``workers=None`` uses the machine's core count; ``workers=1`` runs
    serially in-process (same numerics, no pool overhead).  Returns a
    :class:`SweepResult` whose ``results``/``failures`` partition the
    grid.

    Cells sharing one placed flow (same benchmark, arch, seed and fabric
    corner under one config — an ambient sweep) run as one work unit:
    the flow, fabric and worst-case baseline are resolved once, and each
    cell then runs its own Algorithm 1 and records individually
    (DESIGN.md §8, §12).  Retries apply per unit; ``job_timeout`` is per
    cell, so a parallel unit of ``n`` cells is timed out after
    ``n * job_timeout`` seconds.

    ``store`` (a :class:`~repro.store.ResultStore` or its root path)
    persists every converged cell keyed by its content digest, so an
    identical cell in any later sweep is served without re-running
    Algorithm 1 — and, for configs with ``warm_start_policy="nearest"``,
    seeds each cell's fixed point from the nearest completed
    same-benchmark neighbour in the grid, unit-mates included.

    ``resume_from`` points at a prior run's per-cell JSONL stream
    (typically the same path as ``jsonl_path``): cells it records as
    successful are reloaded and re-recorded — with ``sweep.cell_skipped``
    events and the ``sweep.cells.skipped`` counter, never a
    ``sweep.cell`` execution span — and only the remainder (failures and
    never-started cells) is dispatched.  ``resume_from`` is read in full
    before ``jsonl_path`` is truncated, so resuming a run dir in place
    is safe.
    """
    jobs = spec.expand() if isinstance(spec, ExperimentSpec) else list(spec)
    grid_order = {job.job_id: i for i, job in enumerate(jobs)}
    if workers is None:
        workers = max(1, os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")

    store_path: Optional[str] = None
    if isinstance(store, ResultStore):
        store_path = str(store.root)
    elif store is not None:
        store_path = str(store)

    # Checkpoint reload — before the writer below truncates jsonl_path.
    resumed: List[JobResult] = []
    if resume_from is not None:
        prior = SweepResult.from_jsonl(resume_from)
        completed = {r.job_id: r for r in prior.results}
        remaining: List[SweepJob] = []
        for job in jobs:
            if job.job_id in completed:
                resumed.append(completed[job.job_id])
            else:
                remaining.append(job)
        total_jobs = len(jobs)
        jobs = remaining
    else:
        total_jobs = len(jobs)
    units = _work_units(jobs)
    workers = min(workers, max(1, len(units)))

    writer = _JsonlWriter(jsonl_path)
    sweep = SweepResult(workers=workers, jsonl_path=jsonl_path)
    started = monotonic()

    # Completed grid coordinates per benchmark, for warm-start seeding;
    # resumed cells count (their converged profiles are in the store).
    completed_cells: Dict[str, List[Tuple[float, float]]] = {}

    def note_completed(result: JobResult) -> None:
        completed_cells.setdefault(result.benchmark, []).append(
            (result.t_ambient, result.corner)
        )

    def prepare(job: SweepJob) -> SweepJob:
        """Attach the nearest completed neighbours at dispatch time."""
        if store_path is None or job.config.warm_start_policy != "nearest":
            return job
        cells = completed_cells.get(job.benchmark)
        if not cells:
            return job
        return replace(job, warm_start_cells=_nearest(job, cells))

    def record(outcome: Union[JobResult, JobFailure]) -> None:
        bucket = sweep.results if isinstance(outcome, JobResult) else sweep.failures
        bucket.append(outcome)
        writer.write(outcome)
        # Engine-side lifecycle trace: emitted for *every* terminal
        # outcome, so cells whose worker never finished (timeout, killed
        # worker) still appear in the trace tree.
        extra: Dict[str, object] = {}
        if isinstance(outcome, JobResult):
            status = "ok"
            extra["cache_hits"] = outcome.cache_events.get("hit", 0)
            observe.counter("sweep.jobs.ok").inc()
            note_completed(outcome)
        else:
            status = outcome.error_type
            extra["error_type"] = outcome.error_type
            observe.counter("sweep.jobs.failed").inc()
        observe.event(
            "job.terminal",
            job_id=outcome.job_id,
            status=status,
            attempts=outcome.attempts,
        )
        observe.emit_span(
            "sweep.cell",
            duration_s=outcome.wall_seconds,
            status="ok" if isinstance(outcome, JobResult) else "error",
            job_id=outcome.job_id,
            benchmark=outcome.benchmark,
            attempts=outcome.attempts,
            **extra,
        )
        if progress is not None:
            progress(outcome, sweep.n_jobs, total_jobs)

    def record_skipped(result: JobResult) -> None:
        """A reloaded checkpoint cell: re-recorded, never re-executed."""
        sweep.results.append(result)
        sweep.n_resumed += 1
        writer.write(result)
        observe.counter("sweep.cells.skipped").inc()
        observe.event(
            "sweep.cell_skipped", job_id=result.job_id, source="resume"
        )
        note_completed(result)
        if progress is not None:
            progress(result, sweep.n_jobs, total_jobs)

    try:
        run_span = observe.span(
            "sweep.run",
            n_jobs=total_jobs,
            workers=workers,
            n_resumed=len(resumed),
        )
        with run_span:
            for reloaded in resumed:
                record_skipped(reloaded)
            if workers == 1:
                _run_serial(units, max_retries, record, prepare, store_path)
            else:
                _run_parallel(
                    units, workers, max_retries, job_timeout, record,
                    prepare, store_path,
                )
            run_span.set_attrs(
                n_ok=len(sweep.results), n_failed=len(sweep.failures)
            )
    finally:
        sweep.wall_seconds = monotonic() - started
        writer.close()

    # Stable, grid-order reporting regardless of completion order.
    sweep.results.sort(key=lambda r: grid_order.get(r.job_id, len(grid_order)))
    sweep.failures.sort(key=lambda f: grid_order.get(f.job_id, len(grid_order)))
    return sweep


def _run_serial(
    units: List[List[SweepJob]],
    max_retries: int,
    record: Callable[[Union[JobResult, JobFailure]], None],
    prepare: Callable[[SweepJob], SweepJob] = lambda job: job,
    store: Optional[str] = None,
) -> None:
    for unit in units:
        unit_started = monotonic()
        attempt_unit = [prepare(job) for job in unit]
        attempts = 0
        while True:
            attempts += 1
            try:
                outcomes: List[Union[JobResult, JobFailure]] = [
                    replace(outcome, attempts=attempts)
                    for outcome in _execute_unit(attempt_unit, store=store)
                ]
                break
            except Exception as error:  # degrade, never abort the sweep
                if (
                    isinstance(error, RETRYABLE_ERRORS)
                    and attempts <= max_retries
                ):
                    for job in unit:
                        _record_retry(job, attempts, error)
                    attempt_unit = [
                        _retry_job(job, error) for job in attempt_unit
                    ]
                    continue
                outcomes = [
                    _failure_from(
                        job, error, attempts, monotonic() - unit_started
                    )
                    for job in unit
                ]
                break
        for outcome in outcomes:
            record(outcome)


def _run_parallel(
    units: List[List[SweepJob]],
    workers: int,
    max_retries: int,
    job_timeout: Optional[float],
    record: Callable[[Union[JobResult, JobFailure]], None],
    prepare: Callable[[SweepJob], SweepJob] = lambda job: job,
    store: Optional[str] = None,
) -> None:
    executor = ProcessPoolExecutor(max_workers=workers)
    # Captured once: every dispatch ships the same trace capsule, parented
    # under the engine's current span (``sweep.run``).  None when off.
    context = observe.propagation_context()
    # (unit, attempts, first-dispatch time or None) units not yet dispatched.
    ready: Deque[Tuple[List[SweepJob], int, Optional[float]]] = deque(
        (unit, 1, None) for unit in units
    )
    pending: Dict[Future, _Tracked] = {}
    zombies: Set[Future] = set()
    """Expired-but-still-running futures: each keeps occupying one worker
    slot until its (discarded) result arrives."""

    def rebuild_pool() -> None:
        nonlocal executor
        executor.shutdown(wait=False, cancel_futures=True)
        executor = ProcessPoolExecutor(max_workers=workers)
        zombies.clear()

    def dispatch() -> None:
        # Keep at most `workers` futures in flight (wedged zombie slots
        # count), so a submitted future starts executing immediately:
        # `submitted` approximates execution start — queue wait never
        # eats into `job_timeout` — and on pool breakage every tracked
        # future really had a worker slot.
        nonlocal executor
        while ready and len(pending) + len(zombies) < workers:
            unit, attempts, started = ready.popleft()
            # Warm-start neighbours are attached here, not at enqueue:
            # cells that completed while this one waited are candidates.
            # Retries keep the neighbours from their first dispatch
            # (attempts > 1), so a re-run stays reproducible.
            if attempts == 1:
                unit = [prepare(job) for job in unit]
            now = monotonic()
            try:
                future = executor.submit(
                    _run_unit_in_worker, unit, context, store
                )
            except BrokenProcessPool:
                # Pool died between the drain and this dispatch; rebuild.
                rebuild_pool()
                future = executor.submit(
                    _run_unit_in_worker, unit, context, store
                )
            pending[future] = _Tracked(
                unit=unit,
                attempts=attempts,
                started=started if started is not None else now,
                submitted=now,
            )

    dispatch()
    try:
        while pending or ready:
            if not pending:
                # Every slot is wedged on an expired job but grid cells
                # remain: abandon that pool and rebuild so the sweep
                # progresses.
                rebuild_pool()
                dispatch()
                continue
            done, _ = wait(
                set(pending) | zombies,
                timeout=0.25 if job_timeout is not None else None,
                return_when=FIRST_COMPLETED,
            )
            broken: List[_Tracked] = []
            for future in done:
                if future in zombies:
                    # Already recorded as a timeout; discard the late
                    # result and free the slot.
                    zombies.discard(future)
                    continue
                tracked = pending.pop(future)
                try:
                    results = future.result()
                except BrokenProcessPool:
                    broken.append(tracked)
                except Exception as error:
                    if (
                        isinstance(error, RETRYABLE_ERRORS)
                        and tracked.attempts <= max_retries
                    ):
                        for job in tracked.unit:
                            _record_retry(job, tracked.attempts, error)
                        ready.appendleft((
                            [
                                _retry_job(job, error)
                                for job in tracked.unit
                            ],
                            tracked.attempts + 1,
                            tracked.started,
                        ))
                    else:
                        for job in tracked.unit:
                            record(
                                _failure_from(
                                    job, error, tracked.attempts,
                                    monotonic() - tracked.started,
                                )
                            )
                else:
                    for result in results:
                        record(replace(result, attempts=tracked.attempts))
            if broken:
                # A dead worker poisons the whole pool: every in-flight
                # future fails with BrokenProcessPool.  In-flight is
                # capped at the worker count, so each of these was
                # dispatched to a worker slot and counting the attempt is
                # fair; cells still in `ready` are untouched and keep
                # their full budget.  Drain, rebuild the pool once, and
                # re-dispatch ahead of queued cells.
                broken.extend(pending.values())
                pending.clear()
                rebuild_pool()
                for tracked in broken:
                    if tracked.attempts <= max_retries:
                        for job in tracked.unit:
                            _record_retry(
                                job,
                                tracked.attempts,
                                BrokenProcessPool(
                                    "worker process died unexpectedly"
                                ),
                            )
                        ready.appendleft((
                            tracked.unit,
                            tracked.attempts + 1,
                            tracked.started,
                        ))
                    else:
                        for job in tracked.unit:
                            record(
                                _failure_from(
                                    job,
                                    BrokenProcessPool(
                                        "worker process died unexpectedly"
                                    ),
                                    tracked.attempts,
                                    monotonic() - tracked.started,
                                )
                            )
            if job_timeout is not None:
                _expire_overdue(pending, zombies, job_timeout, record)
            dispatch()
    finally:
        executor.shutdown(wait=False, cancel_futures=True)


def _expire_overdue(
    pending: Dict[Future, _Tracked],
    zombies: Set[Future],
    job_timeout: float,
    record: Callable[[Union[JobResult, JobFailure]], None],
) -> None:
    """Record overdue units as timeout failures and stop tracking them.

    ``job_timeout`` is per cell, so a unit of ``n`` cells is overdue
    after ``n * job_timeout`` seconds; every one of its cells then fails
    with a ``TimeoutError`` whose diagnostics give the deadline.
    Dispatch is capped at the pool width, so ``submitted`` approximates
    execution start and queue wait never counts against the timeout.  A
    running future cannot be interrupted through ``concurrent.futures``;
    it is parked as a zombie that keeps occupying its slot until the
    (discarded) result arrives — and if every slot wedges, the caller
    rebuilds the pool.
    """
    now = monotonic()
    for future, tracked in list(pending.items()):
        n_cells = len(tracked.unit)
        deadline = job_timeout * n_cells
        if now - tracked.submitted <= deadline:
            continue
        del pending[future]
        if not future.cancel():
            zombies.add(future)
        error = TimeoutError(
            f"work unit of {n_cells} cell(s) exceeded its {deadline:g}s "
            f"timeout ({job_timeout:g}s per cell)"
        )
        for job in tracked.unit:
            record(
                _failure_from(
                    job, error, tracked.attempts, now - tracked.started,
                    diagnostics={"timeout_s": deadline, "unit_cells": n_cells},
                )
            )
