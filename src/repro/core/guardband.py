"""Thermal-aware guardbanding — the paper's Algorithm 1.

Given a placed-and-routed design, its fabric characterization, the signal
activities and the ambient temperature, iterate

1. ``f = T(netlist, T_vec)`` — temperature-aware STA over the whole netlist
   (the critical path can move between iterations);
2. ``p = p_dyn(netlist, alpha, f) + p_lkg(T_vec)`` — per-tile power;
3. ``T_vec = HotSpot(p)`` — steady-state thermal solve;

until the per-tile temperature change satisfies ``||dT||_inf <= delta_t``,
then re-time the design once more at ``T_vec + delta_t`` so the small
convergence error is covered by margin rather than optimism.  The resulting
frequency replaces the conventional worst-case (Tworst) clock.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import observe
from repro.activity.ace import ActivityEstimate
from repro.cad.flow import FlowResult
from repro.cad.timing import TimingReport
from repro.coffe.fabric import Fabric
from repro.core.inputs import AlgorithmInputs, algorithm_inputs
from repro.power.model import PowerBreakdown
from repro.power.voltage import (
    VDD_MIN_V,
    VDD_TOLERANCE_V,
    VoltageScaling,
    resource_delay_scale,
)
from repro.technology.ptm22 import VDD_NOMINAL
from repro.thermal.package import ThermalPackage

DELTA_T_CELSIUS = 2.0
"""Convergence threshold and compensation margin (Algorithm 1's delta_T)."""

MAX_ITERATIONS = 25
"""The paper observes convergence in fewer than ten iterations."""

BASE_ACTIVITY_DEFAULT = 0.15
"""Default mean primary-input switching activity for the ACE estimate."""


class GuardbandError(RuntimeError):
    """Raised when the temperature-power fixed point does not converge.

    Carries the partial fixed-point state so a diverging sweep cell is
    debuggable without a re-run: the per-iteration ``history`` telemetry,
    the ``last_temperatures`` vector the loop stopped at, and the
    ``iterations`` spent.  All diagnostics default to empty so the
    exception still constructs from a bare message.
    """

    def __init__(
        self,
        message: str,
        *,
        history: Optional[List["GuardbandIteration"]] = None,
        last_temperatures: Optional[np.ndarray] = None,
        iterations: int = 0,
        t_ambient: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.history: List["GuardbandIteration"] = list(history or [])
        self.last_temperatures = last_temperatures
        self.iterations = iterations
        self.t_ambient = t_ambient

    @property
    def last_max_delta_celsius(self) -> Optional[float]:
        """The final iteration's ``||dT||_inf``, when any iteration ran."""
        if not self.history:
            return None
        return self.history[-1].max_delta_celsius


@dataclass(frozen=True)
class GuardbandConfig:
    """Algorithm 1 knobs, grouped so sweeps can carry them as one value.

    Frozen (hashable, picklable): an :class:`~repro.runner.ExperimentSpec`
    embeds one per job and ships it across process boundaries unchanged.
    """

    delta_t: float = DELTA_T_CELSIUS
    """Convergence threshold and compensation margin, Celsius."""
    max_iterations: int = MAX_ITERATIONS
    """Iteration budget before :class:`GuardbandError`."""
    base_activity: float = BASE_ACTIVITY_DEFAULT
    """Mean primary-input activity for the default ACE estimate."""
    package: Optional[ThermalPackage] = None
    """Thermal package override; ``None`` uses the solver default."""
    warm_start_policy: str = "off"
    """Fixed-point seeding policy for sweeps: ``"off"`` starts every cell
    from ambient (Algorithm 1 line 1); ``"nearest"`` lets the sweep
    engine seed each cell with the converged per-tile profile of the
    nearest completed neighbour from the result store (falling back to
    ambient when none exists).  Warm starts converge to the same fixed
    point within the ``delta_t`` tolerance — see DESIGN.md §11."""
    thermal_weight: float = 0.0
    """Thermal-aware placement blend: weight of the thermal proxy term in
    the placer's objective (:mod:`repro.cad.thermal_place`), relative to
    the initial wirelength cost.  0 keeps the legacy wirelength/timing
    placement (bit-identical); folded into the flow cache key, so cells
    with different weights never share a mapping."""
    mode: str = "frequency"
    """Objective of Algorithm 1.  ``"frequency"`` (the default, the
    paper's flow) maximises the guardbanded clock at nominal supply;
    ``"energy"`` holds ``target_frequency_hz`` fixed and bisects the
    soft-fabric supply down until timing just closes at the converged
    thermal profile (arXiv:1911.07187), reporting the savings in
    :attr:`GuardbandResult.energy`."""
    target_frequency_hz: Optional[float] = None
    """Iso-frequency clock for ``mode="energy"``, hertz.  Required
    (positive, finite) in energy mode; must stay ``None`` in frequency
    mode, where the clock is an output of the flow, not an input."""

    def __post_init__(self) -> None:
        if self.delta_t <= 0.0:
            raise ValueError(f"delta_t must be positive, got {self.delta_t}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be at least 1, got {self.max_iterations}"
            )
        if not (0.0 < self.base_activity <= 1.0):
            raise ValueError(
                f"base_activity must be in (0, 1], got {self.base_activity}"
            )
        if self.warm_start_policy not in ("off", "nearest"):
            raise ValueError(
                'warm_start_policy must be "off" or "nearest", '
                f"got {self.warm_start_policy!r}"
            )
        if not (
            math.isfinite(self.thermal_weight) and self.thermal_weight >= 0.0
        ):
            raise ValueError(
                "thermal_weight must be finite and >= 0, "
                f"got {self.thermal_weight}"
            )
        if self.mode not in ("frequency", "energy"):
            raise ValueError(
                f'mode must be "frequency" or "energy", got {self.mode!r}'
            )
        if self.mode == "energy":
            if self.target_frequency_hz is None:
                raise ValueError(
                    'mode="energy" requires target_frequency_hz — the '
                    "iso-frequency clock (Hz) to close timing at while "
                    "scaling the supply down"
                )
            if not (
                math.isfinite(self.target_frequency_hz)
                and self.target_frequency_hz > 0.0
            ):
                raise ValueError(
                    "target_frequency_hz must be positive and finite, "
                    f"got {self.target_frequency_hz}"
                )
        elif self.target_frequency_hz is not None:
            raise ValueError(
                'target_frequency_hz is only meaningful with mode="energy" '
                "(the frequency objective derives the clock); got "
                f"target_frequency_hz={self.target_frequency_hz} with "
                f'mode="frequency"'
            )

    def with_changes(self, **changes: object) -> "GuardbandConfig":
        """Return a copy with some knobs replaced."""
        return replace(self, **changes)


@dataclass
class GuardbandIteration:
    """Telemetry of one Algorithm 1 iteration."""

    frequency_hz: float
    total_power_w: float
    max_tile_celsius: float
    mean_tile_celsius: float
    max_delta_celsius: float
    phase_seconds: Optional[Dict[str, float]] = None
    """Seconds per phase ("sta", "power", "thermal"), derived from the
    iteration's :mod:`repro.observe` phase spans when observability is
    enabled; ``None`` otherwise."""


@dataclass
class EnergyReport:
    """Per-cell energy accounting of one ``mode="energy"`` run.

    At iso-frequency, energy per cycle is ``power / f``, so the
    fractional power saving *is* the fractional energy saving; both
    totals are reported so tables can show either axis.  The nominal
    baseline is the same design converged at the same target frequency
    and ambient but at nominal supply.
    """

    vdd_v: float
    """Closing supply: the lowest trial VDD at which timing still closes
    (within :data:`~repro.power.voltage.VDD_TOLERANCE_V`)."""
    vdd_nominal_v: float
    target_frequency_hz: float
    total_power_w: float
    """Whole-die power at the closing supply's converged profile."""
    nominal_power_w: float
    """Whole-die power at nominal supply, same frequency and ambient."""
    power_saving_fraction: float
    """``1 - total_power_w / nominal_power_w`` — also the energy-per-cycle
    saving at iso-frequency."""
    energy_per_cycle_j: float
    nominal_energy_per_cycle_j: float


@dataclass
class GuardbandResult:
    """Outcome of thermal-aware guardbanding for one design.

    **Objective invariant:** frequency-mode results maximise
    ``frequency_hz`` at nominal supply (``vdd_v == VDD_NOMINAL``,
    ``energy is None``); energy-mode results hold
    ``frequency_hz == config.target_frequency_hz`` by construction and
    report the closing supply in ``vdd_v`` (with the savings accounting
    in ``energy``).  ``mode`` names which reading applies.

    Construct with keyword arguments only — positional construction is
    deprecated (the field list grows with objectives).
    """

    frequency_hz: float
    """Final guardbanded clock (timed at the converged profile + delta_t);
    in energy mode, the target clock that timing was closed at."""
    critical_path_s: float
    tile_temperatures: np.ndarray
    """Converged per-tile temperatures, Celsius."""
    iterations: int
    t_ambient: float
    delta_t: float
    total_power_w: float
    history: List[GuardbandIteration] = field(default_factory=list)
    warm_started: bool = False
    """Whether the fixed point was seeded from a neighbouring converged
    profile instead of the flat ambient vector; compare ``iterations``
    against a cold run to measure the iterations saved."""
    mode: str = "frequency"
    """Which objective produced this result (see the class invariant)."""
    vdd_v: float = VDD_NOMINAL
    """Soft-fabric supply of the reported operating point, volts."""
    energy: Optional[EnergyReport] = None
    """Energy/power savings vs nominal supply; ``None`` in frequency mode."""

    @property
    def mean_rise_celsius(self) -> float:
        return float(self.tile_temperatures.mean() - self.t_ambient)

    @property
    def max_gradient_celsius(self) -> float:
        """Largest on-chip temperature difference."""
        return float(self.tile_temperatures.max() - self.tile_temperatures.min())


_RESULT_KEYWORD_INIT: Callable[..., None] = GuardbandResult.__init__


def _result_init(self: GuardbandResult, *args: object, **kwargs: object) -> None:
    if args:
        warnings.warn(
            "positional construction of GuardbandResult is deprecated; "
            "pass every field by keyword (the field list grows with "
            "objective modes)",
            DeprecationWarning,
            stacklevel=2,
        )
    _RESULT_KEYWORD_INIT(self, *args, **kwargs)


_result_init.__wrapped__ = _RESULT_KEYWORD_INIT  # type: ignore[attr-defined]
GuardbandResult.__init__ = _result_init  # type: ignore[method-assign]


def _seed_profile(
    warm_start: Optional[np.ndarray], n_tiles: int, t_ambient: float
) -> Tuple[np.ndarray, bool]:
    """Initial per-tile temperatures: warm-start profile or flat ambient."""
    if warm_start is not None:
        seed_vec = np.asarray(warm_start, dtype=float)
        if seed_vec.shape != (n_tiles,):
            raise ValueError(
                f"warm_start must have shape ({n_tiles},) to match the "
                f"layout, got {seed_vec.shape}"
            )
        if not np.all(np.isfinite(seed_vec)):
            raise ValueError("warm_start contains non-finite temperatures")
        # Tiles cannot sit below the junction base temperature at steady
        # state; clamping keeps a neighbour profile from a cooler ambient
        # physically sensible.
        return np.maximum(seed_vec, float(t_ambient)), True
    return np.full(n_tiles, float(t_ambient)), False  # line 1


def _run_inputs(
    run_span: observe.SpanLike,
    flow: FlowResult,
    fabric: Fabric,
    config: GuardbandConfig,
    activity: Optional[ActivityEstimate],
) -> AlgorithmInputs:
    """The run's reused-or-built inputs, noted on its top-level span."""
    inputs = algorithm_inputs(
        flow, fabric, config.base_activity, config.package, activity
    )
    run_span.set_attrs(inputs="built" if inputs.built else "reused")
    return inputs


def thermal_aware_guardband(
    flow: FlowResult,
    fabric: Fabric,
    t_ambient: float,
    activity: Optional[ActivityEstimate] = None,
    config: Optional[GuardbandConfig] = None,
    *,
    warm_start: Optional[np.ndarray] = None,
) -> GuardbandResult:
    """Run Algorithm 1 on a placed-and-routed design.

    ``t_ambient`` is the junction base temperature ``Tamb`` every tile
    starts from (Algorithm 1 line 1).  ``warm_start`` optionally replaces
    that flat start with an initial per-tile temperature vector — e.g.
    the converged profile of a neighbouring sweep cell — clamped to at
    least ambient; the fixed point is the same, it is just reached in
    fewer iterations.  ``activity`` defaults to the ACE estimate with
    ``config.base_activity``; every other knob lives on ``config``
    (default :class:`GuardbandConfig`).
    """
    config = config if config is not None else GuardbandConfig()
    if config.mode == "energy":
        return _energy_guardband(flow, fabric, t_ambient, activity, config, warm_start)

    delta_t = config.delta_t
    max_iterations = config.max_iterations
    n_tiles = flow.layout.n_tiles

    t_tiles, warm_started = _seed_profile(warm_start, n_tiles, t_ambient)
    history: List[GuardbandIteration] = []
    converged = False
    iterations = 0
    prev_frequency: Optional[float] = None

    run_span = observe.span(
        "guardband.run",
        benchmark=flow.netlist.name,
        t_ambient=float(t_ambient),
        delta_t=delta_t,
        max_iterations=max_iterations,
        warm_started=warm_started,
    )
    with run_span:
        inputs = _run_inputs(run_span, flow, fabric, config, activity)
        power_model, solver = inputs.power_model, inputs.solver
        for _ in range(max_iterations):
            iterations += 1
            it_span = observe.span("guardband.iteration", index=iterations)
            with it_span:
                # Line 4: full-netlist STA at the current temperatures.
                with observe.span("guardband.sta") as sta_span:
                    report = flow.timing.critical_path(fabric, t_tiles)
                frequency = report.frequency_hz
                # Line 5: per-tile dynamic + leakage power.
                with observe.span("guardband.power") as power_span:
                    power = power_model.evaluate(frequency, t_tiles)
                # Line 7: thermal solve; line 8: convergence check.
                with observe.span("guardband.thermal") as thermal_span:
                    t_new = solver.solve(power.total_w, t_ambient)
                max_delta = float(np.max(np.abs(t_new - t_tiles)))
                t_tiles = t_new
                it_span.set_attrs(
                    frequency_hz=frequency,
                    delta_frequency_hz=(
                        frequency - prev_frequency
                        if prev_frequency is not None
                        else 0.0
                    ),
                    max_delta_celsius=max_delta,
                    max_tile_celsius=float(t_tiles.max()),
                    total_power_w=power.total_watts,
                )
            prev_frequency = frequency
            history.append(
                GuardbandIteration(
                    frequency_hz=frequency,
                    total_power_w=power.total_watts,
                    max_tile_celsius=float(t_tiles.max()),
                    mean_tile_celsius=float(t_tiles.mean()),
                    max_delta_celsius=max_delta,
                    phase_seconds=observe.phase_seconds(
                        sta=sta_span, power=power_span, thermal=thermal_span
                    ),
                )
            )
            if max_delta <= delta_t:
                converged = True
                break

        run_span.set_attrs(converged=converged, iterations=iterations)
        if not converged:
            observe.counter("guardband.diverged").inc()
            last = (
                f" (last |dT| = {history[-1].max_delta_celsius:.2f} C)"
                if history
                else ""
            )
            raise GuardbandError(
                f"{flow.netlist.name}: temperature did not converge within "
                f"{max_iterations} iterations{last}",
                history=history,
                last_temperatures=t_tiles,
                iterations=iterations,
                t_ambient=float(t_ambient),
            )

        observe.histogram("guardband.iterations").observe(float(iterations))
        # Line 9: final timing with the delta_t compensation margin.
        with observe.span("guardband.final_sta"):
            final = flow.timing.critical_path(fabric, t_tiles + delta_t)
        run_span.set_attrs(frequency_hz=final.frequency_hz)
    return GuardbandResult(
        frequency_hz=final.frequency_hz,
        critical_path_s=final.critical_path_s,
        tile_temperatures=t_tiles,
        iterations=iterations,
        t_ambient=t_ambient,
        delta_t=delta_t,
        total_power_w=history[-1].total_power_w,
        history=history,
        warm_started=warm_started,
    )


def _energy_guardband(
    flow: FlowResult,
    fabric: Fabric,
    t_ambient: float,
    activity: Optional[ActivityEstimate],
    config: GuardbandConfig,
    warm_start: Optional[np.ndarray],
) -> GuardbandResult:
    """Algorithm 1 under the energy objective: bisect VDD at iso-frequency.

    Every trial supply re-runs the full power/temperature fixed point
    (the loop body of :func:`thermal_aware_guardband`, with the delay,
    dynamic and leakage models re-evaluated at the trial voltage), then a
    final re-time at ``T + delta_t`` decides closure: the guardbanded
    clock at the converged profile must still meet the target.  Lower
    supply slows the fabric but also cools it — less power means a cooler
    converged profile means faster logic — which is exactly why each
    trial must co-iterate with the thermal solver rather than scale a
    single nominal profile (see DESIGN.md, "Energy mode").

    Bisection assumes closure is monotone in VDD (slower below, faster
    above), maintains ``v_hi`` always-closing, and narrows the window to
    :data:`~repro.power.voltage.VDD_TOLERANCE_V`.  Trials warm-start from
    the converged profile of the last closing trial.  A trial whose
    thermal fixed point diverges is treated as non-closing.
    """
    delta_t = config.delta_t
    max_iterations = config.max_iterations
    f_target = float(config.target_frequency_hz)  # type: ignore[arg-type]
    period_s = 1.0 / f_target

    scaling = VoltageScaling()
    n_tiles = flow.layout.n_tiles
    t_seed, warm_started = _seed_profile(warm_start, n_tiles, t_ambient)

    history: List[GuardbandIteration] = []
    iterations = 0

    def converge(vdd: float, seed: np.ndarray) -> Tuple[np.ndarray, PowerBreakdown]:
        """One trial supply's power/temperature fixed point (or raise)."""
        nonlocal iterations
        t_tiles = seed.copy()
        trial_span = observe.span("guardband.energy.trial", vdd_v=vdd)
        with trial_span:
            for _ in range(max_iterations):
                iterations += 1
                it_span = observe.span(
                    "guardband.iteration", index=iterations, vdd_v=vdd
                )
                with it_span:
                    # Line 4 at the trial supply: voltage-scaled STA.
                    with observe.span("guardband.sta") as sta_span:
                        report = flow.timing.critical_path(
                            fabric,
                            t_tiles,
                            delay_scale=resource_delay_scale(
                                scaling.delay_scale_tiles(vdd, t_tiles)
                            ),
                        )
                    # Line 5: dynamic power at the *target* clock (the
                    # design will run there), leakage at the trial V/T.
                    with observe.span("guardband.power") as power_span:
                        power = power_model.evaluate_at_voltage(
                            f_target, t_tiles, scaling, vdd
                        )
                    with observe.span("guardband.thermal") as thermal_span:
                        t_new = solver.solve(power.total_w, t_ambient)
                    max_delta = float(np.max(np.abs(t_new - t_tiles)))
                    t_tiles = t_new
                    it_span.set_attrs(
                        frequency_hz=report.frequency_hz,
                        max_delta_celsius=max_delta,
                        max_tile_celsius=float(t_tiles.max()),
                        total_power_w=power.total_watts,
                    )
                history.append(
                    GuardbandIteration(
                        frequency_hz=report.frequency_hz,
                        total_power_w=power.total_watts,
                        max_tile_celsius=float(t_tiles.max()),
                        mean_tile_celsius=float(t_tiles.mean()),
                        max_delta_celsius=max_delta,
                        phase_seconds=observe.phase_seconds(
                            sta=sta_span, power=power_span, thermal=thermal_span
                        ),
                    )
                )
                if max_delta <= delta_t:
                    trial_span.set_attrs(converged=True)
                    return t_tiles, power
            trial_span.set_attrs(converged=False)
        observe.counter("guardband.diverged").inc()
        raise GuardbandError(
            f"{flow.netlist.name}: temperature did not converge within "
            f"{max_iterations} iterations at VDD={vdd:.3f} V",
            history=history,
            last_temperatures=t_tiles,
            iterations=iterations,
            t_ambient=float(t_ambient),
        )

    def retime(vdd: float, t_conv: np.ndarray) -> TimingReport:
        """Line 9 at a trial supply: closure check with the margin."""
        with observe.span("guardband.final_sta", vdd_v=vdd):
            return flow.timing.critical_path(
                fabric,
                t_conv + delta_t,
                delay_scale=resource_delay_scale(
                    scaling.delay_scale_tiles(vdd, t_conv + delta_t)
                ),
            )

    run_span = observe.span(
        "guardband.run",
        benchmark=flow.netlist.name,
        mode="energy",
        target_frequency_hz=f_target,
        t_ambient=float(t_ambient),
        delta_t=delta_t,
        max_iterations=max_iterations,
        warm_started=warm_started,
    )
    with run_span:
        inputs = _run_inputs(run_span, flow, fabric, config, activity)
        power_model, solver = inputs.power_model, inputs.solver
        # Feasibility at nominal supply doubles as the savings baseline.
        v_hi = scaling.vdd_nominal
        t_conv, power = converge(v_hi, t_seed)
        final = retime(v_hi, t_conv)
        if final.frequency_hz < f_target:
            observe.counter("guardband.energy.infeasible").inc()
            raise GuardbandError(
                f"{flow.netlist.name}: target frequency "
                f"{f_target / 1e6:.2f} MHz does not close at nominal VDD "
                f"{v_hi:.3f} V and Tamb={t_ambient:g} C (guardbanded "
                f"maximum is {final.frequency_hz / 1e6:.2f} MHz); lower "
                "the target",
                history=history,
                last_temperatures=t_conv,
                iterations=iterations,
                t_ambient=float(t_ambient),
            )
        nominal_power_w = power.total_watts
        best = (v_hi, t_conv, final, power)

        v_lo = VDD_MIN_V
        while v_hi - v_lo > VDD_TOLERANCE_V:
            v_mid = 0.5 * (v_lo + v_hi)
            try:
                t_mid, p_mid = converge(v_mid, best[1])
            except GuardbandError:
                # A diverging trial cannot prove closure; bisect upward.
                v_lo = v_mid
                continue
            final_mid = retime(v_mid, t_mid)
            if final_mid.frequency_hz >= f_target:
                v_hi = v_mid
                best = (v_mid, t_mid, final_mid, p_mid)
            else:
                v_lo = v_mid

        vdd, t_conv, final, power = best
        observe.histogram("guardband.iterations").observe(float(iterations))
        run_span.set_attrs(
            converged=True,
            iterations=iterations,
            vdd_v=vdd,
            power_saving_fraction=1.0 - power.total_watts / nominal_power_w,
        )
    energy = EnergyReport(
        vdd_v=vdd,
        vdd_nominal_v=scaling.vdd_nominal,
        target_frequency_hz=f_target,
        total_power_w=power.total_watts,
        nominal_power_w=nominal_power_w,
        power_saving_fraction=1.0 - power.total_watts / nominal_power_w,
        energy_per_cycle_j=power.total_watts * period_s,
        nominal_energy_per_cycle_j=nominal_power_w * period_s,
    )
    return GuardbandResult(
        frequency_hz=f_target,
        critical_path_s=final.critical_path_s,
        tile_temperatures=t_conv,
        iterations=iterations,
        t_ambient=float(t_ambient),
        delta_t=delta_t,
        total_power_w=power.total_watts,
        history=history,
        warm_started=warm_started,
        mode="energy",
        vdd_v=vdd,
        energy=energy,
    )


@dataclass(frozen=True)
class BatchCell:
    """One sweep cell of a grouped Algorithm 1 run.

    All cells of a group share the placed netlist, fabric corner and
    :class:`GuardbandConfig`; what varies per cell is the ambient and,
    optionally, a warm-start profile (the converged temperatures of a
    neighbouring cell, re-based onto this ambient by the caller).
    """

    t_ambient: float
    warm_start: Optional[np.ndarray] = None


BatchOutcome = Union[GuardbandResult, "GuardbandError"]
"""Per-cell outcome of a grouped run: the converged result, or — for a
cell whose fixed point diverged or whose energy target does not close —
the :class:`GuardbandError` carrying its partial diagnostics.  A failing
cell never affects the other cells of its group."""


def thermal_aware_guardband_batch(
    flow: FlowResult,
    fabric: Fabric,
    cells: Sequence[Union[float, BatchCell]],
    config: Optional[GuardbandConfig] = None,
    activity: Optional[ActivityEstimate] = None,
) -> List[BatchOutcome]:
    """Run Algorithm 1 on each of many cells sharing one placed netlist.

    ``cells`` entries are ambients (floats) or :class:`BatchCell` values
    (ambient + optional warm-start profile).  Every cell runs through
    :func:`thermal_aware_guardband`, so each outcome is bit-identical to
    a single-cell call and emits its own ``guardband.run`` span tree;
    the cells share the per-flow inputs of :mod:`repro.core.inputs`.
    Every cell's warm start is validated before any cell runs.
    Outcomes come back in input order, and a cell that raises
    :class:`GuardbandError` gets the error in its slot without affecting
    the other cells (DESIGN.md §12).
    """
    batch_cells = [
        cell if isinstance(cell, BatchCell) else BatchCell(float(cell))
        for cell in cells
    ]
    # Raises on a bad warm start before any cell has done work.
    for cell in batch_cells:
        _seed_profile(cell.warm_start, flow.layout.n_tiles, cell.t_ambient)
    outcomes: List[BatchOutcome] = []
    for cell in batch_cells:
        try:
            outcomes.append(
                thermal_aware_guardband(
                    flow, fabric, cell.t_ambient, activity=activity,
                    config=config, warm_start=cell.warm_start,
                )
            )
        except GuardbandError as error:
            outcomes.append(error)
    return outcomes
