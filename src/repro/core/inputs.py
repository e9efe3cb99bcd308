"""Algorithm 1's per-flow inputs, built once per process and reused.

Every sweep cell over one placed design needs the same inputs before its
fixed point can start, and none of them depends on the cell's ambient,
warm start or objective:

- the ACE activity estimate, per (netlist, ``base_activity``);
- the :class:`~repro.power.model.PowerModel`, per (flow, fabric,
  activity);
- the :class:`~repro.thermal.hotspot.ThermalSolver` factorization, per
  (layout, package).

:func:`algorithm_inputs` builds each once and keeps it in the flow's
:attr:`~repro.cad.flow.FlowResult.derived` dict, where it lives exactly
as long as the flow: never pickled into the flow cache or the result
store, and released with a flow that no cache holds (a ``use_cache=False``
flow in a long-lived service worker).  Every entry is identity-checked
against the objects it was built from (the flow's netlist and layout,
the fabric), like :class:`~repro.cad.timing.TimingAnalyzer`'s table
cache.  Shared arrays are read-only, so no caller can perturb a later
cell; the inputs are pure functions of their keys, so a reused input is
bit-identical to a rebuilt one (DESIGN.md §17).  The fourth input, the
energy mode's per-supply voltage tables, is process-wide in
:mod:`repro.power.voltage`.

The sweep engine keeps one more per-(flow, fabric) value here, the
worst-case baseline clock every cell's gain is measured against
(:func:`worst_case_hz`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import observe
from repro.activity.ace import ActivityEstimate, estimate_activity
from repro.cad.flow import FlowResult
from repro.cad.timing import TimingAnalyzer
from repro.coffe.fabric import Fabric
from repro.core.margins import worst_case_frequency
from repro.power.model import PowerModel
from repro.thermal.hotspot import ThermalSolver
from repro.thermal.package import ThermalPackage

_DERIVED_KEY = "algorithm_inputs"
"""This module's slot in :attr:`FlowResult.derived`."""


@dataclass(frozen=True)
class AlgorithmInputs:
    """What one Algorithm 1 run reads besides the flow and fabric."""

    activity: ActivityEstimate
    power_model: PowerModel
    solver: ThermalSolver
    built: bool
    """Whether this call built any input (``False``: all were reused)."""


@dataclass
class _FlowEntries:
    activities: Dict[float, ActivityEstimate] = field(default_factory=dict)
    power_models: Dict[Tuple[int, int], PowerModel] = field(default_factory=dict)
    """Keyed by ``(id(fabric), id(activity))``; the model holds both, so
    neither id can be reused while the entry exists."""
    solvers: Dict[ThermalPackage, ThermalSolver] = field(default_factory=dict)
    worst_case: Dict[int, Tuple[Fabric, TimingAnalyzer, float]] = field(
        default_factory=dict
    )
    """Keyed by ``id(fabric)``; the entry holds the fabric, so the id
    cannot be reused while it exists, and the analyzer it was timed with."""


def _entries(flow: FlowResult) -> _FlowEntries:
    entries = flow.derived.get(_DERIVED_KEY)
    if not isinstance(entries, _FlowEntries):
        entries = _FlowEntries()
        flow.derived[_DERIVED_KEY] = entries
    return entries


def algorithm_inputs(
    flow: FlowResult,
    fabric: Fabric,
    base_activity: float,
    package: Optional[ThermalPackage] = None,
    activity: Optional[ActivityEstimate] = None,
) -> AlgorithmInputs:
    """The activity, power model and thermal solver for one run.

    With ``activity=None`` the ACE estimate at ``base_activity`` is used
    and, like the solver, reused from the flow when an earlier run built
    it.  A caller-supplied ``activity`` gets a power model of its own
    that is not kept: only the flow's own estimates key cached models,
    so the flow never retains a caller's objects.  A build is timed by a
    ``guardband.inputs`` span.
    """
    entries = _entries(flow)
    package = package if package is not None else ThermalPackage()
    keep_model = activity is None
    if activity is None:
        cached = entries.activities.get(base_activity)
        if cached is not None and cached.netlist is flow.netlist:
            activity = cached
    power_model: Optional[PowerModel] = None
    if keep_model and activity is not None:
        power_model = entries.power_models.get((id(fabric), id(activity)))
    solver = entries.solvers.get(package)
    if solver is not None and solver.layout is not flow.layout:
        solver = None
    if activity is not None and power_model is not None and solver is not None:
        return AlgorithmInputs(activity, power_model, solver, built=False)

    built: List[str] = []
    with observe.span("guardband.inputs", benchmark=flow.netlist.name) as span:
        if activity is None:
            activity = estimate_activity(flow.netlist, base_activity)
            activity.alpha.flags.writeable = False
            entries.activities[base_activity] = activity
            built.append("activity")
        if power_model is None:
            power_model = PowerModel(flow, fabric, activity)
            if keep_model:
                entries.power_models[(id(fabric), id(activity))] = power_model
            built.append("power_model")
        if solver is None:
            solver = ThermalSolver(flow.layout, package)
            entries.solvers[package] = solver
            built.append("solver")
        span.set_attrs(built=",".join(built))
    return AlgorithmInputs(activity, power_model, solver, built=True)


def worst_case_hz(flow: FlowResult, fabric: Fabric) -> float:
    """The flow's worst-case baseline clock on ``fabric``, timed once.

    :func:`~repro.core.margins.worst_case_frequency` at its default
    ``T_worst`` is one full STA of the flow on a uniformly hot die, and
    every sweep cell over one (flow, fabric) pair divides by the same
    value.  The entry is checked against ``flow.timing``, like the
    inputs above against what they were built from.
    """
    entries = _entries(flow)
    entry = entries.worst_case.get(id(fabric))
    if entry is not None and entry[1] is flow.timing:
        return entry[2]
    hz = worst_case_frequency(flow, fabric)
    entries.worst_case[id(fabric)] = (fabric, flow.timing, hz)
    return hz
