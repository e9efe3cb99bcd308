"""Simulated-annealing placement (VPR-style).

Wirelength-driven anneal over cluster locations: half-perimeter wirelength
cost, adaptive temperature schedule driven by the acceptance rate, and a
shrinking range window.  Deterministic for a given seed.

With ``thermal_weight > 0`` the objective blends in the incremental
thermal proxy of :mod:`repro.cad.thermal_place`, periodically calibrated
against the real thermal solver; ``thermal_weight=0`` takes exactly the
legacy wirelength-only code path (bit-identical placements).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro import observe
from repro.activity.ace import ActivityEstimate, estimate_activity
from repro.arch.layout import FabricLayout, TileType
from repro.cad.pack import Cluster, PackedNetlist
from repro.cad.thermal_place import ThermalPlaceStats, ThermalProxy

INTEGRITY_CHECK_INTERVAL = 8
"""Temperature levels between full-cost integrity recomputations."""

_INTEGRITY_REL_TOL = 1e-6
"""Allowed relative disagreement between the incrementally-maintained
cost and a from-scratch recomputation before the anneal fails loudly."""


_RAW_CHUNK = 1024
"""64-bit words fetched from the bit generator per refill of the stream."""

_UINT32_SPAN = 1 << 32
_TWO_POW_M53 = 2.0 ** -53


class _ExactStream:
    """numpy's ``Generator.integers(low, high)`` and ``Generator.random()``,
    reproduced draw for draw from the PCG64 raw stream.

    The anneal makes three to four scalar draws per move, and numpy's
    scalar calls cost microseconds each in call overhead alone.  This
    class reads 64-bit words in bulk (``bit_generator.random_raw``) and
    applies numpy's own algorithms to them:

    - ``integers`` (default int64 dtype) is the buffered 32-bit Lemire
      method: a width-1 range returns ``low`` and draws nothing; 32-bit
      halves of a word are handed out low half first, and the unused high
      half is kept across calls (PCG64's ``has_uint32``/``uinteger``
      state, read from the generator when the stream is made);
    - ``random`` is ``(word >> 11) * 2**-53`` and leaves the 32-bit
      buffer alone.

    The generator itself runs ahead of the stream by up to one chunk, so
    once a stream is made the generator must not be drawn from directly.
    ``_verify_exact_stream`` checks the emulation against numpy once per
    process.
    """

    __slots__ = ("_bitgen", "_raw", "_half")

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = rng.bit_generator
        if type(bitgen) is not np.random.PCG64:
            raise TypeError(
                f"exact-stream draws need a PCG64 bit generator, got "
                f"{type(bitgen).__name__}"
            )
        state = bitgen.state
        self._bitgen = bitgen
        # Fetched words, reversed: pop() hands out the next one.
        self._raw: List[int] = []
        # The buffered high 32-bit half of a word, or -1 when empty.
        self._half: int = state["uinteger"] if state["has_uint32"] else -1

    def _refill(self) -> int:
        raw = self._bitgen.random_raw(_RAW_CHUNK)[::-1].tolist()
        word = raw.pop()
        self._raw = raw
        return word

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)``: uniform in ``[low, high)``."""
        span = high - low
        if span == 1:
            return low
        if not 1 < span <= _UINT32_SPAN:
            raise ValueError(f"unsupported range [{low}, {high})")
        threshold = -1
        while True:
            half = self._half
            if half < 0:
                raw = self._raw
                word = raw.pop() if raw else self._refill()
                self._half = word >> 32
                half = word & 0xFFFFFFFF
            else:
                self._half = -1
            m = half * span
            leftover = m & 0xFFFFFFFF
            # Lemire's rejection: only leftovers below 2**32 mod span are
            # biased, and that bound is below span itself.
            if leftover >= span:
                return low + (m >> 32)
            if threshold < 0:
                threshold = (_UINT32_SPAN - span) % span
            if leftover >= threshold:
                return low + (m >> 32)

    def random(self) -> float:
        """``Generator.random()``: uniform in ``[0, 1)``."""
        raw = self._raw
        word = raw.pop() if raw else self._refill()
        return (word >> 11) * _TWO_POW_M53


_GUARD_SEED = 20190325
_GUARD_DRAWS = (
    (0, 1), (-3, 4), None, (0, _UINT32_SPAN), (0, 7), (5, (1 << 31) + 12),
    None, (0, 1), (-40, 41), (0, 3), (-(1 << 31), (1 << 31) - 1), None,
)
"""A mixed draw pattern: ``(low, high)`` for ``integers``, ``None`` for
``random``; width-1 ranges, full 32-bit ranges and ranges that reject
about half of their draws included."""

_stream_verified = False


def _verify_exact_stream() -> None:
    """Fail loudly, once per process, if the emulated draws leave numpy's.

    A numpy release that changes ``Generator.integers`` or ``random``
    would otherwise change every placement without an error.
    """
    global _stream_verified
    if _stream_verified:
        return
    reference = np.random.default_rng(_GUARD_SEED)
    mirror = np.random.default_rng(_GUARD_SEED)
    # Start with a buffered 32-bit half, as the anneal does after its shuffle.
    reference.integers(0, 7)
    mirror.integers(0, 7)
    stream = _ExactStream(mirror)
    for i in range(64):
        bounds = _GUARD_DRAWS[i % len(_GUARD_DRAWS)]
        if bounds is None:
            expected, got = float(reference.random()), stream.random()
        else:
            expected = int(reference.integers(*bounds))
            got = stream.integers(*bounds)
        if got != expected:
            raise RuntimeError(
                f"exact-stream draw {i} ({bounds or 'random'}) gave {got!r}, "
                f"numpy {np.__version__} gives {expected!r}: the anneal's "
                f"random stream no longer matches numpy's Generator"
            )
    _stream_verified = True


class PlacementIntegrityError(RuntimeError):
    """Incrementally-maintained anneal cost drifted from the true cost.

    Raised instead of silently annealing a stale objective; indicates a
    bug in the incremental bookkeeping (HPWL or thermal proxy), never a
    property of the design."""


@dataclass
class Placement:
    """Cluster locations plus per-tile occupancy."""

    layout: FabricLayout
    location: Dict[int, Tuple[int, int]]
    """cluster id -> (x, y)."""
    occupants: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)
    thermal_stats: Optional[ThermalPlaceStats] = None
    """Proxy/calibration telemetry when thermal-aware (``None`` otherwise)."""
    anneal_levels: int = 0
    """Temperature levels the anneal ran."""
    anneal_moves: int = 0
    """Moves proposed over those levels (initial-temperature samples not
    counted)."""

    def tile_of_cluster(self, cluster_id: int) -> Tuple[int, int]:
        return self.location[cluster_id]

    def validate(self, packed: PackedNetlist) -> None:
        for cluster in packed.clusters:
            if cluster.id not in self.location:
                raise ValueError(f"cluster {cluster.id} not placed")
            x, y = self.location[cluster.id]
            tile = self.layout.tile(x, y)
            if tile.type != cluster.type:
                raise ValueError(
                    f"cluster {cluster.id} ({cluster.type.value}) placed on "
                    f"{tile.type.value} tile ({x}, {y})"
                )
        for key, occupants in self.occupants.items():
            cap = self.layout.tile(*key).capacity
            if len(occupants) > cap:
                raise ValueError(
                    f"tile {key} over capacity: {len(occupants)} > {cap}"
                )


def place(
    packed: PackedNetlist,
    layout: FabricLayout,
    seed: int = 7,
    effort: float = 1.0,
    net_weights: Optional[Dict[int, float]] = None,
    thermal_weight: float = 0.0,
    activity: Optional[ActivityEstimate] = None,
) -> Placement:
    """Anneal the clusters of ``packed`` onto ``layout``.

    ``effort`` scales the number of moves per temperature (1.0 is the
    VPR-like default; tests use less).  ``net_weights`` (netlist net id ->
    weight) enables timing-driven placement: weighted half-perimeter
    wirelength pulls timing-critical nets short at the expense of slack-rich
    ones (see :mod:`repro.cad.criticality`).

    ``thermal_weight`` blends the incremental thermal proxy of
    :mod:`repro.cad.thermal_place` into the objective: the thermal term
    is normalised so that at weight ``w`` it contributes ``w`` times the
    initial wirelength cost.  The proxy is calibrated against the real
    thermal solver once per temperature level.  ``activity`` supplies the
    per-net switching activities the proxy's density map is built from
    (estimated from the netlist when omitted).  ``thermal_weight=0``
    bypasses the proxy entirely and is bit-identical to the legacy
    wirelength-only placer.
    """
    if not (math.isfinite(thermal_weight) and thermal_weight >= 0.0):
        raise ValueError(
            f"thermal_weight must be finite and >= 0, got {thermal_weight}"
        )
    rng = np.random.default_rng(seed)
    placement = _initial_placement(packed, layout, rng)
    nets = _placement_nets(packed, net_weights)
    if not nets or len(packed.clusters) <= 1:
        placement.validate(packed)
        return placement
    _verify_exact_stream()
    stream = _ExactStream(rng)

    # net_cost[i] is _net_hpwl of net i at the current placement, kept in
    # step by every applied move, so a proposal prices only the moved side.
    net_cost = [_net_hpwl(net, placement.location) for net in nets]
    hpwl = sum(net_cost)
    nets_of_cluster: Dict[int, List[int]] = {}
    for net_index, (_weight, clusters) in enumerate(nets):
        for cluster_id in clusters:
            nets_of_cluster.setdefault(cluster_id, []).append(net_index)

    proxy: Optional[ThermalProxy] = None
    if thermal_weight > 0.0:
        if activity is None:
            activity = estimate_activity(packed.netlist)
        proxy = ThermalProxy(layout, packed, activity, placement.location)
        proxy.calibrate(force=True)
        # Normalise: at weight w the thermal term starts at w x the
        # initial wirelength cost, so w is a dimensionless blend knob.
        proxy.weight = thermal_weight * hpwl / max(proxy.raw_cost, 1e-12)

    movable = [c.id for c in packed.clusters]
    n = len(movable)
    moves_per_t = max(16, int(effort * 5 * n**1.33))
    # Initial temperature: VPR heuristic — std-dev of a random-move sample.
    # The sampling moves are applied (as VPR does); their summed HPWL delta
    # keeps the tracked hpwl true for the integrity guard.
    hpwl0 = hpwl
    t, sampled_delta = _initial_temperature(
        packed, layout, placement, nets, net_cost, nets_of_cluster, stream,
        proxy,
    )
    hpwl += sampled_delta
    # Termination-threshold baseline: the legacy placer seeded ``cost``
    # before the sampling moves and never resynced, so thermal_weight=0
    # must keep that exact baseline to stay bit-identical.
    cost = hpwl0 if proxy is None else hpwl + proxy.weighted_cost()
    range_limit = float(max(layout.width, layout.height))

    random = stream.random
    levels = 0
    while t > 0.002 * max(cost, 1e-9) / max(len(nets), 1):
        accepted = 0
        for _ in range(moves_per_t):
            delta, hpwl_delta, apply_move = _propose(
                packed, layout, placement, nets, net_cost, nets_of_cluster,
                stream, range_limit, proxy,
            )
            if apply_move is None:
                continue
            if delta <= 0 or random() < math.exp(-delta / max(t, 1e-30)):
                apply_move()
                cost += delta
                hpwl += hpwl_delta
                accepted += 1
        rate = accepted / moves_per_t
        observe.event(
            "place.level", level=levels, t=t, acceptance=rate,
            range_limit=range_limit, cost=cost,
        )
        # VPR schedule: cool slowly in the productive 15-80 % band.
        if rate > 0.96:
            alpha = 0.5
        elif rate > 0.8:
            alpha = 0.9
        elif rate > 0.15:
            alpha = 0.95
        else:
            alpha = 0.8
        t *= alpha
        range_limit = _shrunk_range_limit(
            range_limit, rate, max(layout.width, layout.height)
        )
        levels += 1
        if proxy is not None:
            # One real solve per level: splu is factored once, each
            # calibration is a cheap back-substitution.
            proxy.calibrate()
        if levels % INTEGRITY_CHECK_INTERVAL == 0:
            _check_cost_integrity(hpwl, nets, placement.location, proxy)

    _check_cost_integrity(hpwl, nets, placement.location, proxy)
    if proxy is not None:
        proxy.calibrate()
        placement.thermal_stats = proxy.stats(thermal_weight)
    placement.anneal_levels = levels
    placement.anneal_moves = levels * moves_per_t
    placement.validate(packed)
    return placement


def _shrunk_range_limit(
    range_limit: float, rate: float, max_dim: int | float
) -> float:
    """Next move-window radius from this level's acceptance rate.

    VPR's schedule: the window shrinks while acceptance is below 44 %
    and re-expands (clamped to the die) when moves are mostly accepted,
    holding the anneal near the productive acceptance band.
    """
    return min(
        float(max_dim),
        max(1.0, range_limit * (1.0 - 0.44 + rate)),
    )


def _check_cost_integrity(
    tracked_hpwl: float,
    nets: List[Tuple[float, List[int]]],
    location: Dict[int, Tuple[int, int]],
    proxy: Optional[ThermalProxy],
) -> None:
    """Fail loudly if the incremental cost drifted from a full recompute."""
    full_hpwl = sum(_net_hpwl(net, location) for net in nets)
    tolerance = _INTEGRITY_REL_TOL * max(1.0, abs(full_hpwl))
    if abs(tracked_hpwl - full_hpwl) > tolerance:
        raise PlacementIntegrityError(
            f"incremental HPWL {tracked_hpwl!r} drifted from recomputed "
            f"{full_hpwl!r} (tolerance {tolerance:g})"
        )
    if proxy is not None:
        full_raw = proxy.full_raw_cost()
        tolerance = _INTEGRITY_REL_TOL * max(1.0, abs(full_raw))
        if abs(proxy.raw_cost - full_raw) > tolerance:
            raise PlacementIntegrityError(
                f"incremental thermal proxy cost {proxy.raw_cost!r} drifted "
                f"from recomputed {full_raw!r} (tolerance {tolerance:g})"
            )


def _initial_placement(
    packed: PackedNetlist, layout: FabricLayout, rng: np.random.Generator
) -> Placement:
    location: Dict[int, Tuple[int, int]] = {}
    occupants: Dict[Tuple[int, int], List[int]] = {}
    slots: Dict[TileType, List[Tuple[int, int]]] = {}
    for tile in layout.tiles():
        for _ in range(tile.capacity):
            slots.setdefault(tile.type, []).append((tile.x, tile.y))
    for type_, available in slots.items():
        rng.shuffle(available)
    cursor: Dict[TileType, int] = {t: 0 for t in slots}
    for cluster in packed.clusters:
        pool = slots.get(cluster.type, [])
        index = cursor.get(cluster.type, 0)
        if index >= len(pool):
            raise ValueError(
                f"not enough {cluster.type.value} tiles for cluster {cluster.id}"
            )
        xy = pool[index]
        cursor[cluster.type] = index + 1
        location[cluster.id] = xy
        occupants.setdefault(xy, []).append(cluster.id)
    return Placement(layout, location, occupants)


def _placement_nets(
    packed: PackedNetlist, net_weights: Optional[Dict[int, float]] = None
) -> List[Tuple[float, List[int]]]:
    """(weight, cluster ids) per net (single-cluster nets dropped)."""
    nets: List[Tuple[float, List[int]]] = []
    for net in packed.netlist.nets:
        clusters: Set[int] = {packed.cluster_of_block[net.driver]}
        clusters |= {packed.cluster_of_block[s] for s in net.sinks}
        if len(clusters) > 1:
            weight = 1.0 if net_weights is None else net_weights.get(net.id, 1.0)
            nets.append((weight, sorted(clusters)))
    return nets


def _net_hpwl(
    net: Tuple[float, List[int]],
    location: Dict[int, Tuple[int, int]],
    overlay: Optional[Dict[int, Tuple[int, int]]] = None,
) -> float:
    """Weighted half-perimeter wirelength of one net.

    ``overlay`` (cluster id -> trial location) takes precedence over
    ``location``: a proposed move is priced without copying the placement.
    """
    weight, clusters = net
    if len(clusters) == 2:
        # Most nets join two clusters.  |dx| + |dy| is the same integer as
        # the bounding-box form below, so the result is bit-identical.
        a, b = clusters
        if overlay is None:
            (xa, ya), (xb, yb) = location[a], location[b]
        else:
            xa, ya = overlay[a] if a in overlay else location[a]
            xb, yb = overlay[b] if b in overlay else location[b]
        return weight * (abs(xa - xb) + abs(ya - yb))
    if overlay is None:
        xs, ys = zip(*[location[c] for c in clusters])
    else:
        xs, ys = zip(*[
            overlay[c] if c in overlay else location[c] for c in clusters
        ])
    return weight * ((max(xs) - min(xs)) + (max(ys) - min(ys)))


def _initial_temperature(
    packed, layout, placement, nets, net_cost, nets_of_cluster, stream,
    proxy=None,
):
    """(initial T, summed HPWL delta of the applied sampling moves)."""
    deltas = []
    applied_hpwl = 0.0
    for _ in range(min(200, 10 * len(packed.clusters))):
        delta, hpwl_delta, apply_move = _propose(
            packed, layout, placement, nets, net_cost, nets_of_cluster, stream,
            float(max(layout.width, layout.height)), proxy,
        )
        if apply_move is not None:
            apply_move()  # VPR applies the sampling moves too
            deltas.append(delta)
            applied_hpwl += hpwl_delta
    if not deltas:
        return 1.0, applied_hpwl
    return 20.0 * float(np.std(deltas)) + 1e-9, applied_hpwl


def _propose(
    packed, layout, placement, nets, net_cost, nets_of_cluster, stream,
    range_limit, proxy=None,
):
    """Propose a move; returns (delta_cost, delta_hpwl, apply | None).

    ``delta_cost`` is the blended objective change (HPWL plus the
    weighted thermal proxy term when one is active); ``delta_hpwl`` is
    its wirelength component alone, for the integrity guard's separate
    HPWL tracking.
    """
    location = placement.location
    integers = stream.integers
    cluster = packed.clusters[integers(0, len(packed.clusters))]
    x0, y0 = location[cluster.id]
    limit = max(1, int(range_limit))
    # These draws are the anneal's random stream: their order and bounds
    # decide every placement (pinned by tests/data/golden_placements.json).
    x1 = min(max(x0 + integers(-limit, limit + 1), 0), layout.width - 1)
    y1 = min(max(y0 + integers(-limit, limit + 1), 0), layout.height - 1)
    if (x1, y1) == (x0, y0):
        return 0.0, 0.0, None
    target = layout.tile(x1, y1)
    if target.type != cluster.type:
        return 0.0, 0.0, None

    occupants = placement.occupants.setdefault((x1, y1), [])
    swap_with: Optional[int] = None
    if len(occupants) >= target.capacity:
        swap_with = occupants[integers(0, len(occupants))]

    moved = [(cluster.id, (x0, y0), (x1, y1))]
    if swap_with is not None:
        moved.append((swap_with, (x1, y1), (x0, y0)))

    # Keep this construction: with timing weights the float sums below
    # depend on the set's iteration order.
    affected: Set[int] = set()
    for cluster_id, _old, _new in moved:
        affected |= set(nets_of_cluster.get(cluster_id, ()))
    trial = {cluster_id: new for cluster_id, _old, new in moved}
    trial_cost = {i: _net_hpwl(nets[i], location, trial) for i in affected}
    before = sum([net_cost[i] for i in affected])
    after = sum(trial_cost.values())
    delta = after - before
    hpwl_delta = delta
    if proxy is not None:
        delta = hpwl_delta + proxy.delta_for(moved)

    def apply_move() -> None:
        for cluster_id, old, new in moved:
            placement.location[cluster_id] = new
            placement.occupants[old].remove(cluster_id)
            placement.occupants.setdefault(new, []).append(cluster_id)
        for i, cost in trial_cost.items():
            net_cost[i] = cost
        if proxy is not None:
            proxy.apply(moved)

    return delta, hpwl_delta, apply_move
