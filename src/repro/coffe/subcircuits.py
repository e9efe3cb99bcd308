"""Sizable subcircuit models of the FPGA soft fabric.

Every resource of paper Table II is modelled as an Elmore-delay RC network
whose resistances come from the alpha-power device model
(:mod:`repro.spice.devices`) evaluated at the operating temperature.  The
models therefore expose exactly the knobs the paper's flow exploits:

- transistor widths (the sizing variables COFFE optimizes at a design
  corner),
- the operating temperature (delay and leakage of the *same* sizing move
  with T),
- circuit structure (pass-transistor trees vs. large velocity-saturated
  routing drivers vs. metal wire RC), which is what differentiates the
  temperature sensitivity of the resources in paper Fig. 1 — e.g. the SB mux
  drives a long length-4 metal wire and is the least sensitive, while the
  LUT is a pure minimum-size pass-transistor tree and is the most sensitive.

Device variants: large routing drivers operate deep in velocity saturation,
where the effective mobility exponent is much smaller (drift velocity ~
T^-1) than for minimum-size devices dominated by phonon-scattering mobility
(~ T^-2 .. T^-2.3).  We encode this as per-role variants of the HP device.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Tuple, Union

from repro.arch.params import ArchParams
from repro.spice.devices import (
    drain_capacitance,
    effective_resistance,
    gate_capacitance,
    leakage_current,
    pass_gate_resistance,
)
from repro.technology.ptm22 import HP_NMOS, HP_PMOS, DeviceParams
from repro.technology.temperature import T_REFERENCE_K, celsius_to_kelvin

if TYPE_CHECKING:
    from repro.coffe.characterize import CircuitKey

PN_RATIO = 1.8
"""PMOS/NMOS width ratio of inverters."""

PASS_BODY_FACTOR = 1.25
"""Body-effect threshold increase factor for pass transistors."""

WIRE_TEMPCO_PER_K = 0.0039
"""Copper resistance temperature coefficient, 1/K (relative to 25 C)."""

TRANSISTOR_AREA_BASE_UM2 = 0.035
TRANSISTOR_AREA_PER_W_UM2 = 0.020
SRAM_CELL_AREA_UM2 = 0.18

# Device variants by circuit role (see module docstring).
PASS_ROUTING = HP_NMOS.scaled(name="hp_nmos_pass", mu_exp=2.00)
PASS_LUT = HP_NMOS.scaled(name="hp_nmos_lut_pass", mu_exp=2.30)
DRIVER_ROUTING = HP_NMOS.scaled(name="hp_nmos_rdrv", mu_exp=0.95, alpha=1.05)
DRIVER_MEDIUM = HP_NMOS.scaled(name="hp_nmos_mdrv", mu_exp=1.50, alpha=1.15)
LOGIC_MIN = HP_NMOS.scaled(name="hp_nmos_logic", mu_exp=2.15)
LOGIC_MIN_P = HP_PMOS.scaled(name="hp_pmos_logic", mu_exp=2.10)
PASS_TGATE = HP_NMOS.scaled(name="hp_tgate", mu_exp=1.00)
"""Effective device of a CMOS transmission gate: the complementary PMOS
covers the NMOS's weak (body-affected, low-overdrive) region, so the pair's
resistance is much flatter over temperature than an NMOS-only pass gate."""

TGATE_COLD_PENALTY = 1.05
"""Transmission-gate resistance at 0 C relative to an equal-width NMOS pass
gate, folding in the PMOS's extra diffusion load.  At elevated temperatures
the flatter temperature curve wins: the design corner decides which topology
COFFE picks, which is a first-order contributor to the corner-optimized
fabric differences of paper Figs. 2-3."""

TGATE_AREA_FACTOR = 1.25
"""Area factor of a transmission gate vs. an NMOS pass.  The complementary
PMOS folds into the same diffusion strip and reuses the existing SRAM
complement output, so the layout cost is far below 2x."""

TGATE_LEAK_FACTOR = 1.6
"""Off-state leakage factor of a transmission gate vs. an NMOS pass."""

PASS_STYLES = ("nmos", "tgate")


@dataclass(frozen=True)
class WireLoad:
    """Lumped metal wire: total resistance and capacitance at 25 Celsius."""

    resistance_ohms: float
    capacitance_farads: float

    def resistance_at(self, t_kelvin: float) -> float:
        """Wire resistance with the copper temperature coefficient applied."""
        return self.resistance_ohms * (
            1.0 + WIRE_TEMPCO_PER_K * (t_kelvin - T_REFERENCE_K)
        )


NO_WIRE = WireLoad(0.0, 0.0)


def transistor_area_um2(width: float) -> float:
    """Layout area of one transistor of the given width, square micrometres."""
    return TRANSISTOR_AREA_BASE_UM2 + TRANSISTOR_AREA_PER_W_UM2 * width


def inverter_input_cap(device: DeviceParams, width: float) -> float:
    """Input capacitance of an inverter with NMOS width ``width``."""
    return gate_capacitance(device, width) * (1.0 + PN_RATIO)


def inverter_output_cap(device: DeviceParams, width: float) -> float:
    """Self (drain) capacitance of an inverter with NMOS width ``width``."""
    return drain_capacitance(device, width) * (1.0 + PN_RATIO)


def tgate_resistance(vdd: float, width: float, t_kelvin: float) -> float:
    """Effective resistance of a transmission gate, ohms.

    Anchored at ``TGATE_COLD_PENALTY`` times the equal-width NMOS pass gate
    at 0 Celsius, with the (flat) temperature shape of :data:`PASS_TGATE`.
    """
    t_cold = celsius_to_kelvin(0.0)
    r_nmos_cold = pass_gate_resistance(PASS_ROUTING, vdd, width, t_cold)
    shape = pass_gate_resistance(
        PASS_TGATE, vdd, width, t_kelvin, body_factor=1.0
    ) / pass_gate_resistance(PASS_TGATE, vdd, width, t_cold, body_factor=1.0)
    return TGATE_COLD_PENALTY * r_nmos_cold * shape


def inverter_leakage(
    device: DeviceParams, width: float, vdd: float, t_kelvin: float
) -> float:
    """Average leakage power of one inverter, watts.

    Half the time the NMOS leaks, half the time the (PN_RATIO-wide) PMOS;
    we fold both into the NMOS off-current for simplicity.
    """
    i_off = leakage_current(device, vdd, width, t_kelvin)
    return 0.5 * (1.0 + PN_RATIO) * i_off * vdd


class SizableCircuit(ABC):
    """A transistor-sizable FPGA subcircuit.

    ``sizes`` maps sizing-variable names to widths in minimum-width units.
    """

    name: str
    vdd: float

    @property
    @abstractmethod
    def size_names(self) -> Tuple[str, ...]:
        """Names of the sizing variables."""

    @property
    @abstractmethod
    def default_sizes(self) -> Dict[str, float]:
        """Starting point for the sizing optimizer."""

    @abstractmethod
    def delay_seconds(self, sizes: Mapping[str, float], t_kelvin: float) -> float:
        """Propagation delay through the subcircuit at temperature ``t_kelvin``."""

    @abstractmethod
    def area_um2(self, sizes: Mapping[str, float]) -> float:
        """Layout area, square micrometres."""

    @abstractmethod
    def leakage_watts(self, sizes: Mapping[str, float], t_kelvin: float) -> float:
        """Static power at temperature ``t_kelvin``."""

    @abstractmethod
    def switched_cap_farads(self, sizes: Mapping[str, float]) -> float:
        """Total capacitance toggled per output transition (dynamic energy)."""

    def variants(self) -> Tuple["SizableCircuit", ...]:
        """Topology alternatives the corner optimizer may choose between."""
        return (self,)

    def design_delay_seconds(
        self, sizes: Mapping[str, float], t_kelvin: float
    ) -> float:
        """Delay as the *design-time* optimizer evaluates it.

        Defaults to the nominal delay; circuits whose design must absorb
        worst-case (e.g. weakest Monte-Carlo SRAM cell) pessimism override
        this — the pessimism shapes the corner's sizing/topology decisions
        without appearing in the characterized nominal behaviour.
        """
        return self.delay_seconds(sizes, t_kelvin)

    def validate_sizes(self, sizes: Mapping[str, float]) -> None:
        for name in self.size_names:
            if name not in sizes:
                raise KeyError(f"{self.name}: missing sizing variable {name!r}")
            if sizes[name] <= 0.0:
                raise ValueError(f"{self.name}: size {name!r} must be positive")


def _two_level_split(n_inputs: int) -> Tuple[int, int]:
    """COFFE-style two-level mux decomposition sizes (level1, level2)."""
    n1 = max(2, int(math.ceil(math.sqrt(n_inputs))))
    n2 = int(math.ceil(n_inputs / n1))
    return n1, n2


class MuxModel(SizableCircuit):
    """Two-level pass-transistor multiplexer with a two-stage output buffer.

    Structure (paper Fig. 4d): an ``n1 x n2`` NMOS pass tree selected by
    one-hot SRAM cells, followed by an inverter pair that restores the level
    and drives the load (metal wire plus downstream input capacitance).
    """

    def __init__(
        self,
        name: str,
        n_inputs: int,
        vdd: float,
        wire: WireLoad = NO_WIRE,
        fanout_cap_farads: float = 0.0,
        pass_device: DeviceParams = PASS_ROUTING,
        driver_device: DeviceParams = DRIVER_MEDIUM,
        pass_style: str = "nmos",
    ):
        if n_inputs < 2:
            raise ValueError(f"{name}: mux needs >= 2 inputs, got {n_inputs}")
        if pass_style not in PASS_STYLES:
            raise ValueError(f"{name}: unknown pass style {pass_style!r}")
        self.name = name
        self.n_inputs = n_inputs
        self.vdd = vdd
        self.wire = wire
        self.fanout_cap_farads = fanout_cap_farads
        self.pass_device = pass_device
        self.driver_device = driver_device
        self.pass_style = pass_style
        self.level1, self.level2 = _two_level_split(n_inputs)

    def variants(self) -> Tuple["SizableCircuit", ...]:
        return tuple(
            MuxModel(
                self.name,
                self.n_inputs,
                self.vdd,
                wire=self.wire,
                fanout_cap_farads=self.fanout_cap_farads,
                pass_device=self.pass_device,
                driver_device=self.driver_device,
                pass_style=style,
            )
            for style in PASS_STYLES
        )

    def _pass_resistance(self, width: float, t_kelvin: float) -> float:
        if self.pass_style == "tgate":
            return tgate_resistance(self.vdd, width, t_kelvin)
        return pass_gate_resistance(
            self.pass_device, self.vdd, width, t_kelvin, PASS_BODY_FACTOR
        )

    @property
    def size_names(self) -> Tuple[str, ...]:
        return ("w_pass", "w_inv1", "w_inv2")

    @property
    def default_sizes(self) -> Dict[str, float]:
        return {"w_pass": 2.0, "w_inv1": 3.0, "w_inv2": 10.0}

    @property
    def n_sram_cells(self) -> int:
        return self.level1 + self.level2

    def delay_seconds(self, sizes: Mapping[str, float], t_kelvin: float) -> float:
        self.validate_sizes(sizes)
        w_p = sizes["w_pass"]
        w_1 = sizes["w_inv1"]
        w_2 = sizes["w_inv2"]
        r_pass = self._pass_resistance(w_p, t_kelvin)
        c_d_pass = drain_capacitance(self.pass_device, w_p)
        # Node between the two pass levels: the selected group's level-1
        # drains merge there, plus the level-2 device's source diffusion.
        c_group = self.level1 * c_d_pass + c_d_pass
        # Mux output node: level-2 drains plus the buffer input.
        c_out = self.level2 * c_d_pass + inverter_input_cap(self.driver_device, w_1)
        t_pass = r_pass * (c_group + c_out) + r_pass * c_out

        r_1 = effective_resistance(self.driver_device, self.vdd, w_1, t_kelvin)
        t_inv1 = r_1 * (
            inverter_output_cap(self.driver_device, w_1)
            + inverter_input_cap(self.driver_device, w_2)
        )

        r_2 = effective_resistance(self.driver_device, self.vdd, w_2, t_kelvin)
        c_load = self.fanout_cap_farads + self.wire.capacitance_farads
        t_inv2 = r_2 * (inverter_output_cap(self.driver_device, w_2) + c_load)
        t_wire = self.wire.resistance_at(t_kelvin) * (
            self.wire.capacitance_farads / 2.0 + self.fanout_cap_farads
        )
        return t_pass + t_inv1 + t_inv2 + t_wire

    def area_um2(self, sizes: Mapping[str, float]) -> float:
        self.validate_sizes(sizes)
        pass_area = self.n_inputs * transistor_area_um2(sizes["w_pass"])
        # Level-2 pass devices sit on the group nodes.
        pass_area += self.level2 * transistor_area_um2(sizes["w_pass"])
        if self.pass_style == "tgate":
            pass_area *= TGATE_AREA_FACTOR
        buf_area = (1.0 + PN_RATIO) * (
            transistor_area_um2(sizes["w_inv1"]) + transistor_area_um2(sizes["w_inv2"])
        )
        sram_area = self.n_sram_cells * SRAM_CELL_AREA_UM2
        return pass_area + buf_area + sram_area

    def leakage_watts(self, sizes: Mapping[str, float], t_kelvin: float) -> float:
        self.validate_sizes(sizes)
        # Unselected pass transistors leak; on average half of them block a
        # full-rail difference.
        n_off = self.n_inputs - 1 + self.level2 - 1
        i_pass = leakage_current(self.pass_device, self.vdd, sizes["w_pass"], t_kelvin)
        if self.pass_style == "tgate":
            i_pass *= TGATE_LEAK_FACTOR
        p_pass = 0.5 * n_off * i_pass * self.vdd
        p_buf = inverter_leakage(
            self.driver_device, sizes["w_inv1"], self.vdd, t_kelvin
        ) + inverter_leakage(self.driver_device, sizes["w_inv2"], self.vdd, t_kelvin)
        return p_pass + p_buf

    def switched_cap_farads(self, sizes: Mapping[str, float]) -> float:
        self.validate_sizes(sizes)
        w_p = sizes["w_pass"]
        c_d_pass = drain_capacitance(self.pass_device, w_p)
        c_internal = (self.level1 + self.level2 + 1) * c_d_pass
        c_buffers = (
            inverter_input_cap(self.driver_device, sizes["w_inv1"])
            + inverter_output_cap(self.driver_device, sizes["w_inv1"])
            + inverter_input_cap(self.driver_device, sizes["w_inv2"])
            + inverter_output_cap(self.driver_device, sizes["w_inv2"])
        )
        return (
            c_internal
            + c_buffers
            + self.wire.capacitance_farads
            + self.fanout_cap_farads
        )


class LutModel(SizableCircuit):
    """K-input LUT: a 2^K pass-transistor tree with a mid-tree buffer.

    The critical (A-input) path traverses all K pass levels.  A buffer is
    inserted after level ``ceil(K/2)`` (as COFFE does) and an output buffer
    drives the BLE feedback/output muxes.  All devices are minimum-size-class
    (strong phonon-limited mobility temperature dependence), which is what
    makes the LUT the most temperature-sensitive soft resource (paper: +69 %
    over 0..100 C vs. +39 % for the SB).
    """

    def __init__(
        self,
        name: str,
        k: int,
        vdd: float,
        fanout_cap_farads: float = 0.0,
        pass_device: DeviceParams = PASS_LUT,
        buffer_device: DeviceParams = LOGIC_MIN,
        pass_style: str = "nmos",
    ):
        if k < 2:
            raise ValueError(f"{name}: LUT size must be >= 2, got {k}")
        if pass_style not in PASS_STYLES:
            raise ValueError(f"{name}: unknown pass style {pass_style!r}")
        self.name = name
        self.k = k
        self.vdd = vdd
        self.fanout_cap_farads = fanout_cap_farads
        self.pass_device = pass_device
        self.buffer_device = buffer_device
        self.pass_style = pass_style
        self.first_half = (k + 1) // 2
        self.second_half = k - self.first_half

    def variants(self) -> Tuple["SizableCircuit", ...]:
        return tuple(
            LutModel(
                self.name,
                self.k,
                self.vdd,
                fanout_cap_farads=self.fanout_cap_farads,
                pass_device=self.pass_device,
                buffer_device=self.buffer_device,
                pass_style=style,
            )
            for style in PASS_STYLES
        )

    @property
    def size_names(self) -> Tuple[str, ...]:
        return ("w_pass", "w_mid", "w_out")

    @property
    def default_sizes(self) -> Dict[str, float]:
        return {"w_pass": 1.5, "w_mid": 2.5, "w_out": 4.0}

    def _tree_delay(
        self, levels: int, w_pass: float, c_end: float, t_kelvin: float
    ) -> float:
        """Elmore delay of ``levels`` chained pass transistors.

        Each internal node carries the two merging drain diffusions of the
        level below; the final node additionally carries ``c_end``.
        """
        if self.pass_style == "tgate":
            r_p = tgate_resistance(self.vdd, w_pass, t_kelvin)
        else:
            r_p = pass_gate_resistance(
                self.pass_device, self.vdd, w_pass, t_kelvin, PASS_BODY_FACTOR
            )
        c_node = 2.0 * drain_capacitance(self.pass_device, w_pass)
        # Elmore: node j (after the j-th pass device) sees resistance j*R.
        total = 0.0
        for j in range(1, levels + 1):
            c_here = c_node + (c_end if j == levels else 0.0)
            total += j * r_p * c_here
        return total

    def delay_seconds(self, sizes: Mapping[str, float], t_kelvin: float) -> float:
        self.validate_sizes(sizes)
        w_p, w_m, w_o = sizes["w_pass"], sizes["w_mid"], sizes["w_out"]
        c_mid_in = inverter_input_cap(self.buffer_device, w_m)
        t_tree1 = self._tree_delay(self.first_half, w_p, c_mid_in, t_kelvin)
        r_m = effective_resistance(self.buffer_device, self.vdd, w_m, t_kelvin)
        t_mid = r_m * (
            inverter_output_cap(self.buffer_device, w_m)
            + drain_capacitance(self.pass_device, w_p)
        )
        c_out_in = inverter_input_cap(self.buffer_device, w_o)
        t_tree2 = self._tree_delay(self.second_half, w_p, c_out_in, t_kelvin)
        r_o = effective_resistance(self.buffer_device, self.vdd, w_o, t_kelvin)
        t_out = r_o * (
            inverter_output_cap(self.buffer_device, w_o) + self.fanout_cap_farads
        )
        return t_tree1 + t_mid + t_tree2 + t_out

    def area_um2(self, sizes: Mapping[str, float]) -> float:
        self.validate_sizes(sizes)
        n_pass = 2 ** (self.k + 1) - 2  # full binary tree of pass devices
        pass_area = n_pass * transistor_area_um2(sizes["w_pass"])
        if self.pass_style == "tgate":
            pass_area *= TGATE_AREA_FACTOR
        buf_area = (1.0 + PN_RATIO) * (
            transistor_area_um2(sizes["w_mid"]) + transistor_area_um2(sizes["w_out"])
        )
        sram_area = (2**self.k) * SRAM_CELL_AREA_UM2
        return pass_area + buf_area + sram_area

    def leakage_watts(self, sizes: Mapping[str, float], t_kelvin: float) -> float:
        self.validate_sizes(sizes)
        # Roughly half the tree's pass transistors are off with full Vds.
        n_pass = 2 ** (self.k + 1) - 2
        i_pass = leakage_current(self.pass_device, self.vdd, sizes["w_pass"], t_kelvin)
        if self.pass_style == "tgate":
            i_pass *= TGATE_LEAK_FACTOR
        p_pass = 0.25 * n_pass * i_pass * self.vdd
        p_buf = inverter_leakage(
            self.buffer_device, sizes["w_mid"], self.vdd, t_kelvin
        ) + inverter_leakage(self.buffer_device, sizes["w_out"], self.vdd, t_kelvin)
        return p_pass + p_buf

    def switched_cap_farads(self, sizes: Mapping[str, float]) -> float:
        self.validate_sizes(sizes)
        c_node = 2.0 * drain_capacitance(self.pass_device, sizes["w_pass"])
        c_tree = self.k * c_node
        c_buffers = (
            inverter_input_cap(self.buffer_device, sizes["w_mid"])
            + inverter_output_cap(self.buffer_device, sizes["w_mid"])
            + inverter_input_cap(self.buffer_device, sizes["w_out"])
            + inverter_output_cap(self.buffer_device, sizes["w_out"])
        )
        return c_tree + c_buffers + self.fanout_cap_farads


def soft_fabric_circuits(
    arch: Union[ArchParams, CircuitKey],
) -> Dict[str, SizableCircuit]:
    """The six sizable soft-fabric resources of paper Table II.

    Reads ``lut_size``, the five mux sizes and ``vdd``: an
    :class:`~repro.arch.params.ArchParams` or its
    :class:`~repro.coffe.characterize.CircuitKey`.

    Wire loads and fanouts reflect the island-style structure: the SB mux
    drives a length-4 metal segment fanning out to downstream SB/CB muxes;
    the CB and local muxes drive short intra-cluster wires; the LUT drives
    the BLE output/feedback muxes.
    """
    vdd = arch.vdd
    c_in_pass = gate_capacitance(PASS_ROUTING, 2.0)  # typical downstream pin

    sb_wire = WireLoad(resistance_ohms=520.0, capacitance_farads=22e-15)
    cb_wire = WireLoad(resistance_ohms=120.0, capacitance_farads=4e-15)
    local_wire = WireLoad(resistance_ohms=40.0, capacitance_farads=1.2e-15)

    return {
        "sb_mux": MuxModel(
            "sb_mux",
            arch.sb_mux_size,
            vdd,
            wire=sb_wire,
            fanout_cap_farads=6.0 * c_in_pass,
            pass_device=PASS_ROUTING,
            driver_device=DRIVER_ROUTING,
        ),
        "cb_mux": MuxModel(
            "cb_mux",
            arch.cb_mux_size,
            vdd,
            wire=cb_wire,
            fanout_cap_farads=4.0 * c_in_pass,
            pass_device=PASS_ROUTING,
            driver_device=DRIVER_MEDIUM,
        ),
        "local_mux": MuxModel(
            "local_mux",
            arch.local_mux_size,
            vdd,
            wire=local_wire,
            fanout_cap_farads=2.0 * c_in_pass,
            pass_device=PASS_ROUTING,
            driver_device=DRIVER_MEDIUM,
        ),
        "feedback_mux": MuxModel(
            "feedback_mux",
            arch.feedback_mux_size,
            vdd,
            wire=local_wire,
            fanout_cap_farads=2.0 * c_in_pass,
            pass_device=PASS_ROUTING,
            driver_device=DRIVER_MEDIUM,
        ),
        "output_mux": MuxModel(
            "output_mux",
            arch.output_mux_size,
            vdd,
            wire=NO_WIRE,
            fanout_cap_farads=2.0 * c_in_pass,
            pass_device=PASS_ROUTING,
            driver_device=DRIVER_MEDIUM,
        ),
        "lut": LutModel(
            "lut",
            arch.lut_size,
            vdd,
            fanout_cap_farads=3.0 * c_in_pass,
        ),
    }
