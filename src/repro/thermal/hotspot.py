"""Steady-state grid thermal solver (HotSpot stand-in).

One thermal node per FPGA tile (paper footnote 2: "an FPGA tile comprises a
logic cluster (or other hard-cores) and its neighboring routing
resources").  Energy balance per tile::

    sum_j g_lat (T_j - T_i) + g_vert (T_amb - T_i) + P_i = 0

assembled as a sparse SPD system, LU-factorized **once** at construction
and back-substituted on every call.  Algorithm 1 (line 7) calls
:meth:`ThermalSolver.solve` once per iteration with the updated per-tile
power vector, so the factorization is the difference between an
``O(n^1.5)`` sparse solve per iteration and two triangular solves — the
same trick HotSpot uses for its steady-state grid model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix, lil_matrix
from scipy.sparse.linalg import splu, spsolve

from repro import observe
from repro.arch.layout import FabricLayout
from repro.thermal.package import ThermalPackage


class ThermalSolver:
    """Pre-factored steady-state solver for one layout/package pair.

    Immutable once built: ``solve`` only back-substitutes, and the
    conductance matrix's arrays are read-only.
    """

    def __init__(
        self,
        layout: FabricLayout,
        package: Optional[ThermalPackage] = None,
    ):
        self.layout = layout
        self.package = package or ThermalPackage()
        n = layout.n_tiles
        g_lat = self.package.g_lateral_w_per_k
        g_vert = self.package.g_vertical_w_per_k

        with observe.span("thermal.factorize", n_tiles=n):
            matrix = lil_matrix((n, n))
            for tile in layout.tiles():
                i = layout.tile_index(tile.x, tile.y)
                diag = g_vert
                for nx, ny in layout.neighbors(tile.x, tile.y):
                    j = layout.tile_index(nx, ny)
                    matrix[i, j] = -g_lat
                    diag += g_lat
                matrix[i, i] = diag
            self._conductance = csr_matrix(matrix)
            # One-time LU factorization; solve() is two triangular solves.
            self._factor = splu(self._conductance.tocsc())
        # Read-only, so one solver can serve every Algorithm 1 run over
        # its layout (see repro.core.inputs).
        for array in (
            self._conductance.data,
            self._conductance.indices,
            self._conductance.indptr,
        ):
            array.flags.writeable = False

    def _check_power(self, power_w) -> np.ndarray:
        power_w = np.asarray(power_w, dtype=float)
        n = self.layout.n_tiles
        if power_w.shape != (n,):
            raise ValueError(
                f"power vector shape {power_w.shape} != ({n},); the solver "
                "takes a single per-tile power vector"
            )
        if np.any(power_w < 0.0):
            raise ValueError("negative tile power")
        return power_w

    def solve(self, power_w: np.ndarray, t_ambient: float) -> np.ndarray:
        """Steady-state tile temperatures (Celsius) for a power vector (W)."""
        observe.counter("thermal.solves").inc()
        power_w = self._check_power(power_w)
        rhs = power_w + self.package.g_vertical_w_per_k * float(t_ambient)
        return np.asarray(self._factor.solve(rhs))

    def solve_unfactored(self, power_w: np.ndarray, t_ambient: float) -> np.ndarray:
        """Seed reference path: full ``spsolve`` from scratch every call.

        Kept for the equivalence tests and the hot-loop benchmark's
        baseline (see :mod:`repro.core.reference`).
        """
        power_w = self._check_power(power_w)
        rhs = power_w + self.package.g_vertical_w_per_k * t_ambient
        return np.asarray(spsolve(self._conductance, rhs))

    def average_rise(self, power_w: np.ndarray, t_ambient: float) -> float:
        """Mean die temperature rise above ambient, Celsius."""
        return float(self.solve(power_w, t_ambient).mean() - t_ambient)


def xpe_cross_validation(
    design_power_w: float,
    base_power_w: float,
    coefficient: float = 0.7,
) -> float:
    """Xilinx-Power-Estimator-style sanity check (paper Sec. IV-A).

    The paper cross-validates its thermal simulations against the XPE
    spreadsheet's sensitivity: ``dT ~= 0.7 * p_design / p_base``.  Returns
    the predicted average temperature rise in Celsius.
    """
    if base_power_w <= 0.0:
        raise ValueError("base (leakage) power must be positive")
    return coefficient * design_power_w / base_power_w
