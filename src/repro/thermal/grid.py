"""Cell-grid thermal model (HotSpot grid mode).

The paper's thermal library "calculates the temperature of each
tridimensional cell of the emulated MPSoC floorplan" (Sec. 4).  This
module rasterizes the floorplan into a regular grid of silicon cells,
builds the same kind of RC network as the block model — per-cell
vertical legs to the package, nearest-neighbour lateral legs, one
package-to-ambient leg — and exposes block-averaged readbacks, so the
grid model is a strict refinement of :mod:`repro.thermal.rc_network`:
cell parameters are derived from the *same* package constants, and the
two models must agree on block temperatures (validated in tests).

The experiments use the block model (13 nodes, exact integration at
negligible cost); the grid model serves validation, hotspot-location
analysis and the ``repro thermal-map`` visualization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.platform.floorplan import Floorplan
from repro.thermal.package import ThermalPackageParams
from repro.thermal.rc_network import PACKAGE_NODE, RCNetwork

#: Most cells a grid may have.  The network is a dense (cells + 1)^2
#: conductance matrix: 128 MB at 4,000 cells, with a steady-state
#: solve of about half a second; ``cell_mm=0.02`` on the preset die
#: (72,000 cells) would need 41 GB.
MAX_GRID_CELLS = 4_000


@dataclass(frozen=True)
class GridCell:
    """One silicon cell: grid indices, centre, and owning block."""

    ix: int
    iy: int
    x_mm: float
    y_mm: float
    block: str


class GridThermalModel:
    """A rasterized thermal model of the floorplan.

    Parameters
    ----------
    floorplan:
        The die geometry; blocks must tile the bounding box (cells whose
        centre falls outside every block are rejected — the preset
        floorplans are gapless).
    block_names:
        Block order for power vectors (must match the chip's order).
    params:
        The same package parameter set the block model uses.
    cell_mm:
        Cell edge length; the preset floorplans are multiples of 0.1 mm.
    """

    def __init__(self, floorplan: Floorplan, block_names: Sequence[str],
                 params: ThermalPackageParams, ambient_c: float = 35.0,
                 cell_mm: float = 0.2):
        if not 0 < cell_mm < math.inf:
            raise ValueError(f"cell_mm must be a finite number > 0, "
                             f"got {cell_mm!r}")
        self.floorplan = floorplan
        self.block_names = list(block_names)
        self.params = params
        self.cell_mm = float(cell_mm)
        bbox = floorplan.bounding_box
        across, up = bbox.w / cell_mm, bbox.h / cell_mm
        # Counted before anything is allocated; a subnormal cell size
        # gives an infinite ratio, which ``round`` rejects.
        n_cells = (max(1, round(across)) * max(1, round(up))
                   if across * up < math.inf else math.inf)
        if n_cells > MAX_GRID_CELLS:
            raise ValueError(f"cell_mm={cell_mm!r} gives {n_cells:,} grid "
                             f"cells; the budget is {MAX_GRID_CELLS:,}")
        self.nx, self.ny = max(1, round(across)), max(1, round(up))
        self._block_index = {n: i for i, n in enumerate(self.block_names)}

        self.cells: List[GridCell] = []
        grid_of: Dict[Tuple[int, int], int] = {}
        for iy in range(self.ny):
            for ix in range(self.nx):
                x = bbox.x + (ix + 0.5) * cell_mm
                y = bbox.y + (iy + 0.5) * cell_mm
                block = self._owning_block(x, y)
                if block is None:
                    raise ValueError(
                        f"cell centre ({x:.2f}, {y:.2f}) mm lies outside "
                        f"every block; grid model needs a gapless floorplan")
                grid_of[(ix, iy)] = len(self.cells)
                self.cells.append(GridCell(ix, iy, x, y, block))
        self._grid_of = grid_of
        self.network = self._build_network(ambient_c)
        self._dist, self._avg = self._build_maps()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _owning_block(self, x: float, y: float) -> Optional[str]:
        for name in self.block_names:
            r = self.floorplan.rect(name)
            if r.x <= x < r.x2 and r.y <= y < r.y2:
                return name
        return None

    def _build_network(self, ambient_c: float) -> RCNetwork:
        n_cells = len(self.cells)
        n = n_cells + 1
        pkg = n_cells
        area = self.cell_mm * self.cell_mm
        g_v = area / self.params.r_vertical_kmm2_per_w
        c_cell = self.params.block_capacitance(area)
        # Lateral sheet conductance between abutting equal cells:
        # G = k * edge / distance = k * cell / cell = k.
        g_l = self.params.k_lateral_w_per_k

        capacitance = np.full(n, c_cell)
        capacitance[pkg] = self.params.package_capacitance
        conductance = np.zeros((n, n))
        ambient_vector = np.zeros(n)

        for idx, cell in enumerate(self.cells):
            conductance[idx, idx] += g_v
            conductance[pkg, pkg] += g_v
            conductance[idx, pkg] -= g_v
            conductance[pkg, idx] -= g_v
            for dx, dy in ((1, 0), (0, 1)):
                other = self._grid_of.get((cell.ix + dx, cell.iy + dy))
                if other is None:
                    continue
                conductance[idx, idx] += g_l
                conductance[other, other] += g_l
                conductance[idx, other] -= g_l
                conductance[other, idx] -= g_l

        g_amb = 1.0 / self.params.r_package_k_per_w
        conductance[pkg, pkg] += g_amb
        ambient_vector[pkg] = g_amb
        names = [f"cell_{c.ix}_{c.iy}" for c in self.cells] + [PACKAGE_NODE]
        return RCNetwork(names, capacitance, conductance, ambient_vector,
                         ambient_c)

    def _build_maps(self) -> Tuple[np.ndarray, np.ndarray]:
        """Power distribution (cells x blocks) and temperature averaging
        (blocks x cells) matrices."""
        n_cells = len(self.cells)
        n_blocks = len(self.block_names)
        counts = np.zeros(n_blocks)
        member = np.zeros((n_cells, n_blocks))
        for idx, cell in enumerate(self.cells):
            b = self._block_index[cell.block]
            member[idx, b] = 1.0
            counts[b] += 1
        if np.any(counts == 0):
            missing = [self.block_names[i] for i in np.where(counts == 0)[0]]
            raise ValueError(
                f"blocks with no grid cell (cell_mm too coarse): {missing}")
        dist = member / counts[None, :]     # uniform power density
        avg = (member / counts[None, :]).T  # mean cell temp per block
        return dist, avg

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell_power_vector(self, block_power: np.ndarray) -> np.ndarray:
        """Distribute per-block power uniformly over each block's cells."""
        block_power = np.asarray(block_power, dtype=float)
        if block_power.shape != (len(self.block_names),):
            raise ValueError(
                f"expected {len(self.block_names)} block powers")
        return self._dist @ block_power

    def steady_state_cells(self, block_power: np.ndarray) -> np.ndarray:
        """Equilibrium cell temperatures (without the package node)."""
        temps = self.network.steady_state(
            self.cell_power_vector(block_power))
        return temps[:-1]

    def steady_state_blocks(self, block_power: np.ndarray) -> np.ndarray:
        """Equilibrium block temperatures (cell averages)."""
        return self._avg @ self.steady_state_cells(block_power)

    def hottest_cell(self, block_power: np.ndarray) -> GridCell:
        temps = self.steady_state_cells(block_power)
        return self.cells[int(np.argmax(temps))]

    def temperature_map(self, block_power: np.ndarray) -> np.ndarray:
        """Cell temperatures as an (ny, nx) array (row 0 = bottom)."""
        temps = self.steady_state_cells(block_power)
        out = np.zeros((self.ny, self.nx))
        for idx, cell in enumerate(self.cells):
            out[cell.iy, cell.ix] = temps[idx]
        return out


#: Shade ramp for the ASCII map, cold to hot.
_SHADES = " .:-=+*#%@"


def render_ascii_map(temp_map: np.ndarray, t_min: Optional[float] = None,
                     t_max: Optional[float] = None) -> str:
    """Render a temperature map as ASCII art (top row = top of die).

    Each character is one cell, shaded from coolest (space) to hottest
    (``@``); the legend line maps the extremes.
    """
    temp_map = np.asarray(temp_map, dtype=float)
    lo = float(temp_map.min()) if t_min is None else t_min
    hi = float(temp_map.max()) if t_max is None else t_max
    span = max(hi - lo, 1e-9)
    lines = []
    for row in temp_map[::-1]:       # top of the die first
        chars = []
        for t in row:
            level = int((t - lo) / span * (len(_SHADES) - 1) + 0.5)
            chars.append(_SHADES[min(max(level, 0), len(_SHADES) - 1)])
        lines.append("".join(chars))
    lines.append(f"[{lo:.1f} C '{_SHADES[0]}' ... '{_SHADES[-1]}' "
                 f"{hi:.1f} C]")
    return "\n".join(lines)
