"""Chip assembly and power/energy accounting.

A :class:`Chip` owns the hardware blocks, the per-tile DVFS state and the
shared bus, and maintains an *exact* per-block energy accumulator: every
state change (frequency, activity, gating, new temperatures) first
settles the energy integral at the cached power level, then updates the
cached level.  The thermal integrator drains interval-averaged power from
this accumulator every sensor period, so no power transient is lost no
matter how it interleaves with the 10 ms thermal ticks.

Block power is ``dynamic + leakage * scale``, bitwise equal to
:meth:`~repro.platform.power.PowerModel.power` (ungated the scale is
1.0; gated the dynamic part is 0.0 and the scale the block's
``gated_leak_fraction``).  Dynamic part and scale are cached per tile
state for the whole run; leakage is refreshed once per temperature
update.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.platform.bus import SharedBus
from repro.platform.components import BlockKind, HardwareBlock
from repro.platform.floorplan import Floorplan
from repro.platform.frequency import OperatingPoint, OperatingPointTable

#: Activity factor ``(idle, busy)`` of a tile block, by kind.
_TILE_ACTIVITY = {
    BlockKind.CORE: (0.0, 1.0),
    BlockKind.ICACHE: (0.0, 1.0),
    BlockKind.DCACHE: (0.0, 1.0),
    BlockKind.PRIVATE_MEM: (0.05, 0.4),
}


class Tile:
    """One processor tile: core + I$/D$ + private memory + DVFS domain."""

    def __init__(self, index: int, core: HardwareBlock,
                 icache: HardwareBlock, dcache: HardwareBlock,
                 private_mem: HardwareBlock, opp_table: OperatingPointTable):
        self.index = index
        self.core = core
        self.icache = icache
        self.dcache = dcache
        self.private_mem = private_mem
        self.opp_table = opp_table
        self.opp: OperatingPoint = opp_table.max_point
        self.active = False      # a task is currently executing
        self.gated = False       # Stop&Go power gate engaged

    @property
    def blocks(self) -> List[HardwareBlock]:
        return [self.core, self.icache, self.dcache, self.private_mem]

    @property
    def frequency_hz(self) -> float:
        return self.opp.frequency_hz

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "gated" if self.gated else ("busy" if self.active else "idle")
        return f"<Tile {self.index} @{self.opp.mhz:.0f}MHz {state}>"


class Chip:
    """The assembled MPSoC with live power state.

    Parameters
    ----------
    clock:
        Callable returning the current simulated time (normally
        ``lambda: sim.now``); the chip is time-agnostic otherwise.
    tiles:
        Processor tiles in index order.
    shared_blocks:
        Non-tile blocks (the shared memory).
    floorplan:
        Geometry for all blocks.
    bus:
        The shared interconnect.
    ambient_c:
        Ambient temperature; also the initial die temperature.
    """

    def __init__(self, clock: Callable[[], float], tiles: Sequence[Tile],
                 shared_blocks: Sequence[HardwareBlock],
                 floorplan: Floorplan, bus: SharedBus,
                 ambient_c: float = 30.0):
        self.clock = clock
        self.tiles: List[Tile] = list(tiles)
        self.shared_blocks: List[HardwareBlock] = list(shared_blocks)
        self.floorplan = floorplan
        self.bus = bus
        self.ambient_c = float(ambient_c)

        self.blocks: List[HardwareBlock] = []
        for tile in self.tiles:
            self.blocks.extend(tile.blocks)
        self.blocks.extend(self.shared_blocks)
        self._block_index: Dict[str, int] = {
            b.name: i for i, b in enumerate(self.blocks)}
        missing = [b.name for b in self.blocks if b.name not in floorplan]
        if missing:
            raise ValueError(f"blocks missing from floorplan: {missing}")

        n = len(self.blocks)
        self.temps_c = np.full(n, self.ambient_c, dtype=float)
        self._energy_j = np.zeros(n, dtype=float)
        self._cumulative_j = np.zeros(n, dtype=float)
        self._last_settle = self.clock()
        self._drain_from = self.clock()
        # Tile k owns a contiguous run of the block vector.
        self._tile_slices: List[slice] = []
        start = 0
        for tile in self.tiles:
            self._tile_slices.append(slice(start, start + len(tile.blocks)))
            start += len(tile.blocks)
        params = [b.power_model.params for b in self.blocks]
        self._leak_ref = np.array([p.leak_ref for p in params])
        self._leak_alpha = np.array([p.leak_alpha for p in params])
        self._leak_t_ref = np.array([p.t_ref_c for p in params])
        # Per tile: (opp, active, gated) -> (dynamic W, leakage scale).
        self._tile_states: List[Dict[tuple, Tuple]] = [{} for _ in self.tiles]
        self._dyn_w = np.zeros(n, dtype=float)
        self._leak_scale = np.ones(n, dtype=float)
        # The bus activity the shared blocks' dynamic power was last
        # evaluated at (their only input that changes during a run).
        self._shared_activity = None
        self._refresh_leakage()
        for tile_index in range(len(self.tiles)):
            self._apply_tile_state(tile_index)

    # ------------------------------------------------------------------
    # topology queries
    # ------------------------------------------------------------------
    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_index(self, name: str) -> int:
        return self._block_index[name]

    def core_block_indices(self) -> List[int]:
        """Block-vector indices of the core blocks, in tile order."""
        return [self.block_index(t.core.name) for t in self.tiles]

    def tile(self, index: int) -> Tile:
        return self.tiles[index]

    # ------------------------------------------------------------------
    # state changes (called by the OS layer)
    # ------------------------------------------------------------------
    def set_tile_opp(self, tile_index: int, opp: OperatingPoint) -> None:
        tile = self.tiles[tile_index]
        if tile.opp == opp:
            return
        self.settle()
        tile.opp = opp
        self._apply_tile_state(tile_index)

    def set_tile_active(self, tile_index: int, active: bool) -> None:
        tile = self.tiles[tile_index]
        if tile.active == active:
            return
        self.settle()
        tile.active = active
        self._apply_tile_state(tile_index)

    def set_tile_gated(self, tile_index: int, gated: bool) -> None:
        tile = self.tiles[tile_index]
        if tile.gated == gated:
            return
        self.settle()
        tile.gated = gated
        self._apply_tile_state(tile_index)

    def update_temperatures(self, temps_c: np.ndarray) -> None:
        """Feed back block temperatures (leakage depends on them)."""
        if len(temps_c) != self.n_blocks:
            raise ValueError(
                f"expected {self.n_blocks} temperatures, got {len(temps_c)}")
        self.settle()
        self.temps_c = np.asarray(temps_c, dtype=float).copy()
        self._refresh_leakage()

    # ------------------------------------------------------------------
    # power / energy accounting
    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Integrate energy at the cached power levels up to *now*."""
        now = self.clock()
        dt = now - self._last_settle
        if dt > 0:
            step = self._power_w * dt
            self._energy_j += step
            self._cumulative_j += step
            self._last_settle = now

    def current_power_w(self) -> np.ndarray:
        """Instantaneous per-block power (cached levels)."""
        return self._power_w.copy()

    def drain_average_power(self) -> np.ndarray:
        """Per-block power averaged since the previous drain.

        Used by the thermal integrator: the linear RC network driven by
        the interval-average power reproduces the exact end-of-interval
        temperatures for piecewise-constant power inputs.
        """
        self.settle()
        now = self.clock()
        dt = now - self._drain_from
        if dt <= 0:
            return self._power_w.copy()
        avg = self._energy_j / dt
        self._energy_j[:] = 0.0
        self._drain_from = now
        return avg

    def total_energy_j(self) -> float:
        """Energy consumed since the last drain (all blocks)."""
        self.settle()
        return float(self._energy_j.sum())

    def cumulative_energy_j(self) -> np.ndarray:
        """Per-block energy since construction — never reset.

        Unlike the drain accumulator (which the thermal sensors empty
        every period), this counter supports observers that need energy
        over arbitrary windows: snapshot it twice and subtract.
        """
        self.settle()
        return self._cumulative_j.copy()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _apply_tile_state(self, tile_index: int) -> None:
        """Switch a tile's blocks to the cached vectors of its state."""
        tile = self.tiles[tile_index]
        states = self._tile_states[tile_index]
        # The operating point by value: its fields are all the state
        # power reads, and a float tuple hashes without a Python call.
        opp = tile.opp
        key = (opp.frequency_hz, opp.voltage, tile.active, tile.gated)
        state = states.get(key)
        if state is None:
            state = states[key] = self._tile_state_power(tile)
        dyn, scale = state
        span = self._tile_slices[tile_index]
        self._dyn_w[span] = dyn
        self._leak_scale[span] = scale
        self._power_w = self._dyn_w + self._leak_w * self._leak_scale

    @staticmethod
    def _tile_state_power(tile: Tile) -> Tuple[np.ndarray, np.ndarray]:
        """``(dynamic W, leakage scale)`` of a tile's blocks in its state."""
        blocks = tile.blocks
        if tile.gated:
            # Clock and supply cut: only the residual leakage remains.
            return (np.zeros(len(blocks)),
                    np.array([b.power_model.params.gated_leak_fraction
                              for b in blocks]))
        opp = tile.opp
        dyn = [b.power_model.dynamic_power(
            opp.frequency_hz, opp.voltage,
            _TILE_ACTIVITY.get(b.kind, (0.0, 0.0))[bool(tile.active)])
            for b in blocks]
        return np.array(dyn), np.ones(len(blocks))

    def _refresh_leakage(self) -> None:
        """Re-evaluate leakage at ``temps_c``, then every block's power.

        Keeps one scalar ``math.exp`` per block: on SIMD builds ``np.exp``
        differs from libm in the last ulp for some inputs.
        """
        exponent = self._leak_alpha * (self.temps_c - self._leak_t_ref)
        self._leak_w = self._leak_ref * np.array(
            list(map(math.exp, exponent.tolist())))
        # Shared memory: busy with queue traffic plus migrations,
        # clocked at f_ref; its bus activity is sampled here, and its
        # dynamic power re-evaluated only when the activity changed.
        activity = min(1.0, self.bus.background_load
                       + (0.5 if self.bus.busy else 0.0))
        if activity != self._shared_activity:
            self._shared_activity = activity
            first = self.n_blocks - len(self.shared_blocks)
            for idx, block in enumerate(self.shared_blocks, first):
                model = block.power_model
                self._dyn_w[idx] = model.dynamic_power(
                    model.params.f_ref_hz, model.params.v_ref, activity)
        self._power_w = self._dyn_w + self._leak_w * self._leak_scale
