"""Die temperature map (the Sec. 4 "tridimensional cell" view).

Runs the SDR benchmark to its thermal steady state under a chosen
policy, measures the per-block average power over the final stretch,
and renders the cell-resolved steady-state temperature field of the
die as ASCII art through the grid thermal model.  Comparing the
``energy`` and ``migra`` maps makes the paper's point visually: the
same workload, a flat die instead of a hot corner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.thermal.grid import GridThermalModel, render_ascii_map


@dataclass
class ThermalMapResult:
    """The rendered map plus the numbers behind it."""

    text: str
    peak_c: float
    spread_c: float
    hottest_block: str


def thermal_map(config: ExperimentConfig | None = None,
                cell_mm: float = 0.2,
                average_window_s: float = 10.0) -> ThermalMapResult:
    """Render the steady-state die map for a configuration.

    The system runs the warm-up plus one measurement stretch; the block
    powers averaged over the final ``average_window_s`` drive the grid
    model's steady state.  The window must cover several migration
    periods — thermal balancing equalizes the *time-averaged* power, so
    a window shorter than the policy's ping-pong period would still
    show the instantaneous hot potato.
    """
    config = config or ExperimentConfig(policy="energy")
    sut = build_system(config)
    # Built before the run, so a bad cell size fails without simulating.
    grid = GridThermalModel(
        sut.chip.floorplan, [b.name for b in sut.chip.blocks],
        config.package_params,
        ambient_c=config.platform_config.ambient_c, cell_mm=cell_mm)
    sut.sim.run_until(config.warmup_s)
    sut.policy.enable(sut.sim.now)
    sut.sim.run_until(config.t_end - average_window_s)
    # The drain accumulator belongs to the thermal sensors; observe
    # through the cumulative counter instead.
    start = sut.chip.cumulative_energy_j()
    sut.sim.run_until(config.t_end)
    power = (sut.chip.cumulative_energy_j() - start) / average_window_s

    temp_map = grid.temperature_map(power)
    hottest = grid.hottest_cell(power)
    header = (f"Steady-state die map — policy={sut.policy.name}, "
              f"package={config.package_params.name}, "
              f"theta={config.threshold_c:.0f}C\n")
    return ThermalMapResult(
        text=header + render_ascii_map(temp_map),
        peak_c=float(temp_map.max()),
        spread_c=float(temp_map.max() - temp_map.min()),
        hottest_block=hottest.block)
