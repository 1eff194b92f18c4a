"""Tests for the cell-grid thermal model against the block model."""

import numpy as np
import pytest

from repro.platform.presets import build_floorplan
from repro.thermal.grid import (MAX_GRID_CELLS, GridThermalModel,
                                render_ascii_map)
from repro.thermal.package import MOBILE_EMBEDDED
from repro.thermal.rc_network import build_network


@pytest.fixture(scope="module")
def floorplan():
    return build_floorplan(3)


@pytest.fixture(scope="module")
def names(floorplan):
    return list(floorplan.names)


@pytest.fixture(scope="module")
def grid(floorplan, names):
    return GridThermalModel(floorplan, names, MOBILE_EMBEDDED,
                            ambient_c=35.0, cell_mm=0.2)


@pytest.fixture(scope="module")
def block_net(floorplan, names):
    return build_network(floorplan, names, MOBILE_EMBEDDED, ambient_c=35.0)


def table2_power(names):
    p = np.zeros(len(names))
    p[names.index("core0")] = 0.45
    p[names.index("core1")] = 0.16
    p[names.index("core2")] = 0.15
    return p


class TestConstruction:
    def test_cells_cover_bounding_box(self, grid, floorplan):
        area_cells = grid.n_cells * grid.cell_mm ** 2
        assert area_cells == pytest.approx(floorplan.bounding_box.area_mm2,
                                           rel=1e-6)

    def test_every_block_has_cells(self, grid, names):
        owners = {c.block for c in grid.cells}
        assert owners == set(names)

    def test_network_is_valid_rc(self, grid):
        net = grid.network
        assert np.allclose(net.conductance, net.conductance.T)
        assert np.all(np.linalg.eigvalsh(net.conductance) > 0)

    def test_power_distribution_conserves_total(self, grid, names):
        p = table2_power(names)
        cell_p = grid.cell_power_vector(p)
        assert cell_p.sum() == pytest.approx(p.sum())
        assert np.all(cell_p >= 0)

    def test_invalid_cell_size_rejected(self, floorplan, names):
        # NaN used to pass a `<= 0` check and fail later, in
        # int(round(...)); infinity failed on an off-die cell centre.
        for cell_mm in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError,
                               match="cell_mm must be a finite number > 0"):
                GridThermalModel(floorplan, names, MOBILE_EMBEDDED,
                                 cell_mm=cell_mm)

    @pytest.mark.parametrize("cell_mm, cells", [
        (0.05, "11,520"), (0.02, "72,000"), (1e-300, "inf")])
    def test_grid_above_the_cell_budget_rejected(self, floorplan, names,
                                                 cell_mm, cells):
        # The dense conductance matrix alone would take 1 GB at 0.05
        # and 41 GB at 0.02; at 1e-300 the count overflows a float.
        with pytest.raises(ValueError, match=f"gives {cells} grid cells; "
                           f"the budget is {MAX_GRID_CELLS:,}"):
            GridThermalModel(floorplan, names, MOBILE_EMBEDDED,
                             cell_mm=cell_mm)

    def test_bad_power_vector_rejected(self, grid):
        with pytest.raises(ValueError):
            grid.cell_power_vector(np.zeros(3))


class TestAgreementWithBlockModel:
    def test_block_averages_match_compact_model(self, grid, block_net,
                                                names):
        """The grid is a refinement of the block model: block-averaged
        steady-state temperatures agree within a few degrees (the block
        model cannot resolve intra-block gradients)."""
        p = table2_power(names)
        tb = block_net.steady_state(p)[:-1]
        tg = grid.steady_state_blocks(p)
        assert np.max(np.abs(tb - tg)) < 3.0
        # Cooler, low-gradient blocks agree much tighter.
        for name in ("pmem0", "pmem1", "pmem2", "shared_mem"):
            i = names.index(name)
            assert abs(tb[i] - tg[i]) < 1.2

    def test_same_hottest_and_coolest_core(self, grid, block_net, names):
        p = table2_power(names)
        tb = block_net.steady_state(p)[:-1]
        tg = grid.steady_state_blocks(p)
        cores = [names.index(f"core{i}") for i in range(3)]
        assert np.argmax(tb[cores]) == np.argmax(tg[cores])
        assert np.argmin(tb[cores]) == np.argmin(tg[cores])

    def test_uniform_power_gives_uniform_package_rise(self, grid, names):
        p = np.zeros(len(names))
        temps0 = grid.steady_state_cells(p)
        assert np.allclose(temps0, 35.0, atol=1e-9)

    def test_hotspot_inside_powered_block(self, grid, names):
        p = table2_power(names)
        assert grid.hottest_cell(p).block == "core0"

    def test_hotspot_moves_with_power(self, grid, names):
        p = np.zeros(len(names))
        p[names.index("core2")] = 0.5
        assert grid.hottest_cell(p).block == "core2"

    def test_refinement_converges(self, floorplan, names):
        """The discretization converges: 0.4 -> 0.2 mm still moves the
        hottest block by over a degree, 0.2 -> 0.1 mm barely moves it."""
        p = table2_power(names)
        t04 = GridThermalModel(floorplan, names, MOBILE_EMBEDDED,
                               cell_mm=0.4).steady_state_blocks(p)
        t02 = GridThermalModel(floorplan, names, MOBILE_EMBEDDED,
                               cell_mm=0.2).steady_state_blocks(p)
        t01 = GridThermalModel(floorplan, names, MOBILE_EMBEDDED,
                               cell_mm=0.1).steady_state_blocks(p)
        first = np.max(np.abs(t04 - t02))
        second = np.max(np.abs(t02 - t01))
        assert second < 0.2
        assert second < first


class TestTemperatureMap:
    def test_map_shape(self, grid, names):
        m = grid.temperature_map(table2_power(names))
        assert m.shape == (grid.ny, grid.nx)

    def test_ascii_render(self, grid, names):
        art = render_ascii_map(grid.temperature_map(table2_power(names)))
        lines = art.splitlines()
        assert len(lines) == grid.ny + 1      # + legend
        assert all(len(line) == grid.nx for line in lines[:-1])
        assert "@" in art       # hottest shade present
        assert "C]" in lines[-1]

    def test_render_with_fixed_scale(self, grid, names):
        m = grid.temperature_map(table2_power(names))
        art = render_ascii_map(m, t_min=0.0, t_max=1000.0)
        # Everything maps to the coolest shade on a huge scale.
        assert "@" not in art.splitlines()[0]
