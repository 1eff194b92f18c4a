"""Tests for chip assembly and energy accounting."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.platform.components import BlockKind
from repro.platform.presets import CONF1_STREAMING, CONF2_ARM11, build_chip
from repro.sim.kernel import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def chip(sim):
    return build_chip(lambda: sim.now, 3, CONF1_STREAMING, sim=sim)


class TestTopology:
    def test_block_count(self, chip):
        assert chip.n_blocks == 13      # 3 tiles x 4 blocks + shared mem
        assert chip.n_tiles == 3

    def test_block_names_unique_and_indexed(self, chip):
        names = [b.name for b in chip.blocks]
        assert len(set(names)) == len(names)
        for i, b in enumerate(chip.blocks):
            assert chip.block_index(b.name) == i

    def test_core_block_indices_in_tile_order(self, chip):
        idx = chip.core_block_indices()
        assert [chip.blocks[i].name for i in idx] == \
            ["core0", "core1", "core2"]

    def test_initial_state(self, chip):
        for tile in chip.tiles:
            assert not tile.active
            assert not tile.gated
            assert tile.opp == tile.opp_table.max_point

    def test_initial_temps_at_ambient(self, chip):
        assert np.allclose(chip.temps_c, chip.ambient_c)


class TestPowerState:
    def test_active_raises_core_power(self, chip):
        i = chip.block_index("core0")
        idle = chip.current_power_w()[i]
        chip.set_tile_active(0, True)
        busy = chip.current_power_w()[i]
        assert busy > idle

    def test_gating_cuts_power(self, chip):
        i = chip.block_index("core0")
        chip.set_tile_active(0, True)
        busy = chip.current_power_w()[i]
        chip.set_tile_gated(0, True)
        gated = chip.current_power_w()[i]
        assert gated < 0.1 * busy

    def test_lower_opp_reduces_power(self, chip):
        i = chip.block_index("core1")
        chip.set_tile_active(1, True)
        hi = chip.current_power_w()[i]
        low_opp = chip.tile(1).opp_table.min_point
        chip.set_tile_opp(1, low_opp)
        lo = chip.current_power_w()[i]
        assert lo < hi / 3

    def test_temperature_feedback_raises_leakage(self, chip):
        i = chip.block_index("core0")
        p_cold = chip.current_power_w()[i]
        temps = chip.temps_c + 40.0
        chip.update_temperatures(temps)
        p_hot = chip.current_power_w()[i]
        assert p_hot > p_cold

    def test_cache_power_follows_core_activity(self, chip):
        i = chip.block_index("dcache0")
        idle = chip.current_power_w()[i]
        chip.set_tile_active(0, True)
        busy = chip.current_power_w()[i]
        assert busy > idle

    def test_wrong_temperature_vector_rejected(self, chip):
        with pytest.raises(ValueError):
            chip.update_temperatures(np.zeros(3))


class TestEnergyAccounting:
    def test_average_power_of_constant_state(self, sim, chip):
        chip.set_tile_active(0, True)
        chip.drain_average_power()          # reset the accumulator
        sim.run_until(1.0)
        avg = chip.drain_average_power()
        assert avg[chip.block_index("core0")] == pytest.approx(
            chip.current_power_w()[chip.block_index("core0")])

    def test_duty_cycle_averages_exactly(self, sim, chip):
        """50% busy time must yield the exact midpoint power."""
        i = chip.block_index("core0")
        chip.set_tile_active(0, False)
        p_idle = chip.current_power_w()[i]
        chip.set_tile_active(0, True)
        p_busy = chip.current_power_w()[i]
        chip.set_tile_active(0, False)
        chip.drain_average_power()

        # Toggle every 0.1 s for 1 s starting from idle.
        for k in range(10):
            sim.schedule(0.1 * k, chip.set_tile_active, 0, k % 2 == 0)
        sim.run_until(1.0)
        avg = chip.drain_average_power()
        assert avg[i] == pytest.approx((p_idle + p_busy) / 2, rel=1e-6)

    def test_drain_resets_accumulator(self, sim, chip):
        chip.set_tile_active(0, True)
        sim.run_until(0.5)
        chip.drain_average_power()
        assert chip.total_energy_j() == pytest.approx(0.0, abs=1e-12)

    def test_drain_with_no_elapsed_time_returns_current(self, chip):
        avg = chip.drain_average_power()
        assert np.allclose(avg, chip.current_power_w())

    def test_idempotent_state_changes_do_not_disturb(self, sim, chip):
        chip.set_tile_active(0, True)
        chip.drain_average_power()
        sim.run_until(0.3)
        chip.set_tile_active(0, True)     # no-op
        sim.run_until(0.7)
        avg = chip.drain_average_power()
        i = chip.block_index("core0")
        assert avg[i] == pytest.approx(chip.current_power_w()[i])


class TestValidation:
    def test_build_requires_sim(self):
        with pytest.raises(ValueError):
            build_chip(lambda: 0.0, 3, CONF1_STREAMING, sim=None)

    def test_two_tile_chip(self, sim):
        chip = build_chip(lambda: sim.now, 2, CONF1_STREAMING, sim=sim)
        assert chip.n_tiles == 2
        assert chip.n_blocks == 9


# ----------------------------------------------------------------------
# bitwise oracle: the per-block scalar power formula
# ----------------------------------------------------------------------
def reference_activity(block, tile):
    """Activity factor of a tile block: the scalar per-block formula."""
    if block.kind in (BlockKind.CORE, BlockKind.ICACHE, BlockKind.DCACHE):
        return 1.0 if tile.active else 0.0
    if block.kind == BlockKind.PRIVATE_MEM:
        return 0.4 if tile.active else 0.05
    return 0.0


def reference_power(chip, bus_busy_at_tick):
    """Every block through ``PowerModel.power``, one scalar call each.

    The shared memory's bus activity is the one sampled at the last
    temperature update (or construction), as the chip samples it.
    """
    out = []
    for tile in chip.tiles:
        for block in tile.blocks:
            temp = float(chip.temps_c[chip.block_index(block.name)])
            out.append(block.power_model.power(
                tile.opp.frequency_hz, tile.opp.voltage,
                reference_activity(block, tile), temp, gated=tile.gated))
    # Shared memory: busy with queue traffic plus migrations.
    activity = min(1.0, chip.bus.background_load
                   + (0.5 if bus_busy_at_tick else 0.0))
    for block in chip.shared_blocks:
        params = block.power_model.params
        temp = float(chip.temps_c[chip.block_index(block.name)])
        out.append(block.power_model.power(
            params.f_ref_hz, params.v_ref, activity, temp, gated=False))
    return out


@st.composite
def chip_scenarios(draw):
    """A platform, a tile count and a random sequence of chip operations."""
    config = draw(st.sampled_from([CONF1_STREAMING, CONF2_ARM11]))
    n_tiles = draw(st.sampled_from([3, 6]))
    n_blocks = 4 * n_tiles + 1
    tile = st.integers(0, n_tiles - 1)
    op = st.one_of(
        st.tuples(st.just("opp"), tile, st.integers(0, config.opp_levels - 1)),
        st.tuples(st.just("active"), tile, st.booleans()),
        st.tuples(st.just("gated"), tile, st.booleans()),
        st.tuples(st.just("temps"),
                  st.lists(st.floats(30.0, 130.0), min_size=n_blocks,
                           max_size=n_blocks)),
        st.tuples(st.just("transfer"), st.floats(64e3, 2e6)),
        st.tuples(st.just("wait"), st.floats(1e-4, 0.02)),
    )
    return config, n_tiles, draw(st.lists(op, min_size=1, max_size=40))


class TestPowerOracle:
    """``current_power_w`` equals the scalar formula with ``==``.

    Exact equality, not approx: a last-ulp difference in leakage (say,
    a SIMD ``np.exp``) moves the recorded temperatures of every run.
    """

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(chip_scenarios())
    def test_every_op_matches_scalar_reference(self, scenario):
        config, n_tiles, ops = scenario
        sim = Simulator()
        chip = build_chip(lambda: sim.now, n_tiles, config, sim=sim)
        busy_at_tick = chip.bus.busy
        assert chip.current_power_w().tolist() == \
            reference_power(chip, busy_at_tick)
        for op in ops:
            kind = op[0]
            if kind == "opp":
                points = chip.tile(op[1]).opp_table.points
                chip.set_tile_opp(op[1], points[op[2]])
            elif kind == "active":
                chip.set_tile_active(op[1], op[2])
            elif kind == "gated":
                chip.set_tile_gated(op[1], op[2])
            elif kind == "temps":
                chip.update_temperatures(np.array(op[1]))
                busy_at_tick = chip.bus.busy
            elif kind == "transfer":
                chip.bus.start_transfer(op[1], lambda _transfer: None)
            else:
                sim.run_until(sim.now + op[1])
            assert chip.current_power_w().tolist() == \
                reference_power(chip, busy_at_tick), op

    def test_bus_activity_is_sampled_at_the_temperature_update(self, sim,
                                                               chip):
        i = chip.block_index("shared_mem")
        quiet = chip.current_power_w()[i]
        chip.bus.start_transfer(1e6, lambda _transfer: None)
        assert chip.current_power_w()[i] == quiet
        chip.update_temperatures(chip.temps_c)
        assert chip.current_power_w()[i] > quiet
