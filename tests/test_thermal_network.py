"""Tests for the RC thermal network construction."""

import numpy as np
import pytest

from repro.platform.floorplan import Floorplan, Rect
from repro.platform.presets import build_floorplan
from repro.thermal.package import MOBILE_EMBEDDED, ThermalPackageParams
from repro.thermal.rc_network import PACKAGE_NODE, build_network


@pytest.fixture
def floorplan():
    return build_floorplan(3)


@pytest.fixture
def block_names(floorplan):
    return list(floorplan.names)


@pytest.fixture
def network(floorplan, block_names):
    return build_network(floorplan, block_names, MOBILE_EMBEDDED,
                         ambient_c=35.0)


class TestConstruction:
    def test_node_count_is_blocks_plus_package(self, network, block_names):
        assert network.n_nodes == len(block_names) + 1
        assert network.n_blocks == len(block_names)
        assert network.node_names[-1] == PACKAGE_NODE

    def test_conductance_symmetric(self, network):
        assert np.allclose(network.conductance, network.conductance.T)

    def test_conductance_positive_definite(self, network):
        eigenvalues = np.linalg.eigvalsh(network.conductance)
        assert np.all(eigenvalues > 0)

    def test_row_sums_equal_ambient_legs(self, network):
        """A Laplacian plus the ambient diagonal: row sums must equal
        the per-node ambient conductance."""
        row_sums = network.conductance.sum(axis=1)
        assert np.allclose(row_sums, network.ambient_vector, atol=1e-12)

    def test_capacitances_positive(self, network):
        assert np.all(network.capacitance > 0)

    def test_only_package_connects_to_ambient(self, network):
        amb = network.ambient_vector
        assert amb[-1] > 0
        assert np.allclose(amb[:-1], 0.0)

    def test_unknown_block_rejected(self, floorplan):
        with pytest.raises(ValueError):
            build_network(floorplan, ["nope"], MOBILE_EMBEDDED)

    def test_block_capacitance_scales_with_area(self, floorplan,
                                                block_names, network):
        c_core = network.capacitance[network.index("core0")]
        c_icache = network.capacitance[network.index("icache0")]
        area_ratio = (floorplan.area_mm2("core0")
                      / floorplan.area_mm2("icache0"))
        assert c_core / c_icache == pytest.approx(area_ratio)


class TestSteadyState:
    def test_zero_power_settles_at_ambient(self, network):
        temps = network.steady_state(np.zeros(network.n_blocks))
        assert np.allclose(temps, 35.0, atol=1e-9)

    def test_heated_block_is_hottest(self, network):
        power = np.zeros(network.n_blocks)
        power[network.index("core0")] = 0.5
        temps = network.steady_state(power)
        assert np.argmax(temps[:-1]) == network.index("core0")

    def test_all_temps_above_ambient_with_power(self, network):
        power = np.full(network.n_blocks, 0.05)
        temps = network.steady_state(power)
        assert np.all(temps > 35.0)

    def test_superposition(self, network):
        """The network is linear: responses add."""
        p1 = np.zeros(network.n_blocks)
        p1[network.index("core0")] = 0.3
        p2 = np.zeros(network.n_blocks)
        p2[network.index("core2")] = 0.2
        t1 = network.steady_state(p1) - 35.0
        t2 = network.steady_state(p2) - 35.0
        t12 = network.steady_state(p1 + p2) - 35.0
        assert np.allclose(t12, t1 + t2, atol=1e-9)

    def test_neighbour_coupling_decays_with_distance(self, network):
        power = np.zeros(network.n_blocks)
        power[network.index("core0")] = 0.5
        temps = network.steady_state(power)
        rise1 = temps[network.index("core1")] - 35.0
        rise2 = temps[network.index("core2")] - 35.0
        assert rise1 > rise2 > 0

    def test_floorplan_position_effect(self, network):
        """The paper observes that cores 2 and 3 run at the same
        frequency yet settle at different temperatures because of their
        floorplan position: the core adjacent to the hot core must be
        warmer than the far one under identical own power."""
        power = np.zeros(network.n_blocks)
        power[network.index("core0")] = 0.45
        power[network.index("core1")] = 0.15
        power[network.index("core2")] = 0.15
        temps = network.steady_state(power)
        t1 = temps[network.index("core1")]
        t2 = temps[network.index("core2")]
        assert t1 > t2 + 0.05

    def test_power_vector_validation(self, network):
        with pytest.raises(ValueError):
            network.full_power_vector(np.zeros(3))

    def test_forcing_vector_matches_concatenated_reference(self, network):
        # The in-place fill must stay bitwise the concatenation it
        # replaced, for arrays, lists and strided columns alike.
        rng = np.random.default_rng(7)
        ambient = network.ambient_vector * network.ambient_c
        for _ in range(50):
            power = rng.uniform(-1.0, 5.0, (network.n_blocks, 2))
            for given in (power[:, 0], power[:, 1].tolist(), power[:, 1]):
                expected = network.full_power_vector(given) + ambient
                assert network.forcing_vector(given).tobytes() \
                    == expected.tobytes()
        with pytest.raises(ValueError, match="block powers"):
            network.forcing_vector(np.zeros(network.n_blocks + 1))
        with pytest.raises(ValueError, match="block powers"):
            network.forcing_vector([1.0])


class TestDynamics:
    def test_derivative_zero_at_steady_state(self, network):
        power = np.full(network.n_blocks, 0.1)
        temps = network.steady_state(power)
        deriv = network.derivative(temps, power)
        assert np.allclose(deriv, 0.0, atol=1e-9)

    def test_derivative_positive_when_cold(self, network):
        power = np.full(network.n_blocks, 0.1)
        deriv = network.derivative(network.initial_temperatures(), power)
        assert deriv[network.index("core0")] > 0

    def test_min_time_constant_positive(self, network):
        assert network.min_time_constant() > 0


class TestPackageParams:
    def test_speedup_divides_capacitance(self):
        fast = MOBILE_EMBEDDED.with_speedup(6.0, "fast")
        assert fast.block_capacitance(1.0) == pytest.approx(
            MOBILE_EMBEDDED.block_capacitance(1.0) / 6.0)
        assert fast.package_capacitance == pytest.approx(
            MOBILE_EMBEDDED.package_capacitance / 6.0)

    def test_block_time_constant_is_area_independent(self):
        tau1 = MOBILE_EMBEDDED.block_time_constant(1.0)
        tau2 = MOBILE_EMBEDDED.block_time_constant(3.6)
        assert tau1 == pytest.approx(tau2)

    def test_high_perf_is_6x_faster(self):
        from repro.thermal.package import HIGH_PERFORMANCE
        ratio = (MOBILE_EMBEDDED.block_time_constant(1.0)
                 / HIGH_PERFORMANCE.block_time_constant(1.0))
        assert ratio == pytest.approx(6.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ThermalPackageParams(name="bad", r_vertical_kmm2_per_w=0.0)
        with pytest.raises(ValueError):
            ThermalPackageParams(name="bad", k_lateral_w_per_k=-1.0)

    def test_vertical_resistance_needs_positive_area(self):
        with pytest.raises(ValueError):
            MOBILE_EMBEDDED.block_vertical_resistance(0.0)
