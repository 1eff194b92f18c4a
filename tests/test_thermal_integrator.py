"""Tests for the thermal integrators (exact vs Euler cross-validation)."""

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from repro.platform.presets import build_floorplan, build_grid_floorplan
from repro.thermal.integrator import (
    EulerIntegrator,
    ExactIntegrator,
    integrator_agreement,
)
from repro.thermal.package import HIGH_PERFORMANCE, MOBILE_EMBEDDED
from repro.thermal.rc_network import build_network


@pytest.fixture
def network():
    fp = build_floorplan(3)
    return build_network(fp, list(fp.names), MOBILE_EMBEDDED, ambient_c=35.0)


@pytest.fixture
def power(network):
    p = np.zeros(network.n_blocks)
    p[network.index("core0")] = 0.4
    p[network.index("core1")] = 0.15
    p[network.index("core2")] = 0.15
    return p


class TestExactIntegrator:
    def test_converges_to_steady_state(self, network, power):
        integ = ExactIntegrator(network)
        temps = network.initial_temperatures()
        for _ in range(6000):
            temps = integ.advance(temps, power, 0.01)
        assert np.allclose(temps, network.steady_state(power), atol=5e-3)

    def test_steady_state_is_fixed_point(self, network, power):
        integ = ExactIntegrator(network)
        ss = network.steady_state(power)
        after = integ.advance(ss, power, 0.5)
        assert np.allclose(after, ss, atol=1e-9)

    def test_two_half_steps_equal_one_full_step(self, network, power):
        """Exactness: the propagator composes over subintervals."""
        integ = ExactIntegrator(network)
        t0 = network.initial_temperatures()
        one = integ.advance(t0, power, 0.02)
        two = integ.advance(integ.advance(t0, power, 0.01), power, 0.01)
        assert np.allclose(one, two, atol=1e-9)

    def test_monotone_heating_from_cold(self, network, power):
        integ = ExactIntegrator(network)
        temps = network.initial_temperatures()
        core = network.index("core0")
        last = temps[core]
        for _ in range(50):
            temps = integ.advance(temps, power, 0.05)
            assert temps[core] >= last - 1e-9
            last = temps[core]

    def test_invalid_dt_rejected(self, network, power):
        with pytest.raises(ValueError):
            ExactIntegrator(network).advance(
                network.initial_temperatures(), power, 0.0)

    def test_propagator_cache_reused(self, network, power):
        integ = ExactIntegrator(network)
        t = network.initial_temperatures()
        integ.advance(t, power, 0.01)
        integ.advance(t, power, 0.01)
        assert len(integ._propagators) == 1
        integ.advance(t, power, 0.02)
        assert len(integ._propagators) == 2

    def test_steady_state_solver_matches_network(self, network, power):
        integ = ExactIntegrator(network)
        assert np.allclose(integ.steady_state(power),
                           network.steady_state(power), atol=1e-9)


#: The paper's two configurations plus a 2-D grid platform.
SOLVE_CASES = [
    pytest.param(build_floorplan, 3, MOBILE_EMBEDDED, id="conf1-mobile"),
    pytest.param(build_floorplan, 3, HIGH_PERFORMANCE, id="conf2-highperf"),
    pytest.param(build_grid_floorplan, 9, MOBILE_EMBEDDED,
                 id="grid3x3-mobile"),
]


class TestDenseExactSolve:
    """The direct LAPACK solve is ``scipy.linalg.lu_solve``, bit for bit."""

    @pytest.mark.parametrize("build, n_tiles, package", SOLVE_CASES)
    def test_bitwise_equal_to_lu_solve(self, build, n_tiles, package):
        fp = build(n_tiles)
        net = build_network(fp, list(fp.names), package, ambient_c=35.0)
        integ = ExactIntegrator(net)
        lu = lu_factor(net.conductance)
        prop = integ._propagator(0.01)
        rng = np.random.default_rng(n_tiles)
        for _ in range(200):
            power = rng.uniform(0.0, 0.6, net.n_blocks)
            temps = rng.uniform(30.0, 130.0, net.n_nodes)
            t_ss = lu_solve(lu, net.forcing_vector(power))
            assert integ.steady_state(power).tobytes() == t_ss.tobytes()
            expected = t_ss + prop @ (temps - t_ss)
            assert (integ.advance(temps, power, 0.01).tobytes()
                    == expected.tobytes())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_power_rejected(self, network, power, bad):
        power = power.copy()
        power[1] = bad
        integ = ExactIntegrator(network)
        with pytest.raises(ValueError):
            integ.steady_state(power)
        with pytest.raises(ValueError):
            integ.advance(network.initial_temperatures(), power, 0.01)


class TestEulerIntegrator:
    def test_matches_exact_on_mobile(self, network, power):
        worst, _ = integrator_agreement(network, power, duration=3.0,
                                        dt=0.01)
        assert worst < 0.05   # degrees

    def test_matches_exact_on_highperf(self, power):
        fp = build_floorplan(3)
        net = build_network(fp, list(fp.names), HIGH_PERFORMANCE,
                            ambient_c=35.0)
        worst, _ = integrator_agreement(net, power, duration=1.0, dt=0.01)
        assert worst < 0.1

    def test_substep_respects_stability_bound(self, network):
        integ = EulerIntegrator(network, safety=0.2)
        assert integ.max_substep <= 0.2 * network.min_time_constant()

    def test_invalid_safety_rejected(self, network):
        with pytest.raises(ValueError):
            EulerIntegrator(network, safety=0.0)

    def test_invalid_dt_rejected(self, network, power):
        with pytest.raises(ValueError):
            EulerIntegrator(network).advance(
                network.initial_temperatures(), power, -1.0)

    def test_converges_to_steady_state(self, network, power):
        integ = EulerIntegrator(network)
        temps = network.initial_temperatures()
        for _ in range(100):
            temps = integ.advance(temps, power, 0.5)
        assert np.allclose(temps, network.steady_state(power), atol=1e-2)


class TestSharedPropagatorCache:
    def test_lru_evicts_one_entry_not_everything(self, network,
                                                 monkeypatch):
        """Overflow must drop only the least-recently-used propagator:
        a full clear() mid-campaign would throw away the entire warm
        working set."""
        from repro.thermal import integrator
        from repro.thermal.cache import ArtifactCache
        cache = ArtifactCache(max_entries=4)
        monkeypatch.setattr(integrator, "shared_artifacts", cache)
        exact = ExactIntegrator(network)
        for i in range(4):
            exact._propagator(0.01 * (i + 1))
        keys_before = list(cache._entries)
        assert len(keys_before) == 4
        # Touch the oldest entry so it becomes most-recently-used
        exact._propagators.clear()
        exact._propagator(0.01)
        # ... then overflow: the evictee is the *second*-oldest.
        exact._propagator(0.05)
        keys_after = list(cache._entries)
        assert len(keys_after) == 4
        assert keys_before[0] in keys_after      # refreshed
        assert keys_before[1] not in keys_after  # LRU, evicted
        assert cache.stats().evictions == 1

    def test_shared_across_integrators_same_network(self, network):
        from repro.thermal.cache import clear_artifact_cache, shared_artifacts
        clear_artifact_cache()
        a = ExactIntegrator(network)
        b = ExactIntegrator(network)
        prop_a = a._propagator(0.01)
        prop_b = b._propagator(0.01)
        assert prop_a is prop_b
        assert len(shared_artifacts) == 1
        stats = shared_artifacts.stats()
        assert stats.misses == 1      # a built the propagator ...
        assert stats.hits == 1        # ... and b reused it
        clear_artifact_cache()


class TestArtifactCache:
    def test_counters_and_lru(self):
        from repro.thermal.cache import ArtifactCache
        cache = ArtifactCache(max_entries=2)
        assert cache.get("a") is None                 # miss
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1                    # hit + refresh
        cache.put("c", 3)                             # evicts "b" (LRU)
        assert "b" not in cache
        assert cache.get("a") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (2, 1, 1)
        assert stats.size == 2 and stats.max_entries == 2
        assert 0 < stats.hit_rate < 1
        assert "2 hits" in stats.to_text()
