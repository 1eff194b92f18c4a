"""Unit tests for the lockstep driver and the kernel/sensor hooks it
uses (``peek_event``, ``PeriodicProcess.next_event``,
``ThermalSubsystem.inject_advance``)."""

import numpy as np
import pytest

from repro.campaign import CampaignRunner, sweep
from repro.campaign.lockstep import run_lockstep_group
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicProcess
from repro.thermal.solvers import make_solver, solver_registry

SHORT = dict(warmup_s=1.0, measure_s=1.0)


class TestKernelHooks:
    def test_peek_event_returns_head_without_firing(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        assert sim.peek_event() is event
        assert fired == []
        assert sim.pending_events == 1

    def test_peek_event_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        second = sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek_event() is second

    def test_peek_event_empty_queue(self):
        assert Simulator().peek_event() is None

    def test_periodic_next_event_tracks_reschedule(self):
        sim = Simulator()
        seen = []
        proc = PeriodicProcess(sim, 1.0, lambda p: seen.append(sim.now))
        assert proc.next_event.time == 1.0
        sim.run_until(1.0)
        assert seen == [1.0]
        assert proc.next_event.time == 2.0
        proc.stop()
        assert proc.next_event is None


class TestInjection:
    def test_double_injection_rejected(self):
        from repro.campaign.builder import SystemBuilder
        sut = SystemBuilder(ExperimentConfig(**SHORT)).build()
        temps = sut.sensors.temps.copy()
        sut.sensors.inject_advance(temps)
        with pytest.raises(RuntimeError, match="already pending"):
            sut.sensors.inject_advance(temps)

    def test_injected_tick_consumes_temps_verbatim(self):
        from repro.campaign.builder import SystemBuilder
        sut = SystemBuilder(ExperimentConfig(**SHORT)).build()
        target = np.full(sut.sensors.network.n_nodes, 55.0)
        sut.sensors.inject_advance(target)
        sut.sim.run_until(sut.config.sensor_period_s)
        assert sut.sensors.temps is target
        assert sut.sensors.updates == 1


class TestLockstepGroup:
    def test_reports_match_run_experiment(self):
        configs = [ExperimentConfig(policy=p, solver="sparse-exact",
                                    **SHORT)
                   for p in ("energy", "migra", "load")]
        expected = [run_experiment(c).report for c in configs]
        got = run_lockstep_group(configs)
        assert [r.to_dict() for r in got] == \
            [r.to_dict() for r in expected]

    def test_traceless_config_rejected(self):
        config = ExperimentConfig(trace_enabled=False, **SHORT)
        with pytest.raises(ValueError, match="trace_enabled"):
            run_lockstep_group([config])

    def test_single_config_group(self):
        config = ExperimentConfig(**SHORT)
        expected = run_experiment(config).report
        (got,) = run_lockstep_group([config])
        assert got.to_dict() == expected.to_dict()

    def test_mixed_sensor_period_falls_back_to_serial_stepping(self):
        """A config whose sensor period differs can't share epochs; the
        driver must run it serially yet still match run_experiment."""
        base = ExperimentConfig(solver="sparse-exact", **SHORT)
        configs = [base, base.variant(policy="migra", threshold_c=1.0),
                   base.variant(sensor_period_s=0.02)]
        expected = [run_experiment(c).report for c in configs]
        got = run_lockstep_group(configs)
        assert [r.to_dict() for r in got] == \
            [r.to_dict() for r in expected]


class _DuckSolver:
    """A solver with only ``advance`` and ``steady_state``."""

    def __init__(self, network):
        self._exact = make_solver("dense-exact", network)

    def advance(self, temps, block_power, dt):
        return self._exact.advance(temps, block_power, dt)

    def steady_state(self, block_power):
        return self._exact.steady_state(block_power)


class TestDuckTypedSolver:
    def test_vectorized_matches_serial_without_advance_batch(self):
        """The registry accepts any object with ``advance`` and
        ``steady_state``; lockstep steps such a solver's simulators
        one by one instead of calling ``advance_batch``."""
        with solver_registry.temporarily("duck", _DuckSolver):
            configs = sweep(ExperimentConfig(solver="duck", **SHORT),
                            policy=("migra", "stopgo"),
                            threshold_c=(1.0, 2.0))
            serial = CampaignRunner(backend="serial").run(
                configs, name="duck")
            vectorized = CampaignRunner(backend="vectorized").run(
                configs, name="duck")
        assert vectorized.to_json() == serial.to_json()
