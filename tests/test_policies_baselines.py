"""Tests for Stop&Go, energy balancing, load balancing and the guard."""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpos.queues import MsgQueue
from repro.mpos.system import MPOS
from repro.mpos.task import StreamTask
from repro.platform.presets import CONF1_STREAMING, build_chip
from repro.policies.energy_balance import EnergyBalancing
from repro.policies.base import mean_of
from repro.policies.guard import PanicGuard
from repro.policies.load_balance import LoadBalancing
from repro.policies.stop_go import StopAndGo
from repro.sim.kernel import Simulator

F_MAX = 533e6


def make_system(n_tiles=3):
    sim = Simulator()
    chip = build_chip(lambda: sim.now, n_tiles, CONF1_STREAMING, sim=sim)
    return sim, chip, MPOS(sim, chip)


def add_task(mpos, name, fse, core):
    t = StreamTask(name, cycles_per_frame=fse * F_MAX * 0.04,
                   frame_period_s=0.04)
    qin, qout = MsgQueue(f"{name}.i", 4), MsgQueue(f"{name}.o", 4)
    mpos.bind_queue(qin)
    mpos.bind_queue(qout)
    t.inputs, t.outputs = [qin], [qout]
    mpos.map_task(t, core)
    return t


class TestStopAndGoThreshold:
    def test_gates_core_above_upper_threshold(self):
        sim, chip, mpos = make_system()
        policy = StopAndGo(threshold_c=3.0)
        policy.attach(mpos)
        policy.enable(0.0)
        policy.step(0.0, np.array([70.0, 61.0, 58.0]))
        assert mpos.gated_cores() == [0]
        assert policy.gate_events == 1

    def test_ungates_below_lower_threshold(self):
        sim, chip, mpos = make_system()
        policy = StopAndGo(threshold_c=3.0)
        policy.attach(mpos)
        policy.enable(0.0)
        policy.step(0.0, np.array([70.0, 61.0, 58.0]))
        # Core 0 cooled well below mean - theta.
        policy.step(1.0, np.array([56.0, 61.0, 62.0]))
        assert mpos.gated_cores() == []
        assert policy.total_gated_time_s == pytest.approx(1.0)

    def test_hysteresis_keeps_gate_inside_band(self):
        sim, chip, mpos = make_system()
        policy = StopAndGo(threshold_c=3.0)
        policy.attach(mpos)
        policy.enable(0.0)
        policy.step(0.0, np.array([70.0, 61.0, 58.0]))
        # Inside the band: neither gate nor ungate.
        policy.step(0.5, np.array([63.0, 62.0, 62.0]))
        assert mpos.gated_cores() == [0]

    def test_multiple_cores_can_gate(self):
        sim, chip, mpos = make_system()
        policy = StopAndGo(threshold_c=1.0)
        policy.attach(mpos)
        policy.enable(0.0)
        policy.step(0.0, np.array([70.0, 69.0, 58.0]))
        assert set(mpos.gated_cores()) == {0, 1}

    def test_decisions_recorded(self):
        sim, chip, mpos = make_system()
        policy = StopAndGo(threshold_c=3.0)
        policy.attach(mpos)
        policy.enable(0.0)
        policy.step(0.0, np.array([70.0, 61.0, 58.0]))
        assert policy.decisions[0].kind == "gate"
        assert policy.decisions[0].core == 0


class TestStopAndGoTimeout:
    def test_original_variant_uses_absolute_panic(self):
        sim, chip, mpos = make_system()
        policy = StopAndGo(mode="timeout", panic_temp_c=80.0, timeout_s=0.5)
        policy.attach(mpos)
        policy.enable(0.0)
        policy.step(0.0, np.array([82.0, 61.0, 58.0]))
        assert mpos.gated_cores() == [0]
        sim.run_until(0.6)   # timer expires
        assert mpos.gated_cores() == []

    def test_below_panic_no_gate(self):
        sim, chip, mpos = make_system()
        policy = StopAndGo(mode="timeout", panic_temp_c=80.0)
        policy.attach(mpos)
        policy.enable(0.0)
        policy.step(0.0, np.array([75.0, 61.0, 58.0]))
        assert mpos.gated_cores() == []

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            StopAndGo(mode="banana")


class TestEnergyBalancing:
    def test_step_is_a_noop(self):
        sim, chip, mpos = make_system()
        policy = EnergyBalancing()
        policy.attach(mpos)
        policy.enable(0.0)
        policy.step(0.0, np.array([90.0, 40.0, 40.0]))
        assert mpos.gated_cores() == []
        assert not mpos.engine.busy
        assert policy.decisions == []

    def test_describe_mapping(self):
        sim, chip, mpos = make_system()
        add_task(mpos, "BPF1", 0.367, 0)
        add_task(mpos, "BPF2", 0.3045, 1)
        text = EnergyBalancing.describe_mapping(mpos)
        assert "BPF1" in text and "Core 1" in text


class TestLoadBalancing:
    def test_moves_task_from_loaded_to_idle_core(self):
        sim, chip, mpos = make_system()
        add_task(mpos, "big", 0.4, 0)
        add_task(mpos, "small", 0.1, 0)
        policy = LoadBalancing(tolerance_hz=20e6, eval_period_s=0.0)
        policy.attach(mpos)
        policy.enable(0.0)
        policy.step(0.0, np.array([60.0, 60.0, 60.0]))
        sim.run_until(0.5)
        cores = {mpos.core_of(mpos.task("big")),
                 mpos.core_of(mpos.task("small"))}
        assert len(cores) == 2   # split across cores now

    def test_no_move_within_tolerance(self):
        sim, chip, mpos = make_system()
        add_task(mpos, "a", 0.2, 0)
        add_task(mpos, "b", 0.19, 1)
        add_task(mpos, "c", 0.18, 2)
        policy = LoadBalancing(tolerance_hz=40e6, eval_period_s=0.0)
        policy.attach(mpos)
        policy.enable(0.0)
        policy.step(0.0, np.array([60.0, 60.0, 60.0]))
        assert not mpos.engine.busy

    def test_eval_period_enforced(self):
        sim, chip, mpos = make_system()
        add_task(mpos, "big", 0.4, 0)
        policy = LoadBalancing(tolerance_hz=20e6, eval_period_s=10.0)
        policy.attach(mpos)
        policy.enable(0.0)
        policy.step(0.0, np.array([60.0] * 3))
        sim.run_until(1.0)
        first_moves = len(mpos.engine.records)
        policy.step(1.0, np.array([60.0] * 3))
        sim.run_until(2.0)
        assert len(mpos.engine.records) == first_moves

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LoadBalancing(tolerance_hz=0.0)


class TestPanicGuard:
    def test_gates_at_panic_temperature(self):
        sim, chip, mpos = make_system()
        guard = PanicGuard(panic_temp_c=95.0, resume_margin_c=5.0)
        guard.attach(mpos)
        guard.enable(0.0)
        guard.step(0.0, np.array([96.0, 60.0, 60.0]))
        assert mpos.gated_cores() == [0]
        assert guard.panic_events == 1
        assert guard.any_panicked

    def test_resumes_below_resume_temp(self):
        sim, chip, mpos = make_system()
        guard = PanicGuard(panic_temp_c=95.0, resume_margin_c=5.0)
        guard.attach(mpos)
        guard.enable(0.0)
        guard.step(0.0, np.array([96.0, 60.0, 60.0]))
        guard.step(1.0, np.array([92.0, 60.0, 60.0]))   # above resume
        assert mpos.gated_cores() == [0]
        guard.step(2.0, np.array([89.0, 60.0, 60.0]))
        assert mpos.gated_cores() == []
        assert not guard.any_panicked

    def test_no_action_below_panic(self):
        sim, chip, mpos = make_system()
        guard = PanicGuard(panic_temp_c=95.0)
        guard.attach(mpos)
        guard.enable(0.0)
        guard.step(0.0, np.array([94.0, 60.0, 60.0]))
        assert guard.panic_events == 0

    def test_invalid_margin_rejected(self):
        with pytest.raises(ValueError):
            PanicGuard(resume_margin_c=0.0)


class TestPolicyBase:
    def test_enable_requires_attach(self):
        policy = EnergyBalancing()
        with pytest.raises(RuntimeError):
            policy.enable(0.0)

    def test_band_helper(self):
        sim, chip, mpos = make_system()
        policy = StopAndGo(threshold_c=2.0)
        policy.attach(mpos)
        mean, lower, upper = policy.band(np.array([60.0, 62.0, 64.0]))
        assert mean == pytest.approx(62.0)
        assert (lower, upper) == (60.0, 64.0)

    def test_disable_stops_stepping(self):
        sim, chip, mpos = make_system()
        policy = StopAndGo(threshold_c=3.0)
        policy.attach(mpos)
        policy.enable(0.0)
        policy.disable()
        policy.on_temperature_update(0.0, np.array([70.0, 61.0, 58.0]))
        assert mpos.gated_cores() == []


class TestBandMean:
    """``band()`` means through ``mean_of``, which must stay bitwise
    ``float(np.mean(x))``: a numpy whose ``mean`` stops being its
    pairwise ``add.reduce`` divided by the count fails here."""

    @settings(max_examples=400, deadline=None)
    @given(values=hnp.arrays(
        np.float64, st.integers(1, 64),
        elements=st.floats(min_value=-1e300, max_value=1e300,
                           allow_nan=False, allow_infinity=False)))
    def test_equals_numpy_mean_bitwise(self, values):
        assert mean_of(values).hex() == float(np.mean(values)).hex()

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(min_value=20.0, max_value=130.0),
                           min_size=1, max_size=64))
    def test_equals_numpy_mean_on_temperatures(self, values):
        temps = np.array(values)
        assert mean_of(temps).hex() == float(np.mean(temps)).hex()
        assert StopAndGo(threshold_c=2.0).band(temps)[0] \
            == float(np.mean(temps))
