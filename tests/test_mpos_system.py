"""Tests for the MPOS facade."""

import pytest

from repro.mpos.queues import MsgQueue
from repro.mpos.system import MPOS
from repro.mpos.task import StreamTask
from repro.platform.presets import CONF1_STREAMING, build_chip
from repro.sim.kernel import Simulator


def make_system(n_tiles=2):
    sim = Simulator()
    chip = build_chip(lambda: sim.now, n_tiles, CONF1_STREAMING, sim=sim)
    return sim, chip, MPOS(sim, chip)


def pipeline_task(mpos, name, cycles=4e6, capacity=64):
    qin = MsgQueue(f"{name}.in", capacity)
    qout = MsgQueue(f"{name}.out", capacity)
    mpos.bind_queue(qin)
    mpos.bind_queue(qout)
    task = StreamTask(name, cycles_per_frame=cycles, frame_period_s=0.04)
    task.inputs, task.outputs = [qin], [qout]
    return task, qin, qout


class TestMPOSFacade:
    def test_construction_schedules_nothing(self):
        # The OS layer keeps no clock of its own: every kernel event
        # comes from a task, a queue, a sensor or a migration.
        sim = Simulator()
        chip = build_chip(lambda: sim.now, 3, CONF1_STREAMING, sim=sim)
        pending = sim.pending_events
        MPOS(sim, chip)
        assert sim.pending_events == pending

    def test_duplicate_task_name_rejected(self):
        sim, chip, mpos = make_system()
        a, *_ = pipeline_task(mpos, "a")
        mpos.map_task(a, 0)
        dup, *_ = pipeline_task(mpos, "a")
        with pytest.raises(ValueError):
            mpos.map_task(dup, 1)

    def test_invalid_core_rejected(self):
        sim, chip, mpos = make_system()
        a, *_ = pipeline_task(mpos, "a")
        with pytest.raises(ValueError):
            mpos.map_task(a, 5)

    def test_tasks_on_core(self):
        sim, chip, mpos = make_system()
        a, *_ = pipeline_task(mpos, "a")
        b, *_ = pipeline_task(mpos, "b")
        mpos.map_task(a, 0)
        mpos.map_task(b, 1)
        assert mpos.tasks_on_core(0) == [a]
        assert mpos.tasks_on_core(1) == [b]
        assert mpos.core_of(b) == 1

    def test_task_lookup_by_name(self):
        sim, chip, mpos = make_system()
        a, *_ = pipeline_task(mpos, "a")
        mpos.map_task(a, 0)
        assert mpos.task("a") is a
        with pytest.raises(KeyError):
            mpos.task("missing")

    def test_total_frames_done(self):
        sim, chip, mpos = make_system()
        a, qa, _ = pipeline_task(mpos, "a", cycles=1e6)
        mpos.map_task(a, 0)
        for _ in range(4):
            qa.push("f")
        sim.run_until(1.0)
        assert mpos.total_frames_done() == 4
