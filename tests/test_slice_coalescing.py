"""Differential tests for the coalesced slice engine.

The coalesced engine (``repro.mpos.scheduler``) must be *bit-for-bit*
equivalent to the per-quantum engine in every observable: task cycle
accounting, scheduler counters, run-queue order and all run metrics.
These tests drive mirrored systems — one per engine, the per-quantum
side forced through ``slice_oracle`` — through identical operation
sequences (time advances, frame pushes, gating, DVFS changes) and
compare exhaustively after every step; a hypothesis search generates
the sequences.  Every comparison also checks that the oracle side
really ran per quantum: no coalesced slice, more kernel events.

Observation forces materialization: an open window's boundary replay
is deferred to the window event, so the coalesced system is unwound
(:meth:`CoreScheduler.materialize`) before comparing — exactly the
state the legacy engine holds at that instant.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.mpos.queues import MsgQueue
from repro.mpos.system import MPOS
from repro.mpos.task import StreamTask, TaskState
from repro.platform.presets import CONF1_STREAMING, build_chip
from repro.sim.kernel import Simulator

from slice_oracle import force_per_quantum, per_quantum_everywhere


def build_stack(oracle=False):
    """Two tiles: a contended rotation (a, b) on tile 0, a solo
    consumer (c) on tile 1 fed by a's output — cross-tile wake-ups.
    ``oracle=True`` forces every scheduler to run per quantum."""
    sim = Simulator()
    chip = build_chip(lambda: sim.now, 2, CONF1_STREAMING, sim=sim)
    mpos = MPOS(sim, chip, quantum_s=0.001)
    if oracle:
        force_per_quantum(*mpos.schedulers)

    queues = {name: MsgQueue(name, 6) for name in
              ("qa", "qb", "q1", "q2", "q3")}
    for q in queues.values():
        mpos.bind_queue(q)

    # Deliberately non-round cycle counts: completion boundaries fall
    # off the quantum grid, so virtual boundaries exercise drift.
    a = StreamTask("a", cycles_per_frame=3.7e6, frame_period_s=0.04)
    a.inputs, a.outputs = [queues["qa"]], [queues["q1"]]
    b = StreamTask("b", cycles_per_frame=2.1e6, frame_period_s=0.04)
    b.inputs, b.outputs = [queues["qb"]], [queues["q2"]]
    c = StreamTask("c", cycles_per_frame=5.3e6, frame_period_s=0.04)
    c.inputs, c.outputs = [queues["q1"]], [queues["q3"]]
    mpos.map_task(a, 0)
    mpos.map_task(b, 0)
    mpos.map_task(c, 1)
    return sim, chip, mpos, queues, (a, b, c)


def build_pair():
    """A coalesced stack and its per-quantum oracle twin."""
    return build_stack(), build_stack(oracle=True)


def assert_oracle_ran_per_quantum(fast, slow, strict=True):
    """The oracle side opened no window and so executed more kernel
    events (at least as many when no window could have opened)."""
    assert sum(s.slices_coalesced for s in slow[2].schedulers) == 0
    if strict:
        assert fast[0].events_executed < slow[0].events_executed
    else:
        assert fast[0].events_executed <= slow[0].events_executed


def observe(sim, chip, mpos, queues, tasks):
    """Full bitwise snapshot; unwinds open windows first so deferred
    boundary replays are materialized (the legacy-equivalent state)."""
    for s in mpos.schedulers:
        s.materialize()
    snap = {"now": sim.now.hex()}
    for t in tasks:
        snap[t.name] = (t.state.name, t.phase.name, t.frames_done,
                        t.remaining_cycles.hex(), t.total_cycles.hex())
    for s in mpos.schedulers:
        snap[f"sched{s.tile_index}"] = (
            s.slices_run, s.context_switches, s.gated,
            s.current.name if s.current else None,
            tuple(t.name for t in s.run_q))
    for name, q in queues.items():
        snap[f"queue.{name}"] = q.level
    for tile in chip.tiles:
        snap[f"tile{tile.index}"] = (tile.active, tile.gated,
                                     tile.opp.frequency_hz.hex())
    return snap


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("run"),
                  st.floats(min_value=1e-4, max_value=0.03,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("push"), st.sampled_from(["qa", "qb"])),
        st.tuples(st.just("drain"), st.sampled_from(["q2", "q3"])),
        st.tuples(st.just("gate"), st.integers(0, 1)),
        st.tuples(st.just("ungate"), st.integers(0, 1)),
        st.tuples(st.just("opp"), st.integers(0, 1), st.integers(0, 3)),
    ),
    min_size=4, max_size=40)


def apply_op(op, sim, chip, mpos, queues, tasks):
    kind = op[0]
    if kind == "run":
        sim.run_until(sim.now + op[1])
    elif kind == "push":
        queues[op[1]].push("frame")
    elif kind == "drain":
        q = queues[op[1]]
        if not q.is_empty:
            q.pop()
    elif kind == "gate":
        mpos.gate_core(op[1])
    elif kind == "ungate":
        mpos.ungate_core(op[1])
    elif kind == "opp":
        core, level = op[1], op[2]
        tile = chip.tile(core)
        chip.set_tile_opp(core, tile.opp_table.points[level])
        mpos.scheduler(core).on_frequency_changed()


class TestDifferentialProperty:
    @settings(max_examples=40, deadline=None)
    @given(ops=OPS)
    def test_engines_bitwise_equal_under_random_ops(self, ops):
        fast, slow = build_pair()
        for op in ops:
            apply_op(op, *fast)
            apply_op(op, *slow)
            assert observe(*fast) == observe(*slow)
        assert_oracle_ran_per_quantum(fast, slow, strict=False)

    @settings(max_examples=10, deadline=None)
    @given(ops=OPS)
    def test_coalesced_engine_schedules_fewer_events(self, ops):
        fast, slow = build_pair()
        for op in ops:
            apply_op(op, *fast)
            apply_op(op, *slow)
        assert_oracle_ran_per_quantum(fast, slow, strict=False)


class TestUnwindPaths:
    """Each interruption class unwinds an open window exactly."""

    def fed_pair(self, frames=3):
        fast, slow = build_pair()
        for stack in (fast, slow):
            queues = stack[3]
            for _ in range(frames):
                queues["qa"].push("f")
                queues["qb"].push("f")
        return fast, slow

    def test_external_observation_mid_window(self):
        fast, slow = self.fed_pair()
        for stack in (fast, slow):
            stack[0].run_until(0.0035)   # mid-quantum, mid-window
        assert observe(*fast) == observe(*slow)
        assert_oracle_ran_per_quantum(fast, slow)

    def test_gate_mid_window(self):
        fast, slow = self.fed_pair()
        for stack in (fast, slow):
            sim, chip, mpos = stack[:3]
            sim.run_until(0.0052)
            mpos.gate_core(0)
            sim.run_until(0.009)
            mpos.ungate_core(0)
            sim.run_until(0.02)
        assert observe(*fast) == observe(*slow)
        assert_oracle_ran_per_quantum(fast, slow)

    def test_frequency_change_mid_window(self):
        fast, slow = self.fed_pair()
        for stack in (fast, slow):
            sim, chip, mpos = stack[:3]
            sim.run_until(0.0041)
            tile = chip.tile(0)
            chip.set_tile_opp(0, tile.opp_table.points[1])
            mpos.scheduler(0).on_frequency_changed()
            sim.run_until(0.02)
        assert observe(*fast) == observe(*slow)
        assert_oracle_ran_per_quantum(fast, slow)

    def test_arrival_mid_window_forms_rotation(self):
        # b's first frame arrives while a's solo window is open: the
        # unwound scheduler must pick up the round-robin exactly where
        # the legacy engine would.
        fast, slow = build_pair()
        for stack in (fast, slow):
            sim, chip, mpos, queues, tasks = stack
            queues["qa"].push("f")
            sim.run_until(0.0027)
            queues["qb"].push("f")
            sim.run_until(0.05)
        assert observe(*fast) == observe(*slow)
        assert_oracle_ran_per_quantum(fast, slow)

    def test_rotation_window_coalesces_contended_slices(self):
        sim, chip, mpos, queues, tasks = build_stack()
        queues["qa"].push("f")
        queues["qb"].push("f")
        sim.run_until(0.04)
        sched = mpos.scheduler(0)
        assert sched.slices_run > 10
        assert sched.slices_coalesced > 0
        # Far fewer kernel events than slices: windows replayed them.
        assert sim.events_executed < sched.slices_run


def run_report(policy):
    """One short experiment's report as a plain dict."""
    config = ExperimentConfig(policy=policy, warmup_s=0.5, measure_s=1.0)
    return run_experiment(config).report.to_dict()


@pytest.mark.parametrize("policy", ["energy", "stopgo", "migra"])
def test_full_run_reports_byte_identical(policy):
    on = run_report(policy)
    with per_quantum_everywhere():
        off = run_report(policy)
    # Only the event-path diagnostics may differ between engines.
    diagnostic = ("events_executed", "slices_coalesced")
    assert {k: v for k, v in on.items() if k not in diagnostic} \
        == {k: v for k, v in off.items() if k not in diagnostic}
    assert on["slices_run"] == off["slices_run"]
    assert off["slices_coalesced"] == 0 < on["slices_coalesced"]
    assert on["events_executed"] < off["events_executed"]
