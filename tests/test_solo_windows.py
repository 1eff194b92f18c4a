"""Solo coalesced windows at the edges of their plan.

A window with one task on its tile plans its boundaries with a
branch instead of ``min``/``max`` and hands its plan's cycle counts to
the window end instead of replaying the quanta (``CoreScheduler.
_begin_coalesced``).  These cases put a task's remaining cycles on,
just above and just below a quantum multiple and ``CYCLE_EPS``, and a
foreign event on, just before and just after a quantum boundary, and
compare every observable with the per-quantum oracle engine
(``slice_oracle``).

The quantum is ``2**-10`` s, so at the tile's frequency a quantum is a
binary fraction of cycles and a boundary a binary fraction of seconds:
the sums below land exactly where their names say.
"""

import math

import pytest

from repro.mpos.queues import MsgQueue
from repro.mpos.scheduler import CYCLE_EPS
from repro.mpos.system import MPOS
from repro.mpos.task import StreamTask
from repro.platform.presets import CONF1_STREAMING, build_chip
from repro.sim.kernel import Simulator

from slice_oracle import force_per_quantum

QUANTUM_S = 2.0 ** -10
TINY = 2.0 ** -30
FRAMES = 4


def quantum_cycles():
    sim = Simulator()
    chip = build_chip(lambda: sim.now, 1, CONF1_STREAMING, sim=sim)
    return QUANTUM_S * chip.tile(0).frequency_hz


def build_solo(cycles, oracle, horizon=None):
    """One tile, one task with ``FRAMES`` frames of ``cycles`` each; an
    optional foreign (horizon-bounding) event at ``horizon``."""
    sim = Simulator()
    chip = build_chip(lambda: sim.now, 1, CONF1_STREAMING, sim=sim)
    mpos = MPOS(sim, chip, quantum_s=QUANTUM_S)
    if oracle:
        force_per_quantum(*mpos.schedulers)
    source, sink = MsgQueue("in", 16), MsgQueue("out", 16)
    mpos.bind_queue(source)
    mpos.bind_queue(sink)
    # A demand above f_max keeps the governor at the top operating
    # point, the frequency ``quantum_cycles`` assumes.
    task = StreamTask("solo", cycles_per_frame=cycles, frame_period_s=1e-4)
    task.inputs, task.outputs = [source], [sink]
    mpos.map_task(task, 0)
    assert QUANTUM_S * chip.tile(0).frequency_hz == quantum_cycles()
    if horizon is not None:
        sim.schedule_at(horizon, lambda: None)
    for _ in range(FRAMES):
        source.push("frame")
    return sim, mpos, task


def observe(sim, mpos, task):
    scheduler = mpos.scheduler(0)
    scheduler.materialize()
    return (sim.now.hex(), task.state.name, task.phase.name,
            task.frames_done, task.remaining_cycles.hex(),
            task.total_cycles.hex(), scheduler.slices_run,
            scheduler.context_switches)


def run_pair(cycles, stops, horizon=None):
    """Both engines through the same stops; returns the fast side's
    coalesced slice count and frames done after asserting bitwise
    equality."""
    fast = build_solo(cycles, oracle=False, horizon=horizon)
    slow = build_solo(cycles, oracle=True, horizon=horizon)
    for stop in stops:
        for sim, _, _ in (fast, slow):
            sim.run_until(stop)
        assert observe(*fast) == observe(*slow)
    assert slow[1].scheduler(0).slices_coalesced == 0
    return fast[1].scheduler(0).slices_coalesced, fast[2].frames_done


#: Remaining cycles after the window's full quanta, relative to a
#: quantum multiple: on it, just above and below it, on CYCLE_EPS and
#: just above and below that, and well inside a quantum.
LANDINGS = {
    "multiple": 0.0,
    "multiple+": TINY,
    "multiple-": -TINY,
    "eps": CYCLE_EPS,
    "eps+": CYCLE_EPS + TINY,
    "eps-": CYCLE_EPS - TINY,
    "two-eps": 2 * CYCLE_EPS,
    "half": None,          # half a quantum
}


@pytest.mark.parametrize("quanta", [2, 3, 11])
@pytest.mark.parametrize("landing", sorted(LANDINGS))
def test_completion_landings_match_the_oracle(quanta, landing):
    q = quantum_cycles()
    offset = LANDINGS[landing]
    cycles = quanta * q + (q / 2 if offset is None else offset)
    frame_s = cycles / q * QUANTUM_S
    # One look mid-window (an unwind), then the rest uninterrupted.
    stops = [frame_s * 1.5, frame_s * (FRAMES + 1)]
    coalesced, frames = run_pair(cycles, stops)
    assert coalesced > 0      # the windows really opened
    assert frames == FRAMES


def test_quantum_and_landings_are_exact():
    # The premise of the cases above: a quantum is an exact binary
    # fraction of cycles, so ``quanta * q + offset`` lands as named.
    q = quantum_cycles()
    assert (q * 1024).is_integer()
    for offset in (TINY, -TINY, CYCLE_EPS + TINY, CYCLE_EPS - TINY):
        assert (3 * q + offset) - 3 * q == offset


@pytest.mark.parametrize("nudge", [-1, 0, 1])
@pytest.mark.parametrize("boundary", [2, 5, 9])
def test_horizon_on_a_boundary_matches_the_oracle(boundary, nudge):
    """A foreign event on quantum boundary ``boundary`` of the first
    frame (or one float before or after it) bounds the solo window."""
    q = quantum_cycles()
    cycles = 12 * q + q / 3
    horizon = boundary * QUANTUM_S
    if nudge:
        horizon = math.nextafter(horizon, nudge * math.inf)
    stops = [horizon, horizon + QUANTUM_S / 2, 0.1]
    run_pair(cycles, stops, horizon=horizon)
