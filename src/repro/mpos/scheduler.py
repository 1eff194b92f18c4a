"""Per-core round-robin scheduler.

Each core runs its own OS instance (uClinux in the paper); we model its
scheduler as round-robin with a fixed time quantum over the streaming
tasks mapped to the core.  The scheduler owns the task state machine:

* ``ACQUIRE`` — pop one frame from every input queue (all-or-nothing;
  blocks as ``BLOCKED_INPUT`` if any queue is empty),
* ``COMPUTE`` — burn ``cycles_per_frame`` on the core, in quantum-sized
  slices whose wall duration depends on the current DVFS frequency,
* ``EMIT`` — push one frame to every output queue (partial progress is
  kept; blocks as ``BLOCKED_OUTPUT`` on the full ones),

and between iterations the **checkpoint**, where pending migration
requests freeze the task (Sec. 3.2).  Stop&Go's core gating and DVFS
frequency changes both preempt the current slice and re-account the
partially executed cycles exactly.

Coalesced slice stepping
------------------------
Between two *foreign* kernel events nothing can preempt the tasks on a
tile: the round-robin rotation over ``current`` + ``run_q`` is fully
determined, so the per-quantum slice events are pure overhead.  The
scheduler therefore computes a **horizon** — the earlier of the first task
completion and the next foreign event — and schedules ONE
``_end_coalesced`` event covering every virtual quantum boundary that
falls *strictly* before it.  The window end replays the exact
per-quantum accounting and hand-offs (``planned = min(quantum_s * f,
remaining)``, sequential float subtraction — NOT a closed-form sum,
float subtraction is non-associative — plus the requeue/dispatch
rotation), so ``remaining_cycles``, ``total_cycles``, ``slices_run``,
``context_switches`` and the ``run_q`` order are bit-for-bit what
per-quantum stepping produces.  Interruptions (gating, DVFS changes,
task arrivals, detach) *unwind* the window first:
:meth:`CoreScheduler._uncoalesce` replays the virtual boundaries up to
``sim.now`` and re-materializes the legacy in-flight slice, after
which the ordinary preemption/re-planning code runs unchanged.
Windows shorter than two slices, and rotations with a migration
pending, fall back to one kernel event per quantum
(:meth:`CoreScheduler._begin_single_slice`); the differential tests
force that fallback everywhere to run the per-quantum reference
engine (``tests/slice_oracle.py``).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.mpos.task import StreamTask, TaskPhase, TaskState
from repro.platform.chip import Chip
from repro.sim.kernel import Event, Simulator

#: Cycle slack below which a compute phase counts as finished (absorbs
#: floating-point dust from partial-slice accounting).
CYCLE_EPS = 0.5

#: Event-category tag on every scheduler quantum/window event.
SLICE_EVENT_CATEGORY = "slice"

#: Event classes the coalescing horizon looks *through*.  An event may
#: fire inside an open window only if every effect it can have on this
#: scheduler either goes through a hook that unwinds the window first
#: (``_make_ready``, preemption, gating, DVFS re-planning) or is
#: timing-neutral (``migration_pending``, honoured at checkpoints that
#: always run through the real completion path):
#:
#: * ``"slice"`` — other tiles' quantum/window events reach us only
#:   via emission wake-ups, which unwind;
#: * ``"sensor"`` — thermal ticks read chip power/thermal state (which
#:   is invariant between tile activity transitions, so mid-window
#:   reads see exactly the legacy values) and drive the policies,
#:   whose actions all route through the unwind hooks.  Matches
#:   ``repro.thermal.sensors.SENSOR_EVENT_CATEGORY`` (a literal here
#:   to keep the OS layer free of thermal imports);
#: * ``"source"`` / ``"sink"`` — frame producer/consumer ticks
#:   (``repro.streaming.frames``) mutate queues, but queue state is
#:   invariant inside a window (tasks push/pop only at completions,
#:   which terminate windows), and the only path from a queue back to
#:   a scheduler is the wake-up callbacks, which run ``_make_ready``
#:   and therefore unwind;
#: * ``"daemon"`` — the per-core statistics ticks
#:   (``repro.mpos.daemons``) read live ``total_cycles``, so they
#:   call :meth:`CoreScheduler.materialize` before reading.
#:
#: All four periodic classes are rescheduled one full period (>> one
#: quantum) ahead, so at an exact timestamp tie the legacy engine
#: fires them *before* the slice event — the tie rules in
#: :meth:`CoreScheduler._uncoalesce` and the window-end deferral in
#: :meth:`CoreScheduler._end_coalesced` reproduce that order.
#: Migration and load-modulation events — aperiodic, mutating tasks on
#: their own clock — keep bounding the horizon.
HORIZON_TRANSPARENT_CATEGORIES = (SLICE_EVENT_CATEGORY, "sensor",
                                  "source", "sink", "daemon")


FreezeCallback = Callable[[StreamTask], None]


class CoreScheduler:
    """Round-robin scheduler for one tile.

    Parameters
    ----------
    sim, chip, tile_index:
        Kernel, hardware and the tile this scheduler drives.
    quantum_s:
        Round-robin time slice (wall-clock; uClinux-style timer tick).
    """

    def __init__(self, sim: Simulator, chip: Chip, tile_index: int,
                 quantum_s: float = 0.001):
        if quantum_s <= 0:
            raise ValueError("quantum must be positive")
        self.sim = sim
        self.chip = chip
        self.tile_index = tile_index
        self.quantum_s = float(quantum_s)

        self.run_q: Deque[StreamTask] = deque()
        self.current: Optional[StreamTask] = None
        self.gated = False
        self._freeze_cb: Optional[FreezeCallback] = None

        self._slice_event: Optional[Event] = None
        self._slice_started = 0.0
        self._slice_f_hz = 0.0
        self._slice_planned_cycles = 0.0

        # Open coalesced window: one pending event standing in for
        # ``_co_slices`` virtual quantum slices starting at
        # ``_co_started`` with frequency ``_co_f_hz``.
        self._co_event: Optional[Event] = None
        self._co_started = 0.0
        self._co_f_hz = 0.0
        self._co_slices = 0
        # A solo window's ``(remaining, total)`` cycles after its
        # last-but-one boundary and its last slice's planned cycles;
        # None for a rotation's window.
        self._co_plan: Optional[tuple] = None

        self.context_switches = 0
        self.slices_run = 0
        #: How many of ``slices_run`` were accounted inside coalesced
        #: windows (i.e. without a dedicated kernel event).
        self.slices_coalesced = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def set_freeze_callback(self, cb: FreezeCallback) -> None:
        """Called with a task the moment it freezes for migration."""
        self._freeze_cb = cb

    @property
    def frequency_hz(self) -> float:
        return self.chip.tile(self.tile_index).frequency_hz

    @property
    def busy(self) -> bool:
        return self.current is not None

    # ------------------------------------------------------------------
    # task admission / removal
    # ------------------------------------------------------------------
    def attach_task(self, task: StreamTask) -> None:
        """Admit a task to this core (fresh, or arriving via migration)."""
        task.core_index = self.tile_index
        if task.state in (TaskState.NEW, TaskState.FROZEN):
            # Both enter at an iteration boundary.
            task.phase = TaskPhase.ACQUIRE
            self._try_start_iteration(task)
        elif task.state is TaskState.READY:
            self._uncoalesce()     # a new competitor joins the rotation
            self.run_q.append(task)
            self._maybe_dispatch()
        else:
            raise ValueError(
                f"cannot attach task {task.name} in state {task.state}")

    def detach_task(self, task: StreamTask) -> None:
        """Remove a task from this core's structures (not from queues it
        is registered on — the caller handles that for blocked tasks)."""
        if task is self.current:
            self._preempt_current(to_front=False, requeue=False)
        if task in self.run_q:
            self._uncoalesce()     # the rotation loses a member
            self.run_q.remove(task)

    # ------------------------------------------------------------------
    # queue wake-ups (called via MPOS routing)
    # ------------------------------------------------------------------
    def try_unblock_input(self, task: StreamTask) -> None:
        if task.state is not TaskState.BLOCKED_INPUT:
            return
        if any(q.is_empty for q in task.inputs):
            return
        for q in task.inputs:
            q.remove_waiter(task)
        self._acquire_frames(task)
        self._make_ready(task)

    def try_unblock_output(self, task: StreamTask) -> None:
        if task.state is not TaskState.BLOCKED_OUTPUT:
            return
        self._try_emit(task)

    # ------------------------------------------------------------------
    # migration support
    # ------------------------------------------------------------------
    def freeze_now(self, task: StreamTask) -> bool:
        """Freeze a task sitting at a checkpoint (blocked in ACQUIRE).

        Returns True if frozen; False if the task is mid-iteration and
        must reach its next checkpoint first.
        """
        if not task.at_checkpoint or task.state is not TaskState.BLOCKED_INPUT:
            return False
        for q in task.inputs:
            q.remove_waiter(task)
        self._freeze(task)
        return True

    # ------------------------------------------------------------------
    # Stop&Go gating
    # ------------------------------------------------------------------
    def gate(self) -> None:
        """Halt execution on this core (thermal shutdown)."""
        if self.gated:
            return
        if self.current is not None:
            self._preempt_current(to_front=True, requeue=True)
        self.gated = True
        self.chip.set_tile_active(self.tile_index, False)
        self.chip.set_tile_gated(self.tile_index, True)

    def ungate(self) -> None:
        """Resume execution after a thermal shutdown."""
        if not self.gated:
            return
        self.gated = False
        self.chip.set_tile_gated(self.tile_index, False)
        self._maybe_dispatch()

    # ------------------------------------------------------------------
    # DVFS interaction
    # ------------------------------------------------------------------
    def on_frequency_changed(self) -> None:
        """Re-plan the in-flight slice after an OPP change.

        The partially executed cycles are charged at the *old* frequency
        captured at slice start, then the remainder is re-scheduled at
        the new frequency.
        """
        self._uncoalesce()         # re-plan from the materialized slice
        if self.current is None or self._slice_event is None:
            return
        self._charge_partial_slice()
        self._begin_slice()

    # ------------------------------------------------------------------
    # external observation
    # ------------------------------------------------------------------
    def materialize(self) -> None:
        """Replay any open coalesced window up to ``sim.now``.

        An open window defers per-quantum accounting to its window
        event, so external readers of live task state — the per-core
        statistics daemons, differential tests — call this first to
        land the deferred boundaries.  A no-op when no window is open.
        """
        self._uncoalesce()

    # ------------------------------------------------------------------
    # internals — iteration state machine
    # ------------------------------------------------------------------
    def _try_start_iteration(self, task: StreamTask) -> None:
        """ACQUIRE: pop every input or block waiting for frames."""
        if any(q.is_empty for q in task.inputs):
            task.state = TaskState.BLOCKED_INPUT
            for q in task.inputs:
                if q.is_empty:
                    q.add_waiting_consumer(task)
            return
        self._acquire_frames(task)
        self._make_ready(task)

    def _acquire_frames(self, task: StreamTask) -> None:
        task.current_frames = [q.pop() for q in task.inputs]
        task.phase = TaskPhase.COMPUTE
        task.remaining_cycles = task.draw_frame_cycles()

    def _make_ready(self, task: StreamTask) -> None:
        self._uncoalesce()         # a competitor ends the solo window
        task.state = TaskState.READY
        self.run_q.append(task)
        self._maybe_dispatch()

    def _maybe_dispatch(self) -> None:
        if self.gated or self.current is not None:
            return
        if not self.run_q:
            self.chip.set_tile_active(self.tile_index, False)
            return
        task = self.run_q.popleft()
        task.state = TaskState.RUNNING
        self.current = task
        self.context_switches += 1
        self._begin_slice()

    def _begin_slice(self) -> None:
        task = self.current
        assert task is not None and task.phase is TaskPhase.COMPUTE
        run_q = self.run_q
        if not self.gated and not task.migration_pending \
                and not (run_q and any(t.migration_pending for t in run_q)) \
                and self._begin_coalesced(task):
            return
        self._begin_single_slice()

    def _begin_single_slice(self) -> None:
        """Per-quantum fallback: one kernel event per slice."""
        task = self.current
        f = self.frequency_hz
        planned = min(self.quantum_s * f, max(task.remaining_cycles, 0.0))
        self._slice_started = self.sim.now
        self._slice_f_hz = f
        self._slice_planned_cycles = planned
        self.chip.set_tile_active(self.tile_index, True)
        self._slice_event = self.sim.schedule(planned / f, self._end_slice)
        self._slice_event.category = SLICE_EVENT_CATEGORY
        self.slices_run += 1

    # ------------------------------------------------------------------
    # internals — coalesced slice engine
    # ------------------------------------------------------------------
    def _begin_coalesced(self, task: StreamTask) -> bool:
        """Open a coalesced window, or return False to run per-quantum.

        Replays the virtual quantum boundaries ``t_k = t_{k-1} +
        planned_k / f`` (the exact float arithmetic the legacy engine's
        ``schedule(planned / f)`` chain produces) over the round-robin
        rotation ``current, run_q[0], run_q[1], ...`` and counts how
        many fall *strictly* before the horizon — the next pending
        event outside :data:`HORIZON_TRANSPARENT_CATEGORIES`, or the
        first task completion.  No event that could gate, re-clock,
        reorder or *read* the rotation's accounting fires inside an
        open window without unwinding it first.  Windows shorter than
        two slices fall back to the legacy engine, which reproduces
        the event/seq tie-ordering at the horizon boundary by
        construction.

        ``planned = min(quantum, max(remaining, 0.0))`` is spelled as a
        branch: a full quantum when ``not (remaining < quantum)`` (NaN
        included, as ``min`` does), else ``max(remaining, 0.0)``; the
        full-quantum step ``quantum / f`` is the same division hoisted.
        A solo window's plan doubles as its replay: it records the
        task's cycle counts after the last-but-one boundary and the
        last slice's planned cycles, which :meth:`_end_coalesced`
        assigns instead of re-running the loop.
        """
        f = self.frequency_hz
        horizon = self.sim.peek_time_excluding(
            category=HORIZON_TRANSPARENT_CATEGORIES)
        if horizon is None:
            horizon = math.inf
        quantum_cycles = self.quantum_s * f
        step = quantum_cycles / f
        end = self.sim.now
        n_slices = 0
        if not self.run_q:
            remaining = task.remaining_cycles
            total = task.total_cycles
            plan = None
            while True:
                if remaining < quantum_cycles:
                    planned = max(remaining, 0.0)
                    t_next = end + planned / f
                else:
                    planned = quantum_cycles
                    t_next = end + step
                if not (t_next < horizon):
                    break
                n_slices += 1
                end = t_next
                plan = (remaining, total, planned)
                remaining -= planned
                total += planned
                if remaining <= CYCLE_EPS:
                    break          # completion boundary inside window
        else:
            rotation = [task.remaining_cycles]
            rotation.extend(t.remaining_cycles for t in self.run_q)
            size = len(rotation)
            plan = None
            i = 0
            while True:
                remaining = rotation[i]
                if remaining < quantum_cycles:
                    planned = max(remaining, 0.0)
                    t_next = end + planned / f
                else:
                    planned = quantum_cycles
                    t_next = end + step
                if not (t_next < horizon):
                    break
                n_slices += 1
                end = t_next
                remaining -= planned
                if remaining <= CYCLE_EPS:
                    break          # completion boundary inside window
                rotation[i] = remaining
                i = (i + 1) % size  # quantum expired: round-robin
        if n_slices < 2:
            return False
        self._co_started = self.sim.now
        self._co_f_hz = f
        self._co_slices = n_slices
        self._co_plan = plan
        self.chip.set_tile_active(self.tile_index, True)
        self._co_event = self.sim.schedule_at(end, self._end_coalesced)
        self._co_event.category = SLICE_EVENT_CATEGORY
        self.slices_run += 1       # slice 1 of the window began
        return True

    def _replay(self, now: float, tie_fired: bool):
        """Land the open window's virtual boundaries up to ``now``.

        Replays at most ``_co_slices - 1`` boundaries, each the
        identical operation sequence the legacy ``_end_slice`` /
        ``_maybe_dispatch`` pair performs at a non-completing boundary:
        account the running task's slice (``planned`` recomputed from
        the *current* remaining cycles before the subtraction — float
        subtraction is not associative, so no closed form), then the
        round-robin hand-off when competitors wait.  A boundary at
        ``now`` is replayed only when ``tie_fired``.  Returns ``(start,
        planned, end)`` of the slice left in flight and closes the
        window's bookkeeping.
        """
        f = self._co_f_hz
        quantum_cycles = self.quantum_s * f
        step = quantum_cycles / f
        limit = self._co_slices - 1
        self._co_slices = 0
        self._co_plan = None
        run_q = self.run_q
        task = self.current
        start = self._co_started
        replayed = 0
        while True:
            remaining = task.remaining_cycles
            if remaining < quantum_cycles:
                planned = max(remaining, 0.0)
                end = start + planned / f
            else:
                planned = quantum_cycles
                end = start + step
            if replayed >= limit or end > now \
                    or (end == now and not tie_fired):
                break              # the slice containing ``now``
            task.remaining_cycles = remaining - planned
            task.total_cycles += planned
            if run_q:
                task.state = TaskState.READY
                run_q.append(task)
                task = run_q.popleft()
                task.state = TaskState.RUNNING
            start = end
            replayed += 1
        self.current = task
        if run_q:
            self.context_switches += replayed
        self.slices_run += replayed    # each boundary began a slice
        self.slices_coalesced += replayed
        return start, planned, end

    def _end_coalesced(self) -> None:
        """Apply a completed window: replay every covered quantum.

        Boundaries ``1 .. m-1`` each ended one slice and began the
        next (a solo window assigns its plan's cycle counts, a
        rotation replays them with :meth:`_replay`); slice ``m`` is
        rematerialized as the legacy in-flight slice and finished by
        ``_end_slice``, which owns the completion / round-robin /
        continue logic and whose ``_begin_slice`` call opens the next
        window.
        """
        assert self.current is not None
        self._co_event = None
        now = self.sim.now
        f = self._co_f_hz
        if self.sim.peek_time() == now:
            # A pending event ties at the window end — a transparent
            # periodic tick, rescheduled a full period (>> quantum)
            # before ``now`` and hence carrying a lower seq than the
            # slice event the legacy engine would have scheduled one
            # quantum ago.  It must fire before the final slice does:
            # rematerialize that slice as a fresh kernel event (fresh
            # seq = after every tied event) instead of finishing
            # inline, with the in-flight ``_slice_started`` bitwise the
            # legacy slice start.
            start, planned, _ = self._replay(math.inf, True)
            self._slice_started = start
            self._slice_f_hz = f
            self._slice_planned_cycles = planned
            self.slices_coalesced += 1
            self._slice_event = self.sim.schedule_at(now, self._end_slice)
            self._slice_event.category = SLICE_EVENT_CATEGORY
            return
        plan = self._co_plan
        if plan is not None:
            # Solo window: no hand-offs, and the plan already ran the
            # accounting loop; nothing observes the intermediate states.
            boundaries = self._co_slices - 1
            self._co_slices = 0
            self._co_plan = None
            task = self.current
            task.remaining_cycles, task.total_cycles, planned = plan
            self.slices_run += boundaries
            self.slices_coalesced += boundaries
        else:
            _, planned, _ = self._replay(math.inf, True)
        self._slice_started = now            # unused by _end_slice
        self._slice_f_hz = f
        self._slice_planned_cycles = planned
        self.slices_coalesced += 1
        self._end_slice()

    def _uncoalesce(self) -> None:
        """Unwind an open window at ``sim.now`` (an interruption).

        Reconstructs the exact state the legacy engine would hold at
        this point: every virtual boundary before ``now`` has fired,
        the slice containing ``now`` is in flight with a real kernel
        event at its natural boundary.  After this the ordinary
        preemption / re-planning / round-robin code applies unchanged
        — ``_charge_partial_slice`` charges the in-flight fraction
        with its usual expression.

        A boundary *exactly at* ``now`` needs the legacy tie-order: it
        has fired for external interrupts (``run_until`` executes
        events with timestamp ``<= now``) and for slice-class
        interrupters (a waking producer's emission event is sequenced
        after the consumer boundary it ties with), but NOT for
        periodic foreign events such as sensor ticks — those are
        scheduled at least one full period early, hence carry a lower
        seq than the boundary event and run first.
        """
        if self._co_event is None:
            return
        assert self.current is not None
        self._co_event.cancel()
        self._co_event = None
        interrupter = self.sim.current_event
        tie_fired = interrupter is None \
            or interrupter.category == SLICE_EVENT_CATEGORY
        f = self._co_f_hz
        start, planned, end = self._replay(self.sim.now, tie_fired)
        self._slice_started = start
        self._slice_f_hz = f
        self._slice_planned_cycles = planned
        self._slice_event = self.sim.schedule_at(end, self._end_slice)
        self._slice_event.category = SLICE_EVENT_CATEGORY

    def _end_slice(self) -> None:
        task = self.current
        assert task is not None
        self._slice_event = None
        task.remaining_cycles -= self._slice_planned_cycles
        task.total_cycles += self._slice_planned_cycles

        if task.remaining_cycles <= CYCLE_EPS:
            self.current = None
            self._complete_compute(task)
            self._maybe_dispatch()
        elif self.run_q:
            # Quantum expired with competitors waiting: round-robin.
            task.state = TaskState.READY
            self.run_q.append(task)
            self.current = None
            self._maybe_dispatch()
        else:
            self._begin_slice()

    def _complete_compute(self, task: StreamTask) -> None:
        task.remaining_cycles = 0.0
        task.phase = TaskPhase.EMIT
        task.pending_outputs = list(task.outputs)
        self._try_emit(task)

    def _try_emit(self, task: StreamTask) -> None:
        frame = task.current_frames[0] if task.current_frames \
            else task.frames_done
        still_full = []
        for q in task.pending_outputs:
            if q.push(frame):
                q.remove_waiter(task)
            else:
                still_full.append(q)
        task.pending_outputs = still_full
        if still_full:
            task.state = TaskState.BLOCKED_OUTPUT
            for q in still_full:
                q.add_waiting_producer(task)
            return
        task.frames_done += 1
        task.current_frames = []
        self._at_checkpoint(task)

    def _at_checkpoint(self, task: StreamTask) -> None:
        """Between iterations: honour migration requests, else loop."""
        task.phase = TaskPhase.ACQUIRE
        if task.migration_pending:
            self._freeze(task)
            return
        self._try_start_iteration(task)

    def _freeze(self, task: StreamTask) -> None:
        task.state = TaskState.FROZEN
        if self._freeze_cb is not None:
            self._freeze_cb(task)

    # ------------------------------------------------------------------
    # internals — slice accounting
    # ------------------------------------------------------------------
    def _charge_partial_slice(self) -> None:
        """Account the elapsed fraction of the in-flight slice."""
        assert self.current is not None and self._slice_event is not None
        self._slice_event.cancel()
        self._slice_event = None
        elapsed = self.sim.now - self._slice_started
        done = min(elapsed * self._slice_f_hz, self._slice_planned_cycles)
        self.current.remaining_cycles -= done
        self.current.total_cycles += done

    def _preempt_current(self, to_front: bool, requeue: bool) -> None:
        self._uncoalesce()
        task = self.current
        assert task is not None
        if self._slice_event is not None:
            self._charge_partial_slice()
        task.state = TaskState.READY
        self.current = None
        self.chip.set_tile_active(self.tile_index, False)
        if requeue:
            if to_front:
                self.run_q.appendleft(task)
            else:
                self.run_q.append(task)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cur = self.current.name if self.current else "-"
        state = "gated" if self.gated else "run"
        return (f"<CoreScheduler {self.tile_index} [{state}] cur={cur} "
                f"q={[t.name for t in self.run_q]}>")
