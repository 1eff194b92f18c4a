"""The MPOS facade: one object tying the OS layer together.

Owns the per-core schedulers, the DVFS governor, the migration engine
and the task-to-core mapping, and routes queue wake-ups to the right
core's scheduler.  Policies and applications talk to this object
rather than to the parts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.mpos.dvfs import DVFSGovernor
from repro.mpos.migration import MigrationEngine, MigrationStrategy, \
    TaskReplication
from repro.mpos.queues import MsgQueue
from repro.mpos.scheduler import CoreScheduler
from repro.mpos.task import StreamTask
from repro.platform.chip import Chip
from repro.sim.kernel import Simulator


class MPOS:
    """Multi-processor OS over a chip.

    Parameters
    ----------
    sim, chip:
        Kernel and hardware.
    quantum_s:
        Scheduler time slice for every core.
    strategy:
        Migration mechanism (defaults to task-replication, the one the
        paper's platform actually uses).
    dvfs_margin:
        Headroom for the DVFS governor.
    """

    def __init__(self, sim: Simulator, chip: Chip,
                 quantum_s: float = 0.001,
                 strategy: Optional[MigrationStrategy] = None,
                 dvfs_margin: float = 0.0):
        self.sim = sim
        self.chip = chip
        self.schedulers: List[CoreScheduler] = [
            CoreScheduler(sim, chip, i, quantum_s)
            for i in range(chip.n_tiles)]
        self._tasks: Dict[str, StreamTask] = {}
        self._mapping: Dict[str, int] = {}
        self.governor = DVFSGovernor(self, margin=dvfs_margin)
        self.engine = MigrationEngine(self, strategy or TaskReplication())

    # ------------------------------------------------------------------
    # task mapping
    # ------------------------------------------------------------------
    @property
    def tasks(self) -> List[StreamTask]:
        return list(self._tasks.values())

    def task(self, name: str) -> StreamTask:
        return self._tasks[name]

    def tasks_on_core(self, core_index: int) -> List[StreamTask]:
        return [self._tasks[name]
                for name, core in self._mapping.items()
                if core == core_index]

    def core_of(self, task: StreamTask) -> int:
        return self._mapping[task.name]

    def scheduler(self, core_index: int) -> CoreScheduler:
        return self.schedulers[core_index]

    def map_task(self, task: StreamTask, core_index: int) -> None:
        """Initial placement of a task (application start-up)."""
        if task.name in self._tasks:
            raise ValueError(f"task {task.name!r} already mapped")
        self._check_core(core_index)
        self._tasks[task.name] = task
        self._mapping[task.name] = core_index
        self.schedulers[core_index].attach_task(task)
        self.governor.update_core(core_index)

    def move_task(self, task: StreamTask, dst_core: int) -> None:
        """Re-home a frozen task (called by the migration engine)."""
        self._check_core(dst_core)
        src = self._mapping[task.name]
        self.schedulers[src].detach_task(task)
        self._mapping[task.name] = dst_core
        self.schedulers[dst_core].attach_task(task)
        self.governor.update_core(src)
        self.governor.update_core(dst_core)

    # ------------------------------------------------------------------
    # queue wiring
    # ------------------------------------------------------------------
    def bind_queue(self, queue: MsgQueue) -> None:
        """Route the queue's wake-ups through the schedulers."""
        queue.bind(self._wake_consumer, self._wake_producer)

    def _wake_consumer(self, task: StreamTask) -> None:
        self.schedulers[task.core_index].try_unblock_input(task)

    def _wake_producer(self, task: StreamTask) -> None:
        self.schedulers[task.core_index].try_unblock_output(task)

    # ------------------------------------------------------------------
    # thermal-policy actuators
    # ------------------------------------------------------------------
    def gate_core(self, core_index: int) -> None:
        self.schedulers[core_index].gate()

    def ungate_core(self, core_index: int) -> None:
        self.schedulers[core_index].ungate()

    def gated_cores(self) -> List[int]:
        return [i for i, s in enumerate(self.schedulers) if s.gated]

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def core_demand_hz(self, core_index: int) -> float:
        return self.governor.core_demand_hz(core_index)

    def total_frames_done(self) -> int:
        return sum(t.frames_done for t in self._tasks.values())

    def _check_core(self, core_index: int) -> None:
        if not 0 <= core_index < self.chip.n_tiles:
            raise ValueError(f"core index {core_index} out of range "
                             f"(chip has {self.chip.n_tiles} tiles)")
