"""Multi-processor OS and task-migration middleware.

Models the software stack of Fig. 3b: one OS instance per core (a
round-robin scheduler over the tasks mapped there), message-passing
queues through shared memory, a DVFS governor, and the migration
middleware — checkpoint-based freezing, and the task-replication /
task-recreation strategies whose costs Fig. 2 plots (the master/slave
daemon handshake is part of their overhead cycles).
"""

from repro.mpos.task import StreamTask, TaskPhase, TaskState
from repro.mpos.queues import MsgQueue
from repro.mpos.scheduler import CoreScheduler
from repro.mpos.dvfs import DVFSGovernor
from repro.mpos.migration import (
    MigrationEngine,
    MigrationPlan,
    MigrationRecord,
    MigrationStrategy,
    TaskRecreation,
    TaskReplication,
)
from repro.mpos.system import MPOS

__all__ = [
    "CoreScheduler",
    "DVFSGovernor",
    "MPOS",
    "MigrationEngine",
    "MigrationPlan",
    "MigrationRecord",
    "MigrationStrategy",
    "MsgQueue",
    "StreamTask",
    "TaskPhase",
    "TaskRecreation",
    "TaskReplication",
    "TaskState",
]
