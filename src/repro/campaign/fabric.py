"""Resumable distributed campaign fabric: coordinator + worker loops.

The fabric turns a campaign into a durable work queue so sweeps can fan
out over worker processes, survive worker (or coordinator) loss, and
resume without recomputation:

* :class:`CampaignQueue` — a SQLite journal (``queue.sqlite``, living
  next to ``results.sqlite``) of one task per configuration, keyed by
  config hash.  Tasks move ``pending -> leased -> done`` (or
  ``failed`` once their bounded retries are exhausted); leases carry a
  timeout, so work held by a SIGKILLed worker returns to ``pending``
  automatically.  Every state change is one committed SQLite
  transaction — a crash between any two writes rolls back cleanly on
  the next open.  The hot paths are set-at-a-time for fleet-scale
  campaigns: :meth:`CampaignQueue.enqueue` journals a whole submission
  with one ``executemany`` plus one set-based torn-row repair pass,
  leasing walks pending work through a ``(state, not_before)``
  composite index with a keyset cursor over damaged rows, and both
  databases run in WAL journal mode — safe here because every
  transition is guarded by the lease protocol, not by rollback-journal
  exclusivity (throughput in ``BENCH_fleet.json``, written by
  ``benchmarks/test_fleet_scale.py``).
* :func:`run_worker` — the worker loop (``repro worker --queue DIR``):
  lease a batch of configs sharing a
  :func:`~repro.campaign.backends.lockstep_group_key`, run them
  through an ordinary in-process
  :class:`~repro.campaign.backends.ExecutionBackend` (``serial`` or
  ``vectorized``), flush the batch's rows to the worker's own result
  store (``results-<worker>.sqlite``) through one buffered writer,
  then mark the batch done with one
  :meth:`CampaignQueue.complete_many`.  Rows are written *before* the
  batch is marked done, so a crash in between re-runs the batch and
  the duplicate rows are absorbed by the idempotent
  :meth:`~repro.campaign.store.ResultStore.merge_from`.
  A config whose run raises is charged a failed attempt on its own;
  its lease siblings still land.
* :class:`Coordinator` — owns the queue: enqueues campaigns
  (idempotently — resubmitting a campaign repairs torn rows and skips
  completed ones), spawns and respawns local worker processes, reaps
  expired leases, and merges the per-worker stores into one result
  store.

Correctness is gated by determinism: simulations are byte-reproducible,
so any interleaving of retries, duplicated rows and shuffled merges
must converge to the exact store a single serial pass produces — the
fault-injection suite (``tests/test_fabric_faults.py``) kills workers
and coordinators at arbitrary points and asserts precisely that.

Fault-injection hooks (used by tests and the ``distributed-smoke`` CI
job):

* ``REPRO_FABRIC_KILL_AFTER=<n>`` — a worker SIGKILLs itself right
  after the batch flush that brings its stored rows to *n* or more,
  *before* ``complete_many`` marks the batch done (the nastiest crash
  point: the rows exist, the leases do not know).  The fault fires
  exactly once per queue, recorded in the journal's ``faults`` table,
  so respawned workers make progress.
* :func:`run_worker`'s ``fault_hook`` — an in-process callback invoked
  once per batch at every stage (``leased`` / ``computed`` /
  ``stored`` / ``done``); raising from it simulates a crash at that
  exact point.

Both fire on the one write path every worker runs, so the fault suite
tests the code that ships.

Environment knobs (both optional): ``REPRO_FABRIC_LEASE_S`` seeds a
*new* queue's lease timeout (it becomes journal policy: workers
opening an existing queue inherit its stored setting, not their own
environment), and ``REPRO_FABRIC_KILL_AFTER`` is the fault injection
above.  The in-worker execution backend is
``Coordinator(worker_backend=)`` or ``repro worker --backend`` (default
``serial``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sqlite3
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List,
                    Optional, Tuple)

from repro.campaign.store import ResultStore, StoreError
from repro.metrics.report import RunReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.config import ExperimentConfig

#: The queue journal's filename inside a queue directory.
QUEUE_FILENAME = "queue.sqlite"

#: The merged result store the coordinator maintains in the queue dir.
MERGED_FILENAME = "merged.sqlite"

#: Task lifecycle states.  ``torn`` marks a row whose config JSON is
#: damaged (a torn write); it is excluded from leasing and repaired by
#: the next :meth:`CampaignQueue.enqueue` of the same campaign.
STATES = ("pending", "leased", "done", "failed", "torn")

DEFAULT_LEASE_TIMEOUT_S = 30.0
DEFAULT_RETRIES = 2
DEFAULT_BACKOFF_S = 0.05


def _env_float(name: str, default: float) -> float:
    value = os.environ.get(name)
    try:
        return float(value) if value else default
    except ValueError:
        return default


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    try:
        return int(value) if value else default
    except ValueError:
        return default


class QueueError(RuntimeError):
    """The queue file exists but is not a readable campaign queue."""


class FabricError(RuntimeError):
    """A campaign could not be completed (tasks failed permanently)."""


@dataclass
class QueueTask:
    """One leased unit of work: a configuration and its bookkeeping."""

    config_hash: str
    campaign: str
    config: Dict
    attempts: int


@dataclass
class QueueStatus:
    """One :meth:`CampaignQueue.status` snapshot."""

    #: Task counts per state (every state present, possibly 0).
    counts: Dict[str, int]
    #: Seconds since the oldest still-pending task was enqueued
    #: (``None`` when nothing is pending).
    pending_backlog_age_s: Optional[float]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class CampaignQueue:
    """Durable SQLite journal of a campaign's pending configurations.

    Parameters
    ----------
    queue_dir:
        Directory holding ``queue.sqlite`` (created on first write),
        the per-worker result stores and the coordinator's merged
        store.
    lease_timeout_s:
        Seconds a lease stays valid; expired leases return to
        ``pending`` (or ``failed`` once retries are exhausted).
    retries:
        How many *re*-runs a task gets after its first attempt — a
        config is handed to a worker at most ``retries + 1`` times.
    backoff_s:
        Base of the linear retry backoff (``attempts * backoff_s``).

    The three knobs are *journal policy*, persisted in the queue file:
    an explicit argument (re)writes the journal's setting, while
    ``None`` reads back whatever the queue was created with — so the
    coordinator decides the policy once and every worker that opens
    the same queue (even in another process, with a different
    environment) inherits it.  ``REPRO_FABRIC_LEASE_S`` only seeds a
    queue that has no stored lease timeout yet.
    """

    def __init__(self, queue_dir, lease_timeout_s: Optional[float] = None,
                 retries: Optional[int] = None,
                 backoff_s: Optional[float] = None):
        self.queue_dir = Path(queue_dir)
        self.queue_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.queue_dir / QUEUE_FILENAME
        self._conn = sqlite3.connect(str(self.path))
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA busy_timeout = 10000")
        try:
            # WAL lets status/lease readers proceed while a worker
            # commits, and it is safe for the queue's semantics: every
            # transition is an atomic guarded UPDATE (the lease
            # protocol arbitrates races), so nothing relies on
            # rollback-journal exclusivity.  NORMAL syncs survive any
            # process crash — the altitude the fault suite kills at.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._create_schema()
            self.lease_timeout_s = self._resolve_setting(
                "lease_timeout_s", lease_timeout_s,
                _env_float("REPRO_FABRIC_LEASE_S",
                           DEFAULT_LEASE_TIMEOUT_S))
            self.retries = int(self._resolve_setting(
                "retries", retries, DEFAULT_RETRIES))
            self.backoff_s = self._resolve_setting(
                "backoff_s", backoff_s, DEFAULT_BACKOFF_S)
            self._conn.commit()
        except sqlite3.DatabaseError as error:
            self._conn.close()
            raise QueueError(
                f"{self.path} is not a campaign queue ({error})") from None

    def _resolve_setting(self, key: str, explicit: Optional[float],
                         fallback: float) -> float:
        """Journal-policy resolution: explicit > stored > fallback."""
        if explicit is not None:
            self._conn.execute(
                "INSERT OR REPLACE INTO settings (key, value) "
                "VALUES (?, ?)", (key, float(explicit)))
            return float(explicit)
        row = self._conn.execute(
            "SELECT value FROM settings WHERE key = ?",
            (key,)).fetchone()
        if row is not None:
            return float(row[0])
        self._conn.execute(
            "INSERT OR REPLACE INTO settings (key, value) "
            "VALUES (?, ?)", (key, float(fallback)))
        return float(fallback)

    def _create_schema(self) -> None:
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS tasks ("
            "config_hash TEXT PRIMARY KEY, "
            "campaign TEXT NOT NULL, "
            "config TEXT NOT NULL, "
            "group_key TEXT NOT NULL, "
            "state TEXT NOT NULL DEFAULT 'pending', "
            "attempts INTEGER NOT NULL DEFAULT 0, "
            "lease_id TEXT, "
            "lease_expires REAL, "
            "not_before REAL NOT NULL DEFAULT 0, "
            "enqueued_at REAL NOT NULL DEFAULT 0, "
            "last_error TEXT)")
        # Forward migration for queues journaled before enqueued_at.
        existing = {row[1] for row in
                    self._conn.execute("PRAGMA table_info(tasks)")}
        if "enqueued_at" not in existing:
            self._conn.execute(
                "ALTER TABLE tasks ADD COLUMN "
                "enqueued_at REAL NOT NULL DEFAULT 0")
        # The composite index serves every hot query: leasing probes
        # (state, not_before) ranges, reclaim scans state = 'leased',
        # and status GROUP BYs over the state prefix — all without a
        # full-table scan on a 10^5-row queue.  It supersedes the old
        # single-column state index.
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_tasks_ready "
            "ON tasks (state, not_before)")
        self._conn.execute("DROP INDEX IF EXISTS idx_tasks_state")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS faults (name TEXT PRIMARY KEY)")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS settings "
            "(key TEXT PRIMARY KEY, value REAL NOT NULL)")
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def enqueue(self, configs: Iterable["ExperimentConfig"],
                campaign: str = "adhoc",
                now: Optional[float] = None) -> int:
        """Journal configurations as pending tasks (idempotent).

        Resubmitting a campaign is always safe: tasks already
        journaled keep their state (``done`` stays done, in-flight
        leases are untouched), while rows damaged by a torn write are
        repaired from the authoritative config being enqueued.
        Returns the number of rows added or repaired.

        The whole submission is one transaction of three set-at-a-time
        statements — a chunked membership probe over the submitted
        hashes, one optimistic ``executemany`` insert, and one
        ``executemany`` repair pass over the damaged subset — instead
        of a statement (plus a conflict probe) per config.  The
        journal image is byte-identical to the per-row reference
        enqueue that ``tests/test_fleet_io.py`` keeps as its parity
        oracle.
        """
        rows = self._task_rows(configs, campaign, now)
        if not rows:
            return 0
        # Which submitted keys already hold a journal row, and which
        # of those are damaged (marked torn, or unparseable after a
        # torn write)?  One chunked probe, run before the optimistic
        # insert so only genuinely pre-existing rows are inspected.
        damaged: Dict[str, Tuple] = {}
        by_key = {row[0]: row for row in rows}
        for chunk in _chunked(list(by_key), 500):
            marks = ", ".join("?" for _ in chunk)
            for found in self._conn.execute(
                    f"SELECT config_hash, state, config FROM tasks "
                    f"WHERE config_hash IN ({marks})", chunk):
                if found["state"] == "torn" or \
                        _parse_config(found["config"]) is None:
                    damaged[found["config_hash"]] = \
                        by_key[found["config_hash"]]
        cursor = self._conn.executemany(
            "INSERT OR IGNORE INTO tasks "
            "(config_hash, campaign, config, group_key, enqueued_at) "
            "VALUES (?, ?, ?, ?, ?)", rows)
        new = max(0, cursor.rowcount)
        if damaged:
            # Torn write repair: overwrite the damaged rows with fresh
            # pending tasks built from the authoritative submitted
            # configs — one set-based pass.
            self._conn.executemany(
                "UPDATE tasks SET campaign = ?, config = ?, "
                "group_key = ?, state = 'pending', attempts = 0, "
                "lease_id = NULL, lease_expires = NULL, "
                "not_before = 0, last_error = NULL, enqueued_at = ? "
                "WHERE config_hash = ?",
                [(row[1], row[2], row[3], row[4], key)
                 for key, row in damaged.items()])
            new += len(damaged)
        self._conn.commit()
        return new

    def _task_rows(self, configs: Iterable["ExperimentConfig"],
                   campaign: str, now: Optional[float]) -> List[Tuple]:
        """Serialized task rows for one submission (deduplicated).

        Each row is ``(config_hash, campaign, config_json, group_key,
        enqueued_at)``; duplicate hashes within one submission collapse
        to their first occurrence, exactly as a per-row INSERT OR
        IGNORE treats them.
        """
        from repro.campaign.backends import lockstep_group_key
        now = time.time() if now is None else now
        rows: List[Tuple] = []
        seen = set()
        for config in configs:
            key = config.config_hash()
            if key in seen:
                continue
            seen.add(key)
            rows.append((key, campaign,
                         json.dumps(config.to_dict(), sort_keys=True),
                         json.dumps(lockstep_group_key(config)), now))
        return rows

    # ------------------------------------------------------------------
    # leasing
    # ------------------------------------------------------------------
    def lease(self, worker_id: str, limit: Optional[int] = None,
              now: Optional[float] = None) -> List[QueueTask]:
        """Lease one batch of pending tasks sharing a lockstep group.

        The batch is every eligible pending task of the oldest
        pending task's :func:`lockstep_group_key` (up to ``limit``),
        so a ``vectorized`` worker receives a group it can advance in
        one mat-mat per epoch.  Damaged rows are skipped with a
        warning, never an exception.  Returns ``[]`` when nothing is
        leasable right now (empty queue, backoff, or active leases).
        """
        now = time.time() if now is None else now
        self.reclaim_expired(now)
        group = None
        last_rowid = -1
        while group is None:
            # Keyset cursor: damaged rows advance the scan past the
            # row just quarantined instead of re-issuing the full
            # ORDER BY rowid walk from the top — a queue with many
            # torn rows stays O(damaged), not O(damaged^2).
            row = self._conn.execute(
                "SELECT rowid, config_hash, config, group_key "
                "FROM tasks WHERE state = 'pending' AND "
                "not_before <= ? AND rowid > ? "
                "ORDER BY rowid LIMIT 1", (now, last_rowid)).fetchone()
            if row is None:
                return []
            last_rowid = row["rowid"]
            if _parse_config(row["config"]) is None:
                self._mark_torn(row["config_hash"])
                continue
            group = row["group_key"]
        query = ("SELECT config_hash, campaign, config, attempts "
                 "FROM tasks WHERE state = 'pending' AND "
                 "not_before <= ? AND group_key = ? ORDER BY rowid")
        if limit is not None:
            query += f" LIMIT {int(limit)}"
        tasks: List[QueueTask] = []
        for row in self._conn.execute(query, (now, group)).fetchall():
            config = _parse_config(row["config"])
            if config is None:
                self._mark_torn(row["config_hash"])
                continue
            # The UPDATE's state guard is the race arbiter: if another
            # worker leased the row between our SELECT and here, the
            # guard fails and the row is simply not ours.
            cursor = self._conn.execute(
                "UPDATE tasks SET state = 'leased', lease_id = ?, "
                "lease_expires = ?, attempts = attempts + 1 "
                "WHERE config_hash = ? AND state = 'pending'",
                (worker_id, now + self.lease_timeout_s,
                 row["config_hash"]))
            if cursor.rowcount:
                tasks.append(QueueTask(config_hash=row["config_hash"],
                                       campaign=row["campaign"],
                                       config=config,
                                       attempts=row["attempts"] + 1))
        self._conn.commit()
        return tasks

    def _mark_torn(self, config_hash: str) -> None:
        """Quarantine a damaged row (repaired by the next enqueue)."""
        warnings.warn(
            f"queue row {config_hash} is corrupt (torn write); "
            f"skipping it — re-enqueue the campaign to repair",
            RuntimeWarning, stacklevel=3)
        self._conn.execute(
            "UPDATE tasks SET state = 'torn' WHERE config_hash = ?",
            (config_hash,))
        self._conn.commit()

    def reclaim_expired(self, now: Optional[float] = None) -> int:
        """Return timed-out leases to ``pending`` (or ``failed``).

        A worker that died holding a lease looks exactly like a slow
        worker until the lease expires; afterwards the task is
        re-runnable by anyone.  Tasks whose retry budget is spent move
        to ``failed`` instead.
        """
        now = time.time() if now is None else now
        # Two set-based passes over the expired subset (found via the
        # (state, not_before) index's state prefix): retries-exhausted
        # leases park in 'failed', the rest return to 'pending' with
        # their linear backoff computed in SQL.
        exhausted = self._conn.execute(
            "UPDATE tasks SET state = 'failed', lease_id = NULL, "
            "last_error = 'lease expired with retries exhausted' "
            "WHERE state = 'leased' AND lease_expires < ? AND "
            "attempts >= ?", (now, self.retries + 1))
        reclaimed = self._conn.execute(
            "UPDATE tasks SET state = 'pending', lease_id = NULL, "
            "lease_expires = NULL, not_before = ? + ? * attempts "
            "WHERE state = 'leased' AND lease_expires < ?",
            (now, self.backoff_s, now))
        count = exhausted.rowcount + reclaimed.rowcount
        # Commit unconditionally: even a zero-row UPDATE opens an
        # implicit write transaction, and leaving it dangling would
        # pin the WAL write lock across the caller's poll loop and
        # starve every other worker into SQLITE_BUSY.
        self._conn.commit()
        return count

    # ------------------------------------------------------------------
    # task completion
    # ------------------------------------------------------------------
    def complete_many(self, config_hashes: Iterable[str],
                      worker_id: str) -> int:
        """Mark a whole lease batch done in one transaction.

        Each row is guarded — only tasks still leased by ``worker_id``
        transition — so lost leases are skipped, not clobbered.
        Returns how many tasks were marked.
        """
        before = self._conn.total_changes
        self._conn.executemany(
            "UPDATE tasks SET state = 'done', lease_id = NULL, "
            "lease_expires = NULL, last_error = NULL "
            "WHERE config_hash = ? AND lease_id = ? AND "
            "state = 'leased'",
            [(config_hash, worker_id) for config_hash in config_hashes])
        completed = self._conn.total_changes - before
        self._conn.commit()
        return completed

    def fail(self, config_hash: str, worker_id: str,
             error: str, now: Optional[float] = None) -> None:
        """Record a failed attempt; re-enqueue with backoff or fail."""
        now = time.time() if now is None else now
        row = self._conn.execute(
            "SELECT attempts FROM tasks WHERE config_hash = ? AND "
            "lease_id = ? AND state = 'leased'",
            (config_hash, worker_id)).fetchone()
        if row is None:
            return
        if row["attempts"] >= self.retries + 1:
            self._conn.execute(
                "UPDATE tasks SET state = 'failed', lease_id = NULL, "
                "lease_expires = NULL, last_error = ? "
                "WHERE config_hash = ?", (error, config_hash))
        else:
            self._conn.execute(
                "UPDATE tasks SET state = 'pending', lease_id = NULL, "
                "lease_expires = NULL, not_before = ?, last_error = ? "
                "WHERE config_hash = ?",
                (now + self.backoff_s * row["attempts"], error,
                 config_hash))
        self._conn.commit()

    # ------------------------------------------------------------------
    # queries and management
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Task counts per state (every state present, possibly 0)."""
        return self.status().counts

    def status(self, now: Optional[float] = None) -> "QueueStatus":
        """Per-state counts plus the pending backlog's age, one query.

        A single ``GROUP BY state`` aggregation (served by the
        ``(state, not_before)`` index prefix) yields every count and
        the oldest pending submission timestamp together, so ``repro
        queue status`` stays O(states) on a 10^5-row queue instead of
        issuing a query per state.
        """
        now = time.time() if now is None else now
        out = {state: 0 for state in STATES}
        oldest_pending = None
        # Rows migrated from a pre-WAL journal carry enqueued_at = 0
        # (unknown submission time); the CASE keeps them out of the
        # backlog age instead of reporting a decades-old queue.
        for row in self._conn.execute(
                "SELECT state, COUNT(*) AS n, "
                "MIN(CASE WHEN enqueued_at > 0 THEN enqueued_at END) "
                "AS oldest FROM tasks GROUP BY state"):
            out[row["state"]] = int(row["n"])
            if row["state"] == "pending" and row["oldest"]:
                oldest_pending = float(row["oldest"])
        backlog_age = None
        if oldest_pending is not None:
            backlog_age = max(0.0, now - oldest_pending)
        return QueueStatus(counts=out,
                           pending_backlog_age_s=backlog_age)

    def finished(self) -> bool:
        """True when no task is pending or leased (all terminal)."""
        row = self._conn.execute(
            "SELECT 1 FROM tasks WHERE state IN ('pending', 'leased') "
            "LIMIT 1").fetchone()
        return row is None

    def failed_tasks(self) -> List[Dict]:
        """``{config_hash, attempts, last_error}`` of failed tasks."""
        rows = self._conn.execute(
            "SELECT config_hash, attempts, last_error FROM tasks "
            "WHERE state = 'failed' ORDER BY rowid").fetchall()
        return [dict(row) for row in rows]

    def max_attempts(self) -> int:
        """The largest attempt count of any task (simulation bound)."""
        row = self._conn.execute(
            "SELECT MAX(attempts) FROM tasks").fetchone()
        return int(row[0] or 0)

    def retry_failed(self) -> int:
        """Move failed tasks back to pending with a fresh budget."""
        cursor = self._conn.execute(
            "UPDATE tasks SET state = 'pending', attempts = 0, "
            "not_before = 0, last_error = NULL WHERE state = 'failed'")
        self._conn.commit()
        return cursor.rowcount

    def drain(self) -> int:
        """Remove every non-completed task (cancel outstanding work)."""
        cursor = self._conn.execute(
            "DELETE FROM tasks WHERE state IN "
            "('pending', 'failed', 'torn')")
        self._conn.commit()
        return cursor.rowcount

    def claim_fault(self, name: str) -> bool:
        """Atomically claim a named one-shot fault injection point.

        True exactly once per queue — the mechanism behind
        ``REPRO_FABRIC_KILL_AFTER`` staying a single fault even though
        respawned workers inherit the environment.
        """
        cursor = self._conn.execute(
            "INSERT OR IGNORE INTO faults (name) VALUES (?)", (name,))
        self._conn.commit()
        return bool(cursor.rowcount)


def _parse_config(payload: str) -> Optional[Dict]:
    """A task row's config dict, or ``None`` if the row is damaged."""
    try:
        config = json.loads(payload)
    except (TypeError, ValueError):
        return None
    return config if isinstance(config, dict) else None


def _chunked(items: List, size: int) -> Iterable[List]:
    """Successive slices of at most ``size`` items (IN-list safe)."""
    for start in range(0, len(items), size):
        yield items[start:start + size]


# ----------------------------------------------------------------------
# worker loop
# ----------------------------------------------------------------------
def worker_store_path(queue_dir, worker_id: str) -> Path:
    """The result store a worker streams its rows into."""
    return Path(queue_dir) / f"results-{worker_id}.sqlite"


def run_worker(queue_dir, worker_id: Optional[str] = None,
               backend: str = "serial", poll_s: float = 0.05,
               max_batches: Optional[int] = None,
               fault_hook: Optional[Callable[[str, List[QueueTask]],
                                             None]] = None) -> int:
    """Lease and execute batches until the queue is finished.

    Each batch shares a lockstep group key, so ``backend`` may be any
    in-process backend — ``serial`` or ``vectorized`` (one
    ``advance_batch`` per sensor epoch across the whole lease).  The
    batch's rows flush to this worker's own store through one
    :class:`~repro.campaign.store.BufferedWriter`, then one
    :meth:`CampaignQueue.complete_many` marks the batch done.
    Rows land strictly before done, so a crash between the two
    commits re-runs the batch and the coordinator's idempotent merge
    absorbs the duplicate rows.  Returns the number of tasks
    completed.

    ``fault_hook(stage, tasks)`` is called once per batch after each
    stage: ``leased`` with every leased task, then ``computed``,
    ``stored`` and ``done`` with the tasks whose runs succeeded.
    Raising from it simulates a crash at that point.
    """
    from repro.campaign.backends import make_backend
    from repro.experiments.config import ExperimentConfig

    worker_id = worker_id or f"w{os.getpid()}"
    queue = CampaignQueue(queue_dir)
    store = ResultStore(worker_store_path(queue_dir, worker_id))
    kill_after = _env_int("REPRO_FABRIC_KILL_AFTER", 0)
    engine = make_backend(backend)
    hook = fault_hook or (lambda stage, tasks: None)
    completed = stored = batches = 0
    try:
        while True:
            tasks = queue.lease(worker_id)
            if not tasks:
                if queue.finished():
                    break
                time.sleep(poll_s)
                continue
            hook("leased", tasks)
            parsed = []
            for task in tasks:
                # An unresolvable config (scenario registered only in
                # the submitter's process, say) fails just that task,
                # not the whole batch and never the worker.
                try:
                    parsed.append(
                        (task, ExperimentConfig.from_dict(task.config)))
                except Exception as error:   # noqa: BLE001
                    queue.fail(task.config_hash, worker_id, repr(error))
            if not parsed:
                continue
            runs = _run_isolated(engine, parsed, queue, worker_id)
            ran = [task for task, _, _ in runs]
            hook("computed", ran)
            with store.buffered() as writer:
                for task, config, report in runs:
                    writer.put(task.config_hash, config.to_dict(),
                               report, campaign=task.campaign)
            stored += len(runs)
            hook("stored", ran)
            if kill_after and stored >= kill_after and \
                    queue.claim_fault(f"kill-after-{kill_after}"):
                os.kill(os.getpid(), signal.SIGKILL)
            completed += queue.complete_many(
                [task.config_hash for task in ran], worker_id)
            hook("done", ran)
            batches += 1
            if max_batches is not None and batches >= max_batches:
                break
    finally:
        store.close()
        queue.close()
    return completed


def _run_isolated(engine, parsed: List[Tuple[QueueTask,
                                             "ExperimentConfig"]],
                  queue: CampaignQueue, worker_id: str,
                  ) -> List[Tuple[QueueTask, "ExperimentConfig",
                                  RunReport]]:
    """Run a leased batch: ``(task, config, report)`` per config that ran.

    A failing run (solver blow-up, resource exhaustion) must not kill
    the worker, and one config's failure must not cost its lease
    siblings their results.  When the batch raises, its members re-run
    one at a time, and only a config that raises on its own is charged
    the failed attempt; the bounded-retry machinery decides its fate.
    """
    try:
        reports = engine.execute([config for _, config in parsed],
                                 workers=1)
    except Exception as error:   # noqa: BLE001 - any run error
        if len(parsed) == 1:
            queue.fail(parsed[0][0].config_hash, worker_id, repr(error))
            return []
        return [run for member in parsed
                for run in _run_isolated(engine, [member], queue,
                                         worker_id)]
    return [(task, config, report)
            for (task, config), report in zip(parsed, reports)]


def _worker_entry(queue_dir: str, backend: str) -> None:
    """Subprocess entry point for coordinator-spawned workers."""
    # Under spawn/forkserver the registries are re-imported from
    # scratch; pull in the in-repo modules that register extra
    # scenarios so journaled configs validate (mirrors the execution
    # backends' worker entry points).
    from repro.experiments import ablation, figure1  # noqa: F401
    run_worker(queue_dir, backend=backend)


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
class Coordinator:
    """Owns a campaign queue and supervises local worker processes.

    The coordinator is restartable by construction: all of its state
    lives in the queue journal and the per-worker result stores, so a
    new coordinator pointed at the same ``queue_dir`` resumes exactly
    where a killed one stopped — re-enqueueing is idempotent, expired
    leases are reaped on the fly, and merging is keyed by
    ``(config_hash, campaign)``.
    """

    def __init__(self, queue_dir, lease_timeout_s: Optional[float] = None,
                 retries: Optional[int] = None,
                 worker_backend: str = "serial",
                 poll_s: float = 0.05):
        self.queue_dir = Path(queue_dir)
        self.queue = CampaignQueue(queue_dir,
                                   lease_timeout_s=lease_timeout_s,
                                   retries=retries)
        self.worker_backend = worker_backend
        self.poll_s = poll_s

    def close(self) -> None:
        self.queue.close()

    def enqueue(self, configs: Iterable["ExperimentConfig"],
                campaign: str = "adhoc") -> int:
        """Journal a campaign's configurations (idempotent)."""
        return self.queue.enqueue(configs, campaign=campaign)

    def spawn_worker(self) -> multiprocessing.process.BaseProcess:
        """Start one worker process against this queue."""
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        process = context.Process(
            target=_worker_entry,
            args=(str(self.queue_dir), self.worker_backend),
            daemon=False)
        process.start()
        return process

    def run(self, workers: int = 2, respawn_limit: int = 32) -> None:
        """Drive the queue to a terminal state with ``workers`` locals.

        Dead workers are respawned (up to ``respawn_limit``) while
        work remains; leases of the dead are reaped by timeout.  The
        call returns when every task is ``done`` or ``failed`` —
        inspect :meth:`CampaignQueue.failed_tasks` (or let
        :func:`collect_reports` raise) for permanent failures.
        """
        workers = max(1, int(workers))
        procs = [self.spawn_worker() for _ in range(workers)]
        respawns = 0
        try:
            while not self.queue.finished():
                self.queue.reclaim_expired()
                for i, proc in enumerate(procs):
                    if proc.is_alive():
                        continue
                    proc.join()
                    if self.queue.finished():
                        continue
                    if respawns < respawn_limit:
                        procs[i] = self.spawn_worker()
                        respawns += 1
                if not any(p.is_alive() for p in procs) \
                        and respawns >= respawn_limit \
                        and not self.queue.finished():
                    raise FabricError(
                        "all workers exited with work remaining and "
                        f"the respawn budget ({respawn_limit}) spent")
                time.sleep(self.poll_s)
        finally:
            deadline = time.time() + max(10.0,
                                         2 * self.queue.lease_timeout_s)
            for proc in procs:
                proc.join(timeout=max(0.0, deadline - time.time()))
                if proc.is_alive():   # pragma: no cover - safety net
                    proc.terminate()
                    proc.join()

    def merge_into(self, store: ResultStore) -> int:
        """Merge every worker store into ``store`` (idempotent).

        A corrupt worker store is skipped with a warning — its tasks
        will surface as missing rows and be retried or reported, not
        crash the merge.  Returns the number of rows imported.
        """
        imported = 0
        for path in sorted(self.queue_dir.glob("results-*.sqlite")):
            try:
                worker_store = ResultStore(path)
            except StoreError as error:
                warnings.warn(f"skipping corrupt worker store {path}: "
                              f"{error}", RuntimeWarning)
                continue
            try:
                imported += store.merge_from(worker_store)
            finally:
                worker_store.close()
        return imported

    def merged_store(self) -> ResultStore:
        """The coordinator's merged store, refreshed from workers."""
        store = ResultStore(self.queue_dir / MERGED_FILENAME)
        self.merge_into(store)
        return store


def collect_reports(coordinator: Coordinator,
                    configs: List["ExperimentConfig"],
                    ) -> List[RunReport]:
    """Reports for ``configs`` from the merged store, in order.

    Raises :class:`FabricError` naming the permanently failed tasks if
    any config has no completed row.
    """
    store = coordinator.merged_store()
    try:
        reports, missing = [], []
        for config in configs:
            report = store.get(config.config_hash())
            if report is None:
                missing.append(config.config_hash())
            else:
                reports.append(report)
    finally:
        store.close()
    if missing:
        failed = coordinator.queue.failed_tasks()
        details = "; ".join(
            f"{task['config_hash']} after {task['attempts']} attempt(s)"
            f" ({task['last_error']})" for task in failed) or "none"
        raise FabricError(
            f"{len(missing)} config(s) never completed "
            f"({', '.join(missing)}); failed tasks: {details} — "
            f"'repro queue retry' re-enqueues them")
    return reports
