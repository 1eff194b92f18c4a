"""Parity and property tests for the fleet-scale store/queue I/O.

PR 10 rebuilt the persistence hot paths around set-at-a-time SQL:
``ResultStore.put_many``, the ``ATTACH``-based
``merge_from``, the batched ``CampaignQueue.enqueue`` with its
set-based torn-row repair, keyset-cursor leasing and the one-pass
``status`` aggregation — all under WAL journal mode.  Every batched
path must be *observably identical* to its per-row twin: identical
``canonical_bytes`` for the store, identical journal images for the
queue.  These tests pin that equivalence, plus a Hypothesis property
that batched enqueue stays idempotent under resubmission with
interleaved torn rows.  ``TestLeaseTransaction`` pins the lease's one
write transaction and its index-served queries: concurrent leases take
distinct groups, and no worker comes back empty while work is pending.
``TestQueuePolicy`` pins the checks on lease timeout, retries and
backoff.

The per-row enqueue reference exists only here
(:func:`enqueue_per_row`); the store's per-row merge is the
cross-schema fallback ``ResultStore._merge_rows``, called directly.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import random
import sqlite3
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.campaign import fabric, sweep
from repro.campaign.backends import (ExecutionBackend, backend_registry,
                                     lockstep_group_key)
from repro.campaign.fabric import (CampaignQueue, Coordinator,
                                   QueueError, _parse_config, run_worker)
from repro.campaign.store import ResultStore
from repro.experiments.config import ExperimentConfig
from repro.metrics.report import RunReport


def _report(seed: float) -> RunReport:
    return RunReport(policy="migra", package="mobile",
                     threshold_c=2.0 + seed, duration_s=25.0,
                     peak_c=60.0 + seed)


def _rows(n: int):
    return [(f"hash-{i:04d}", {"threshold_c": float(i)}, _report(i))
            for i in range(n)]


def _configs(n: int = 6):
    base = ExperimentConfig(warmup_s=0.5, measure_s=1.0)
    return sweep(base, threshold_c=tuple(2.0 + 0.5 * i
                                         for i in range(n)))


def _interleaved(seed: int = 7):
    """18 configs in 6 lockstep groups (package x cores), shuffled so
    the groups interleave."""
    base = ExperimentConfig(warmup_s=0.5, measure_s=1.0)
    configs = sweep(base, package=("mobile", "highperf"),
                    n_cores=(2, 3, 4), seed=(1, 2, 3))
    random.Random(seed).shuffle(configs)
    return configs


#: Journal columns that define a queue's logical image (rowid keeps
#: insertion order observable; lease bookkeeping included so parity
#: covers repaired rows too).
_JOURNAL_COLUMNS = ("rowid", "config_hash", "campaign", "config",
                    "group_key", "state", "attempts", "lease_id",
                    "lease_expires", "not_before", "enqueued_at",
                    "last_error")


def journal_image(queue: CampaignQueue) -> bytes:
    """A deterministic byte image of a queue's task journal."""
    cols = ", ".join(_JOURNAL_COLUMNS)
    rows = queue._conn.execute(
        f"SELECT {cols} FROM tasks ORDER BY rowid").fetchall()
    return json.dumps([list(row) for row in rows],
                      sort_keys=True).encode()


def enqueue_per_row(queue: CampaignQueue, configs, campaign: str,
                    now: float) -> int:
    """Per-row reference enqueue: the parity oracle for the batched one.

    The pre-batching implementation, one INSERT OR IGNORE (plus a
    conflict probe and, for a damaged row, a repair UPDATE) and one
    commit per config.
    """
    conn = queue._conn
    new = 0
    for config in configs:
        key = config.config_hash()
        group = json.dumps(lockstep_group_key(config))
        payload = json.dumps(config.to_dict(), sort_keys=True)
        cursor = conn.execute(
            "INSERT OR IGNORE INTO tasks "
            "(config_hash, campaign, config, group_key, "
            "enqueued_at) VALUES (?, ?, ?, ?, ?)",
            (key, campaign, payload, group, now))
        if cursor.rowcount:
            new += 1
            continue
        row = conn.execute(
            "SELECT state, config FROM tasks WHERE config_hash = ?",
            (key,)).fetchone()
        if row["state"] == "torn" or _parse_config(row["config"]) \
                is None:
            # Torn write repair: overwrite the damaged row with a
            # fresh pending task built from the submitted config.
            conn.execute(
                "UPDATE tasks SET campaign = ?, config = ?, "
                "group_key = ?, state = 'pending', attempts = 0, "
                "lease_id = NULL, lease_expires = NULL, "
                "not_before = 0, last_error = NULL, "
                "enqueued_at = ? WHERE config_hash = ?",
                (campaign, payload, group, now, key))
            new += 1
    conn.commit()
    return new


# ----------------------------------------------------------------------
# store: put_many vs per-row put
# ----------------------------------------------------------------------
class TestPutMany:
    def test_put_many_matches_per_row_puts(self, tmp_path):
        rows = _rows(40)
        batched = ResultStore(tmp_path / "batched.sqlite")
        loop = ResultStore(tmp_path / "loop.sqlite")
        assert batched.put_many(rows, campaign="fleet") == len(rows)
        for config_hash, config, report in rows:
            loop.put(config_hash, config, report, campaign="fleet")
        assert batched.canonical_bytes() == loop.canonical_bytes()
        batched.close()
        loop.close()

    def test_put_many_replaces_like_put(self):
        store = ResultStore()
        store.put_many(_rows(3), campaign="a")
        updated = [("hash-0001", {"threshold_c": 1.0}, _report(99.0))]
        store.put_many(updated, campaign="a")
        assert store.get("hash-0001").peak_c == _report(99.0).peak_c
        assert len(store) == 3
        store.close()

    def test_put_is_the_one_row_case(self):
        a, b = ResultStore(), ResultStore()
        key, config, report = _rows(1)[0]
        a.put(key, config, report, campaign="x")
        b.put_many([(key, config, report)], campaign="x")
        assert a.canonical_bytes() == b.canonical_bytes()
        a.close()
        b.close()

    def test_empty_put_many_is_a_noop(self):
        store = ResultStore()
        assert store.put_many([], campaign="x") == 0
        assert len(store) == 0
        store.close()


# ----------------------------------------------------------------------
# store: ATTACH merge vs row-loop merge
# ----------------------------------------------------------------------
class TestAttachMerge:
    def _source(self, path, n=25) -> ResultStore:
        store = ResultStore(path)
        store.put_many(_rows(n), campaign="fleet")
        return store

    def test_attach_and_rows_modes_agree(self, tmp_path):
        src = self._source(tmp_path / "src.sqlite")
        attach = ResultStore(tmp_path / "attach.sqlite")
        loop = ResultStore(tmp_path / "loop.sqlite")
        n_attach = attach.merge_from(src)            # ATTACH
        n_loop = loop._merge_rows(src)               # per-row fallback
        assert n_attach == n_loop == 25
        assert attach.canonical_bytes() == loop.canonical_bytes() \
            == src.canonical_bytes()
        for store in (src, attach, loop):
            store.close()

    def test_attach_merge_is_idempotent_and_partial(self, tmp_path):
        src = self._source(tmp_path / "src.sqlite")
        dst = ResultStore(tmp_path / "dst.sqlite")
        dst.put_many(_rows(10), campaign="fleet")    # overlap
        assert dst.merge_from(src) == 15             # only the new keys
        assert dst.merge_from(src) == 0
        assert dst.canonical_bytes() == src.canonical_bytes()
        src.close()
        dst.close()

    def test_memory_stores_fall_back_to_rows(self, tmp_path):
        src = ResultStore()                          # :memory:
        src.put_many(_rows(5), campaign="fleet")
        dst = ResultStore(tmp_path / "dst.sqlite")
        assert not dst._attach_compatible(src)
        assert dst.merge_from(src) == 5              # row loop, same API
        assert dst.canonical_bytes() == src.canonical_bytes()
        src.close()
        dst.close()

    def test_self_merge_stays_a_noop(self, tmp_path):
        store = self._source(tmp_path / "solo.sqlite")
        before = store.canonical_bytes()
        assert store.merge_from(store) == 0
        assert store.canonical_bytes() == before
        store.close()

    def test_cross_schema_source_falls_back_to_rows(self, tmp_path):
        src = self._source(tmp_path / "src.sqlite", n=4)
        # Simulate a store written by an older repo version: one
        # metric column missing entirely.
        src._conn.execute("ALTER TABLE runs DROP COLUMN peak_c")
        src._conn.commit()
        dst = ResultStore(tmp_path / "dst.sqlite")
        assert not dst._attach_compatible(src)
        assert dst.merge_from(src) == 4
        assert dst.get("hash-0001") is not None
        src.close()
        dst.close()

    def test_file_stores_run_in_wal_mode(self, tmp_path):
        store = ResultStore(tmp_path / "wal.sqlite")
        mode = store._conn.execute(
            "PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        store.close()


# ----------------------------------------------------------------------
# queue: batched enqueue vs per-row reference
# ----------------------------------------------------------------------
class TestBatchedEnqueue:
    def test_fresh_enqueue_images_match(self, tmp_path):
        configs = _configs()
        batched = CampaignQueue(tmp_path / "batched")
        loop = CampaignQueue(tmp_path / "loop")
        assert batched.enqueue(configs, campaign="fleet", now=100.0) \
            == enqueue_per_row(loop, configs, campaign="fleet",
                               now=100.0) == len(configs)
        assert journal_image(batched) == journal_image(loop)
        batched.close()
        loop.close()

    def test_resubmission_images_match(self, tmp_path):
        configs = _configs()
        queues = [CampaignQueue(tmp_path / name)
                  for name in ("batched", "loop")]
        for queue in queues:
            queue.enqueue(configs[:3], campaign="fleet", now=100.0)
            # Interleave: lease one batch, tear one surviving row.
            queue.lease("w0", limit=1, now=100.0)
            self._tear(queue, configs[1].config_hash())
        batched, loop = queues
        assert batched.enqueue(configs, campaign="fleet",
                               now=200.0) == 4         # 3 new + 1 repair
        assert enqueue_per_row(loop, configs, campaign="fleet",
                               now=200.0) == 4
        assert journal_image(batched) == journal_image(loop)
        for queue in queues:
            assert queue.counts()["torn"] == 0
            queue.close()

    def test_interleaved_groups_fresh_images_match(self, tmp_path):
        configs = _interleaved()
        batched = CampaignQueue(tmp_path / "batched")
        loop = CampaignQueue(tmp_path / "loop")
        assert batched.enqueue(configs, campaign="fleet", now=100.0) \
            == enqueue_per_row(loop, configs, campaign="fleet",
                               now=100.0) == len(configs)
        assert journal_image(batched) == journal_image(loop)
        for queue in (batched, loop):
            queue.close()

    def test_interleaved_groups_resubmission_images_match(self,
                                                         tmp_path):
        configs = _interleaved()
        first = configs[::2]
        queues = [CampaignQueue(tmp_path / name)
                  for name in ("batched", "loop")]
        for queue in queues:
            queue.enqueue(first, campaign="fleet", now=100.0)
            # Interleave: lease one group, tear a row of another.
            leased = {task.config_hash for task in queue.lease(
                "w0", now=100.0)}
            survivor = next(config for config in first
                            if config.config_hash() not in leased)
            self._tear(queue, survivor.config_hash())
        batched, loop = queues
        expected = len(configs) - len(first) + 1   # new + 1 repair
        assert batched.enqueue(configs, campaign="fleet",
                               now=200.0) == expected
        assert enqueue_per_row(loop, configs, campaign="fleet",
                               now=200.0) == expected
        assert journal_image(batched) == journal_image(loop)
        for queue in queues:
            assert queue.counts()["torn"] == 0
            queue.close()

    def test_duplicate_configs_collapse_like_per_row(self, tmp_path):
        configs = _configs(3)
        batched = CampaignQueue(tmp_path / "batched")
        loop = CampaignQueue(tmp_path / "loop")
        doubled = configs + configs
        assert batched.enqueue(doubled, campaign="x", now=1.0) == 3
        assert enqueue_per_row(loop, doubled, campaign="x",
                               now=1.0) == 3
        assert journal_image(batched) == journal_image(loop)
        batched.close()
        loop.close()

    def test_enqueue_of_nothing_is_zero(self, tmp_path):
        queue = CampaignQueue(tmp_path)
        assert queue.enqueue([], campaign="fleet") == 0
        queue.close()

    def test_large_submission_crosses_the_chunk_limit(self, tmp_path):
        # > 500 distinct hashes forces the chunked IN-list probe to
        # split; resubmission must still repair nothing and add
        # nothing.
        base = ExperimentConfig(warmup_s=0.5, measure_s=1.0)
        configs = sweep(base, threshold_c=tuple(
            1.0 + 0.01 * i for i in range(600)))
        queue = CampaignQueue(tmp_path)
        assert queue.enqueue(configs, campaign="big") == 600
        assert queue.enqueue(configs, campaign="big") == 0
        assert queue.counts()["pending"] == 600
        queue.close()

    def test_queue_runs_in_wal_mode(self, tmp_path):
        queue = CampaignQueue(tmp_path)
        mode = queue._conn.execute(
            "PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        queue.close()

    def _tear(self, queue: CampaignQueue, config_hash: str,
              payload: str = '{"policy": "mig') -> None:
        queue._conn.execute(
            "UPDATE tasks SET config = ? WHERE config_hash = ?",
            (payload, config_hash))
        queue._conn.commit()


class TestEnqueueIdempotenceProperty:
    """Hypothesis: batched enqueue is idempotent under resubmission
    with interleaved torn rows — any tear/resubmit interleaving
    converges to the same journal the untouched queue holds."""

    def test_resubmission_with_interleaved_tears_converges(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        configs = _configs(8)
        n = len(configs)

        @settings(max_examples=25, deadline=None)
        @given(tears=st.lists(
            st.tuples(st.integers(min_value=0, max_value=n - 1),
                      st.sampled_from(["", "not json", "[1]",
                                       '{"polic'])),
            max_size=6),
            resubmits=st.integers(min_value=1, max_value=3))
        def check(tears, resubmits):
            import tempfile
            with tempfile.TemporaryDirectory() as tmp:
                tmp = Path(tmp)
                queue = CampaignQueue(tmp / "q")
                reference = CampaignQueue(tmp / "ref")
                queue.enqueue(configs, campaign="fleet", now=10.0)
                reference.enqueue(configs, campaign="fleet", now=10.0)
                for index, payload in tears:
                    queue._conn.execute(
                        "UPDATE tasks SET config = ? "
                        "WHERE config_hash = ?",
                        (payload, configs[index].config_hash()))
                    queue._conn.commit()
                    # Interleaved resubmission repairs the tear...
                    assert queue.enqueue(configs, campaign="fleet",
                                         now=10.0) == 1
                for _ in range(resubmits):
                    # ...and once healthy, resubmission is a no-op.
                    assert queue.enqueue(configs, campaign="fleet",
                                         now=10.0) == 0
                assert journal_image(queue) == journal_image(reference)
                assert queue.counts() == {"pending": n, "leased": 0,
                                          "done": 0, "failed": 0,
                                          "torn": 0}
                queue.close()
                reference.close()

        check()


# ----------------------------------------------------------------------
# queue: keyset lease, complete_many, status
# ----------------------------------------------------------------------
class TestKeysetLease:
    def test_many_torn_rows_are_skipped_in_one_pass(self, tmp_path):
        configs = _configs(8)
        queue = CampaignQueue(tmp_path, lease_timeout_s=10.0)
        queue.enqueue(configs, campaign="fleet")
        # Tear every row but the last: the keyset cursor must walk
        # forward past each damaged row, never rescanning from the
        # top, and still lease the healthy survivor.
        for config in configs[:-1]:
            queue._conn.execute(
                "UPDATE tasks SET config = 'torn!' "
                "WHERE config_hash = ?", (config.config_hash(),))
        queue._conn.commit()
        with pytest.warns(RuntimeWarning, match="torn write"):
            tasks = queue.lease("w0")
        assert [t.config_hash for t in tasks] \
            == [configs[-1].config_hash()]
        assert queue.counts()["torn"] == len(configs) - 1
        queue.close()

    def test_all_rows_torn_leases_nothing(self, tmp_path):
        configs = _configs(3)
        queue = CampaignQueue(tmp_path)
        queue.enqueue(configs, campaign="fleet")
        queue._conn.execute("UPDATE tasks SET config = 'torn!'")
        queue._conn.commit()
        with pytest.warns(RuntimeWarning, match="torn write"):
            assert queue.lease("w0") == []
        queue.close()


class TestCompleteMany:
    def test_batch_completion_matches_per_task(self, tmp_path):
        configs = _configs()
        queue = CampaignQueue(tmp_path, lease_timeout_s=60.0)
        queue.enqueue(configs, campaign="fleet")
        tasks = queue.lease("w0")
        assert queue.complete_many(
            [t.config_hash for t in tasks], "w0") == len(tasks)
        assert queue.counts()["done"] == len(tasks)
        queue.close()

    def test_lost_leases_are_skipped_not_clobbered(self, tmp_path):
        configs = _configs(2)
        queue = CampaignQueue(tmp_path, lease_timeout_s=0.0,
                              backoff_s=0.0)
        queue.enqueue(configs, campaign="fleet")
        import time
        now = time.time()
        stale = queue.lease("slow", now=now)
        fresh = queue.lease("fast", now=now + 1.0)
        assert queue.complete_many(
            [t.config_hash for t in fresh], "fast") == len(fresh)
        # The zombie's batch completion is a no-op row by row.
        assert queue.complete_many(
            [t.config_hash for t in stale], "slow") == 0
        assert queue.counts()["done"] == len(configs)
        queue.close()


class TestQueueStatus:
    def test_one_pass_counts_and_backlog_age(self, tmp_path):
        configs = _configs(4)
        queue = CampaignQueue(tmp_path, lease_timeout_s=60.0)
        queue.enqueue(configs[:2], campaign="fleet", now=100.0)
        queue.enqueue(configs, campaign="fleet", now=150.0)
        leased = queue.lease("w0", limit=1, now=160.0)
        assert len(leased) == 1
        status = queue.status(now=175.0)
        assert status.counts["pending"] == 3
        assert status.counts["leased"] == 1
        assert status.total == 4
        # The oldest *pending* submission was at t=100 (the leased row
        # does not count against the backlog).
        assert status.pending_backlog_age_s == pytest.approx(
            75.0, abs=1e-6)
        queue.close()

    def test_no_pending_means_no_backlog_age(self, tmp_path):
        queue = CampaignQueue(tmp_path)
        status = queue.status()
        assert status.total == 0
        assert status.pending_backlog_age_s is None
        assert status.counts == {state: 0 for state in
                                 ("pending", "leased", "done",
                                  "failed", "torn")}
        queue.close()

    def test_counts_delegates_to_status(self, tmp_path):
        configs = _configs(2)
        queue = CampaignQueue(tmp_path)
        queue.enqueue(configs, campaign="fleet")
        assert queue.counts() == queue.status().counts
        queue.close()

    def test_legacy_queue_without_enqueued_at_migrates(self, tmp_path):
        # A pre-PR-10 journal: build one without the column, then
        # reopen through CampaignQueue (ALTER TABLE on open).
        path = tmp_path / "queue.sqlite"
        conn = sqlite3.connect(str(path))
        conn.execute(
            "CREATE TABLE tasks (config_hash TEXT PRIMARY KEY, "
            "campaign TEXT NOT NULL, config TEXT NOT NULL, "
            "group_key TEXT NOT NULL, "
            "state TEXT NOT NULL DEFAULT 'pending', "
            "attempts INTEGER NOT NULL DEFAULT 0, lease_id TEXT, "
            "lease_expires REAL, not_before REAL NOT NULL DEFAULT 0, "
            "last_error TEXT)")
        conn.execute(
            "INSERT INTO tasks (config_hash, campaign, config, "
            "group_key) VALUES ('h1', 'old', '{}', '[]')")
        conn.commit()
        conn.close()
        queue = CampaignQueue(tmp_path)
        assert queue.counts()["pending"] == 1
        # Migrated rows carry no submission time (enqueued_at = 0),
        # so they must not masquerade as a decades-old backlog.
        assert queue.status().pending_backlog_age_s is None
        queue.close()


# ----------------------------------------------------------------------
# queue: the lease transaction and its indexes
# ----------------------------------------------------------------------
_STUB = "fleet-io-stub"


class _StubBackend(ExecutionBackend):
    """A report per config, simulating nothing."""

    name = _STUB

    def execute(self, configs, workers):
        return [_report(config.seed) for config in configs]


def _group_of(task) -> str:
    return json.dumps(lockstep_group_key(
        ExperimentConfig.from_dict(task.config)))


class TestLeaseTransaction:
    def test_concurrent_leases_take_distinct_groups(self, tmp_path,
                                                    monkeypatch):
        base = ExperimentConfig(warmup_s=0.5, measure_s=1.0)
        configs = sweep(base, package=("mobile", "highperf"),
                        threshold_c=(1.0, 2.0, 3.0))
        queue = CampaignQueue(tmp_path, lease_timeout_s=60.0)
        queue.enqueue(configs, campaign="fleet")
        queue.close()
        # Pause the first lease inside its transaction, on its first
        # config parse, and start a second lease meanwhile.
        paused, release = threading.Event(), threading.Event()
        parse = fabric._parse_config

        def pausing_parse(payload):
            if threading.current_thread().name == "first" and \
                    not paused.is_set():
                paused.set()
                release.wait(10.0)
            return parse(payload)

        monkeypatch.setattr(fabric, "_parse_config", pausing_parse)
        leased = {}

        def lease(worker_id):
            # One connection per thread, as one per worker process.
            with CampaignQueue(tmp_path) as own:
                leased[worker_id] = own.lease(worker_id)

        first = threading.Thread(target=lease, args=("A",), name="first")
        first.start()
        assert paused.wait(10.0)
        second = threading.Thread(target=lease, args=("B",),
                                  name="second")
        second.start()
        # A lease that chose its group outside the transaction would
        # finish here, taking the group the paused one is about to.
        second.join(1.0)
        release.set()
        first.join(20.0)
        second.join(20.0)
        assert not first.is_alive() and not second.is_alive()
        groups = {worker: {_group_of(task) for task in tasks}
                  for worker, tasks in leased.items()}
        assert [len(leased["A"]), len(leased["B"])] == [3, 3], groups
        assert len(groups["A"]) == len(groups["B"]) == 1
        assert groups["A"] != groups["B"]

    def test_lease_queries_are_index_served(self, tmp_path):
        queue = CampaignQueue(tmp_path, lease_timeout_s=60.0)
        queue.enqueue(_configs(4), campaign="fleet")
        statements = []
        queue._conn.set_trace_callback(statements.append)
        assert queue.lease("w0")
        queue._conn.set_trace_callback(None)
        reads = [sql for sql in statements if sql.startswith("SELECT")
                 and "state = 'pending'" in sql]
        head = next(sql for sql in reads if sql.endswith("LIMIT 1"))
        group = next(sql for sql in reads if "group_key =" in sql)

        def plan(sql):
            # Traced SQL carries its values inline where the sqlite3
            # module expands them, else ``?`` placeholders.
            return " | ".join(row[3] for row in queue._conn.execute(
                f"EXPLAIN QUERY PLAN {sql}", [None] * sql.count("?")))

        # The head query reads the oldest pending row off an index in
        # rowid order and stops: no sort of the whole backlog.
        assert "USING INDEX" in plan(head)
        assert "TEMP B-TREE" not in plan(head), plan(head)
        # The group query reads only the group's rows off an index.
        assert "USING INDEX" in plan(group)
        assert "group_key=?" in plan(group), plan(group)
        queue.close()

    def test_superseded_index_is_dropped_on_open(self, tmp_path):
        queue = CampaignQueue(tmp_path)
        queue._conn.execute("CREATE INDEX IF NOT EXISTS idx_tasks_ready "
                            "ON tasks (state, not_before)")
        queue._conn.commit()
        queue.close()
        with CampaignQueue(tmp_path) as reopened:
            names = {row[0] for row in reopened._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index' "
                "AND tbl_name = 'tasks' AND sql IS NOT NULL")}
        assert names == {"idx_tasks_state", "idx_tasks_group"}

    def test_reclaim_with_nothing_expired_takes_no_write_lock(self,
                                                              tmp_path):
        holder = CampaignQueue(tmp_path, lease_timeout_s=60.0)
        holder.enqueue(_configs(2), campaign="fleet")
        holder.lease("w0")
        poller = CampaignQueue(tmp_path)
        poller._conn.execute("PRAGMA busy_timeout = 50")
        holder._conn.execute("BEGIN IMMEDIATE")
        try:
            # Nothing expired: a read, not a wait for the writer.
            assert poller.reclaim_expired() == 0
        finally:
            holder._conn.rollback()
            poller.close()
            holder.close()

    def test_four_workers_drain_every_group_once(self, tmp_path,
                                                 monkeypatch):
        base = ExperimentConfig(warmup_s=0.5, measure_s=1.0)
        configs = sweep(base, package=("mobile", "highperf"),
                        n_cores=(2, 3, 4, 5, 6),
                        measure_s=tuple(1.0 + 0.5 * i for i in range(8)),
                        seed=(1, 2))
        groups = {json.dumps(lockstep_group_key(c)) for c in configs}
        assert len(groups) == 80 and len(configs) == 160
        # Count, across the forked workers, leases that came back
        # empty while a task was still pending: each one is a worker
        # that lost a race for a group and then slept.
        wasted = multiprocessing.Value("i", 0)
        lease = CampaignQueue.lease

        def counting_lease(self, *args, **kwargs):
            tasks = lease(self, *args, **kwargs)
            if not tasks and self._conn.execute(
                    "SELECT 1 FROM tasks WHERE state = 'pending' "
                    "LIMIT 1").fetchone():
                with wasted.get_lock():
                    wasted.value += 1
            return tasks

        monkeypatch.setattr(CampaignQueue, "lease", counting_lease)
        coordinator = Coordinator(tmp_path / "queue",
                                  lease_timeout_s=300.0,
                                  worker_backend=_STUB)
        coordinator.enqueue(configs, campaign="fleet")
        start = time.monotonic()
        with backend_registry.temporarily(_STUB, _StubBackend()):
            coordinator.run(workers=4)
        assert time.monotonic() - start < 60.0
        rows = coordinator.queue._conn.execute(
            "SELECT state, attempts FROM tasks").fetchall()
        assert len(rows) == len(configs)
        assert {tuple(row) for row in rows} == {("done", 1)}
        merged = coordinator.merged_store()
        assert len(merged) == len(configs)
        assert merged.campaign_hashes("fleet") \
            == {config.config_hash() for config in configs}
        merged.close()
        coordinator.close()
        assert wasted.value == 0


# ----------------------------------------------------------------------
# queue policy: lease timeout, retries and backoff are validated
# ----------------------------------------------------------------------
class TestQueuePolicy:
    @pytest.mark.parametrize("setting, value", [
        ("lease_timeout_s", math.nan), ("lease_timeout_s", math.inf),
        ("lease_timeout_s", -5.0), ("backoff_s", math.nan),
        ("backoff_s", math.inf), ("backoff_s", -0.5),
        ("retries", -3), ("retries", 2.5), ("retries", math.inf),
        ("retries", True),
    ])
    def test_bad_argument_is_refused_and_not_stored(self, tmp_path,
                                                    setting, value):
        with pytest.raises(QueueError, match=f"^{setting} must be"):
            CampaignQueue(tmp_path, **{setting: value})
        # Nothing was journaled: a reopen reads the defaults.
        with CampaignQueue(tmp_path) as queue:
            assert (queue.lease_timeout_s, queue.retries,
                    queue.backoff_s) == (fabric.DEFAULT_LEASE_TIMEOUT_S,
                                         fabric.DEFAULT_RETRIES,
                                         fabric.DEFAULT_BACKOFF_S)

    @pytest.mark.parametrize("text", ["nan", "inf", "-5", "abc", "1e999"])
    def test_bad_environment_lease_is_refused(self, tmp_path,
                                              monkeypatch, text):
        # nan failed as "not a campaign queue (NOT NULL constraint
        # failed)", inf and -5 were stored, abc became 30.
        monkeypatch.setenv("REPRO_FABRIC_LEASE_S", text)
        with pytest.raises(QueueError,
                           match="^REPRO_FABRIC_LEASE_S must be a finite"):
            CampaignQueue(tmp_path)

    def test_environment_only_seeds_a_new_queue(self, tmp_path,
                                                monkeypatch):
        CampaignQueue(tmp_path, lease_timeout_s=7.0).close()
        monkeypatch.setenv("REPRO_FABRIC_LEASE_S", "abc")
        with CampaignQueue(tmp_path) as queue:   # stored policy wins
            assert queue.lease_timeout_s == 7.0

    @pytest.mark.parametrize("setting, value", [
        ("lease_timeout_s", math.inf), ("lease_timeout_s", -5.0),
        ("backoff_s", math.inf), ("retries", -1.0), ("retries", 2.5),
        ("retries", "two"),
    ])
    def test_bad_journal_value_is_refused(self, tmp_path, setting,
                                          value):
        CampaignQueue(tmp_path).close()
        with sqlite3.connect(str(tmp_path / "queue.sqlite")) as conn:
            conn.execute("UPDATE settings SET value = ? WHERE key = ?",
                         (value, setting))
        with pytest.raises(QueueError, match=f"'s {setting} must be"):
            CampaignQueue(tmp_path)

    def test_zero_stays_valid(self, tmp_path):
        with CampaignQueue(tmp_path, lease_timeout_s=0.0, retries=0,
                           backoff_s=0.0) as queue:
            assert (queue.lease_timeout_s, queue.retries,
                    queue.backoff_s) == (0.0, 0, 0.0)
        with CampaignQueue(tmp_path) as queue:
            assert (queue.lease_timeout_s, queue.retries,
                    queue.backoff_s) == (0.0, 0, 0.0)


# ----------------------------------------------------------------------
# end to end: the batched worker path drains to the same bytes
# ----------------------------------------------------------------------
class TestBatchedWorkerDrain:
    def test_batched_flush_matches_serial_reference(self, tmp_path):
        from repro.campaign import CampaignRunner
        from repro.campaign.fabric import (Coordinator,
                                           collect_reports)
        configs = _configs(4)
        runner = CampaignRunner(backend="serial",
                                cache_dir=tmp_path / "serial")
        runner.run(configs, name="fleet")
        reference = runner.store.canonical_bytes()
        runner.close()

        queue_dir = tmp_path / "queue"
        queue = CampaignQueue(queue_dir, lease_timeout_s=30.0)
        queue.enqueue(configs, campaign="fleet")
        queue.close()
        completed = run_worker(queue_dir, worker_id="bulk")
        assert completed == len(configs)

        coordinator = Coordinator(queue_dir)
        reports = collect_reports(coordinator, configs)
        assert len(reports) == len(configs)
        store = ResultStore(tmp_path / "final.sqlite")
        for config, report in zip(configs, reports):
            store.put(config.config_hash(), config.to_dict(), report,
                      campaign="fleet")
        assert store.canonical_bytes() == reference
        store.close()
        coordinator.close()

    def test_a_lease_spanning_two_campaigns_stores_rows_per_campaign(
            self, tmp_path):
        """One lease holding two campaigns' tasks stores each row under
        its own campaign: the same image per-row puts write."""
        configs = _configs(6)
        owners = ["b" if i % 3 else "a" for i in range(len(configs))]
        queue_dir = tmp_path / "queue"
        with CampaignQueue(queue_dir) as queue:
            for campaign in ("a", "b"):
                queue.enqueue([config for config, owner
                               in zip(configs, owners) if owner == campaign],
                              campaign=campaign)
        leased = []

        def hook(stage, tasks):
            if stage == "leased":
                leased.append({task.campaign for task in tasks})

        with backend_registry.temporarily(_STUB, _StubBackend()):
            completed = run_worker(queue_dir, worker_id="mixed",
                                   backend=_STUB, max_batches=1,
                                   fault_hook=hook)
        assert leased == [{"a", "b"}] and completed == len(configs)

        stored = ResultStore(fabric.worker_store_path(queue_dir, "mixed"))
        loop = ResultStore()
        for config, owner in zip(configs, owners):
            loop.put(config.config_hash(), config.to_dict(),
                     _report(config.seed), campaign=owner)
        assert stored.canonical_bytes() == loop.canonical_bytes()
        stored.close()
        loop.close()
