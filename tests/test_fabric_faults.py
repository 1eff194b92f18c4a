"""Fault injection for the distributed campaign fabric.

The fabric's correctness claim is absolute: a campaign interrupted at
*any* point — a worker SIGKILLed mid-task, a coordinator crashed
between journal writes, the whole campaign process killed — resumes to
a result store and manifest **byte-identical** to an uninterrupted
serial pass, and no configuration is simulated more than
``retries + 1`` times.  Every test here is an attack on that claim.

The suite injects faults at three altitudes:

* in-process, via :func:`run_worker`'s ``fault_hook`` (deterministic
  crash points at every batch boundary of the worker's one write
  path: leased, computed, stored, done);
* at the process level, a ``repro worker`` that SIGKILLs itself
  between its ``put_many`` and ``complete_many`` commits
  (``REPRO_FABRIC_KILL_AFTER``), and coordinator-spawned workers
  SIGKILLed at randomized (seeded) instants while the supervisor
  respawns them;
* at the campaign level, SIGKILLing an entire ``repro campaign
  --backend distributed`` process group and re-running the same
  command to resume from the journal.

One config whose run raises must cost only itself an attempt: its
lease siblings still land (``TestSiblingIsolation``).
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.campaign import CampaignRunner, sweep
from repro.campaign.fabric import (
    QUEUE_FILENAME,
    CampaignQueue,
    Coordinator,
    FabricError,
    QueueError,
    collect_reports,
    run_worker,
    worker_store_path,
)
from repro.campaign.store import ResultStore
from repro.experiments.config import ExperimentConfig
from repro.policies.migra import MigraThermalBalancer
from repro.policies.registry import policy_registry

CAMPAIGN = "faults"
SRC = Path(__file__).resolve().parent.parent / "src"


def _configs():
    """Six configs in three lockstep groups (one per solver), so a
    worker drains the campaign in three leased batches of two."""
    base = ExperimentConfig(warmup_s=0.5, measure_s=1.0)
    return sweep(base, solver=("dense-exact", "sparse-exact", "reduced"),
                 policy=("energy", "migra"))


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """The ground truth: one uninterrupted serial pass."""
    cache = tmp_path_factory.mktemp("serial")
    runner = CampaignRunner(backend="serial", cache_dir=cache)
    result = runner.run(_configs(), name=CAMPAIGN)
    store_bytes = runner.store.canonical_bytes()
    manifest = result.to_json()
    runner.close()
    return {"store_bytes": store_bytes, "manifest": manifest}


def _drive_to_completion(queue_dir, max_workers=8):
    """Run fresh in-process workers until the queue is finished."""
    for attempt in range(max_workers):
        run_worker(queue_dir, worker_id=f"resume{attempt}")
        with CampaignQueue(queue_dir) as queue:
            if queue.finished():
                return
    raise AssertionError("queue never finished")


def _merged_campaign_store(queue_dir, tmp_path):
    """Merge worker stores and replay the campaign rows through a
    runner, exactly as the distributed backend + engine do."""
    coordinator = Coordinator(queue_dir)
    try:
        reports = collect_reports(coordinator, _configs())
    finally:
        coordinator.close()
    store = ResultStore(tmp_path / "final.sqlite")
    for config, report in zip(_configs(), reports):
        store.put(config.config_hash(), config.to_dict(), report,
                  campaign=CAMPAIGN)
    return store


class TestWorkerCrashPoints:
    """Deterministic in-process crashes at every batch boundary, on
    the first batch and on the last of the campaign's three."""

    class _Crash(RuntimeError):
        pass

    @pytest.mark.parametrize("stage",
                             ["leased", "computed", "stored", "done"])
    @pytest.mark.parametrize("crash_batch", [0, 2])
    def test_resume_is_byte_identical(self, tmp_path, serial_reference,
                                      stage, crash_batch):
        queue_dir = tmp_path / "queue"
        queue = CampaignQueue(queue_dir, lease_timeout_s=0.0,
                              retries=3)
        queue.enqueue(_configs(), campaign=CAMPAIGN)
        queue.close()

        seen = {"batches": 0}

        def hook(hook_stage, tasks):
            assert tasks, "every batch of this campaign runs"
            if hook_stage != stage:
                return
            if seen["batches"] == crash_batch:
                raise self._Crash(f"{stage}[{crash_batch}]")
            seen["batches"] += 1

        with pytest.raises(self._Crash):
            run_worker(queue_dir, worker_id="crashy",
                       fault_hook=hook)
        # The lease dies with the worker (timeout 0 = instant reap);
        # a fresh worker finishes the journal.
        _drive_to_completion(queue_dir)

        store = _merged_campaign_store(queue_dir, tmp_path)
        assert store.canonical_bytes() \
            == serial_reference["store_bytes"]
        store.close()
        with CampaignQueue(queue_dir) as queue:
            assert queue.counts()["done"] == len(_configs())
            assert queue.max_attempts() <= queue.retries + 1

    def test_crash_between_store_and_done_duplicates_nothing(
            self, tmp_path, serial_reference):
        """The nastiest point: the batch's rows exist, its tasks are
        still leased.  The retry recomputes them; the merge imports
        each key exactly once."""
        queue_dir = tmp_path / "queue"
        queue = CampaignQueue(queue_dir, lease_timeout_s=0.0,
                              retries=3)
        queue.enqueue(_configs(), campaign=CAMPAIGN)
        queue.close()

        crashed = []

        def hook(stage, tasks):
            if stage == "stored":
                crashed.extend(task.config_hash for task in tasks)
                raise self._Crash("between put_many and complete_many")

        with pytest.raises(self._Crash):
            run_worker(queue_dir, worker_id="halfway", fault_hook=hook)
        # The whole first batch is already in the crashed worker's
        # store, and its tasks are still leased.
        assert len(crashed) == 2
        orphan = ResultStore(worker_store_path(queue_dir, "halfway"))
        assert sorted(run.config_hash for run in orphan.runs()) \
            == sorted(crashed)
        orphan.close()
        with CampaignQueue(queue_dir) as queue:
            assert queue.counts()["leased"] == len(crashed)

        _drive_to_completion(queue_dir)
        # Every crashed key now has two worker rows; the merge keeps
        # one per key.
        coordinator = Coordinator(queue_dir)
        merged = coordinator.merged_store()
        assert len(merged) == len(_configs())
        merged.close()
        coordinator.close()
        store = _merged_campaign_store(queue_dir, tmp_path)
        assert store.canonical_bytes() \
            == serial_reference["store_bytes"]
        assert len(store) == len(_configs())
        store.close()


class TestKillAfter:
    """``REPRO_FABRIC_KILL_AFTER`` on a real ``repro worker``."""

    def _worker(self, queue_dir):
        env = dict(os.environ, REPRO_FABRIC_KILL_AFTER="1",
                   PYTHONPATH=str(SRC) + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        return subprocess.run(
            [sys.executable, "-m", "repro", "worker",
             "--queue", str(queue_dir), "--poll", "0.01"],
            env=env, capture_output=True, text=True, timeout=300)

    def test_kill_after_first_put_many_resumes_byte_identical(
            self, tmp_path, serial_reference):
        queue_dir = tmp_path / "queue"
        queue = CampaignQueue(queue_dir, lease_timeout_s=0.0,
                              retries=3)
        queue.enqueue(_configs(), campaign=CAMPAIGN)
        queue.close()

        killed = self._worker(queue_dir)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        # Killed after its first put_many commit, before complete_many:
        # the first batch's rows exist while its tasks are leased.
        with CampaignQueue(queue_dir) as queue:
            counts = queue.counts()
            leased = {row[0] for row in queue._conn.execute(
                "SELECT config_hash FROM tasks WHERE state = 'leased'")}
        assert counts["done"] == 0
        assert counts["leased"] == 2
        stores = list(queue_dir.glob("results-*.sqlite"))
        assert len(stores) == 1
        orphan = ResultStore(stores[0])
        assert {run.config_hash for run in orphan.runs()} == leased
        orphan.close()

        # The same command resumes: the fault is one-shot per queue,
        # so the inherited kill switch does not fire again.
        resumed = self._worker(queue_dir)
        assert resumed.returncode == 0, resumed.stderr
        with CampaignQueue(queue_dir) as queue:
            assert queue.counts()["done"] == len(_configs())
            assert queue.max_attempts() == 2
        store = _merged_campaign_store(queue_dir, tmp_path)
        assert store.canonical_bytes() \
            == serial_reference["store_bytes"]
        store.close()


class TestWorkerSigkill:
    """Real worker processes killed at randomized (seeded) instants
    while the coordinator supervises and respawns."""

    def test_killed_workers_resume_byte_identical(self, tmp_path,
                                                  serial_reference):
        import random
        rng = random.Random(20260808)
        queue_dir = tmp_path / "queue"
        coordinator = Coordinator(queue_dir, lease_timeout_s=1.0,
                                  retries=10)
        coordinator.enqueue(_configs(), campaign=CAMPAIGN)

        victims = [coordinator.spawn_worker() for _ in range(2)]
        time.sleep(rng.uniform(0.1, 0.6))
        for victim in victims:
            if victim.is_alive() and victim.pid is not None:
                os.kill(victim.pid, signal.SIGKILL)
        for victim in victims:
            victim.join()

        # The supervisor drives the queue to completion with fresh
        # workers; leases of the dead expire and are re-run.
        coordinator.run(workers=2)
        reports = collect_reports(coordinator, _configs())
        assert len(reports) == len(_configs())
        assert coordinator.queue.max_attempts() \
            <= coordinator.queue.retries + 1
        assert coordinator.queue.counts()["failed"] == 0
        coordinator.close()

        store = _merged_campaign_store(queue_dir, tmp_path)
        assert store.canonical_bytes() \
            == serial_reference["store_bytes"]
        store.close()


class TestCoordinatorCrash:
    """The journal is the coordinator: killing and replacing the
    process that owns it must lose nothing."""

    def test_crash_between_journal_writes_resumes(self, tmp_path):
        queue_dir = tmp_path / "queue"
        configs = _configs()
        first = Coordinator(queue_dir)
        # Crash mid-submission: only half the campaign is journaled
        # and the coordinator dies without any shutdown courtesy.
        first.enqueue(configs[:2], campaign=CAMPAIGN)
        del first                      # no close(): a hard crash

        second = Coordinator(queue_dir)
        assert second.queue.counts()["pending"] == 2
        # Idempotent resubmission completes the journal: the two
        # surviving rows keep their state, the missing ones appear.
        added = second.enqueue(configs, campaign=CAMPAIGN)
        assert added == len(configs) - 2
        assert second.queue.counts()["pending"] == len(configs)
        second.close()

    def test_journal_survives_unfinished_work(self, tmp_path,
                                              serial_reference):
        queue_dir = tmp_path / "queue"
        first = Coordinator(queue_dir, lease_timeout_s=0.0)
        first.enqueue(_configs(), campaign=CAMPAIGN)
        run_worker(queue_dir, worker_id="w0", max_batches=1)
        del first                      # coordinator crash mid-campaign

        second = Coordinator(queue_dir, lease_timeout_s=0.0)
        second.enqueue(_configs(), campaign=CAMPAIGN)   # resume ritual
        _drive_to_completion(queue_dir)
        reports = collect_reports(second, _configs())
        assert len(reports) == len(_configs())
        second.close()
        store = _merged_campaign_store(queue_dir, tmp_path)
        assert store.canonical_bytes() \
            == serial_reference["store_bytes"]
        store.close()


class TestWholeCampaignKill:
    """SIGKILL the entire ``repro campaign`` process group, then
    re-run the identical command: the resumed campaign's store and
    manifest must match a serial pass byte for byte."""

    def _campaign_argv(self, cache_dir, backend, workers):
        return [sys.executable, "-m", "repro", "sweep",
                "--policies", "energy", "migra",
                "--thresholds", "2", "3",
                "--warmup", "0.5", "--measure", "1",
                "--backend", backend, "--workers", str(workers),
                "--cache-dir", str(cache_dir), "--json"]

    def test_kill_resume_matches_serial(self, tmp_path):
        env = dict(os.environ,
                   PYTHONPATH="src" + os.pathsep
                   + os.environ.get("PYTHONPATH", ""),
                   REPRO_FABRIC_LEASE_S="1")
        serial = subprocess.run(
            self._campaign_argv(tmp_path / "serial", "serial", 1),
            env=env, capture_output=True, text=True, timeout=300)
        assert serial.returncode == 0, serial.stderr

        argv = self._campaign_argv(tmp_path / "dist", "distributed", 2)
        victim = subprocess.Popen(argv, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL,
                                  start_new_session=True)
        time.sleep(0.7)                # mid-startup/mid-campaign
        if victim.poll() is None:
            os.killpg(os.getpgid(victim.pid), signal.SIGKILL)
        victim.wait()

        resumed = subprocess.run(argv, env=env, capture_output=True,
                                 text=True, timeout=300)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == serial.stdout      # manifest bytes

        a = ResultStore(tmp_path / "serial" / "results.sqlite")
        b = ResultStore(tmp_path / "dist" / "results.sqlite")
        assert a.canonical_bytes() == b.canonical_bytes()
        a.close()
        b.close()
        with CampaignQueue(tmp_path / "dist" / "queue") as queue:
            assert queue.finished()
            assert queue.max_attempts() <= queue.retries + 1


class TestBoundedRetries:
    def _poison(self, queue_dir, config_hash):
        """Make one journaled config unresolvable (valid JSON, bogus
        scenario name) so every attempt fails."""
        conn = sqlite3.connect(str(Path(queue_dir) / QUEUE_FILENAME))
        config = json.loads(conn.execute(
            "SELECT config FROM tasks WHERE config_hash = ?",
            (config_hash,)).fetchone()[0])
        config["policy"] = "no-such-policy"
        conn.execute("UPDATE tasks SET config = ? WHERE config_hash = ?",
                     (json.dumps(config), config_hash))
        conn.commit()
        conn.close()

    def test_failing_task_fails_after_exactly_retries_plus_one(
            self, tmp_path):
        queue_dir = tmp_path / "queue"
        configs = _configs()
        queue = CampaignQueue(queue_dir, lease_timeout_s=0.0,
                              retries=2, backoff_s=0.0)
        queue.enqueue(configs, campaign=CAMPAIGN)
        poisoned = configs[0].config_hash()
        self._poison(queue_dir, poisoned)
        queue.close()

        _drive_to_completion(queue_dir)
        with CampaignQueue(queue_dir) as queue:
            counts = queue.counts()
            assert counts["done"] == len(configs) - 1
            assert counts["failed"] == 1
            failed = queue.failed_tasks()
            assert failed[0]["config_hash"] == poisoned
            assert failed[0]["attempts"] == queue.retries + 1
            assert "no-such-policy" in failed[0]["last_error"]

        # The healthy rows still collected; the campaign as a whole
        # reports the permanent failure instead of hanging.
        coordinator = Coordinator(queue_dir)
        with pytest.raises(FabricError, match=poisoned):
            collect_reports(coordinator, configs)
        # Manual intervention: retry re-arms the task...
        assert coordinator.queue.retry_failed() == 1
        assert coordinator.queue.counts()["pending"] == 1
        # ...and drain cancels it for good.
        assert coordinator.queue.drain() == 1
        assert coordinator.queue.finished()
        coordinator.close()


#: The threshold at which :class:`_DivergingMigra` blows up.
POISON_C = 3.0


class _DivergingMigra(MigraThermalBalancer):
    """MiGra whose ``POISON_C`` run raises half a second into the
    measured phase: a failure inside the run, not at config parsing."""

    def step(self, now, core_temps):
        if self.threshold_c == POISON_C and now >= self.enabled_at + 0.5:
            raise FloatingPointError("policy diverged mid-run")
        super().step(now, core_temps)


class TestSiblingIsolation:
    """A config that raises mid-run fails alone: its lease siblings
    (one lockstep group, hence one batch) complete on their first
    attempt and their rows match a serial pass."""

    @pytest.fixture
    def diverging_policy(self):
        with policy_registry.temporarily(
                "diverging-migra",
                lambda config: _DivergingMigra(
                    threshold_c=config.threshold_c)):
            yield "diverging-migra"

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_one_raising_config_fails_alone(self, tmp_path, backend,
                                            diverging_policy):
        base = ExperimentConfig(warmup_s=0.5, measure_s=1.0,
                                policy=diverging_policy)
        configs = sweep(base, threshold_c=(1.0, 2.0, POISON_C, 4.0))
        healthy = [c for c in configs if c.threshold_c != POISON_C]
        poison = next(c for c in configs if c.threshold_c == POISON_C)

        queue_dir = tmp_path / "queue"
        queue = CampaignQueue(queue_dir, lease_timeout_s=60.0,
                              retries=2, backoff_s=0.0)
        queue.enqueue(configs, campaign=CAMPAIGN)
        queue.close()
        assert run_worker(queue_dir, worker_id="w0",
                          backend=backend) == len(healthy)

        with CampaignQueue(queue_dir) as queue:
            tasks = {row["config_hash"]: dict(row) for row in
                     queue._conn.execute(
                         "SELECT config_hash, state, attempts, "
                         "last_error FROM tasks")}
            retries = queue.retries
        for config in healthy:
            task = tasks[config.config_hash()]
            assert (task["state"], task["attempts"]) == ("done", 1)
        failed = tasks[poison.config_hash()]
        assert (failed["state"], failed["attempts"]) \
            == ("failed", retries + 1)
        assert "FloatingPointError" in failed["last_error"]

        runner = CampaignRunner(backend="serial",
                                cache_dir=tmp_path / "serial")
        runner.run(healthy, name=CAMPAIGN)
        reference = runner.store.canonical_bytes()
        runner.close()
        coordinator = Coordinator(queue_dir)
        merged = coordinator.merged_store()
        assert merged.canonical_bytes() == reference
        merged.close()
        coordinator.close()


class TestTornRows:
    """A torn journal write is skipped with a warning and repaired by
    re-enqueueing — never a traceback (mirrors the corrupt
    ``results.sqlite`` -> ``StoreError`` handling of PR 4)."""

    def _tear(self, queue_dir, config_hash,
              payload='{"policy": "mig'):
        conn = sqlite3.connect(str(Path(queue_dir) / QUEUE_FILENAME))
        conn.execute("UPDATE tasks SET config = ? WHERE config_hash = ?",
                     (payload, config_hash))
        conn.commit()
        conn.close()

    def test_torn_row_skipped_with_warning_then_repaired(self,
                                                         tmp_path):
        queue_dir = tmp_path / "queue"
        configs = _configs()[:2]
        # A long lease keeps the healthy row parked on w0 below, so
        # the repaired row is the only thing w1 can possibly get.
        queue = CampaignQueue(queue_dir, lease_timeout_s=60.0)
        queue.enqueue(configs, campaign=CAMPAIGN)
        torn = configs[0].config_hash()
        self._tear(queue_dir, torn)

        with pytest.warns(RuntimeWarning, match="torn write"):
            tasks = queue.lease("w0")
        assert all(task.config_hash != torn for task in tasks)
        assert queue.counts()["torn"] == 1

        # Re-enqueueing the campaign repairs the row from the
        # authoritative config...
        assert queue.enqueue(configs, campaign=CAMPAIGN) == 1
        assert queue.counts()["torn"] == 0
        # ...and it leases normally afterwards.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            repaired = queue.lease("w1")
        assert [task.config_hash for task in repaired] == [torn]
        queue.close()

    @pytest.mark.parametrize("payload", [
        "", "not json", "[1, 2, 3]", '"a bare string"'])
    def test_every_torn_shape_is_skipped_not_raised(self, tmp_path,
                                                    payload):
        queue_dir = tmp_path / "queue"
        configs = _configs()[:1]
        queue = CampaignQueue(queue_dir, lease_timeout_s=0.0)
        queue.enqueue(configs, campaign=CAMPAIGN)
        self._tear(queue_dir, configs[0].config_hash(), payload)
        with pytest.warns(RuntimeWarning, match="torn write"):
            assert queue.lease("w0") == []
        queue.close()

    def test_corrupt_queue_file_is_a_clean_error(self, tmp_path):
        queue_dir = tmp_path / "queue"
        queue_dir.mkdir()
        (queue_dir / QUEUE_FILENAME).write_text("not a database")
        with pytest.raises(QueueError, match="not a campaign queue"):
            CampaignQueue(queue_dir)


class TestQueueMechanics:
    """Lease/retry/backoff semantics the fault tolerance rests on."""

    def test_lease_batches_share_a_lockstep_group(self, tmp_path):
        from repro.campaign.backends import lockstep_group_key
        base = ExperimentConfig(warmup_s=0.5, measure_s=1.0)
        configs = sweep(base, package=("mobile", "highperf"),
                        policy=("energy", "migra"))
        queue = CampaignQueue(tmp_path, lease_timeout_s=10.0)
        queue.enqueue(configs, campaign=CAMPAIGN)
        first = queue.lease("w0")
        keys = {json.dumps(lockstep_group_key(
            ExperimentConfig.from_dict(task.config)))
            for task in first}
        assert len(first) == 2 and len(keys) == 1
        second = queue.lease("w1")
        assert len(second) == 2
        assert {t.config_hash for t in first}.isdisjoint(
            {t.config_hash for t in second})
        queue.close()

    def test_expired_lease_returns_to_pending_with_backoff(self,
                                                           tmp_path):
        queue = CampaignQueue(tmp_path, lease_timeout_s=5.0,
                              retries=5, backoff_s=1.0)
        queue.enqueue(_configs()[:1], campaign=CAMPAIGN)
        now = time.time()
        leased = queue.lease("w0", now=now)
        assert len(leased) == 1 and leased[0].attempts == 1
        # Within the lease window nothing is stealable.
        assert queue.lease("thief", now=now + 1.0) == []
        # After expiry the task is pending again, but behind its
        # backoff horizon...
        assert queue.lease("thief", now=now + 5.5) == []
        assert queue.counts()["pending"] == 1
        # ...and leasable once the backoff elapses.
        retaken = queue.lease("thief", now=now + 7.0)
        assert len(retaken) == 1 and retaken[0].attempts == 2
        queue.close()

    def test_complete_with_a_lost_lease_is_a_noop(self, tmp_path):
        queue = CampaignQueue(tmp_path, lease_timeout_s=0.0,
                              backoff_s=0.0)
        queue.enqueue(_configs()[:1], campaign=CAMPAIGN)
        now = time.time()
        task = queue.lease("slow", now=now)[0]
        # The lease expires and another worker completes the task.
        fast = queue.lease("fast", now=now + 1.0)[0]
        assert queue.complete_many([fast.config_hash], "fast") == 1
        # The zombie's completion must not clobber anything.
        assert queue.complete_many([task.config_hash], "slow") == 0
        assert queue.counts()["done"] == 1
        queue.close()

    def test_one_shot_fault_claims(self, tmp_path):
        queue = CampaignQueue(tmp_path)
        assert queue.claim_fault("kill-after-1")
        assert not queue.claim_fault("kill-after-1")
        assert queue.claim_fault("another")
        queue.close()
