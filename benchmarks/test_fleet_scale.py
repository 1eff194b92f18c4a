"""Fleet-scale store & queue I/O: batched hot paths vs per-row calls.

Checks the throughput of the four persistence hot paths at 10^4
synthetic tasks, each against its honest per-row baseline, and prints
the rates —

* **enqueue** — one batched :meth:`CampaignQueue.enqueue` vs one
  enqueue call per config (the pre-batching usage pattern: every call
  probes, inserts and commits its own row), plus a resubmission of
  the same configs, which a campaign resume relies on adding nothing;
* **drain** — two worker processes racing ``lease(limit=256)`` /
  ``complete_many`` loops over the full journal (pure queue machinery,
  no simulation), the task-turnover ceiling of the fabric;
* **put** — :meth:`ResultStore.put_many` vs the one-commit-per-call
  :meth:`ResultStore.put`;
* **merge** — the ``ATTACH``-based :meth:`ResultStore.merge_from` vs
  its row-loop fallback (``ResultStore._merge_rows``, the pre-batching
  implementation).

The synthetic configs are duck-typed stand-ins (hash, dict payload and
the lockstep-group fields) so the measurement isolates SQLite I/O from
simulation and hashing cost.  Per-row baselines are sampled at up to
``_BASELINE_ROWS`` rows and compared by rows/s, which keeps the
test inside tier-1 runtime.  perfbench's ``fleet-drain`` workload
measures the same paths (enqueue, resubmit, lease, ``put_many``,
``complete_many``, merge) at 2x10^4 tasks.

Per-row baselines run in the *seed* journal configuration
(rollback journal, ``synchronous=FULL``) — the before state the
batched paths replaced, where every call paid a durable commit.
"""

from __future__ import annotations

import multiprocessing
import time
from pathlib import Path

from repro.campaign.fabric import CampaignQueue
from repro.campaign.store import ResultStore
from repro.metrics.report import RunReport

from conftest import emit

_N = 10_000
#: Cap on the per-row baseline sample: big enough for a stable rate,
#: small enough that a commit-per-call loop stays in seconds.
_BASELINE_ROWS = 1500
_LEASE_LIMIT = 256
_DRAIN_WORKERS = 2


class SyntheticConfig:
    """Duck-typed config: just the surface the queue and store touch.

    ``enqueue`` needs ``config_hash()``, ``to_dict()`` and the fields
    :func:`~repro.campaign.backends.lockstep_group_key` reads; nothing
    here ever reaches a simulator.
    """

    platform = "conf1"
    package = "mobile"
    n_cores = 3
    solver = "dense"
    sensor_period_s = 0.1
    warmup_s = 0.5
    measure_s = 1.0

    def __init__(self, index: int):
        self.index = index
        self.threshold_c = 1.0 + 0.001 * index

    def config_hash(self) -> str:
        return f"fleet-{self.index:08d}"

    def to_dict(self) -> dict:
        return {"platform": self.platform, "package": self.package,
                "n_cores": self.n_cores, "solver": self.solver,
                "sensor_period_s": self.sensor_period_s,
                "warmup_s": self.warmup_s,
                "measure_s": self.measure_s,
                "threshold_c": self.threshold_c}


def _report(index: int) -> RunReport:
    return RunReport(policy="migra", package="mobile",
                     threshold_c=1.0 + 0.001 * index, duration_s=25.0,
                     peak_c=55.0 + 0.01 * index)


def _store_rows(n: int, offset: int = 0):
    return [(f"fleet-{offset + i:08d}",
             {"threshold_c": 1.0 + 0.001 * (offset + i)},
             _report(offset + i)) for i in range(n)]


def _rate(rows: int, elapsed: float) -> float:
    return rows / max(elapsed, 1e-9)


def _seed_journal_mode(conn) -> None:
    """Reconstruct the pre-PR journal configuration on ``conn``.

    The seed code ran SQLite in its defaults — rollback journal,
    ``synchronous=FULL`` — so every per-row call paid one durable
    commit.  The per-row baselines run in that mode to measure the
    path the batched calls actually replaced.
    """
    conn.execute("PRAGMA journal_mode=DELETE")
    conn.execute("PRAGMA synchronous=FULL")


# ----------------------------------------------------------------------
# enqueue
# ----------------------------------------------------------------------
def _bench_enqueue(tmp: Path) -> dict:
    configs = [SyntheticConfig(i) for i in range(_N)]

    queue = CampaignQueue(tmp / "batched")
    t0 = time.perf_counter()
    added = queue.enqueue(configs, campaign="fleet")
    batched_s = time.perf_counter() - t0
    assert added == _N

    assert queue.enqueue(configs, campaign="fleet") == 0  # no-op resubmit
    queue.close()

    sample = configs[:min(_N, _BASELINE_ROWS)]
    baseline = CampaignQueue(tmp / "per-row")
    _seed_journal_mode(baseline._conn)
    t0 = time.perf_counter()
    for config in sample:
        # The pre-batching usage pattern: one probe + insert + commit
        # per submitted config.
        baseline.enqueue([config], campaign="fleet")
    per_row = _rate(len(sample), time.perf_counter() - t0)
    assert baseline.counts()["pending"] == len(sample)
    baseline.close()

    return {
        "batched_rows_per_s": _rate(_N, batched_s),
        "per_row_rows_per_s": per_row,
        "speedup": _rate(_N, batched_s) / per_row,
    }


# ----------------------------------------------------------------------
# drain: lease/complete_many turnover through worker processes
# ----------------------------------------------------------------------
def _drain_loop(queue_dir: str, worker_id: str) -> None:
    queue = CampaignQueue(queue_dir)
    try:
        while True:
            tasks = queue.lease(worker_id, limit=_LEASE_LIMIT)
            if not tasks:
                if queue.finished():
                    return
                time.sleep(0.005)
                continue
            queue.complete_many([t.config_hash for t in tasks],
                                worker_id)
    finally:
        queue.close()


def _bench_drain(tmp: Path) -> dict:
    queue_dir = tmp / "drain"
    queue = CampaignQueue(queue_dir, lease_timeout_s=600.0)
    queue.enqueue([SyntheticConfig(i) for i in range(_N)],
                  campaign="fleet")

    methods = multiprocessing.get_all_start_methods()
    t0 = time.perf_counter()
    if "fork" in methods:
        context = multiprocessing.get_context("fork")
        procs = [context.Process(target=_drain_loop,
                                 args=(str(queue_dir), f"drain-{i}"))
                 for i in range(_DRAIN_WORKERS)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
        workers = _DRAIN_WORKERS
    else:  # pragma: no cover - fork is available on every CI target
        _drain_loop(str(queue_dir), "drain-0")
        workers = 1
    elapsed = time.perf_counter() - t0

    counts = queue.counts()
    assert counts["done"] == _N and counts["pending"] == 0, counts
    queue.close()
    return {"workers": workers, "tasks_per_s": _rate(_N, elapsed)}


# ----------------------------------------------------------------------
# put
# ----------------------------------------------------------------------
def _bench_put(tmp: Path) -> dict:
    rows = _store_rows(_N)

    batched = ResultStore(tmp / "put-batched.sqlite")
    t0 = time.perf_counter()
    batched.put_many(rows, campaign="fleet")
    batched_s = time.perf_counter() - t0
    assert len(batched) == _N
    batched.close()

    sample = rows[:min(_N, _BASELINE_ROWS)]
    baseline = ResultStore(tmp / "put-per-row.sqlite")
    _seed_journal_mode(baseline._conn)
    t0 = time.perf_counter()
    for config_hash, config, report in sample:
        baseline.put(config_hash, config, report, campaign="fleet")
    per_row = _rate(len(sample), time.perf_counter() - t0)
    baseline.close()

    return {
        "batched_rows_per_s": _rate(_N, batched_s),
        "per_row_rows_per_s": per_row,
        "speedup": _rate(_N, batched_s) / per_row,
    }


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------
def _bench_merge(tmp: Path) -> dict:
    source = ResultStore(tmp / "merge-src.sqlite")
    source.put_many(_store_rows(_N), campaign="fleet")

    attach = ResultStore(tmp / "merge-attach.sqlite")
    t0 = time.perf_counter()
    assert attach.merge_from(source) == _N
    attach_s = time.perf_counter() - t0

    rows = ResultStore(tmp / "merge-rows.sqlite")
    t0 = time.perf_counter()
    assert rows._merge_rows(source) == _N
    rows_s = time.perf_counter() - t0

    # Both paths import the identical logical bytes.
    assert attach.canonical_bytes() == rows.canonical_bytes() \
        == source.canonical_bytes()

    assert attach.merge_from(source) == 0     # idempotent re-merge

    for store in (source, attach, rows):
        store.close()
    return {
        "attach_rows_per_s": _rate(_N, attach_s),
        "row_loop_rows_per_s": _rate(_N, rows_s),
        "speedup": rows_s / max(attach_s, 1e-9),
    }


def test_fleet_scale_artifact(tmp_path):
    results = {
        "enqueue": _bench_enqueue(tmp_path),
        "drain": _bench_drain(tmp_path),
        "put": _bench_put(tmp_path),
        "merge": _bench_merge(tmp_path),
    }

    lines = [f"fleet scale @ {_N} tasks (per-row baselines sampled at "
             f"{min(_N, _BASELINE_ROWS)} rows):"]
    for key in ("enqueue", "put", "merge"):
        row = results[key]
        base = row.get("per_row_rows_per_s",
                       row.get("row_loop_rows_per_s"))
        fast = row.get("batched_rows_per_s",
                       row.get("attach_rows_per_s"))
        lines.append(f"  {key:<8} {fast:>10.0f} rows/s batched vs "
                     f"{base:>8.0f} per-row  ({row['speedup']:.1f}x)")
    drain = results["drain"]
    lines.append(f"  drain    {drain['tasks_per_s']:>10.0f} tasks/s "
                 f"through {drain['workers']} workers "
                 f"(lease limit {_LEASE_LIMIT})")
    emit("\n".join(lines))

    # Conservative floors: batching must beat commit-per-call by an
    # order of magnitude, the ATTACH merge must clearly beat the row
    # loop even on a loaded CI box.
    assert results["enqueue"]["speedup"] >= 10.0
    assert results["put"]["speedup"] >= 10.0
    assert results["merge"]["speedup"] >= 5.0
    assert results["drain"]["tasks_per_s"] > 0
