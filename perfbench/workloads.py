"""The three benchmark workloads.

Each workload splits one pass into three phases so the runner can time
and trace only the part a user waits for:

* ``prepare(index)`` -- untimed per-pass inputs (fresh queue, fresh
  config objects);
* ``execute(span)`` -- the timed pass; ``span(name)`` opens a traced
  span around a call the workload makes itself (a no-op when the pass
  is untraced);
* ``check()`` -- untimed output check, returning a
  :class:`PassCheck`.

``setup(seed)`` builds the seeded inputs and the cold once-per-process
artifacts; the runner repeats it across the run and reports the median
of the uncontended repetitions as ``setup_s``.
"""

from __future__ import annotations

import random
import shutil
import sqlite3
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.campaign.backends import (
    ExecutionBackend,
    backend_registry,
    lockstep_group_key,
)
from repro.campaign.engine import CampaignRunner
from repro.campaign.fabric import Coordinator, FabricError, collect_reports
from repro.campaign.golden import GoldenBaseline
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.metrics.report import RunReport
from repro.thermal.cache import clear_artifact_cache

from spec import FLEET, MIX, SWEEP


@dataclass
class PassCheck:
    """The verdict on one pass's outputs."""

    attempted: int
    failed: int
    #: Simulated or journaled quantities read off the outputs; they must
    #: repeat exactly across passes, traced or not.
    behaviour: Dict[str, int]
    #: Pass-level readings that are not spans (fleet attempts, say).
    extra: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# simulation campaigns checked against the committed goldens
# ----------------------------------------------------------------------
class SimCampaign:
    """A golden campaign run through :class:`CampaignRunner`."""

    def __init__(self, name: str, golden_path: Path, backend: str,
                 workers: int):
        self.name = name
        self.golden_path = golden_path
        self.backend = backend
        self.workers = workers

    @property
    def items(self) -> int:
        return len(self.configs)

    def setup(self, seed: int) -> None:
        clear_artifact_cache()
        self.golden = GoldenBaseline.load(self.golden_path)
        configs = self.golden.configs()
        # The seed orders the campaign; every config keeps its golden.
        random.Random(seed).shuffle(configs)
        self.configs = configs
        # Cold artifacts: one solver and propagator per distinct network.
        warmed = set()
        for config in configs:
            key = lockstep_group_key(config)
            if key in warmed:
                continue
            warmed.add(key)
            sensors = build_system(config).sensors
            sensors.integrator.advance(
                sensors.temps, np.zeros(sensors.network.n_blocks),
                sensors.period_s)

    def prepare(self, index: int) -> None:
        # A fresh runner per pass: a runner's memory cache would serve
        # every config of the second pass without simulating it.
        self.runner = CampaignRunner(workers=self.workers,
                                     backend=self.backend)

    def execute(self, span) -> None:
        self.result = self.runner.run(self.configs, name=self.name)

    def check(self) -> PassCheck:
        verdict = self.golden.compare(self.result, backend=self.backend)
        failed = (verdict.n_failed_rows + len(verdict.missing)
                  + len(verdict.extra))
        problems = [] if verdict.ok else [verdict.to_text()]
        reports = self.result.reports
        behaviour = {
            "events": sum(r.events_executed for r in reports),
            "slices_run": sum(r.slices_run for r in reports),
            "slices_coalesced": sum(r.slices_coalesced for r in reports),
            "migrations": sum(r.migrations for r in reports),
            "frames_played": sum(r.frames_played for r in reports),
            "deadline_misses": sum(r.deadline_misses for r in reports),
        }
        return PassCheck(attempted=len(self.configs), failed=failed,
                         behaviour=behaviour, problems=problems)

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# fleet drain through the fabric with a stub execution backend
# ----------------------------------------------------------------------
STUB_BACKEND = "perfbench-stub"


def stub_report(config: ExperimentConfig) -> RunReport:
    """The fixed report the stub backend returns for ``config``."""
    return RunReport(policy=config.policy, package=config.package,
                     workload=config.workload,
                     threshold_c=config.threshold_c,
                     duration_s=config.measure_s,
                     frames_played=config.seed,
                     core_mean_c=[config.threshold_c] * config.n_cores)


class StubBackend(ExecutionBackend):
    """Returns :func:`stub_report` per config; never simulates."""

    name = STUB_BACKEND

    def execute(self, configs, workers):
        return [stub_report(config) for config in configs]


_FLEET_PACKAGES = ("mobile", "highperf")
_FLEET_CORES = (2, 3, 4, 5, 6)
_FLEET_MEASURE_S = tuple(2.0 + 0.5 * i for i in range(20))
_FLEET_POLICIES = ("migra", "stopgo", "energy", "load")
_FLEET_WORKLOADS = ("sdr", "multi-sdr:2", "pipeline:3x2", "phased")


def fleet_variants(seed: int, per_group: int) -> List[Dict]:
    """Distinct config dicts, ``per_group`` in each of 200 groups.

    Groups are the (package, cores, measure window) combinations; the
    submission order is shuffled, as a sweep generated axis by axis
    would interleave groups.
    """
    rng = random.Random(seed)
    base = ExperimentConfig(warmup_s=2.0).to_dict()
    dicts, seen = [], set()
    for package in _FLEET_PACKAGES:
        for n_cores in _FLEET_CORES:
            for measure_s in _FLEET_MEASURE_S:
                made = 0
                while made < per_group:
                    variant = dict(
                        base, package=package, n_cores=n_cores,
                        measure_s=measure_s,
                        policy=rng.choice(_FLEET_POLICIES),
                        workload=rng.choice(_FLEET_WORKLOADS),
                        threshold_c=round(rng.uniform(0.5, 5.0), 3),
                        load_jitter=rng.choice((0.0, 0.05, 0.1)),
                        seed=rng.randrange(2 ** 31))
                    key = tuple(sorted(variant.items()))
                    if key in seen:
                        continue
                    seen.add(key)
                    dicts.append(variant)
                    made += 1
    rng.shuffle(dicts)
    return dicts


class FleetDrain:
    """Enqueue, resubmit, drain on 2 workers, collect, status."""

    name = FLEET
    WORKERS = 2
    PER_GROUP = 100

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.queue_dir: Optional[Path] = None
        self.coordinator: Optional[Coordinator] = None

    @property
    def items(self) -> int:
        return len(self.dicts)

    def setup(self, seed: int) -> None:
        if STUB_BACKEND not in backend_registry:
            # Registered before any worker forks, so workers inherit it.
            backend_registry.register(STUB_BACKEND, StubBackend())
        self.dicts = fleet_variants(seed, self.PER_GROUP)
        # Validate every input once, as a submitter would.
        for variant in self.dicts:
            ExperimentConfig.from_dict(variant)
        queue_dir = self.work_dir / "setup-queue"
        Coordinator(queue_dir, worker_backend=STUB_BACKEND).close()
        shutil.rmtree(queue_dir)

    def prepare(self, index: int) -> None:
        self.queue_dir = self.work_dir / f"pass-{index}"
        # Fresh config objects per submission: a resumed submitter is a
        # new process whose configs have not memoized their hashes.
        self.first = [ExperimentConfig.from_dict(d) for d in self.dicts]
        self.again = [ExperimentConfig.from_dict(d) for d in self.dicts]
        self.coordinator = Coordinator(self.queue_dir,
                                       worker_backend=STUB_BACKEND)

    def execute(self, span) -> None:
        coordinator = self.coordinator
        self.reports, self.collect_error = None, ""
        with span("campaign.fabric.enqueue"):
            self.added = coordinator.enqueue(self.first, campaign=FLEET)
        with span("campaign.fabric.resubmit"):
            self.readded = coordinator.enqueue(self.again, campaign=FLEET)
        with span("campaign.fabric.drain"):
            coordinator.run(workers=self.WORKERS)
        with span("campaign.fabric.collect"):
            try:
                self.reports = collect_reports(coordinator, self.first)
            except FabricError as error:
                self.collect_error = str(error)
        with span("campaign.fabric.status"):
            self.status = coordinator.queue.status()

    def check(self) -> PassCheck:
        self.coordinator.close()
        self.coordinator = None
        n = len(self.first)
        problems = []
        if self.reports is None:
            problems.append(f"collect failed: {self.collect_error}")
            mismatched = n
        else:
            mismatched = sum(1 for config, report in
                             zip(self.first, self.reports)
                             if report != stub_report(config))
            if mismatched:
                problems.append(f"{mismatched} collected report(s) differ "
                                f"from the stub's")
        counts = self.status.counts
        not_done = n - counts["done"]
        if not_done or sum(counts.values()) != n:
            problems.append(f"queue not fully done: {counts}")
        if self.added != n or self.readded != 0:
            problems.append(f"enqueue added {self.added} and resubmit "
                            f"{self.readded} of {n}")
        with closing(sqlite3.connect(self.queue_dir / "merged.sqlite")) \
                as merged:
            rows, distinct = merged.execute(
                "SELECT COUNT(*), COUNT(DISTINCT config_hash) "
                "FROM runs").fetchone()
        if rows != n or distinct != n:
            problems.append(f"merged store holds {rows} rows for "
                            f"{distinct} configs, expected {n}")
        with closing(sqlite3.connect(self.queue_dir / "queue.sqlite")) \
                as queue:
            attempts = queue.execute(
                "SELECT COALESCE(SUM(attempts), 0) FROM tasks").fetchone()[0]
        if attempts != n:
            problems.append(f"{attempts} attempts for {n} tasks")
        shutil.rmtree(self.queue_dir)
        self.queue_dir = None
        misses = (mismatched, not_done, abs(rows - n), n - distinct,
                  attempts - n)
        failed = min(n, max(misses)) or (n if problems else 0)
        behaviour = {"done": counts["done"], "merged_rows": rows,
                     "attempts": attempts, "enqueued": self.added,
                     "resubmitted": self.readded}
        return PassCheck(attempted=n, failed=failed, behaviour=behaviour,
                         extra={"attempts_per_task": attempts / n},
                         problems=problems)

    def close(self) -> None:
        if self.coordinator is not None:
            self.coordinator.close()


def make_workload(name: str, root: Path, work_dir: Path):
    """The named workload, reading goldens from the checkout ``root``."""
    baselines = root / "baselines"
    if name == SWEEP:
        return SimCampaign(SWEEP, baselines / "threshold-sweep.json",
                           backend="serial", workers=1)
    if name == MIX:
        return SimCampaign(MIX, baselines / "workload-mix.json",
                           backend="vectorized", workers=2)
    if name == FLEET:
        return FleetDrain(work_dir)
    raise ValueError(f"unknown workload {name!r}")
