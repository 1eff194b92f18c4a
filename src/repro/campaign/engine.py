"""Campaign execution: backend fan-out + store-backed caching.

:class:`CampaignRunner` dedups a list of
:class:`~repro.experiments.config.ExperimentConfig` by
:meth:`~repro.experiments.config.ExperimentConfig.config_hash`, serves
already-completed runs from its caches, hands the rest to a pluggable
:class:`~repro.campaign.backends.ExecutionBackend`, and aggregates the
per-run :class:`~repro.metrics.report.RunReport` into a
:class:`CampaignResult`:

* duplicate configs in one campaign simulate once, and so do configs
  whose runs cannot differ (equal
  :func:`~repro.experiments.runner.run_key`): the backend runs the
  first of them, its *leader*, and every *twin* takes the leader's
  report relabelled through
  :func:`~repro.experiments.runner.config_labels`;
* completed runs are cached in memory and, with ``cache_dir``, in a
  queryable :class:`~repro.campaign.store.ResultStore`
  (``results.sqlite``), so re-running a sweep only simulates the
  configurations that changed — across processes and sessions;
* the execution strategy is a ``backend`` name (``serial``,
  ``vectorized``, ``distributed``, or anything registered in
  :data:`~repro.campaign.backends.backend_registry`).

Runs are deterministic, so every backend produces byte-identical
reports — ``backend`` and ``workers`` are purely throughput knobs.
The figure, ablation and scaling entry points take a runner
(``runner=``), so one runner passed to several of them shares its
caches across them.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.campaign.backends import ExecutionContext, make_backend
from repro.campaign.store import ResultStore
from repro.metrics.report import RunReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.config import ExperimentConfig

#: The store's filename inside a runner's ``cache_dir``.
STORE_FILENAME = "results.sqlite"


@dataclass
class CampaignRun:
    """One row of a campaign: a configuration and its report."""

    config: ExperimentConfig
    report: RunReport
    cached: bool = False      # served from cache instead of simulated


@dataclass
class CampaignResult:
    """Aggregated sweep report."""

    name: str
    runs: List[CampaignRun]
    workers: int
    elapsed_s: float
    backend: str = "serial"

    @property
    def reports(self) -> List[RunReport]:
        return [run.report for run in self.runs]

    @property
    def n_cached(self) -> int:
        return sum(1 for run in self.runs if run.cached)

    def report_for(self, config: ExperimentConfig) -> RunReport:
        """The report produced for ``config`` (by config hash)."""
        index = getattr(self, "_index", None)
        if index is None:
            index = {run.config.config_hash(): run.report
                     for run in self.runs}
            self._index = index
        try:
            return index[config.config_hash()]
        except KeyError:
            raise KeyError(
                f"campaign {self.name!r} has no run for {config}") from None

    def to_text(self) -> str:
        lines = [
            f"campaign {self.name!r}: {len(self.runs)} runs "
            f"({self.n_cached} cached) in {self.elapsed_s:.1f}s "
            f"with {self.workers} worker(s), {self.backend} backend",
            RunReport.HEADER,
        ]
        lines += [run.report.to_row() for run in self.runs]
        return "\n".join(lines)

    def to_manifest(self) -> Dict:
        """Plain-type manifest (configs + reports) for tooling.

        Deterministic: execution details (elapsed time, worker count,
        backend, cache hits) are deliberately excluded, so the same
        campaign yields byte-identical manifests regardless of how —
        or whether — its runs were executed: the backend parity
        guarantee in testable form.  Cache information lives on
        :class:`CampaignRun` (``cached`` / :attr:`n_cached`).
        """
        return {
            "name": self.name,
            "runs": [{"config_hash": run.config.config_hash(),
                      "config": run.config.to_dict(),
                      "report": run.report.to_dict()}
                     for run in self.runs],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_manifest(), indent=indent, sort_keys=True)


class CampaignRunner:
    """Runs experiment configurations through a backend, with caching.

    Parameters
    ----------
    workers:
        Process count for :meth:`run` (1 = in-process serial).
    cache_dir:
        Optional directory for the persistent
        :class:`~repro.campaign.store.ResultStore`
        (``results.sqlite``).  Serves as a cross-process,
        cross-session cache and as the campaign's queryable result
        artifact.
    backend:
        Execution backend name (default ``serial``: in-process with
        one worker, warm-up group slices over a pool with more).
    store:
        An explicit :class:`ResultStore` (overrides ``cache_dir``'s
        default store; handy for in-memory stores in tests).
    """

    def __init__(self, workers: int = 1,
                 cache_dir: Optional[str] = None,
                 backend: str = "serial",
                 store: Optional[ResultStore] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.backend = make_backend(backend)
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self._owns_store = store is None and self.cache_dir is not None
        if store is not None:
            self.store: Optional[ResultStore] = store
        elif self.cache_dir is not None:
            self.store = ResultStore(self.cache_dir / STORE_FILENAME)
        else:
            self.store = None
        self._memory: Dict[str, RunReport] = {}

    def close(self) -> None:
        """Release the store's database connection (if owned)."""
        if self.store is not None and self._owns_store:
            self.store.close()
            self.store = None

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, configs: Iterable[ExperimentConfig],
            name: str = "campaign") -> CampaignResult:
        """Run every configuration (deduplicated by config hash).

        Configs left to run that share a run key simulate once; every
        config still gets its own report and store row.
        """
        t_start = time.perf_counter()
        configs = list(configs)

        unique: Dict[str, ExperimentConfig] = {}
        for config in configs:
            unique.setdefault(config.config_hash(), config)

        reports: Dict[str, RunReport] = {}
        hits = set()
        missing: List[Tuple[str, ExperimentConfig]] = []
        for key, config in unique.items():
            report = self._cached(key)
            if report is not None:
                reports[key] = report
                hits.add(key)
            else:
                missing.append((key, config))
        if self.store is not None:
            # Record the hits under *this* campaign's name too: rows
            # are keyed (config_hash, campaign), and a campaign served
            # entirely from cache must still be queryable as itself in
            # the store.  Existing rows are left alone — re-running a
            # fully cached campaign must not rewrite (and re-fsync)
            # every row.  One membership probe serves the whole sweep.
            registered = self.store.campaign_hashes(name)
            self.store.put_many(
                [(key, config.to_dict(), reports[key])
                 for key, config in unique.items()
                 if key in hits and key not in registered],
                campaign=name)

        # Only each run key's leader goes to the backend; ``slots``
        # maps every missing config to its leader's place in ``to_run``.
        from repro.experiments.runner import config_labels, run_key
        leaders: Dict[object, int] = {}
        slots: List[int] = []
        to_run: List[ExperimentConfig] = []
        for _, config in missing:
            slot = leaders.setdefault(run_key(config), len(to_run))
            if slot == len(to_run):
                to_run.append(config)
            slots.append(slot)

        # Backends with durable state (the distributed fabric) take an
        # execution context — campaign name plus cache_dir, the home
        # of their queue journal; plain backends keep the two-argument
        # protocol untouched.
        execute_in_context = getattr(self.backend, "execute_in_context",
                                     None)
        if execute_in_context is not None:
            context = ExecutionContext(cache_dir=self.cache_dir,
                                       campaign=name)
            fresh = execute_in_context(to_run, self.workers, context)
        else:
            fresh = self.backend.execute(to_run, self.workers)
        for (key, config), slot in zip(missing, slots):
            report = fresh[slot]
            if to_run[slot] is not config:
                # A twin: the leader's run under this config's labels,
                # its list and dict copied so reports never alias.
                report = replace(report, **config_labels(config),
                                 core_mean_c=list(report.core_mean_c),
                                 extra=dict(report.extra))
            reports[key] = report
            self._memory[key] = report
        if self.store is not None:
            # The fresh rows land in one transaction, not one per run.
            self.store.put_many(
                [(key, config.to_dict(), reports[key])
                 for key, config in missing], campaign=name)

        runs = [CampaignRun(config=config,
                            report=reports[config.config_hash()],
                            cached=config.config_hash() in hits)
                for config in configs]
        return CampaignResult(name=name, runs=runs, workers=self.workers,
                              elapsed_s=time.perf_counter() - t_start,
                              backend=self.backend.name)

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------
    def _cached(self, key: str) -> Optional[RunReport]:
        report = self._memory.get(key)
        if report is None and self.store is not None:
            report = self.store.get(key)
            if report is not None:
                self._memory[key] = report
        return report

