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
* legacy per-run JSON manifests in ``cache_dir`` are read as a
  fallback (and migrated into the store); corrupt manifests count as
  cache misses, never errors;
* the execution strategy is a ``backend`` name (``serial``,
  ``vectorized``, ``distributed``, or anything registered in
  :data:`~repro.campaign.backends.backend_registry`).

Runs are deterministic, so every backend produces byte-identical
reports — ``backend`` and ``workers`` are purely throughput knobs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.campaign.backends import ExecutionContext, make_backend
from repro.campaign.store import ResultStore, load_manifest
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


def _checked_workers(workers: int) -> int:
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return int(workers)


class CampaignRunner:
    """Runs experiment configurations through a backend, with caching.

    Parameters
    ----------
    workers:
        Default process count for :meth:`run` (1 = in-process serial).
    cache_dir:
        Optional directory for the persistent
        :class:`~repro.campaign.store.ResultStore`
        (``results.sqlite``).  Serves as a cross-process,
        cross-session cache and as the campaign's queryable result
        artifact.  Legacy per-run ``<config_hash>.json`` manifests in
        the directory are honoured and migrated into the store.
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
        self.workers = _checked_workers(workers)
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

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, configs: Iterable[ExperimentConfig],
            name: str = "campaign",
            workers: Optional[int] = None,
            backend: Optional[str] = None) -> CampaignResult:
        """Run every configuration (deduplicated by config hash).

        Configs left to run that share a run key simulate once; every
        config still gets its own report and store row.
        """
        t_start = time.perf_counter()
        n_workers = (self.workers if workers is None
                     else _checked_workers(workers))
        engine = self.backend if backend is None else make_backend(backend)
        configs = list(configs)

        unique: Dict[str, ExperimentConfig] = {}
        for config in configs:
            unique.setdefault(config.config_hash(), config)

        reports: Dict[str, RunReport] = {}
        hits = set()
        missing: List[Tuple[str, ExperimentConfig]] = []
        # One membership probe for the whole sweep instead of a
        # has(key, name) query per cache hit.
        registered = (self.store.campaign_hashes(name)
                      if self.store is not None else set())
        hit_writer = (self.store.buffered(campaign=name)
                      if self.store is not None else None)
        for key, config in unique.items():
            report = self._cached(key)
            if report is not None:
                reports[key] = report
                hits.add(key)
                # Record the hit under *this* campaign's name too:
                # rows are keyed (config_hash, campaign), and a
                # campaign served entirely from cache must still be
                # queryable as itself in the store.  Existing rows are
                # left alone — re-running a fully cached campaign must
                # not rewrite (and re-fsync) every row.
                if hit_writer is not None and key not in registered:
                    hit_writer.put(key, config.to_dict(), report)
            else:
                missing.append((key, config))
        if hit_writer is not None:
            hit_writer.flush()

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
        execute_in_context = getattr(engine, "execute_in_context", None)
        if execute_in_context is not None:
            context = ExecutionContext(cache_dir=self.cache_dir,
                                       campaign=name)
            fresh = execute_in_context(to_run, n_workers, context)
        else:
            fresh = engine.execute(to_run, n_workers)
        # Collect path: buffer the fresh rows and journal them in one
        # put_many transaction per campaign, not one commit per run.
        collect_writer = (self.store.buffered(campaign=name)
                          if self.store is not None else None)
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
            if collect_writer is not None:
                collect_writer.put(key, config.to_dict(), report)
        if collect_writer is not None:
            collect_writer.flush()

        runs = [CampaignRun(config=config,
                            report=reports[config.config_hash()],
                            cached=config.config_hash() in hits)
                for config in configs]
        return CampaignResult(name=name, runs=runs, workers=n_workers,
                              elapsed_s=time.perf_counter() - t_start,
                              backend=engine.name)

    def run_one(self, config: ExperimentConfig) -> RunReport:
        """Run (or fetch) a single configuration's report."""
        key = config.config_hash()
        report = self._cached(key)
        if report is None:
            from repro.experiments.runner import run_experiment
            report = run_experiment(config).report
            self._store(key, config, report)
        return report

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------
    def clear_cache(self) -> None:
        """Drop the in-memory cache (the persistent store is kept)."""
        self._memory.clear()

    def _cached(self, key: str) -> Optional[RunReport]:
        report = self._memory.get(key)
        if report is not None:
            return report
        if self.store is not None:
            report = self.store.get(key)
            if report is not None:
                self._memory[key] = report
                return report
        if self.cache_dir is not None:
            # Legacy per-run manifest fallback: parse tolerantly (a
            # corrupt/truncated file is a miss) and migrate hits into
            # the store so the next lookup is one SQL query.
            path = self.cache_dir / f"{key}.json"
            if path.is_file():
                parsed = load_manifest(path)
                if parsed is None:
                    return None
                _, config_dict, report = parsed
                if self.store is not None:
                    self.store.put(key, config_dict, report,
                                   campaign="imported")
                self._memory[key] = report
                return report
        return None

    def _store(self, key: str, config: ExperimentConfig,
               report: RunReport, campaign: str = "adhoc") -> None:
        self._memory[key] = report
        if self.store is not None:
            self.store.put(key, config.to_dict(), report,
                           campaign=campaign)


# ----------------------------------------------------------------------
# shared runners (the figure/ablation/scaling read-through path)
# ----------------------------------------------------------------------
_SHARED_RUNNERS: Dict[Tuple[Optional[str], str], CampaignRunner] = {}


def shared_runner(cache_dir: Optional[str] = None,
                  backend: str = "serial") -> CampaignRunner:
    """A process-wide runner per (cache_dir, backend) pair.

    The analysis layers (figures, ablations, scaling) all read through
    these, so e.g. Fig. 7 and Fig. 8 — same sweep, different metric —
    share one in-memory cache, and a ``--cache-dir`` makes every layer
    serve prior sessions' rows from the same persistent store.
    """
    key = (str(cache_dir) if cache_dir else None, backend)
    runner = _SHARED_RUNNERS.get(key)
    if runner is None:
        runner = CampaignRunner(cache_dir=cache_dir, backend=backend)
        _SHARED_RUNNERS[key] = runner
    return runner


def clear_shared_runners() -> None:
    """Drop the shared runners, closing their store connections."""
    for runner in _SHARED_RUNNERS.values():
        runner.close()
    _SHARED_RUNNERS.clear()
