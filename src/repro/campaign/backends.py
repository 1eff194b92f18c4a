"""Pluggable campaign execution backends.

An :class:`ExecutionBackend` turns a list of
:class:`~repro.experiments.config.ExperimentConfig` into the matching
list of :class:`~repro.metrics.report.RunReport` — nothing more.  The
caching, dedup, run sharing and aggregation around it live in
:class:`~repro.campaign.engine.CampaignRunner`; picking a backend only
changes *how* the simulations are scheduled, never what they compute:
runs are deterministic, so every backend produces byte-identical
reports for the same configs (see the parity tests).

Built-in backends, resolved by name through :data:`backend_registry`:

* ``serial`` — configs grouped by
  :meth:`~repro.experiments.config.ExperimentConfig.warmup_key` and run
  through :func:`~repro.experiments.runner.run_batch`: configs that
  differ only in their policy simulate their policy-off warm-up once,
  and each measures on its own fork of it.  With one worker it runs
  in-process, where the process-wide propagator cache in
  :mod:`repro.thermal.integrator` stays warm across all runs; with
  more, each warm-up group is cut into slices of at most ⌈n/workers⌉
  configs and the slices run largest first over a pool.
* ``vectorized`` — groups configs by :func:`lockstep_group_key` (same
  thermal network, sensor period and phase timing) and runs each
  group's simulators *in lockstep*: at every common sensor epoch the K
  per-config thermal advances collapse into one
  :meth:`~repro.thermal.solvers.ThermalSolver.advance_batch` mat-mat
  (see :mod:`repro.campaign.lockstep`).  Each distinct warm-up runs
  once: the distinct warm-ups advance in lockstep, then every config's
  fork of its warm-up.  With several workers whole groups fan out over
  a pool.  Best for sweeps with many configs per network on the
  solvers whose batch advance is a true mat-mat (``sparse-exact``,
  ``reduced``).
* ``distributed`` — the resumable campaign fabric
  (:mod:`repro.campaign.fabric`): configs are journaled to a durable
  SQLite queue, leased in lockstep-group batches by supervised worker
  processes, and merged back idempotently.  Survives worker loss and
  whole-campaign kills; re-running resumes from the journal.

New backends plug in without touching the runner::

    from repro.campaign.backends import ExecutionBackend, register_backend

    @register_backend("my-cluster")
    class ClusterBackend(ExecutionBackend):
        name = "my-cluster"
        def execute(self, configs, workers):
            ...
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.metrics.report import RunReport
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.config import ExperimentConfig

#: Name -> :class:`ExecutionBackend` instance.
backend_registry = Registry("backend")


def register_backend(name: str):
    """Decorator registering a backend class (instantiated once)."""
    def decorate(cls):
        backend_registry.register(name, cls())
        return cls
    return decorate


def make_backend(name: str) -> "ExecutionBackend":
    """Resolve a backend by name (helpful error on a typo)."""
    return backend_registry.resolve(name)


@dataclass
class ExecutionContext:
    """Optional campaign context the runner offers to backends.

    Most backends are pure functions of ``(configs, workers)`` and
    ignore this entirely; backends with durable state (the
    ``distributed`` fabric's queue journal) implement
    ``execute_in_context(configs, workers, context)`` instead of
    :meth:`ExecutionBackend.execute` and receive the campaign name and
    the runner's ``cache_dir`` — which is where ``queue.sqlite`` lives
    so an interrupted campaign resumes from the same journal.
    """

    cache_dir: Optional[Path] = None
    campaign: str = "adhoc"


class ExecutionBackend:
    """Strategy for executing a batch of simulations.

    Subclasses implement :meth:`execute`; results must align with the
    input order.  Backends hold no per-campaign state, so one instance
    serves every runner.  A backend may additionally implement
    ``execute_in_context(configs, workers, context)`` to receive an
    :class:`ExecutionContext`; the runner prefers it when present.
    """

    #: Registry name (also shown in campaign summaries).
    name: str = "abstract"

    def execute(self, configs: List["ExperimentConfig"],
                workers: int) -> List[RunReport]:
        """Reports for ``configs``, in order.  ``workers`` is a hint."""
        raise NotImplementedError

    @staticmethod
    def _pool_context() -> multiprocessing.context.BaseContext:
        # Prefer fork where available: workers inherit the parent's
        # scenario registries, so even configs referencing components
        # registered at runtime (custom policies, ablation variants)
        # validate in the worker.
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else None)


def _execute_group(config_dicts: List[Dict]) -> List[Dict]:
    """Worker entry point: one slice of a warm-up group, run in order."""
    # Under a spawn/forkserver start method the worker re-imports from
    # scratch; pull in the in-repo modules that register extra
    # scenarios so their names validate.  (Fork workers inherit the
    # parent's registries and don't need this.)
    from repro.experiments import ablation, figure1  # noqa: F401
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_batch
    configs = [ExperimentConfig.from_dict(d) for d in config_dicts]
    return [report.to_dict() for report in run_batch(configs)]


#: perfbench's tracer wraps this name too (``perfbench/tracing.py``'s
#: hook list); it goes once that list drops it.
_execute_one = _execute_group


def _execute_lockstep_group(config_dicts: List[Dict]) -> List[Dict]:
    """Worker entry point: one lockstep group, reports in group order."""
    from repro.campaign.lockstep import run_lockstep_group
    from repro.experiments import ablation, figure1  # noqa: F401
    from repro.experiments.config import ExperimentConfig
    configs = [ExperimentConfig.from_dict(d) for d in config_dicts]
    return [report.to_dict() for report in run_lockstep_group(configs)]


def _groups(configs: List["ExperimentConfig"], key) -> List[List[int]]:
    """Indices of ``configs`` grouped by ``key``, largest group first."""
    groups: Dict[Tuple, List[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(key(config), []).append(i)
    return sorted(groups.values(), key=len, reverse=True)


def _warmup_slices(configs: List["ExperimentConfig"],
                  workers: int) -> List[List[int]]:
    """Indices of ``configs`` cut into pool tasks, largest first.

    Each warm-up group (equal :meth:`ExperimentConfig.warmup_key`) is
    cut into near-equal slices of at most ⌈n/workers⌉ configs, so
    every worker has work and a slice still simulates its shared
    warm-up only once.
    """
    size = -(-len(configs) // workers)
    slices = []
    for group in _groups(configs, lambda config: config.warmup_key()):
        pieces = -(-len(group) // size)
        bounds = [len(group) * j // pieces for j in range(pieces + 1)]
        slices += [group[a:b] for a, b in zip(bounds, bounds[1:])]
    return sorted(slices, key=len, reverse=True)


def _fan_out(entry, configs: List["ExperimentConfig"],
             batches: List[List[int]], workers: int) -> List[RunReport]:
    """Run each batch of ``configs`` indices through ``entry`` in a pool.

    Never more processes than batches, so no worker sits idle; the
    batches are dispatched one at a time, in the order given.
    """
    with ExecutionBackend._pool_context().Pool(
            min(workers, len(batches))) as pool:
        results = pool.map(
            entry, [[configs[i].to_dict() for i in batch]
                    for batch in batches], chunksize=1)
    reports: List[RunReport] = [None] * len(configs)  # type: ignore
    for batch, dicts in zip(batches, results):
        for i, d in zip(batch, dicts):
            reports[i] = RunReport(**d)
    return reports


@register_backend("serial")
class SerialBackend(ExecutionBackend):
    """Warm-up groups, in-process or sliced over a pool.

    With one worker, or one slice, everything runs in-process through
    :func:`~repro.experiments.runner.run_batch`.  Otherwise the
    :func:`_warmup_slices` fan out, one :func:`_execute_group` task
    each.
    """

    name = "serial"

    def execute(self, configs: List["ExperimentConfig"],
                workers: int) -> List[RunReport]:
        from repro.experiments.runner import run_batch
        slices = _warmup_slices(configs, workers) if workers > 1 else []
        if len(slices) <= 1:
            return run_batch(configs)
        return _fan_out(_execute_group, configs, slices, workers)


def lockstep_group_key(config: "ExperimentConfig") -> Tuple:
    """Grouping key for the ``vectorized`` backend.

    Configs with equal keys share one thermal network and its solver
    artifacts (platform, package, core count, solver) and hit their
    sensor ticks at the same instants (sensor period and the two phase
    durations).
    """
    return (config.platform, config.package, config.n_cores,
            config.solver, config.sensor_period_s, config.warmup_s,
            config.measure_s)


@register_backend("vectorized")
class VectorizedBackend(ExecutionBackend):
    """Lockstep groups: one mat-mat thermal advance per sensor epoch.

    A single worker still benefits: the speedup comes from collapsing
    K solver calls into one batched call in-process, not from
    parallelism.  With multiple workers and multiple groups, whole
    groups fan out over a pool; a group is never split.
    """

    name = "vectorized"

    def execute(self, configs: List["ExperimentConfig"],
                workers: int) -> List[RunReport]:
        from repro.campaign.lockstep import run_lockstep_group
        groups = _groups(configs, lockstep_group_key)
        if workers > 1 and len(groups) > 1:
            return _fan_out(_execute_lockstep_group, configs, groups,
                            workers)
        reports: List[RunReport] = [None] * len(configs)  # type: ignore
        for group in groups:
            group_reports = run_lockstep_group([configs[i] for i in group])
            for i, report in zip(group, group_reports):
                reports[i] = report
        return reports


@register_backend("distributed")
class DistributedBackend(ExecutionBackend):
    """Coordinator + N worker processes over a durable queue.

    Configs are journaled to ``queue.sqlite`` (in ``<cache_dir>/queue``,
    or in a temporary directory removed when a run without a
    ``cache_dir`` ends), local workers lease lockstep-group batches and
    stream rows into per-worker stores, and the coordinator merges them
    back idempotently.  Every hot path is set-at-a-time SQL — one
    ``executemany`` transaction per enqueue, a buffered per-lease row
    flush, one ``ATTACH``-based ``INSERT … SELECT`` per worker-store
    merge, WAL journals on both databases — so the fabric's own I/O
    keeps up at 10^4–10^5 tasks (``BENCH_fleet.json``).  Unlike the
    other backends this one is *resumable*:
    kill the whole campaign at any point and re-running it completes
    only the journal's unfinished tasks, byte-identical to a serial
    pass (see :mod:`repro.campaign.fabric` and
    ``tests/test_fabric_faults.py``).
    """

    name = "distributed"

    def execute(self, configs: List["ExperimentConfig"],
                workers: int) -> List[RunReport]:
        return self.execute_in_context(configs, workers, None)

    def execute_in_context(self, configs: List["ExperimentConfig"],
                           workers: int,
                           context: Optional[ExecutionContext],
                           ) -> List[RunReport]:
        from repro.campaign.fabric import Coordinator, collect_reports
        if not configs:
            return []
        # Without a cache_dir the journal still makes the run itself
        # crash-consistent, but nothing resumes from it, so its
        # directory goes when the run ends.
        adhoc = context is None or context.cache_dir is None
        queue_dir = (Path(tempfile.mkdtemp(prefix="repro-queue-")) if adhoc
                     else Path(context.cache_dir) / "queue")
        campaign = context.campaign if context is not None else "adhoc"
        coordinator = Coordinator(queue_dir)
        try:
            coordinator.enqueue(configs, campaign=campaign)
            coordinator.run(workers=workers)
            return collect_reports(coordinator, configs)
        finally:
            coordinator.close()
            if adhoc:
                shutil.rmtree(queue_dir, ignore_errors=True)
