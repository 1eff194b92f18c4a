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

* ``serial`` — in-process, through
  :func:`~repro.experiments.runner.run_batch`: configs that differ only
  in their policy simulate their policy-off warm-up once, and each
  measures on its own fork of it; the process-wide propagator cache in
  :mod:`repro.thermal.integrator` stays warm across all runs.
* ``process-pool`` — one config per ``multiprocessing`` task,
  round-robined over workers; best when configs are heterogeneous.
  Tasks share no warm-up.
* ``batched`` — groups configs that share thermal-solver artifacts
  (same platform / package / core count / solver) and ships each group
  to a worker whole, so the RC network's propagator artifacts are
  built once per group instead of once per (worker, network)
  encounter, and the worker runs its group through ``run_batch``, so
  shared warm-ups run once.  Best for topology-diverse sweeps with
  many runs per platform.
* ``vectorized`` — groups like ``batched`` (plus sensor period and
  phase timing) and runs each group's simulators *in lockstep*: at
  every common sensor epoch the K per-config thermal advances collapse
  into one :meth:`~repro.thermal.solvers.ThermalSolver.advance_batch`
  mat-mat (see :mod:`repro.campaign.lockstep`).  Each distinct
  warm-up runs once: the distinct warm-ups advance in lockstep, then
  every config's fork of its warm-up.  Best for sweeps with many
  configs per network — threshold sweeps, seed sweeps — on machines
  with few cores.
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
import os
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


def _execute_one(config_dict: Dict) -> Dict:
    """Worker entry point: one simulation, plain dicts in and out."""
    # Under a spawn/forkserver start method the worker re-imports from
    # scratch; pull in the in-repo modules that register extra
    # scenarios so their names validate.  (Fork workers inherit the
    # parent's registries and don't need this.)
    from repro.experiments import ablation, figure1  # noqa: F401
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment
    config = ExperimentConfig.from_dict(config_dict)
    return run_experiment(config).report.to_dict()


def _execute_group(config_dicts: List[Dict]) -> List[Dict]:
    """Worker entry point: one network-sharing group, run in order."""
    from repro.experiments import ablation, figure1  # noqa: F401
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_batch
    configs = [ExperimentConfig.from_dict(d) for d in config_dicts]
    return [report.to_dict() for report in run_batch(configs)]


@register_backend("serial")
class SerialBackend(ExecutionBackend):
    """In-process execution, one warm-up group after another."""

    name = "serial"

    def execute(self, configs: List["ExperimentConfig"],
                workers: int) -> List[RunReport]:
        from repro.experiments.runner import run_batch
        return run_batch(configs)


@register_backend("process-pool")
class ProcessPoolBackend(ExecutionBackend):
    """One config per pool task (the classic fan-out)."""

    name = "process-pool"

    def execute(self, configs: List["ExperimentConfig"],
                workers: int) -> List[RunReport]:
        if workers <= 1 or len(configs) <= 1:
            return SerialBackend().execute(configs, workers)
        with self._pool_context().Pool(min(workers, len(configs))) as pool:
            dicts = pool.map(_execute_one,
                             [config.to_dict() for config in configs])
        return [RunReport(**d) for d in dicts]


def network_group_key(config: "ExperimentConfig") -> Tuple:
    """Grouping key: configs with equal keys share solver artifacts.

    The network is built from the platform's floorplan/power
    parameters, the package and the core count; the thermal solver
    decides *which* per-network artifacts (dense propagator, sparse
    operator, modal basis) a run warms up.  Together those four fields
    decide whether two runs can share a worker's artifact cache.
    """
    return (config.platform, config.package, config.n_cores,
            config.solver)


@register_backend("batched")
class BatchedBackend(ExecutionBackend):
    """Network-sharing groups shipped to workers whole.

    Each worker builds the RC network and its ``expm`` propagator once
    per group (the process-wide integrator cache makes every run after
    the group's first skip the matrix exponential), instead of paying
    that cost once per (worker, network) pair as the per-config pool
    does.  Groups are ordered largest-first so the pool stays busy.
    """

    name = "batched"

    def execute(self, configs: List["ExperimentConfig"],
                workers: int) -> List[RunReport]:
        if workers <= 1 or len(configs) <= 1:
            return SerialBackend().execute(configs, workers)
        groups: Dict[Tuple, List[int]] = {}
        for i, config in enumerate(configs):
            groups.setdefault(network_group_key(config), []).append(i)
        batches = sorted(groups.values(), key=len, reverse=True)
        if len(batches) == 1:
            # One network: a single batch would serialize everything —
            # fall back to per-config fan-out (workers stay warm after
            # their first run anyway).
            return ProcessPoolBackend().execute(configs, workers)
        with self._pool_context().Pool(min(workers, len(batches))) as pool:
            results = pool.map(
                _execute_group,
                [[configs[i].to_dict() for i in batch]
                 for batch in batches])
        reports: List[RunReport] = [None] * len(configs)  # type: ignore
        for batch, dicts in zip(batches, results):
            for i, d in zip(batch, dicts):
                reports[i] = RunReport(**d)
        return reports


def lockstep_group_key(config: "ExperimentConfig") -> Tuple:
    """Grouping key for the ``vectorized`` backend.

    Extends :func:`network_group_key` with the fields that must match
    for simulators to hit sensor ticks at the same instants: the sensor
    period and the two phase durations.
    """
    return network_group_key(config) + (
        config.sensor_period_s, config.warmup_s, config.measure_s)


def _execute_lockstep_group(config_dicts: List[Dict]) -> List[Dict]:
    """Worker entry point: one lockstep group, reports in group order."""
    from repro.campaign.lockstep import run_lockstep_group
    from repro.experiments import ablation, figure1  # noqa: F401
    from repro.experiments.config import ExperimentConfig
    configs = [ExperimentConfig.from_dict(d) for d in config_dicts]
    return [report.to_dict() for report in run_lockstep_group(configs)]


@register_backend("vectorized")
class VectorizedBackend(ExecutionBackend):
    """Lockstep groups: one mat-mat thermal advance per sensor epoch.

    Unlike ``batched``, a single worker still benefits: the speedup
    comes from collapsing K solver calls into one batched call
    in-process, not from parallelism.  With multiple workers and
    multiple groups, the groups fan out over a pool — never more
    processes than groups, so no worker sits idle.
    """

    name = "vectorized"

    def execute(self, configs: List["ExperimentConfig"],
                workers: int) -> List[RunReport]:
        from repro.campaign.lockstep import run_lockstep_group
        groups: Dict[Tuple, List[int]] = {}
        for i, config in enumerate(configs):
            groups.setdefault(lockstep_group_key(config), []).append(i)
        batches = sorted(groups.values(), key=len, reverse=True)
        reports: List[RunReport] = [None] * len(configs)  # type: ignore
        if workers <= 1 or len(batches) == 1:
            for batch in batches:
                group_reports = run_lockstep_group(
                    [configs[i] for i in batch])
                for i, report in zip(batch, group_reports):
                    reports[i] = report
            return reports
        with self._pool_context().Pool(min(workers, len(batches))) as pool:
            results = pool.map(
                _execute_lockstep_group,
                [[configs[i].to_dict() for i in batch]
                 for batch in batches])
        for batch, dicts in zip(batches, results):
            for i, d in zip(batch, dicts):
                reports[i] = RunReport(**d)
        return reports


@register_backend("distributed")
class DistributedBackend(ExecutionBackend):
    """Coordinator + N worker processes over a durable queue.

    Configs are journaled to ``queue.sqlite`` (in
    ``<cache_dir>/queue``, overridable via ``REPRO_QUEUE_DIR``), local
    workers lease lockstep-group batches and stream rows into
    per-worker stores, and the coordinator merges them back
    idempotently.  Every hot path is set-at-a-time SQL — one
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
        env_dir = os.environ.get("REPRO_QUEUE_DIR")
        if env_dir:
            queue_dir = Path(env_dir)
        elif context is not None and context.cache_dir is not None:
            queue_dir = Path(context.cache_dir) / "queue"
        else:
            # No durable home: the journal still makes the run itself
            # crash-consistent, it just won't survive into a resume.
            queue_dir = Path(tempfile.mkdtemp(prefix="repro-queue-"))
        campaign = context.campaign if context is not None else "adhoc"
        coordinator = Coordinator(queue_dir)
        try:
            coordinator.enqueue(configs, campaign=campaign)
            coordinator.run(workers=workers)
            return collect_reports(coordinator, configs)
        finally:
            coordinator.close()
