"""Assembles and executes one experiment run.

The runner mirrors the paper's protocol (Sec. 5.2): build the MPSoC
with the chosen package, start the workload on its static mapping, run
the initial execution phase with the policy disabled until temperatures
stabilize (12.5 s), then enable the policy and measure for the
remaining time.  All figure metrics are computed over the measurement
window only.

System assembly lives in :class:`repro.campaign.builder.SystemBuilder`:
every component (policy, workload, platform, package) is resolved
through the scenario registries, so new scenarios plug in without
touching this module.  Sweeps over many configurations should go
through :class:`repro.campaign.CampaignRunner`, which parallelizes and
caches the runs.

A batch of configs runs through :func:`run_batch`, which simulates
each distinct warm-up once and forks every config's measured phase
from it.  Configs with equal :func:`run_key` values simulate a
bit-identical run; the campaign engine runs one of them and relabels
its report for the others (see :func:`config_labels`).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.campaign.builder import SystemBuilder, SystemUnderTest
from repro.experiments.config import ExperimentConfig
from repro.experiments.snapshot import Checkpoint
from repro.metrics.migrationstats import MigrationMetrics
from repro.metrics.qosstats import QoSMetrics
from repro.metrics.report import RunReport
from repro.metrics.temperature import TemperatureMetrics
from repro.policies.base import ThermalPolicy
from repro.policies.registry import make_policy

__all__ = ["RunResult", "SystemUnderTest", "build_system", "config_labels",
           "finalize_run", "make_policy", "run_batch", "run_experiment",
           "run_key"]

class Member(NamedTuple):
    """One config of a warm-up group, with its policy built."""

    index: int                  # position in the batch
    config: ExperimentConfig
    policy: ThermalPolicy


@dataclass
class RunResult:
    """Run report plus the raw objects for deeper inspection."""

    report: RunReport
    system: SystemUnderTest
    temperature: TemperatureMetrics
    migration: MigrationMetrics
    qos: QoSMetrics


def build_system(config: ExperimentConfig) -> SystemUnderTest:
    """Construct the full stack for a configuration (not yet run)."""
    return SystemBuilder(config).build()


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Execute the two phases and compute the report.

    Requires tracing (the temperature metrics come from the sensor
    traces); ``trace_enabled=False`` configs are for custom harnesses
    that compute their own metrics via :func:`build_system`.
    """
    check_traced(config)
    sut = build_system(config)
    # Phase 1: initial execution, policy off (temperatures stabilize).
    sut.sim.run_until(config.warmup_s)
    return measure(sut)


def check_traced(config: ExperimentConfig) -> None:
    """Reject a traceless config: the metrics come from the traces."""
    if not config.trace_enabled:
        raise ValueError("runs need trace_enabled=True; use "
                         "build_system directly for traceless runs")


def measure(sut: SystemUnderTest) -> RunResult:
    """Phase 2 of a warmed-up system: enable the policy and measure."""
    sim = sut.sim
    sut.policy.enable(sim.now)
    energy_start = sut.chip.cumulative_energy_j().sum()
    sim.run_until(sut.config.t_end)
    energy_j = float(sut.chip.cumulative_energy_j().sum() - energy_start)
    return finalize_run(sut, energy_j)


def run_batch(configs: Sequence[ExperimentConfig]) -> List[RunReport]:
    """Reports for ``configs``, in order, simulating each warm-up once.

    Every report equals ``run_experiment(config).report``.  Configs
    sharing a :meth:`ExperimentConfig.warmup_key` run one trunk through
    the warm-up; each then measures on its own copy of it (see
    :func:`member_systems`).  A group of one runs exactly as
    :func:`run_experiment` does.
    """
    reports: List[Optional[RunReport]] = [None] * len(configs)
    for group in warmup_groups(configs):
        config = group[0].config
        check_traced(config)
        trunk = build_system(config)
        trunk.sim.run_until(config.warmup_s)
        for index, sut, warmed in member_systems(group, trunk):
            if not warmed:
                sut.sim.run_until(sut.config.warmup_s)
            reports[index] = measure(sut).report
            # The finished system is cyclic garbage that waits for a
            # full collection, and forks, which skip the build and the
            # warm-up, trigger those less often.  Its trace is most of
            # its memory: free that now.
            sut.trace.clear()
    return reports  # type: ignore[return-value]


def member_systems(group: List[Member], trunk: SystemUnderTest,
                   ) -> Iterator[Tuple[int, SystemUnderTest, bool]]:
    """``(index, system, warmed)`` for each member of ``group``.

    ``trunk`` is the system built for the group's first config, run
    through the warm-up.  Each member gets its own restored copy of it
    (see :func:`fork`).  When the group has one member, or the trunk
    does not pickle, the trunk is the first member's system, and the
    others are built fresh with ``warmed`` False: they still have to
    run their own warm-ups.
    """
    checkpoint = checkpoint_system(trunk) if len(group) > 1 else None
    if checkpoint is None:
        yield group[0].index, trunk, True
        for member in group[1:]:
            yield member.index, build_system(member.config), False
        return
    del trunk
    while group:
        # Consume the group: a member's policy is attached to its fork,
        # which is freed once the caller is done with it.
        member = group.pop(0)
        yield member.index, fork(checkpoint, member), True


def warmup_groups(configs: Sequence[ExperimentConfig]) -> List[List[Member]]:
    """``configs`` grouped by warm-up key, in first-seen order.

    Every member's policy is built here, before any warm-up, so a bad
    policy config fails before anything is simulated.  A member whose
    policy could act while disabled (see :func:`acts_while_disabled`)
    is a group of its own.
    """
    groups: Dict[object, List[Member]] = {}
    for index, config in enumerate(configs):
        policy = make_policy(config)
        key = (object() if acts_while_disabled(policy)
               else config.warmup_key())
        groups.setdefault(key, []).append(Member(index, config, policy))
    return list(groups.values())


def acts_while_disabled(policy: ThermalPolicy) -> bool:
    """True if ``policy`` overrides a hook that runs before ``enable``.

    A :class:`ThermalPolicy` acts only through ``step``, which
    ``on_temperature_update`` skips until ``enable``; a subclass that
    overrides ``attach``, ``enable`` or ``on_temperature_update`` may
    act during the warm-up, so it cannot share one.
    """
    cls = type(policy)
    return any(getattr(cls, name) is not getattr(ThermalPolicy, name)
               for name in ("attach", "enable", "on_temperature_update"))


def run_key(config: ExperimentConfig) -> object:
    """Identity of the whole simulated run of ``config``.

    The warm-up key plus the class and pickled state of the policy
    ``config`` builds.  The policy-only fields reach the simulation
    only through that policy, so configs with equal keys simulate a
    bit-identical run and their reports differ only in
    :func:`config_labels`.  Two equal states that pickle differently
    just get different keys.  A config whose policy cannot be built or
    does not pickle gets a key of its own.
    """
    try:
        policy = make_policy(config)
        state = pickle.dumps(policy)
    except Exception:   # noqa: BLE001 - the run reports it, unshared
        return object()
    return config.warmup_key(), type(policy), state


def checkpoint_system(trunk: SystemUnderTest) -> Optional[Checkpoint]:
    """A checkpoint of a warmed-up trunk, or ``None`` if it won't pickle.

    The RC network and its solver are shared by reference, not copied:
    they hold no per-run state (the dense propagator dict is an
    idempotent cache), and the sparse solvers' LU factors do not
    pickle.
    """
    try:
        return Checkpoint(trunk, shared=(trunk.sensors.network,
                                         trunk.sensors.integrator))
    except (pickle.PicklingError, TypeError, AttributeError):
        # A closure, lock or open file somewhere in the system (a user
        # component, say): its members run their own warm-ups.
        return None


def fork(checkpoint: Checkpoint, member: Member) -> SystemUnderTest:
    """A restored copy of the trunk, turned into ``member``'s system.

    The member's policy takes the trunk policy's place, including its
    listener slot, so the sensors still notify ``[policy, guard]`` in
    that order.
    """
    sut = checkpoint.restore()
    member.policy.attach(sut.mpos)
    sut.sensors.replace_listener(sut.policy.on_temperature_update,
                                 member.policy.on_temperature_update)
    sut.policy = member.policy
    sut.config = member.config
    return sut


def finalize_run(sut: SystemUnderTest, energy_j: float) -> RunResult:
    """Compute the metrics and report for a system that has been run.

    Shared between :func:`measure` and the lockstep campaign driver
    (:mod:`repro.campaign.lockstep`), which executes the two phases
    itself across many simulators.  ``energy_j`` is the chip energy
    consumed over the measurement window.
    """
    config = sut.config
    # ``t_end`` is an external observation boundary: land any
    # accounting still deferred to open coalesced slice windows (the
    # legacy engine has executed every slice event up to here).
    for s in sut.mpos.schedulers:
        s.materialize()
    t_from, t_to = config.warmup_s, config.t_end
    temperature = TemperatureMetrics(sut.trace, config.n_cores, t_from, t_to)
    migration = MigrationMetrics(sut.mpos.engine.records, t_from, t_to)
    qos = QoSMetrics([app.qos for app in sut.apps], t_from, t_to)

    # Multi-application workloads additionally report per-app QoS:
    # ``extra["qos.<app>.<metric>"]`` columns ride through the result
    # store's JSON-encoded ``extra`` column and its exports.  Single-app
    # runs leave ``extra`` empty, exactly as before the workload IR.
    extra = {}
    if len(sut.apps) > 1:
        for app in sut.apps:
            per_app = QoSMetrics(app.qos, t_from, t_to)
            extra[f"qos.{app.name}.deadline_misses"] = \
                per_app.deadline_misses
            extra[f"qos.{app.name}.miss_rate"] = per_app.miss_rate
            extra[f"qos.{app.name}.frames_played"] = \
                per_app.frames_played
            extra[f"qos.{app.name}.source_drops"] = per_app.source_drops

    report = RunReport(
        policy=sut.policy.name,
        **config_labels(config),
        pooled_std_c=temperature.pooled_std(),
        spatial_std_c=temperature.spatial_std(),
        temporal_std_c=temperature.temporal_std(),
        combined_std_c=temperature.combined_std(),
        peak_c=temperature.peak_c(),
        max_spread_c=temperature.max_spread_c(),
        mean_spread_c=temperature.mean_spread_c(),
        deadline_misses=qos.deadline_misses,
        miss_rate=qos.miss_rate,
        source_drops=qos.source_drops,
        migrations=migration.count,
        migrations_per_s=migration.per_second,
        migrated_bytes_per_s=migration.bytes_per_second,
        mean_freeze_ms=1000.0 * migration.mean_freeze_s,
        events_executed=sut.sim.events_executed,
        slices_run=sum(s.slices_run for s in sut.mpos.schedulers),
        slices_coalesced=sum(s.slices_coalesced
                             for s in sut.mpos.schedulers),
        core_mean_c=[temperature.core_mean_c(i)
                     for i in range(config.n_cores)],
        frames_played=qos.frames_played,
        energy_j=energy_j,
        avg_power_w=energy_j / config.measure_s,
        extra=extra,
    )
    return RunResult(report=report, system=sut, temperature=temperature,
                     migration=migration, qos=qos)


def config_labels(config: ExperimentConfig) -> Dict[str, object]:
    """The :class:`RunReport` fields copied from the config, not measured."""
    return dict(package=config.package_params.name,
                workload=config.workload,
                threshold_c=config.threshold_c,
                duration_s=config.measure_s)
