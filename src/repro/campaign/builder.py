"""Composable system assembly.

:class:`SystemBuilder` turns an
:class:`~repro.experiments.config.ExperimentConfig` into a fully wired
:class:`SystemUnderTest` — simulator, N-core chip with a generated
floorplan, RC thermal network, sensors, MPOS, workload, policy and
panic guard.  Every component is resolved through the scenario
registries, so a new policy/workload/platform/package runs end-to-end
once registered, with no changes here or in the experiment runner.

Each assembly step is a separate method; subclass and override for
scenarios the registries cannot express (e.g. a hand-drawn floorplan or
a custom sensor arrangement)::

    class MySystemBuilder(SystemBuilder):
        def build_chip(self, sim):
            return my_custom_chip(sim, self.config)

    sut = MySystemBuilder(config).build()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.mpos.migration import (
    MigrationStrategy,
    TaskRecreation,
    TaskReplication,
)
from repro.mpos.system import MPOS
from repro.platform.presets import build_chip
from repro.policies.base import ThermalPolicy
from repro.policies.guard import PanicGuard
from repro.policies.registry import make_policy
from repro.sim.kernel import Simulator
from repro.sim.rng import SimRandom
from repro.sim.trace import TraceRecorder
from repro.streaming.application import StreamingApplication
from repro.streaming.registry import make_workloads
from repro.thermal.rc_network import RCNetwork, build_network
from repro.thermal.sensors import ThermalSubsystem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.config import ExperimentConfig


@dataclass
class SystemUnderTest:
    """Everything one run instantiates (exposed for tests/examples)."""

    config: "ExperimentConfig"
    sim: Simulator
    chip: object
    mpos: MPOS
    sensors: ThermalSubsystem
    #: The workload's applications, in spec order (one for classic
    #: single-application workloads).
    apps: List[StreamingApplication]
    policy: ThermalPolicy
    guard: Optional[PanicGuard]
    trace: TraceRecorder

    @property
    def app(self) -> StreamingApplication:
        """The first application (single-app compatibility view)."""
        return self.apps[0]


class SystemBuilder:
    """Assemble the full stack for a configuration (not yet run)."""

    def __init__(self, config: "ExperimentConfig"):
        self.config = config

    # ------------------------------------------------------------------
    # orchestration
    # ------------------------------------------------------------------
    def build(self) -> SystemUnderTest:
        config = self.config
        sim = self.build_simulator()
        trace = self.build_trace()
        chip = self.build_chip(sim)
        network = self.build_network(chip)
        sensors = self.build_sensors(sim, chip, network, trace)
        mpos = self.build_mpos(sim, chip)
        apps = self.build_workload(sim, mpos, trace)

        policy = self.build_policy()
        policy.attach(mpos)
        sensors.add_listener(policy.on_temperature_update)

        guard = self.build_guard()
        if guard is not None:
            guard.attach(mpos)
            guard.enable(0.0)
            sensors.add_listener(guard.on_temperature_update)

        return SystemUnderTest(config=config, sim=sim, chip=chip, mpos=mpos,
                               sensors=sensors, apps=apps, policy=policy,
                               guard=guard, trace=trace)

    # ------------------------------------------------------------------
    # component hooks (override points)
    # ------------------------------------------------------------------
    def build_simulator(self) -> Simulator:
        return Simulator()

    def build_trace(self) -> TraceRecorder:
        return TraceRecorder(enabled=self.config.trace_enabled)

    def build_chip(self, sim: Simulator):
        """N-core chip with the generated row-of-tiles floorplan."""
        return build_chip(sim.clock, self.config.n_cores,
                          self.config.platform_config, sim=sim)

    def build_network(self, chip) -> RCNetwork:
        return build_network(chip.floorplan, [b.name for b in chip.blocks],
                             self.config.package_params,
                             ambient_c=self.config.platform_config.ambient_c)

    def build_sensors(self, sim: Simulator, chip, network: RCNetwork,
                      trace: TraceRecorder) -> ThermalSubsystem:
        return ThermalSubsystem(sim, chip, network,
                                period_s=self.config.sensor_period_s,
                                trace=trace,
                                noise_sigma_c=self.config.sensor_noise_c,
                                rng=SimRandom(self.config.seed).fork(1),
                                solver=self.config.solver)

    def build_migration_strategy(self) -> MigrationStrategy:
        if self.config.migration_strategy == "replication":
            return TaskReplication()
        return TaskRecreation()

    def build_mpos(self, sim: Simulator, chip) -> MPOS:
        return MPOS(sim, chip, quantum_s=self.config.quantum_s,
                    strategy=self.build_migration_strategy())

    def build_workload(self, sim: Simulator, mpos: MPOS,
                       trace: TraceRecorder) -> List[StreamingApplication]:
        """All applications of the configured workload (spec order)."""
        return make_workloads(sim, mpos, self.config, trace)

    def build_policy(self) -> ThermalPolicy:
        return make_policy(self.config)

    def build_guard(self) -> Optional[PanicGuard]:
        if not self.config.panic_guard:
            return None
        return PanicGuard(panic_temp_c=self.config.panic_temp_c)
