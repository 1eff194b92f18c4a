"""Policy registry.

Maps the names accepted by ``ExperimentConfig.policy`` to factories
``factory(config) -> ThermalPolicy``.  The paper's policy and its three
baselines are pre-registered; custom policies plug in without touching
the experiment runner (this replaces the old if/elif dispatch in
``experiments/runner.py``)::

    from repro.policies.registry import register_policy

    @register_policy("herding")
    def _herding(config):
        return CoolestCoreHerding(threshold_c=config.threshold_c)

    run_experiment(ExperimentConfig(policy="herding"))
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.policies.base import ThermalPolicy
from repro.policies.energy_balance import EnergyBalancing
from repro.policies.load_balance import LoadBalancing
from repro.policies.migra import MigraThermalBalancer
from repro.policies.stop_go import StopAndGo
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.config import ExperimentConfig

#: Name -> ``factory(config) -> ThermalPolicy``.
policy_registry = Registry("policy", plural="policies")

PolicyFactory = Callable[["ExperimentConfig"], ThermalPolicy]


def register_policy(name: str):
    """Decorator registering a policy factory under ``name``."""
    return policy_registry.register(name)


def make_policy(config: "ExperimentConfig") -> ThermalPolicy:
    """Instantiate the policy named in the configuration."""
    return policy_registry.resolve(config.policy)(config)


@register_policy("migra")
def _migra(config: "ExperimentConfig") -> ThermalPolicy:
    return MigraThermalBalancer(
        threshold_c=config.threshold_c, top_k=config.top_k,
        max_from_hot=config.max_from_hot,
        max_from_dst=config.max_from_dst,
        eval_period_s=config.daemon_period_s)


@register_policy("stopgo")
def _stopgo(config: "ExperimentConfig") -> ThermalPolicy:
    return StopAndGo(threshold_c=config.threshold_c)


# The two balancing baselines never read ``threshold_c``, so their
# factories do not pass it on: their policies are then equal at every
# threshold, and the campaign engine simulates such configs once.
@register_policy("energy")
def _energy(config: "ExperimentConfig") -> ThermalPolicy:
    return EnergyBalancing()


@register_policy("load")
def _load(config: "ExperimentConfig") -> ThermalPolicy:
    return LoadBalancing()
