"""Shared warm-ups: every forked run equals its own fresh run.

Configs that differ only in their policy share a bit-identical
policy-off warm-up, which the ``serial`` and ``vectorized`` backends
simulate once and fork (``repro.experiments.runner.run_batch``,
``repro.campaign.lockstep.run_lockstep_group``).  The oracle here is
always a fresh :func:`run_experiment` per config: every report field,
including the event-path counters, must match.
"""

from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign.backends import make_backend
from repro.campaign.builder import SystemBuilder
from repro.campaign.golden import GoldenBaseline
from repro.campaign.lockstep import run_lockstep_group
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    build_system,
    checkpoint_system,
    run_batch,
    run_experiment,
    warmup_groups,
)
from repro.experiments.snapshot import Checkpoint
from repro.policies.base import ThermalPolicy
from repro.policies.registry import policy_registry

BASELINES = Path(__file__).resolve().parents[1] / "baselines"


@lru_cache(maxsize=None)
def fresh(config):
    """The oracle: ``config`` run on its own, as a plain dict."""
    return run_experiment(config).report.to_dict()


def reports_of(backend, configs):
    return [r.to_dict()
            for r in make_backend(backend).execute(configs, workers=1)]


# ----------------------------------------------------------------------
# differential: golden campaigns and every solver
# ----------------------------------------------------------------------
CASES = [("smoke", "dense-exact"), ("threshold-sweep", "dense-exact"),
         ("workload-mix", "dense-exact"), ("smoke", "euler"),
         ("smoke", "sparse-exact"), ("smoke", "reduced")]


@pytest.mark.parametrize("campaign, solver", CASES,
                         ids=[f"{c}-{s}" for c, s in CASES])
@pytest.mark.parametrize("backend", ["serial", "vectorized"])
def test_backend_reports_equal_fresh_runs(backend, campaign, solver):
    configs = GoldenBaseline.load(BASELINES / f"{campaign}.json") \
        .configs(solver=solver)
    # Every golden shares some warm-ups, so the fork path is exercised.
    assert len(warmup_groups(configs)) < len(configs)
    assert reports_of(backend, configs) == [fresh(c) for c in configs]


# ----------------------------------------------------------------------
# property: any multiset, any order
# ----------------------------------------------------------------------
_BASE = ExperimentConfig(warmup_s=0.4, measure_s=0.4, load_jitter=0.05)
_PICK = st.tuples(st.sampled_from(("migra", "stopgo", "energy", "load")),
                  st.sampled_from((1.0, 2.5, 4.0)),
                  st.sampled_from((0, 1)))


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_PICK, min_size=1, max_size=6))
def test_any_batch_equals_fresh_runs(picks):
    configs = [_BASE.variant(policy=p, threshold_c=t, seed=s)
               for p, t, s in picks]
    expected = [fresh(c) for c in configs]
    assert [r.to_dict() for r in run_batch(configs)] == expected
    assert [r.to_dict() for r in run_lockstep_group(configs)] == expected


# ----------------------------------------------------------------------
# opt-outs: runs that must not share a warm-up
# ----------------------------------------------------------------------
class WarmupGater(ThermalPolicy):
    """Acts while disabled: gates core 0 during the warm-up, at a time
    that depends on its threshold."""

    name = "warmup-gater"

    def on_temperature_update(self, now, core_temps):
        if now >= 0.1 * self.threshold_c and not self.mpos.gated_cores():
            self.mpos.gate_core(0)
        super().on_temperature_update(now, core_temps)

    def step(self, now, core_temps):
        pass


_SHORT = dict(warmup_s=0.5, measure_s=0.3)


@pytest.mark.parametrize("backend", ["serial", "vectorized"])
def test_policy_acting_while_disabled_gets_its_own_warmup(backend):
    with policy_registry.temporarily(
            "warmup-gater", lambda c: WarmupGater(c.threshold_c)):
        configs = [ExperimentConfig(policy="warmup-gater", threshold_c=t,
                                    **_SHORT) for t in (1.0, 2.0, 3.0)]
        expected = [run_experiment(c).report.to_dict() for c in configs]
        # The gate time shows in the results, so a shared warm-up
        # (every member gated at the first one's time) would differ.
        assert len({str(r) for r in expected}) == len(configs)
        assert reports_of(backend, configs) == expected


class ClosureBuilder(SystemBuilder):
    """The SDR workload plus a closure event due in the measured phase."""

    def build_workload(self, sim, mpos, trace):
        apps = super().build_workload(sim, mpos, trace)
        sim.schedule_at(self.config.warmup_s + 0.1,
                        lambda: mpos.gate_core(2))
        return apps


@pytest.mark.parametrize("backend", ["serial", "vectorized"])
def test_system_that_does_not_pickle_runs_fresh(backend, monkeypatch):
    # Every in-process path builds its systems through build_system.
    monkeypatch.setattr(runner, "build_system",
                        lambda config: ClosureBuilder(config).build())
    configs = [ExperimentConfig(policy=p, **_SHORT)
               for p in ("energy", "migra", "stopgo")]
    trunk = runner.build_system(configs[0])
    trunk.sim.run_until(configs[0].warmup_s)
    assert checkpoint_system(trunk) is None
    expected = [run_experiment(c).report.to_dict() for c in configs]
    assert reports_of(backend, configs) == expected


# ----------------------------------------------------------------------
# the snapshot helper
# ----------------------------------------------------------------------
class Node:
    def __init__(self, value, peer=None):
        self.value = value
        self.peer = peer


class TestCheckpoint:
    def test_restores_independent_copies(self):
        shared = Node("network")
        original = Node([1, 2], peer=shared)
        checkpoint = Checkpoint(original, shared=[shared])
        first, second = checkpoint.restore(), checkpoint.restore()
        first.value.append(3)
        assert second.value == [1, 2] and original.value == [1, 2]
        assert first.peer is shared and second.peer is shared

    def test_restored_system_keeps_its_own_clock(self):
        sut = build_system(ExperimentConfig(**_SHORT))
        sut.sim.run_until(0.2)
        copy = Checkpoint(sut).restore()
        copy.sim.run_until(0.3)
        assert copy.chip.clock() == 0.3 and sut.chip.clock() == 0.2

    def test_closure_refuses_to_pickle(self):
        with pytest.raises(AttributeError):
            Checkpoint(Node(lambda: None))

    def test_frozen_dataclass_round_trips(self):
        config = ExperimentConfig(**_SHORT)
        config.config_hash()
        restored = Checkpoint(config).restore()
        assert restored == config
        assert restored.config_hash() == config.config_hash()
