"""Shared runs: configs whose policies cannot tell them apart simulate once.

``CampaignRunner.run`` groups the configs it has to simulate by
``repro.experiments.runner.run_key`` (the warm-up key plus the class
and pickled state of the config's policy), sends one config per key to
the backend and relabels its report for the others.  The oracle here
is always a fresh :func:`run_experiment` per config, and the number of
simulations is counted where every run ends, at ``finalize_run``.
"""

import threading
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign import CampaignQueue, CampaignRunner
from repro.experiments import runner as runner_mod
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.policies.base import ThermalPolicy
from repro.policies.energy_balance import EnergyBalancing
from repro.policies.registry import policy_registry


@lru_cache(maxsize=None)
def fresh(config):
    """The oracle: ``config`` run on its own, as a plain dict."""
    return run_experiment(config).report.to_dict()


def counted_run(configs, backend, tmp_path, workers=1, **kwargs):
    """``(result, simulations)`` of a fresh runner's campaign.

    Each finished run appends a line to a file, so runs finalized in
    forked pool workers are counted too.
    """
    log = tmp_path / "finalized.log"
    log.write_text("")
    real = runner_mod.finalize_run

    def counting(sut, energy_j):
        with open(log, "a") as out:
            out.write(sut.config.config_hash() + "\n")
        return real(sut, energy_j)

    with mock.patch.object(runner_mod, "finalize_run", counting):
        runner = CampaignRunner(workers=workers, backend=backend, **kwargs)
        try:
            result = runner.run(configs, name="shared-runs")
        finally:
            runner.close()
    return result, len(log.read_text().split())


# ----------------------------------------------------------------------
# property: any multiset, any order, in-process and fanned out
# ----------------------------------------------------------------------
_BASE = ExperimentConfig(warmup_s=0.3, measure_s=0.4, load_jitter=0.05)
_PICK = st.tuples(st.sampled_from(("migra", "stopgo", "energy", "load")),
                  st.sampled_from((1.0, 2.5, 4.0)),
                  st.sampled_from((1, 3)),
                  st.sampled_from((0, 1)))

#: The config fields each built-in policy's factory hands the policy
#: (besides the warm-up key); nothing else can tell two runs apart.
_READS = {"migra": ("threshold_c", "top_k"), "stopgo": ("threshold_c",),
          "energy": (), "load": ()}


def distinct_runs(configs):
    return len({(c.policy, c.seed) + tuple(getattr(c, f)
                                           for f in _READS[c.policy])
                for c in configs})


@pytest.mark.parametrize("backend, workers",
                         [("serial", 1), ("serial", 2)])
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(picks=st.lists(_PICK, min_size=1, max_size=7))
def test_any_campaign_equals_fresh_runs_and_simulates_each_run_once(
        tmp_path, backend, workers, picks):
    configs = [_BASE.variant(policy=p, threshold_c=t, top_k=k, seed=s)
               for p, t, k, s in picks]
    expected = [fresh(c) for c in configs]
    result, simulated = counted_run(configs, backend, tmp_path, workers)
    assert [r.to_dict() for r in result.reports] == expected
    assert simulated == distinct_runs(configs)
    # Twins share values, never objects.
    lists = [id(r.core_mean_c) for r in result.reports]
    assert len(set(lists)) == len({c.config_hash() for c in configs})


# ----------------------------------------------------------------------
# policies that must not share
# ----------------------------------------------------------------------
class ThresholdGater(ThermalPolicy):
    """Gates core 0 at ``0.1 * threshold_c`` s into the measured phase,
    so its results depend on the threshold it holds."""

    name = "threshold-gater"

    def step(self, now, core_temps):
        if now >= self.enabled_at + 0.1 * self.threshold_c \
                and not self.mpos.gated_cores():
            self.mpos.gate_core(0)


_SHORT = dict(warmup_s=0.3, measure_s=0.5)


def test_policy_reading_its_threshold_is_never_shared(tmp_path):
    with policy_registry.temporarily(
            "threshold-gater", lambda c: ThresholdGater(c.threshold_c)):
        configs = [ExperimentConfig(policy="threshold-gater",
                                    threshold_c=t, **_SHORT)
                   for t in (1.0, 2.0, 3.0)]
        expected = [run_experiment(c).report.to_dict() for c in configs]
        # The gate time shows in the temperatures, so one shared run
        # relabelled three times would differ from these.
        assert len({r["pooled_std_c"] for r in expected}) == len(configs)
        result, simulated = counted_run(configs, "serial", tmp_path)
    assert [r.to_dict() for r in result.reports] == expected
    assert simulated == len(configs)


class LockHolder(EnergyBalancing):
    """Energy balancing holding a lock: equal at every threshold, but
    it does not pickle."""

    name = "lock-holder"

    def __init__(self):
        super().__init__()
        self.lock = threading.Lock()


def test_policy_that_does_not_pickle_runs_once_per_config(tmp_path):
    with policy_registry.temporarily("lock-holder",
                                     lambda c: LockHolder()):
        configs = [ExperimentConfig(policy="lock-holder", threshold_c=t,
                                    **_SHORT) for t in (1.0, 2.0, 3.0)]
        expected = [run_experiment(c).report.to_dict() for c in configs]
        result, simulated = counted_run(configs, "serial", tmp_path)
    assert [r.to_dict() for r in result.reports] == expected
    assert simulated == len(configs)


# ----------------------------------------------------------------------
# the fabric: only leaders are enqueued, every config gets its row
# ----------------------------------------------------------------------
def test_distributed_campaign_writes_a_row_per_config(tmp_path):
    configs = [ExperimentConfig(policy=p, threshold_c=t, **_SHORT)
               for p, t in (("energy", 1.0), ("energy", 2.0),
                            ("migra", 2.0))]
    serial = CampaignRunner(backend="serial").run(configs, name="fabric")
    cache_dir = tmp_path / "cache"
    runner = CampaignRunner(backend="distributed", cache_dir=cache_dir)
    try:
        result = runner.run(configs, name="fabric")
        assert result.to_json() == serial.to_json()
        assert runner.store.campaign_hashes("fabric") == \
            {c.config_hash() for c in configs}
        for config, run in zip(configs, serial.runs):
            assert runner.store.get(config.config_hash()) == run.report
    finally:
        runner.close()
    with CampaignQueue(cache_dir / "queue") as queue:
        assert sum(queue.counts().values()) == 2      # the two leaders
