"""Ablation studies on the design choices DESIGN.md calls out.

Each ablation varies one mechanism of the balancing policy or the
middleware and reports the headline metrics, so the contribution of
each piece is measurable:

* ``ablation_candidate_filter`` — phase 1 strictness: the full policy
  vs one that ignores the frequency-consistency condition (condition 2).
* ``ablation_top_k`` — width of the phase 2 task search.
* ``ablation_strategy`` — task-replication vs task-recreation under the
  full policy (Fig. 2's cost difference turned into end-to-end QoS).
* ``ablation_queue_capacity`` — pipeline buffering vs deadline misses.
* ``ablation_sensor_period`` — thermal monitoring rate vs balance.

The policy variants (no-condition-2 Migra, the original Stop&Go) are
registered policies in their own right — each ablation is just a list
of configurations run on the :class:`~repro.campaign.CampaignRunner`
passed as ``runner`` (a fresh in-memory one when none is given), so
``repro ablation <name> --workers N`` parallelizes it, ``--backend``
picks the execution backend, and ``--cache-dir`` reads previously
simulated rows from the persistent result store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.campaign import CampaignRunner
from repro.experiments.config import ExperimentConfig
from repro.metrics.report import RunReport
from repro.policies.migra import MigraThermalBalancer
from repro.policies.registry import register_policy
from repro.policies.stop_go import StopAndGo


@dataclass
class AblationRow:
    """One ablation data point."""

    label: str
    pooled_std_c: float
    spatial_std_c: float
    deadline_misses: int
    migrations_per_s: float

    def to_text(self) -> str:
        return (f"  {self.label:<28} pooled={self.pooled_std_c:6.3f}C "
                f"spatial={self.spatial_std_c:6.3f}C "
                f"misses={self.deadline_misses:4d} "
                f"migr/s={self.migrations_per_s:5.2f}")


def _rows(labelled: Sequence[tuple],
          runner: Optional[CampaignRunner] = None) -> List[AblationRow]:
    """Run ``(label, config)`` pairs on ``runner``."""
    labels = [label for label, _ in labelled]
    configs = [config for _, config in labelled]
    result = (runner or CampaignRunner()).run(configs, name="ablation")
    return [AblationRow(label=label,
                        pooled_std_c=report.pooled_std_c,
                        spatial_std_c=report.spatial_std_c,
                        deadline_misses=report.deadline_misses,
                        migrations_per_s=report.migrations_per_s)
            for label, report in zip(labels, result.reports)]


class _NoFreqCheckMigra(MigraThermalBalancer):
    """Migra with condition 2 disabled (for the ablation)."""

    name = "migra-no-cond2"

    def plan_exchange(self, src, core_temps):
        # Temporarily make every frequency pass the consistency check by
        # monkey-running the parent with a patched frequency list.
        governor = self.mpos.governor
        original = governor.frequencies_hz
        n = self.mpos.chip.n_tiles
        temps = np.asarray(core_temps, dtype=float)
        mean = float(temps.mean())

        def fake_freqs():
            # Hot cores pretend to be fast, cold ones slow, so the
            # condition always holds and only conditions 1/3 filter.
            return [2.0 if temps[i] > mean else 1.0 for i in range(n)]

        governor.frequencies_hz = fake_freqs
        try:
            return super().plan_exchange(src, core_temps)
        finally:
            governor.frequencies_hz = original


@register_policy("migra-nocond2")
def _migra_nocond2(config: ExperimentConfig) -> _NoFreqCheckMigra:
    return _NoFreqCheckMigra(
        threshold_c=config.threshold_c, top_k=config.top_k,
        max_from_hot=config.max_from_hot,
        max_from_dst=config.max_from_dst,
        eval_period_s=config.daemon_period_s)


@register_policy("stopgo-original")
def _stopgo_original(config: ExperimentConfig) -> StopAndGo:
    """The original Stop&Go [5]: absolute panic threshold + timeout."""
    return StopAndGo(threshold_c=config.threshold_c, mode="timeout",
                     panic_temp_c=72.0, timeout_s=1.0)


def ablation_candidate_filter(base: Optional[ExperimentConfig] = None,
                              threshold_c: float = 2.0,
                              package: str = "highperf",
                              runner: Optional[CampaignRunner] = None,
                              ) -> List[AblationRow]:
    """Full policy vs condition-2-free variant."""
    base = base or ExperimentConfig()
    cfg = base.variant(policy="migra", threshold_c=threshold_c,
                       package=package)
    return _rows([("full policy", cfg),
                  ("without condition 2", cfg.variant(
                      policy="migra-nocond2"))], runner)


def ablation_top_k(base: Optional[ExperimentConfig] = None,
                   values: Sequence[int] = (1, 2, 3),
                   threshold_c: float = 2.0,
                   runner: Optional[CampaignRunner] = None,
                   ) -> List[AblationRow]:
    """Phase-2 search width (the paper prunes to the top few loads)."""
    base = base or ExperimentConfig()
    return _rows([(f"top_k={k}",
                   base.variant(policy="migra", threshold_c=threshold_c,
                                top_k=k))
                  for k in values], runner)


def ablation_strategy(base: Optional[ExperimentConfig] = None,
                      threshold_c: float = 2.0,
                      runner: Optional[CampaignRunner] = None,
                      ) -> List[AblationRow]:
    """Replication vs recreation with the full policy running."""
    base = base or ExperimentConfig()
    return _rows([(strategy,
                   base.variant(policy="migra", threshold_c=threshold_c,
                                migration_strategy=strategy))
                  for strategy in ("replication", "recreation")], runner)


def ablation_queue_capacity(base: Optional[ExperimentConfig] = None,
                            capacities: Sequence[int] = (2, 4, 6, 8, 11),
                            policy: str = "stopgo",
                            threshold_c: float = 3.0,
                            runner: Optional[CampaignRunner] = None,
                            ) -> List[AblationRow]:
    """Pipeline buffering against stalls (Sec. 5.2's queue discussion)."""
    base = base or ExperimentConfig()
    return _rows([(f"capacity={cap}",
                   base.variant(policy=policy, threshold_c=threshold_c,
                                queue_capacity=cap))
                  for cap in capacities], runner)


def ablation_sensor_period(base: Optional[ExperimentConfig] = None,
                           periods_s: Sequence[float] = (0.005, 0.01, 0.05,
                                                         0.1),
                           threshold_c: float = 2.0,
                           package: str = "highperf",
                           runner: Optional[CampaignRunner] = None,
                           ) -> List[AblationRow]:
    """Sensor rate: slower monitoring loosens the balance the policy
    can hold, especially on the fast package."""
    base = base or ExperimentConfig()
    return _rows([(f"sensor={1000 * period:.0f}ms",
                   base.variant(policy="migra", threshold_c=threshold_c,
                                package=package, sensor_period_s=period))
                  for period in periods_s], runner)


def ablation_sensor_noise(base: Optional[ExperimentConfig] = None,
                          sigmas_c: Sequence[float] = (0.0, 0.25, 0.5,
                                                       1.0, 2.0),
                          threshold_c: float = 2.0,
                          runner: Optional[CampaignRunner] = None,
                          ) -> List[AblationRow]:
    """Robustness to sensor noise: the policy reads noisy temperatures
    while the metrics measure ground truth.  Balance should degrade
    gracefully, with noise comparable to the threshold causing spurious
    triggers (more migrations) before it breaks the balance itself."""
    base = base or ExperimentConfig()
    return _rows([(f"noise={sigma:.2f}C",
                   base.variant(policy="migra", threshold_c=threshold_c,
                                sensor_noise_c=sigma))
                  for sigma in sigmas_c], runner)


def ablation_load_jitter(base: Optional[ExperimentConfig] = None,
                         jitters: Sequence[float] = (0.0, 0.1, 0.2, 0.4),
                         threshold_c: float = 2.0,
                         runner: Optional[CampaignRunner] = None,
                         ) -> List[AblationRow]:
    """Data-dependent workload: per-frame cycle costs vary by +-j while
    the policy plans with the nominal loads.  Balance and QoS should
    hold for realistic variation levels."""
    base = base or ExperimentConfig()
    return _rows([(f"jitter=+-{100 * jitter:.0f}%",
                   base.variant(policy="migra", threshold_c=threshold_c,
                                load_jitter=jitter))
                  for jitter in jitters], runner)


def ablation_stopgo_variant(base: Optional[ExperimentConfig] = None,
                            threshold_c: float = 3.0,
                            runner: Optional[CampaignRunner] = None,
                            ) -> List[AblationRow]:
    """The paper's modified Stop&Go (relative thresholds) vs the
    original (absolute panic temperature + resume timeout, [5])."""
    base = base or ExperimentConfig()
    cfg = base.variant(policy="stopgo", threshold_c=threshold_c)
    return _rows([("modified (relative band)", cfg),
                  ("original (panic 72C + 1s timeout)",
                   cfg.variant(policy="stopgo-original"))], runner)


def ablation_platform(base: Optional[ExperimentConfig] = None,
                      threshold_c: float = 3.0,
                      runner: Optional[CampaignRunner] = None,
                      ) -> List[AblationRow]:
    """Conf1 (streaming cores, 0.5 W) vs Conf2 (ARM11-class, 0.27 W)
    under the full policy — lower-power cores leave a smaller gradient
    to balance in the first place."""
    base = base or ExperimentConfig()
    labelled = []
    for platform in ("conf1", "conf2"):
        labelled.append((platform,
                         base.variant(policy="migra",
                                      threshold_c=threshold_c,
                                      platform=platform)))
        labelled.append((f"{platform} (no policy)",
                         base.variant(policy="energy",
                                      threshold_c=threshold_c,
                                      platform=platform)))
    return _rows(labelled, runner)


def render(title: str, rows: List[AblationRow]) -> str:
    return "\n".join([title] + [r.to_text() for r in rows])


ALL_ABLATIONS: Dict[str, callable] = {
    "candidate-filter": ablation_candidate_filter,
    "top-k": ablation_top_k,
    "strategy": ablation_strategy,
    "queue-capacity": ablation_queue_capacity,
    "sensor-period": ablation_sensor_period,
    "sensor-noise": ablation_sensor_noise,
    "load-jitter": ablation_load_jitter,
    "stopgo-variant": ablation_stopgo_variant,
    "platform": ablation_platform,
}
