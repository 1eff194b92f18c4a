"""Core-count scaling study (extension beyond the paper).

The paper validates the policy on a 3-core MPSoC; the algorithm itself
is N-core (phase 1 filters candidate pairs among all processors).  This
study instantiates the generalized SDR pipeline — one equalizer band
per core — on 2 to 6 cores and compares the thermal balancing policy
against the static energy-balanced mapping at every size.  The runs go
through the :class:`~repro.campaign.CampaignRunner` passed as
``runner`` (a fresh in-memory one when none is given).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.campaign import CampaignRunner
from repro.experiments.config import ExperimentConfig


@dataclass
class ScalingRow:
    """One core-count data point."""

    n_cores: int
    static_std_c: float       # energy balancing (no policy)
    balanced_std_c: float     # migration policy
    static_spread_c: float
    balanced_spread_c: float
    migrations_per_s: float
    deadline_misses: int

    @property
    def std_reduction(self) -> float:
        """Fraction of the static temperature deviation removed."""
        if self.static_std_c <= 0:
            return 0.0
        return 1.0 - self.balanced_std_c / self.static_std_c

    def to_text(self) -> str:
        return (f"  {self.n_cores} cores: std {self.static_std_c:5.2f} -> "
                f"{self.balanced_std_c:5.2f} C "
                f"({100 * self.std_reduction:4.1f}% less), spread "
                f"{self.static_spread_c:5.2f} -> "
                f"{self.balanced_spread_c:5.2f} C, "
                f"{self.migrations_per_s:4.2f} migr/s, "
                f"{self.deadline_misses} misses")


def scaling_study(core_counts: Sequence[int] = (2, 3, 4, 5, 6),
                  threshold_c: float = 2.0,
                  base: Optional[ExperimentConfig] = None,
                  runner: Optional[CampaignRunner] = None,
                  ) -> List[ScalingRow]:
    """Run the policy-vs-static comparison for each core count.

    All (core count x policy) runs go through one campaign on
    ``runner``, so its workers parallelize the whole study, and a
    runner with a result store serves previously simulated rows.
    """
    base = base or ExperimentConfig()
    pairs = []
    for n in core_counts:
        if n < 2:
            raise ValueError("scaling study needs at least 2 cores")
        shape = dict(n_cores=n, n_bands=n, threshold_c=threshold_c)
        pairs.append((base.variant(policy="energy", **shape),
                      base.variant(policy="migra", **shape)))
    campaign = (runner or CampaignRunner()).run(
        [cfg for pair in pairs for cfg in pair], name="scaling")
    rows: List[ScalingRow] = []
    for n, (static_cfg, balanced_cfg) in zip(core_counts, pairs):
        static = campaign.report_for(static_cfg)
        balanced = campaign.report_for(balanced_cfg)
        rows.append(ScalingRow(
            n_cores=n,
            static_std_c=static.pooled_std_c,
            balanced_std_c=balanced.pooled_std_c,
            static_spread_c=static.mean_spread_c,
            balanced_spread_c=balanced.mean_spread_c,
            migrations_per_s=balanced.migrations_per_s,
            deadline_misses=balanced.deadline_misses))
    return rows


def render(rows: List[ScalingRow]) -> str:
    lines = ["Core-count scaling (generalized SDR, one band per core):"]
    lines += [r.to_text() for r in rows]
    return "\n".join(lines)
