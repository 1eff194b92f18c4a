"""Shared benchmark configuration.

The figure and table tests regenerate one table or figure of the
paper with the full experimental protocol (12.5 s warm-up + 25 s
measured, Sec. 5.2), assert its shape and print the series it
produced, so ``pytest benchmarks/ -s`` doubles as the reproduction log.
Every figure, ablation and scaling test runs on the session's one
``runner``, whose cache is shared across tests (Figs. 7/8 share the
mobile matrix, Figs. 9/10 the high-performance one, Fig. 11 reuses
both), so the whole suite performs each simulation once.  The other
files assert floors on the engine's throughput paths; the
repository's performance numbers come from ``perfbench/run.py``
alone.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignRunner
from repro.experiments.config import ExperimentConfig


@pytest.fixture(scope="session")
def paper_protocol() -> ExperimentConfig:
    """The full-length configuration used by all figure benchmarks."""
    return ExperimentConfig(warmup_s=12.5, measure_s=25.0)


@pytest.fixture(scope="session")
def runner() -> CampaignRunner:
    """The in-memory campaign runner every analysis test shares."""
    return CampaignRunner()


def emit(text: str) -> None:
    """Print a reproduced artifact with a visible delimiter."""
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)
