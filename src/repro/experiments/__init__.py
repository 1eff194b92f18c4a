"""Experiment harness.

One entry point per table/figure of the paper's evaluation (Sec. 5),
built on one experiment runner (:func:`run_experiment`) that assembles
platform + thermal model + MPOS + SDR application + policy, executes
the warm-up and measurement phases, and emits a
:class:`~repro.metrics.report.RunReport`.

This package owns no registry of its own — every dispatch field of
:class:`ExperimentConfig` resolves through the registries of the layer
that implements it: ``policy`` -> ``repro.policies.registry``,
``workload`` -> ``repro.streaming.registry``, ``platform`` (and its
floorplan ``topology``) -> ``repro.platform.registry``, ``package`` ->
``repro.thermal.registry``, ``solver`` -> ``repro.thermal.solvers``;
named campaigns live in ``repro.campaign.spec``.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import RunResult, SystemUnderTest, run_experiment
from repro.experiments.figures import (
    FigureSeries,
    figure2,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    run_matrix,
)
from repro.experiments.tables import table1, table2
from repro.experiments.narrative import narrative_sec52
from repro.experiments import figure1 as _figure1  # registers "fig1"

__all__ = [
    "ExperimentConfig",
    "FigureSeries",
    "RunResult",
    "SystemUnderTest",
    "figure2",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "narrative_sec52",
    "run_experiment",
    "run_matrix",
    "table1",
    "table2",
]
