"""Figure regenerators (Figs. 2, 7, 8, 9, 10, 11).

Each ``figureN()`` returns a :class:`FigureSeries` — the series the
paper plots.  The simulation sweeps behind Figs. 7-11 run on the
:class:`~repro.campaign.CampaignRunner` passed as ``runner`` (a fresh
in-memory one when none is given).  Passing one runner to Fig. 7 and
Fig. 8 (same runs, different metric) simulates the sweep once; its
``workers`` / ``backend`` parallelize a sweep (``repro fig7 --workers
8`` spreads its warm-up groups over 8 processes), and its
``cache_dir`` reads through the persistent result store — ``repro
fig7 --cache-dir DIR`` regenerates the figure from stored rows and
only simulates missing configs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign import SWEEP_POLICIES, CampaignRunner, sweep
from repro.experiments.config import (
    THRESHOLD_SWEEP_C,
    ExperimentConfig,
)
from repro.metrics.report import RunReport
from repro.mpos.migration import TaskRecreation, TaskReplication
from repro.platform.bus import SharedBus
from repro.sim.kernel import Simulator

#: Display names used in figure output.
POLICY_LABELS = {
    "energy": "Energy-Balancing",
    "stopgo": "Stop&Go",
    "migra": "Thermal-Balancing (ours)",
    "load": "Load-Balancing",
}


@dataclass
class FigureSeries:
    """One reproduced figure: X values and one Y series per curve."""

    figure: str
    title: str
    x_label: str
    y_label: str
    x: List[float]
    series: Dict[str, List[float]]
    notes: str = ""

    def to_text(self) -> str:
        """Fixed-width table, one row per X value."""
        width = max(12, max((len(k) for k in self.series), default=12) + 2)
        lines = [f"{self.figure}: {self.title}",
                 f"  ({self.x_label} vs {self.y_label})"]
        header = f"{self.x_label:<22}" + "".join(
            f"{name:>{width}}" for name in self.series)
        lines.append(header)
        for i, x in enumerate(self.x):
            row = f"{x:<22.2f}" + "".join(
                f"{vals[i]:>{width}.3f}" for vals in self.series.values())
            lines.append(row)
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the policy x threshold matrix, through a campaign runner
# ----------------------------------------------------------------------
def run_matrix(package: str,
               thresholds: Sequence[float] = THRESHOLD_SWEEP_C,
               policies: Sequence[str] = SWEEP_POLICIES,
               base: Optional[ExperimentConfig] = None,
               runner: Optional[CampaignRunner] = None,
               ) -> Dict[Tuple[str, float], RunReport]:
    """All (policy, threshold) reports for one package.

    Runs on ``runner``: its cached runs (in memory, and in its result
    store if it has one) are reused, the rest execute through its
    backend and workers.
    """
    configs = sweep(base, package=package, policy=tuple(policies),
                    threshold_c=tuple(float(t) for t in thresholds))
    result = (runner or CampaignRunner()).run(
        configs, name=f"{package} matrix")
    keys = [(policy, float(threshold)) for policy in policies
            for threshold in thresholds]
    return {key: run.report for key, run in zip(keys, result.runs)}


def _policy_series(package: str, metric, thresholds: Sequence[float],
                   policies: Sequence[str],
                   base: Optional[ExperimentConfig],
                   runner: Optional[CampaignRunner] = None,
                   ) -> Dict[str, List[float]]:
    matrix = run_matrix(package, thresholds, policies, base, runner)
    series: Dict[str, List[float]] = {}
    for policy in policies:
        label = POLICY_LABELS.get(policy, policy)
        series[label] = [metric(matrix[(policy, float(t))])
                         for t in thresholds]
    return series


# ----------------------------------------------------------------------
# Figure 2 — migration cost vs task size
# ----------------------------------------------------------------------
def figure2(sizes_kb: Sequence[int] = (64, 128, 256, 384, 512, 768, 1024),
            f_hz: float = 533e6) -> FigureSeries:
    """Migration cost (cycles) as a function of task size, for the
    task-replication and task-recreation strategies (Fig. 2).

    Uses the analytic cost model evaluated against the platform bus —
    no full-system run is needed, exactly like the paper's
    microbenchmark.
    """
    sim = Simulator()
    bus = SharedBus(sim, bandwidth_bps=200e6, background_load=0.15)
    replication = TaskReplication()
    recreation = TaskRecreation()
    xs = [float(kb) for kb in sizes_kb]
    series = {
        "task-replication": [
            replication.estimated_cost_cycles(int(kb * 1024), f_hz, bus)
            for kb in sizes_kb],
        "task-recreation": [
            recreation.estimated_cost_cycles(int(kb * 1024), f_hz, bus)
            for kb in sizes_kb],
    }
    return FigureSeries(
        figure="Figure 2", title="Migration cost vs task size",
        x_label="task size (KB)", y_label="cost (cycles)",
        x=xs, series=series,
        notes="recreation pays a fork/exec offset plus the file-system "
              "reload slope; replication only the context transfer")


# ----------------------------------------------------------------------
# Figures 7-10 — policy comparison sweeps
# ----------------------------------------------------------------------
def figure7(thresholds: Sequence[float] = THRESHOLD_SWEEP_C,
            base: Optional[ExperimentConfig] = None,
            runner: Optional[CampaignRunner] = None) -> FigureSeries:
    """Temperature standard deviation, mobile embedded package."""
    series = _policy_series(
        "mobile", lambda r: r.pooled_std_c, thresholds,
        SWEEP_POLICIES, base, runner)
    return FigureSeries(
        figure="Figure 7",
        title="Temp. standard deviation for embedded SoCs",
        x_label="threshold (C)", y_label="temperature std dev (C)",
        x=[float(t) for t in thresholds], series=series)


def figure8(thresholds: Sequence[float] = THRESHOLD_SWEEP_C,
            base: Optional[ExperimentConfig] = None,
            runner: Optional[CampaignRunner] = None) -> FigureSeries:
    """Deadline misses, mobile embedded package."""
    series = _policy_series(
        "mobile", lambda r: float(r.deadline_misses), thresholds,
        SWEEP_POLICIES, base, runner)
    return FigureSeries(
        figure="Figure 8",
        title="Deadline misses for the embedded mobile system",
        x_label="threshold (C)", y_label="deadline misses",
        x=[float(t) for t in thresholds], series=series)


def figure9(thresholds: Sequence[float] = THRESHOLD_SWEEP_C,
            base: Optional[ExperimentConfig] = None,
            runner: Optional[CampaignRunner] = None) -> FigureSeries:
    """Temperature standard deviation, high-performance package."""
    series = _policy_series(
        "highperf", lambda r: r.pooled_std_c, thresholds,
        SWEEP_POLICIES, base, runner)
    return FigureSeries(
        figure="Figure 9",
        title="Standard deviation for the high performance SoCs",
        x_label="threshold (C)", y_label="temperature std dev (C)",
        x=[float(t) for t in thresholds], series=series)


def figure10(thresholds: Sequence[float] = THRESHOLD_SWEEP_C,
             base: Optional[ExperimentConfig] = None,
             runner: Optional[CampaignRunner] = None) -> FigureSeries:
    """Deadline misses, high-performance package."""
    series = _policy_series(
        "highperf", lambda r: float(r.deadline_misses), thresholds,
        SWEEP_POLICIES, base, runner)
    return FigureSeries(
        figure="Figure 10",
        title="Deadline misses for high-performance systems",
        x_label="threshold (C)", y_label="deadline misses",
        x=[float(t) for t in thresholds], series=series)


def figure11(thresholds: Sequence[float] = THRESHOLD_SWEEP_C,
             base: Optional[ExperimentConfig] = None,
             runner: Optional[CampaignRunner] = None) -> FigureSeries:
    """Migrations per second of the balancing policy, both packages."""
    xs = [float(t) for t in thresholds]
    series: Dict[str, List[float]] = {}
    for package, label in (("mobile", "embedded mobile"),
                           ("highperf", "high-performance")):
        matrix = run_matrix(package, thresholds, ("migra",), base, runner)
        series[label] = [matrix[("migra", t)].migrations_per_s
                         for t in xs]
    return FigureSeries(
        figure="Figure 11",
        title="Migrations per sec. for both systems",
        x_label="threshold (C)", y_label="migrations/s",
        x=xs, series=series,
        notes="each migration moves >= 64 KB (the OS minimum allocation)")
