"""Baseline-gate overhead: a warm-cache golden check must be cheap.

The ``baseline-gate`` CI job re-checks every solver against the
committed goldens on every push, so the gate itself — loading the
golden, serving rows from the store, evaluating tolerance verdicts,
rendering the Markdown report — must cost milliseconds, not
simulation time.  This benchmark records a golden once (simulating),
then times the fully-cached check path end to end.
"""

from __future__ import annotations

import time

import pytest

from repro.campaign import CampaignRunner, expand_campaign
from repro.campaign.golden import GoldenBaseline
from repro.experiments.config import ExperimentConfig

from conftest import emit

#: Short phases: the benchmark times the gate, not the simulator.
_BASE = ExperimentConfig(warmup_s=2.0, measure_s=4.0)


@pytest.fixture(scope="module")
def warm_gate(tmp_path_factory):
    """A recorded golden plus a store already holding its rows."""
    cache_dir = tmp_path_factory.mktemp("baseline-cache")
    runner = CampaignRunner(cache_dir=str(cache_dir))
    result = runner.run(expand_campaign("threshold-sweep", _BASE),
                        name="threshold-sweep")
    golden = GoldenBaseline.from_result(result)
    path = golden.save(cache_dir / "threshold-sweep.json")
    return path, cache_dir


def _check_once(path, cache_dir):
    golden = GoldenBaseline.load(path)
    runner = CampaignRunner(cache_dir=str(cache_dir))
    result = runner.run(golden.configs(), name=golden.campaign)
    report = golden.compare(result)
    runner.close()
    return result, report


def test_warm_check_simulates_nothing(warm_gate):
    path, cache_dir = warm_gate
    result, report = _check_once(path, cache_dir)
    assert report.ok, report.to_text()
    assert result.n_cached == len(result.runs)


def test_warm_check_is_subsecond(warm_gate):
    """The acceptance bar for CI: a cached 24-config check (load +
    store reads + verdicts + Markdown render) stays well under the
    cost of a single simulated run."""
    path, cache_dir = warm_gate
    _check_once(path, cache_dir)          # prime connections
    t0 = time.perf_counter()
    _, report = _check_once(path, cache_dir)
    elapsed = time.perf_counter() - t0
    report.to_markdown()
    emit(f"baseline-gate warm check: {len(report.metrics)} metrics x "
         f"{report.n_rows} configs in {elapsed * 1e3:.1f} ms")
    assert report.ok
    assert elapsed < 2.0     # loose CI-container floor; local ~10 ms
