"""Campaign engine floors: parallel and lockstep sweeps vs serial.

Runs the same 8-run threshold sweep through ``CampaignRunner`` with 1
worker and with ``N`` workers, once each for the module (fresh runner
per call, so every run simulates from scratch), and prints the wall
clocks.  The speedup
assertion is deliberately loose — on a single-core box (CI
containers) the parallel path can only track its own pool overhead,
and even multi-core runs pay real start-up costs — but a parallel
sweep regressing to much slower than serial should fail loudly.
perfbench measures these paths: ``sweep-serial`` the serial backend,
``mix-lockstep`` the vectorized one.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass

import pytest

from repro.campaign import CampaignRunner, expand_campaign, sweep
from repro.experiments.config import ExperimentConfig

from conftest import emit

#: Enough simulated work per run that pool start-up does not dominate.
_BASE = ExperimentConfig(warmup_s=5.0, measure_s=10.0)

#: 8 runs: 2 policies x 4 thresholds on the mobile package.
_CONFIGS = sweep(_BASE, policy=("energy", "migra"),
                 threshold_c=(1.0, 2.0, 3.0, 4.0))

_PARALLEL_WORKERS = max(2, min(4, multiprocessing.cpu_count()))


def _run_sweep(workers: int):
    # A fresh runner per call: no cache reuse between rounds.
    return CampaignRunner(workers=workers).run(
        _CONFIGS, name=f"throughput-w{workers}")


@dataclass
class _SweepPair:
    serial: object
    parallel: object
    t_serial: float
    t_parallel: float
    #: ``cache_stats()`` right after the serial sweep.
    serial_stats: object


@pytest.fixture(scope="module")
def sweep_pair() -> _SweepPair:
    """The sweep once per worker count, shared by the three tests below.

    Clears the artifact cache, times the serial sweep, reads its cache
    statistics, then times the parallel sweep.
    """
    from repro.thermal.cache import cache_stats, clear_artifact_cache
    clear_artifact_cache()
    t0 = time.perf_counter()
    serial = _run_sweep(1)
    t_serial = time.perf_counter() - t0
    stats = cache_stats()
    t0 = time.perf_counter()
    parallel = _run_sweep(_PARALLEL_WORKERS)
    t_parallel = time.perf_counter() - t0
    return _SweepPair(serial, parallel, t_serial, t_parallel, stats)


def test_campaign_serial(sweep_pair):
    result = sweep_pair.serial
    assert len(result.runs) == len(_CONFIGS)
    assert result.n_cached == 0


def test_campaign_parallel(sweep_pair):
    result = sweep_pair.parallel
    assert len(result.runs) == len(_CONFIGS)
    assert result.n_cached == 0


def test_parallel_speedup_over_serial(sweep_pair):
    """Direct wall-clock comparison of the two worker counts."""
    serial, parallel = sweep_pair.serial, sweep_pair.parallel
    t_serial, t_parallel = sweep_pair.t_serial, sweep_pair.t_parallel
    # 8 runs over one thermal network: the serial (in-process) sweep
    # must compute that network's matrix exponential exactly once.
    stats = sweep_pair.serial_stats
    emit(f"serial sweep artifact reuse: {stats.to_text()}")
    assert stats.misses == 1

    speedup = t_serial / t_parallel
    emit(f"campaign throughput: {len(_CONFIGS)} runs, serial "
         f"{t_serial:.2f}s vs {_PARALLEL_WORKERS} workers "
         f"{t_parallel:.2f}s -> speedup {speedup:.2f}x\n"
         + parallel.to_text())
    assert [a.report.to_json() for a in serial.runs] == \
        [b.report.to_json() for b in parallel.runs]
    # Loose floor: parallel must not be meaningfully slower than serial.
    assert speedup > 0.7


# ----------------------------------------------------------------------
# serial fan-out: warm-up group slices over a pool vs in-process
# ----------------------------------------------------------------------

#: Two warm-up groups (conf1 + conf2), four runs each — the shape the
#: serial backend slices over its pool.
_MIXED_CONFIGS = sweep(ExperimentConfig(warmup_s=2.0, measure_s=4.0),
                       platform=("conf1", "conf2"),
                       policy=("energy", "migra"),
                       threshold_c=(2.0, 3.0))


def test_serial_fan_out_matches_in_process_and_reports_timing():
    """Wall-clock of serial on 1 worker vs N workers on a
    mixed-platform sweep, with the byte-identical parity assertion
    that makes the worker count a pure throughput knob."""
    t0 = time.perf_counter()
    in_process = CampaignRunner(workers=1, backend="serial").run(
        _MIXED_CONFIGS, name="backend-compare")
    t_in_process = time.perf_counter() - t0

    t0 = time.perf_counter()
    fan_out = CampaignRunner(workers=_PARALLEL_WORKERS,
                             backend="serial").run(
        _MIXED_CONFIGS, name="backend-compare")
    t_fan_out = time.perf_counter() - t0

    emit(f"serial fan-out: {len(_MIXED_CONFIGS)} runs over 2 warm-up "
         f"groups, 1 worker {t_in_process:.2f}s vs "
         f"{_PARALLEL_WORKERS} workers {t_fan_out:.2f}s "
         f"({t_in_process / max(t_fan_out, 1e-9):.2f}x)")
    assert in_process.to_json() == fan_out.to_json()
    # Loose floor only: slice scheduling must not collapse throughput.
    assert t_fan_out < 5 * max(t_in_process, 0.1)


# ----------------------------------------------------------------------
# lockstep comparison: serial vs vectorized
# ----------------------------------------------------------------------

def test_vectorized_backend_speedup_artifact():
    """In-process serial vs vectorized on the threshold-sweep smoke
    (sparse-exact): byte-identical manifests, and lockstep no slower
    than serial beyond measurement noise.

    The vectorized backend collapses each sensor epoch's K thermal
    advances into one ``advance_batch`` mat-mat; its advantage over
    serial therefore scales with the thermal solver's share of the
    run — modest on the paper's small conf1 network, larger on big
    floorplans — and unlike a worker pool it does not need spare
    cores.
    """
    from repro.thermal.cache import clear_artifact_cache

    base = ExperimentConfig(warmup_s=2.0, measure_s=5.0,
                            solver="sparse-exact")
    configs = expand_campaign("threshold-sweep", base)

    elapsed = {}
    manifests = {}
    # serial on one worker: the in-process path the floor below has
    # always compared vectorized against.
    for backend, workers in (("serial", 1),
                             ("vectorized", _PARALLEL_WORKERS)):
        clear_artifact_cache()
        t0 = time.perf_counter()
        result = CampaignRunner(workers=workers,
                                backend=backend).run(
            configs, name="bench-vectorized")
        elapsed[backend] = time.perf_counter() - t0
        manifests[backend] = result.to_json()

    # The backends are pure throughput knobs: byte-identical manifests.
    assert manifests["serial"] == manifests["vectorized"]

    speedup_vs_serial = elapsed["serial"] / elapsed["vectorized"]
    emit(f"vectorized backend comparison: {len(configs)} configs, "
         f"sparse-exact: serial (1 worker) {elapsed['serial']:.2f}s vs "
         f"vectorized ({_PARALLEL_WORKERS} workers) "
         f"{elapsed['vectorized']:.2f}s -> {speedup_vs_serial:.2f}x")

    # Loose floor: lockstep batching must never lose to serial by more
    # than measurement noise (its real win grows with network size).
    assert speedup_vs_serial > 0.9
