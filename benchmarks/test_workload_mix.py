"""Multi-application workload throughput.

Times the workload IR's instantiation and execution cost across the
workload families: the classic single SDR pipeline, K concurrent
SDR instances (``multi-sdr:<K>``), the synthetic fan-out/fan-in
pipeline and the phased-load variant, all through the campaign engine.
The interesting number is the *per-application* slowdown — a K-app mix
simulates K times the tasks, queues and frames on one kernel, so the
wall clock should grow roughly linearly with K, not quadratically.
The per-workload timing table is printed; perfbench's ``mix-lockstep``
workload measures the multi-app event path over the workload-mix
goldens.
"""

from __future__ import annotations

import time

from repro.campaign import CampaignRunner
from repro.experiments.config import ExperimentConfig

from conftest import emit

#: Short phases: the benchmark measures engine + IR overhead scaling,
#: not the paper's protocol.
_BASE = dict(warmup_s=2.0, measure_s=4.0, n_cores=6, threshold_c=2.0,
             load_period_s=2.0)

#: ``(workload, app_count)`` — app count normalizes the timing.
_WORKLOADS = (
    ("sdr", 1),
    ("phased", 1),
    ("pipeline:3x2", 1),
    ("multi-sdr:2", 2),
    ("sdr-arrival", 2),
)


def _run_one(workload: str):
    config = ExperimentConfig(workload=workload, policy="migra", **_BASE)
    runner = CampaignRunner(workers=1, backend="serial")
    return runner.run([config], name="workload-mix-bench")


def test_workload_mix_throughput():
    """Per-family wall clock; multi-app must scale ~linearly in apps."""
    rows = []
    for workload, n_apps in _WORKLOADS:
        t0 = time.perf_counter()
        result = _run_one(workload)
        elapsed = time.perf_counter() - t0
        report = result.runs[0].report
        assert report.frames_played > 0
        rows.append({"workload": workload, "n_apps": n_apps,
                     "elapsed_s": round(elapsed, 4),
                     "per_app_s": round(elapsed / n_apps, 4),
                     "frames_played": report.frames_played})

    table = "\n".join(
        f"{row['workload']:<16}{row['n_apps']:>5}"
        f"{row['elapsed_s']:>10.2f}s{row['per_app_s']:>10.2f}s/app"
        f"{row['frames_played']:>8} frames"
        for row in rows)
    emit("workload-mix throughput:\n"
         f"{'workload':<16}{'apps':>5}{'total':>11}{'per-app':>14}\n"
         + table)

    by_name = {row["workload"]: row for row in rows}
    sdr = by_name["sdr"]["elapsed_s"]
    # Two concurrent SDR instances simulate twice the events; allow
    # generous headroom over 2x, but a superlinear blow-up (per-app
    # cost several times the single-app cost) must fail.
    assert by_name["multi-sdr:2"]["per_app_s"] < 3.0 * max(sdr, 0.05)
    # Per-app frame accounting survives aggregation.
    assert by_name["multi-sdr:2"]["frames_played"] == \
        2 * by_name["sdr"]["frames_played"]


def test_multi_sdr_instantiation_scales():
    """Spec construction + wiring alone stays cheap as K grows."""
    from repro.mpos.system import MPOS
    from repro.platform.presets import build_chip
    from repro.sim.kernel import Simulator
    from repro.streaming.registry import make_workloads

    timings = {}
    for count in (1, 4, 8):
        config = ExperimentConfig(workload=f"multi-sdr:{count}",
                                  n_cores=3 * count, **{
                                      k: v for k, v in _BASE.items()
                                      if k != "n_cores"})
        sim = Simulator()
        chip = build_chip(lambda: sim.now, config.n_cores,
                          config.platform_config, sim=sim)
        mpos = MPOS(sim, chip)
        t0 = time.perf_counter()
        apps = make_workloads(sim, mpos, config, None)
        timings[count] = time.perf_counter() - t0
        assert len(apps) == count
    emit("multi-sdr instantiation: "
         + ", ".join(f"K={k}: {t * 1e3:.1f} ms"
                     for k, t in timings.items()))
    # Wiring 8 instances must not be drastically superlinear vs 1.
    assert timings[8] < 100 * max(timings[1], 1e-4)
