"""The benchmark's workloads and metrics: the single source of truth.

``python3 perfbench/run.py --write-manifest`` renders this module into
``BENCHMARK.json`` at the repository root.  That file's schema is fixed
(name/unit/better per metric), so the richer per-layer facts kept here
-- the module each metric observes and the end-to-end metric and
workload it should move -- live only in this file and in
``perfbench/README.md``.

The simulator's thermal model is not validated against hardware.  The
committed goldens under ``baselines/`` are regression references, not
measurements of a real chip, so the benchmark reports no accuracy-error
figure: it checks that every pass reproduces the goldens, and it
measures host time.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Seconds one run measures (passes start until this much has elapsed).
RUN_SECONDS = 35

SWEEP = "sweep-serial"
MIX = "mix-lockstep"
FLEET = "fleet-drain"
SIM_WORKLOADS = (SWEEP, MIX)

WORKLOADS = [
    (SWEEP, "The paper's Figs. 7-10 matrix: 24 golden configs on the serial "
            "backend; exercises kernel, chip power, dense advance and "
            "policies, and bypasses lockstep and the fabric."),
    (MIX, "10 golden workload-mix configs on 6 cores as one lockstep group "
          "on the vectorized backend: advance_batch, multi-app event path "
          "and chip power; bypasses the fabric."),
    (FLEET, "2x10^4 config variants in 200 lockstep groups through enqueue, "
            "resubmit, a 2-worker drain with a stub backend and collect; "
            "queue, store and hashing only, no simulation."),
]

#: ``(name, unit, better, bound)``.  ``configs_per_s`` and
#: ``tasks_per_s`` count the same thing -- a fleet task is one campaign
#: config -- and read the same number.  Both are reported on every
#: workload because every workload must print every end-to-end metric;
#: ``configs_per_s`` is the one to read on the simulation workloads,
#: ``tasks_per_s`` on fleet-drain.
END_TO_END = [
    ("configs_per_s", "1/s", "higher", 0.25),
    ("tasks_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_SIMS = ("configs_per_s", SIM_WORKLOADS)
_SWEEP_ONLY = ("configs_per_s", (SWEEP,))
_MIX_ONLY = ("configs_per_s", (MIX,))
_FLEET_ONLY = ("tasks_per_s", (FLEET,))
_SETUP = ("setup_s", (SWEEP, MIX))

#: ``(name, unit, better, module, (end-to-end metric, workloads))``: the
#: module each per-layer metric observes and what it should move.  On
#: a workload that bypasses the module the metric reads 0.
PER_LAYER = [
    ("sim.events", "count", "lower", "repro.sim.kernel", _SIMS),
    ("sim.event_path_s", "s", "lower", "repro.sim.kernel", _SIMS),
    ("sim.event_path_ns_per_event", "ns", "lower", "repro.sim.kernel",
     _SIMS),
    ("mpos.slices_run", "count", "lower", "repro.mpos.scheduler", _SIMS),
    ("mpos.slices_coalesced", "count", "higher", "repro.mpos.scheduler",
     _SIMS),
    ("mpos.coalesced_ratio", "ratio", "higher", "repro.mpos.scheduler",
     _SIMS),
    ("platform.update_temperatures_s", "s", "lower", "repro.platform.chip",
     _SIMS),
    ("platform.update_temperatures_calls", "count", "lower",
     "repro.platform.chip", _SIMS),
    ("platform.drain_average_power_s", "s", "lower", "repro.platform.chip",
     _SIMS),
    ("thermal.advance_s", "s", "lower", "repro.thermal.solvers",
     _SWEEP_ONLY),
    ("thermal.advance_calls", "count", "lower", "repro.thermal.solvers",
     _SWEEP_ONLY),
    ("thermal.advance_batch_s", "s", "lower", "repro.thermal.solvers",
     _MIX_ONLY),
    ("thermal.advance_batch_calls", "count", "lower",
     "repro.thermal.solvers", _MIX_ONLY),
    ("thermal.batch_width_mean", "count", "higher", "repro.thermal.solvers",
     _MIX_ONLY),
    ("thermal.solver_build_s", "s", "lower", "repro.thermal.solvers",
     _SETUP),
    ("thermal.cache_hits", "count", "higher", "repro.thermal.cache", _SETUP),
    ("thermal.cache_misses", "count", "lower", "repro.thermal.cache",
     _SETUP),
    ("policies.update_s", "s", "lower", "repro.policies", _SWEEP_ONLY),
    ("policies.update_calls", "count", "lower", "repro.policies",
     _SWEEP_ONLY),
    ("policies.migrations", "count", "lower", "repro.policies",
     _SWEEP_ONLY),
    ("sim.trace.records", "count", "lower", "repro.sim.trace", _SIMS),
    ("metrics.finalize_s", "s", "lower", "repro.experiments.runner", _SIMS),
    ("campaign.builder.build_s", "s", "lower", "repro.campaign.builder",
     _SIMS),
    ("campaign.engine.run_s", "s", "lower", "repro.campaign.engine",
     _MIX_ONLY),
    ("campaign.backends.execute_s", "s", "lower", "repro.campaign.backends",
     _MIX_ONLY),
    ("campaign.lockstep.driver_s", "s", "lower", "repro.campaign.lockstep",
     _MIX_ONLY),
    ("campaign.lockstep.groups", "count", "higher",
     "repro.campaign.lockstep", _MIX_ONLY),
    ("experiments.config.hash_s", "s", "lower", "repro.experiments.config",
     _FLEET_ONLY),
    ("experiments.config.hash_calls", "count", "lower",
     "repro.experiments.config", _FLEET_ONLY),
    ("campaign.store.put_many_s", "s", "lower", "repro.campaign.store",
     _FLEET_ONLY),
    ("campaign.store.rows_written", "count", "higher",
     "repro.campaign.store", _FLEET_ONLY),
    ("campaign.store.get_s", "s", "lower", "repro.campaign.store",
     _FLEET_ONLY),
    ("campaign.store.get_calls", "count", "lower", "repro.campaign.store",
     _FLEET_ONLY),
    ("campaign.store.merge_s", "s", "lower", "repro.campaign.store",
     _FLEET_ONLY),
    ("campaign.store.merged_rows", "count", "higher",
     "repro.campaign.store", _FLEET_ONLY),
    ("campaign.fabric.enqueue_s", "s", "lower", "repro.campaign.fabric",
     _FLEET_ONLY),
    ("campaign.fabric.resubmit_s", "s", "lower", "repro.campaign.fabric",
     _FLEET_ONLY),
    ("campaign.fabric.lease_s", "s", "lower", "repro.campaign.fabric",
     _FLEET_ONLY),
    ("campaign.fabric.lease_calls", "count", "lower",
     "repro.campaign.fabric", _FLEET_ONLY),
    ("campaign.fabric.lease_useful_ratio", "ratio", "higher",
     "repro.campaign.fabric", _FLEET_ONLY),
    ("campaign.fabric.tasks_per_lease", "count", "higher",
     "repro.campaign.fabric", _FLEET_ONLY),
    ("campaign.fabric.complete_many_s", "s", "lower",
     "repro.campaign.fabric", _FLEET_ONLY),
    ("campaign.fabric.attempts_per_task", "count", "lower",
     "repro.campaign.fabric", _FLEET_ONLY),
    ("campaign.fabric.drain_s", "s", "lower", "repro.campaign.fabric",
     _FLEET_ONLY),
    ("campaign.fabric.collect_s", "s", "lower", "repro.campaign.fabric",
     _FLEET_ONLY),
    ("campaign.fabric.status_ms", "ms", "lower", "repro.campaign.fabric",
     _FLEET_ONLY),
    # Benchmark-level readings of the traced run itself.
    ("trace.overhead_s", "s", "lower", "perfbench.tracing",
     ("configs_per_s", (SWEEP, MIX, FLEET))),
    ("trace.overhead_ratio", "ratio", "lower", "perfbench.tracing",
     ("configs_per_s", (SWEEP, MIX, FLEET))),
    ("fail_ratio", "ratio", "lower", "perfbench.run",
     ("configs_per_s", (SWEEP, MIX, FLEET))),
]


def manifest() -> dict:
    """``BENCHMARK.json`` content, in its fixed schema."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _, _ in PER_LAYER],
    }


def write_manifest(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
    return path
