"""Benchmark of the thermal-balancing simulator, its campaigns and fabric.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload sweep-serial --seed 1 \\
        --seconds 35 --trace 0

``--trace 0`` times untraced passes and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics (self time, calls and counts per layer, plus the
tracing overhead).  Every pass is checked: simulation passes against
the committed goldens, fleet passes against the stub backend's reports
and the queue journal.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is non-zero when any pass failed a check or a count drifted.

``python3 perfbench/run.py --write-manifest`` regenerates
``BENCHMARK.json`` from ``perfbench/spec.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups before the first pass; one more precedes every later pass,
#: so the samples span the run like the passes do.  ``setup_s`` is the
#: median of all of them.
SETUP_REPS = 3

#: Passes per run even when one pass outlasts ``--seconds``.
MIN_PASSES = 2

#: Passes and set-ups more than this factor slower than the run's
#: fastest are taken as slowed by another tenant's load and left out of
#: the medians.  On a shared 2-vCPU host such bursts slowed stretches
#: of 30-40 s of passes by up to 1.7x, and a plain median moved with how
#: much of a burst a run happened to overlap (spread 0.41 against 0.13
#: over ten sweep-serial runs).  A change to the program slows every
#: pass alike, so it still moves the median of the kept ones.
CONTENDED_FACTOR = 1.1

#: Pass outputs that must repeat exactly in every traced pass.
EXACT_SPAN_COUNTS = (
    ("sim.event_path", "calls"),
    ("platform.update_temperatures", "calls"),
    ("platform.drain_average_power", "calls"),
    ("thermal.advance", "calls"),
    ("thermal.advance_batch", "calls"),
    ("thermal.advance_batch", "units"),
    ("thermal.solver_build", "calls"),
    ("policies.update", "calls"),
    ("metrics.finalize", "calls"),
    ("metrics.finalize", "units"),
    ("campaign.builder.build", "calls"),
    ("campaign.lockstep.driver", "calls"),
    ("experiments.config.hash", "calls"),
    ("campaign.store.put_many", "units"),
    ("campaign.store.get", "calls"),
    ("campaign.store.merge", "units"),
    ("campaign.fabric.lease", "units"),
    ("campaign.fabric.complete_many", "units"),
)


@dataclass
class Pass:
    traced: bool
    wall_s: float
    check: object                    # workloads.PassCheck
    spans: Dict[str, Dict[str, int]]
    cache_hits: int
    cache_misses: int


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[name for name, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    return args


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _uncontended(values) -> List[float]:
    """The values within :data:`CONTENDED_FACTOR` of the smallest."""
    values = list(values)
    if not values:
        return []
    limit = CONTENDED_FACTOR * min(values)
    return [value for value in values if value <= limit]


def _git_sha() -> str:
    """HEAD's sha read from ``.git`` (a plain checkout has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """sha256 over ``src/`` and ``baselines/``: identifies the code run."""
    digest = hashlib.sha256()
    for top in ("src", "baselines"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, passes: List[Pass], setup_times) -> Dict:
    import sqlite3

    import numpy
    import scipy
    return {
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "traced_passes": sum(1 for p in passes if p.traced),
        "untraced_passes_kept":
            len(_uncontended(_pass_walls(passes, traced=False))),
        "setups": len(setup_times),
        "setups_kept": len(_uncontended(setup_times)),
    }


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def measure(workload, tracer, args, problems: List[str]):
    """Set up repeatedly, then run passes for ``args.seconds``."""
    from repro.thermal.cache import cache_stats

    setup_times: List[float] = []

    def timed_setup() -> None:
        gc.collect()     # the previous repetition's garbage, untimed
        start = perf_counter()
        workload.setup(args.seed)
        setup_times.append(perf_counter() - start)

    for _ in range(SETUP_REPS):
        timed_setup()
    tracer.reset()
    if args.trace:
        # One more, traced and untimed: solver builds and cache misses
        # happen in set-up.
        gc.collect()
        tracer.install()
        try:
            workload.setup(args.seed)
        finally:
            tracer.uninstall()
    setup_spans = tracer.snapshot()
    setup_cache = cache_stats()

    passes: List[Pass] = []
    started = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - started < args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if passes:
            timed_setup()
        workload.prepare(len(passes))
        gc.collect()
        before = cache_stats()
        tracer.reset()
        if traced:
            tracer.install()
        span = tracer.span if traced else (lambda name: nullcontext())
        start = perf_counter()
        try:
            workload.execute(span)
        except Exception:   # noqa: BLE001 - reported as a failed pass
            problems.append(traceback.format_exc())
            passes.append(Pass(traced, 0.0, None, {}, 0, 0))
            break
        finally:
            wall = perf_counter() - start
            tracer.uninstall()
            tracer.absorb_child_dumps()
        after = cache_stats()
        check = workload.check()
        passes.append(Pass(traced, wall, check, tracer.snapshot(),
                           after.hits - before.hits,
                           after.misses - before.misses))
        problems.extend(check.problems)
        if check.failed:
            break
    return setup_times, setup_spans, setup_cache, passes


def tally(workload, passes: List[Pass], problems: List[str]):
    """``(attempted, failed)``, counting count drift as failure."""
    attempted = failed = 0
    reference = None
    exact_reference = None
    for index, p in enumerate(passes):
        if p.check is None:          # the pass raised
            attempted += workload.items
            failed += workload.items
            continue
        attempted += p.check.attempted
        failed += p.check.failed
        drift = []
        if reference is None:
            reference = p.check.behaviour
        elif p.check.behaviour != reference:
            drift.append(f"outputs {p.check.behaviour} != {reference}")
        if p.traced:
            exact = {f"{name}.{key}": p.spans.get(name, {}).get(key, 0)
                     for name, key in EXACT_SPAN_COUNTS}
            exact["thermal.cache_hits"] = p.cache_hits
            exact["thermal.cache_misses"] = p.cache_misses
            if exact_reference is None:
                exact_reference = exact
            elif exact != exact_reference:
                drift.append(f"traced counts {exact} != {exact_reference}")
        if drift:
            # A deterministic program repeats these exactly; a drift is
            # a behaviour change, so the whole pass counts as failed.
            problems.append(f"pass {index}: " + "; ".join(drift))
            failed += p.check.attempted - p.check.failed
    return attempted, failed


def _pass_walls(passes: List[Pass], traced: bool) -> List[float]:
    return [p.wall_s for p in passes
            if p.traced == traced and p.check is not None]


class TreePeakRss:
    """Peak resident memory of this process and its live descendants.

    A thread samples every :data:`PERIOD_S` the sum of ``VmHWM`` (each
    process's own peak so far) over the process tree read from
    ``/proc``, so concurrent workers count together.  Pages a forked
    child shares copy-on-write with its parent count in both.  The
    result is at least this process's own ``ru_maxrss``.
    """

    PERIOD_S = 0.05

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "TreePeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.peak_kb = max(self.peak_kb, own_kb)

    def _loop(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self.sample()

    def sample(self) -> None:
        total, todo = 0, [os.getpid()]
        while todo:
            pid = todo.pop()
            try:
                for line in Path(f"/proc/{pid}/status").read_text() \
                        .splitlines():
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
                for task in Path(f"/proc/{pid}/task").iterdir():
                    todo.extend(int(child) for child in
                                (task / "children").read_text().split())
            except (OSError, ValueError):
                continue     # the process ended while being read
        self.peak_kb = max(self.peak_kb, total)


def end_to_end_metrics(workload, setup_times, passes,
                       peak_kb: int) -> Dict[str, float]:
    wall = _median(_uncontended(_pass_walls(passes, traced=False)))
    rate = workload.items / wall if wall else 0.0
    return {
        "configs_per_s": rate,
        "tasks_per_s": rate,
        "setup_s": _median(_uncontended(setup_times)),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def silent_layers(workload_name: str, metrics: Dict[str, float]) -> List[str]:
    """Timed layers ``spec.PER_LAYER`` maps to the workload that read 0.

    Every such layer runs in every pass of the workload, so a zero means
    its spans were lost (a worker's, say), not that it got faster.
    """
    return [name for name, unit, _, module, (_, kept) in spec.PER_LAYER
            if unit in ("s", "ms") and module.startswith("repro.")
            and workload_name in kept and metrics[name] <= 0]


def layer_metrics(passes, setup_spans, setup_cache, attempted,
                  failed) -> Dict[str, float]:
    traced = [p for p in passes if p.traced and p.check is not None]
    first = traced[0]
    behaviour = first.check.behaviour

    def read(p: Pass, name: str, key: str) -> int:
        return p.spans.get(name, {}).get(key, 0)

    def seconds(name: str) -> float:
        return _median(read(p, name, "self_ns") / 1e9 for p in traced)

    def count(name: str, key: str = "calls") -> int:
        return read(first, name, key)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    events = behaviour.get("events", 0)
    slices = behaviour.get("slices_run", 0)
    coalesced = behaviour.get("slices_coalesced", 0)
    # Empty polls make the lease counts timing-dependent: medians.
    lease = "campaign.fabric.lease"
    lease_calls = _median(read(p, lease, "calls") for p in traced)
    useful = _median(ratio(read(p, lease, "nonzero"), read(p, lease, "calls"))
                     for p in traced)
    per_lease = _median(ratio(read(p, lease, "units"),
                              read(p, lease, "nonzero")) for p in traced)
    traced_wall = _median(_uncontended(_pass_walls(passes, traced=True)))
    untraced_wall = _median(_uncontended(_pass_walls(passes, traced=False)))
    setup_build_s = setup_spans.get("thermal.solver_build", {}) \
        .get("self_ns", 0) / 1e9
    metrics = {
        "sim.events": events,
        "sim.event_path_s": seconds("sim.event_path"),
        "sim.event_path_ns_per_event":
            ratio(seconds("sim.event_path") * 1e9, events),
        "mpos.slices_run": slices,
        "mpos.slices_coalesced": coalesced,
        "mpos.coalesced_ratio": ratio(coalesced, slices),
        "platform.update_temperatures_s":
            seconds("platform.update_temperatures"),
        "platform.update_temperatures_calls":
            count("platform.update_temperatures"),
        "platform.drain_average_power_s":
            seconds("platform.drain_average_power"),
        "thermal.advance_s": seconds("thermal.advance"),
        "thermal.advance_calls": count("thermal.advance"),
        "thermal.advance_batch_s": seconds("thermal.advance_batch"),
        "thermal.advance_batch_calls": count("thermal.advance_batch"),
        "thermal.batch_width_mean":
            ratio(count("thermal.advance_batch", "units"),
                  count("thermal.advance_batch")),
        "thermal.solver_build_s":
            setup_build_s + seconds("thermal.solver_build"),
        "thermal.cache_hits": setup_cache.hits + first.cache_hits,
        "thermal.cache_misses": setup_cache.misses + first.cache_misses,
        "policies.update_s": seconds("policies.update"),
        "policies.update_calls": count("policies.update"),
        "policies.migrations": behaviour.get("migrations", 0),
        "sim.trace.records": count("metrics.finalize", "units"),
        "metrics.finalize_s": seconds("metrics.finalize"),
        "campaign.builder.build_s": seconds("campaign.builder.build"),
        "campaign.engine.run_s": seconds("campaign.engine.run"),
        "campaign.backends.execute_s": seconds("campaign.backends.execute"),
        "campaign.lockstep.driver_s": seconds("campaign.lockstep.driver"),
        "campaign.lockstep.groups": count("campaign.lockstep.driver"),
        "experiments.config.hash_s": seconds("experiments.config.hash"),
        "experiments.config.hash_calls": count("experiments.config.hash"),
        "campaign.store.put_many_s": seconds("campaign.store.put_many"),
        "campaign.store.rows_written":
            count("campaign.store.put_many", "units"),
        "campaign.store.get_s": seconds("campaign.store.get"),
        "campaign.store.get_calls": count("campaign.store.get"),
        "campaign.store.merge_s": seconds("campaign.store.merge"),
        "campaign.store.merged_rows": count("campaign.store.merge", "units"),
        "campaign.fabric.enqueue_s": seconds("campaign.fabric.enqueue"),
        "campaign.fabric.resubmit_s": seconds("campaign.fabric.resubmit"),
        "campaign.fabric.lease_s": seconds("campaign.fabric.lease"),
        "campaign.fabric.lease_calls": lease_calls,
        "campaign.fabric.lease_useful_ratio": useful,
        "campaign.fabric.tasks_per_lease": per_lease,
        "campaign.fabric.complete_many_s":
            seconds("campaign.fabric.complete_many"),
        "campaign.fabric.attempts_per_task":
            first.check.extra.get("attempts_per_task", 0.0),
        "campaign.fabric.drain_s": seconds("campaign.fabric.drain"),
        "campaign.fabric.collect_s": seconds("campaign.fabric.collect"),
        "campaign.fabric.status_ms":
            1000.0 * seconds("campaign.fabric.status"),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_ratio": ratio(traced_wall - untraced_wall,
                                      untraced_wall),
        "fail_ratio": ratio(failed, attempted),
    }
    expected = [name for name, *_ in spec.PER_LAYER]
    if sorted(metrics) != sorted(expected):
        raise RuntimeError("per-layer metrics disagree with spec.PER_LAYER")
    return metrics


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.write_manifest:
        print(spec.write_manifest(ROOT))
        return 0
    needed = [SRC / "repro" / "__init__.py", ROOT / "baselines"]
    missing = [str(path) for path in needed if not path.exists()]
    if missing:
        print(f"error: not a checkout of the repository; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    # The program's behaviour knobs come from the environment; the
    # benchmark measures the defaults whatever the caller exported.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    # The thermal networks have 14-26 nodes: BLAS threads buy nothing
    # there, and waking them made set-up time bimodal (0.4 ms or 13 ms
    # for the same propagator build, process by process).  Set before
    # numpy loads; forked workers inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import make_workload

    work_dir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    workload = make_workload(args.workload, ROOT, work_dir)
    tracer = Tracer(work_dir / "spans")
    problems: List[str] = []
    try:
        with TreePeakRss() as rss:
            setup_times, setup_spans, setup_cache, passes = measure(
                workload, tracer, args, problems)
    finally:
        tracer.uninstall()
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = tally(workload, passes, problems)
    if args.trace:
        if any(p.traced and p.check is not None for p in passes):
            metrics = layer_metrics(passes, setup_spans, setup_cache,
                                    attempted, failed)
            silent = silent_layers(args.workload, metrics)
            if silent:
                problems.append("layers recorded no time: "
                                + ", ".join(silent))
                failed = max(failed, 1)
                metrics["fail_ratio"] = failed / attempted
        else:
            problems.append("no traced pass completed")
            failed = max(failed, 1)
            metrics = {name: 0.0 for name, *_ in spec.PER_LAYER}
        units = {name: unit for name, unit, *_ in spec.PER_LAYER}
    else:
        metrics = end_to_end_metrics(workload, setup_times, passes,
                                     rss.peak_kb)
        units = {name: unit for name, unit, *_ in spec.END_TO_END}

    info = provenance(args, passes, setup_times)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({
            "provenance": info, "result": result,
            "setup_s": setup_times,
            "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                        "behaviour": p.check.behaviour if p.check else None,
                        "spans": p.spans} for p in passes],
        }, indent=1))

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("provenance: " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
