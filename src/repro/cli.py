"""Command-line interface.

Regenerate any table or figure of the paper::

    repro table1
    repro table2
    repro fig2
    repro fig7 --measure 25 --workers 8
    repro fig11
    repro narrative
    repro run --policy migra --threshold 2 --package highperf
    repro ablation top-k --workers 4
    repro list

Sweep many configurations through the campaign engine::

    repro campaign threshold-sweep --workers 8
        Run a named campaign (see ``repro campaign --list-campaigns``
        or ``repro list``): ``smoke`` (2-run CI check), ``fig7`` /
        ``fig9`` (the paper's threshold sweeps), ``threshold-sweep``
        (both packages), ``scaling`` (2-6 cores).  ``--warmup`` /
        ``--measure`` shorten the phases, ``--workers`` spreads the
        runs over processes, ``--backend`` picks the execution
        strategy (``serial``, ``vectorized``, ``distributed``),
        ``--solver`` the thermal solver
        (``dense-exact``, ``euler``, ``sparse-exact``, ``reduced`` —
        the sparse/reduced fast paths scale to large grid
        floorplans), ``--cache-dir`` persists completed runs in a
        queryable SQLite result store (re-running a campaign only
        simulates what changed), ``--json`` emits the aggregated
        manifest instead of the table.

    repro sweep --policies migra stopgo --thresholds 1 2 3 4 \\
                --packages mobile highperf --workers 8
        Ad-hoc cartesian sweep (policies x thresholds x packages x
        platforms x workloads) through the same engine.
        ``--workloads`` accepts registered names (``sdr``, ``fig1``,
        ``phased``, ``bursty``, ``trace``, ``sdr-arrival``) and
        parametric family instances (``multi-sdr:<K>``,
        ``pipeline:<depth>x<width>``); the ``workload-mix`` campaign
        sweeps the multi-application families against a committed
        golden.

Distribute a campaign over a durable queue (resumable: kill it at any
point and re-run the same command to complete only what is missing)::

    repro campaign threshold-sweep --backend distributed --workers 4 \\
                                   --cache-dir DIR
    repro worker --queue DIR/queue           # extra workers, any host
                                             # sharing the filesystem
    repro queue status --queue DIR/queue     # pending/leased/done/failed
    repro queue retry --queue DIR/queue      # failed -> pending
    repro queue drain --queue DIR/queue      # cancel outstanding work

Query and export completed runs from a result store::

    repro results list --cache-dir DIR
    repro results show --cache-dir DIR --campaign fig7 \\
                       --where "peak_c > 70"
    repro results diff fig7 fig7-sparse --cache-dir DIR \\
                       --where "policy = 'migra'"
    repro results export --cache-dir DIR --csv out.csv

Gate a campaign's metrics against a committed golden baseline
(see ``docs/baselines.md``)::

    repro baseline record smoke --warmup 2 --measure 5
    repro baseline check smoke --solver sparse-exact --cache-dir DIR
    repro baseline check smoke --report report.md   # exit 1 on drift
    repro baseline promote smoke --warmup 2 --measure 5

New scenarios (policies, workloads, platforms, packages) register via
the decorators in ``repro.*.registry`` and are then directly runnable
by name — see ``repro.campaign`` for an end-to-end example.

(or ``python -m repro ...``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.campaign import CampaignRunner, ResultStore, backend_registry, \
    campaign_registry, expand_campaign, sweep
from repro.campaign import golden as golden_mod
from repro.campaign.engine import STORE_FILENAME, shared_runner
from repro.campaign.store import StoreError
from repro.experiments import ablation as ablation_mod
from repro.experiments.config import THRESHOLD_SWEEP_C, ExperimentConfig
from repro.experiments.figures import (
    figure2,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
)
from repro.experiments.narrative import narrative_sec52
from repro.experiments.runner import run_experiment
from repro.experiments.tables import table1, table2
from repro.metrics.report import RunReport
from repro.platform.registry import platform_registry
from repro.thermal.solvers import DEFAULT_SOLVER, solver_registry

_FIGURES = {
    "fig2": figure2,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "fig11": figure11,
}

_EXPERIMENTS = (
    "table1: component power models (Table 1)",
    "table2: SDR application mapping (Table 2)",
    "fig1: the motivating two-core example (Figure 1)",
    "fig2: migration cost vs task size",
    "fig7: temperature std dev, mobile package",
    "fig8: deadline misses, mobile package",
    "fig9: temperature std dev, high-performance package",
    "fig10: deadline misses, high-performance package",
    "fig11: migrations/s, both packages",
    "narrative: Sec. 5.2 prose claims",
    "run: one custom run (see --help; --workload picks any registered "
    "workload or family instance like multi-sdr:2)",
    "campaign: run a named campaign through the parallel engine",
    "sweep: ad-hoc cartesian sweep (policies x thresholds x packages)",
    "results: query/export a campaign result store (list, show, diff, "
    "export, import)",
    "worker: lease and run configs from a campaign-fabric queue",
    "queue: inspect/manage a campaign-fabric queue (status, retry, "
    "drain)",
    "baseline: golden-baseline regression gate (record, check, "
    "promote)",
    "ablation: design-choice studies (candidate-filter, top-k, strategy, "
    "queue-capacity, sensor-period, stopgo-variant, platform)",
    "scaling: core-count scaling study (extension)",
    "thermal-map: ASCII die temperature map via the grid model",
)


def _base_config(args: argparse.Namespace) -> ExperimentConfig:
    kwargs = {}
    if getattr(args, "warmup", None) is not None:
        kwargs["warmup_s"] = args.warmup
    if getattr(args, "measure", None) is not None:
        kwargs["measure_s"] = args.measure
    if getattr(args, "solver", None) is not None:
        kwargs["solver"] = args.solver
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as error:     # --warmup nan, --measure 0, ...
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2)


def _threshold(text: str) -> float:
    """Parse ``--threshold``/``--thresholds``: a value configs accept."""
    try:
        value = float(text)
        ExperimentConfig(threshold_c=value)
    except ValueError as error:     # "x", nan, inf, 0, -1
        raise argparse.ArgumentTypeError(str(error)) from None
    return value


def _workers(text: str) -> int:
    """Parse ``--workers``: a process count of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("workers must be >= 1")
    return value


def _add_phase_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--warmup", type=float, default=None,
                   help="warm-up seconds (default 12.5)")
    p.add_argument("--measure", type=float, default=None,
                   help="measured seconds (default 25)")


def _add_workers_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=_workers, default=1,
                   help="worker processes for the sweep (default 1)")


def _add_engine_options(p: argparse.ArgumentParser) -> None:
    """The campaign-engine knobs every sweep command shares."""
    _add_workers_option(p)
    p.add_argument("--backend", default="serial",
                   choices=backend_registry.names(),
                   help="execution backend (default serial)")
    _add_solver_option(p)
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="persist completed runs in DIR's SQLite result "
                        "store; re-runs only simulate missing configs")


def _add_solver_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--solver", default=DEFAULT_SOLVER,
                   choices=solver_registry.names(),
                   help="thermal solver (default dense-exact; "
                        "sparse-exact/reduced scale to large "
                        "floorplans)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Mulas et al., DATE 2008 (thermal balancing "
                    "for streaming MPSoCs)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")
    sub.add_parser("table1", help="regenerate Table 1")
    sub.add_parser("table2", help="regenerate Table 2")
    sub.add_parser("fig1", help="reproduce the Figure 1 two-core example")

    for name in _FIGURES:
        p = sub.add_parser(name, help=f"regenerate {name}")
        if name != "fig2":
            _add_phase_options(p)
            _add_engine_options(p)

    p = sub.add_parser("narrative", help="measure the Sec. 5.2 claims")
    p.add_argument("--threshold", type=_threshold, default=3.0)

    p = sub.add_parser("run", help="run one configuration")
    p.add_argument("--policy", default="migra",
                   choices=("migra", "stopgo", "energy", "load"))
    p.add_argument("--threshold", type=_threshold, default=3.0)
    p.add_argument("--package", default="mobile",
                   choices=("mobile", "highperf"))
    p.add_argument("--platform", default="conf1",
                   choices=platform_registry.names())
    p.add_argument("--workload", default="sdr", metavar="NAME",
                   help="registered workload or parametric family "
                        "instance (sdr, fig1, phased, bursty, trace, "
                        "multi-sdr:<K>, pipeline:<depth>x<width>)")
    p.add_argument("--cores", type=int, default=None, metavar="N",
                   help="core count (multi-app workloads want more "
                        "than the default 3)")
    p.add_argument("--strategy", default="replication",
                   choices=("replication", "recreation"))
    _add_solver_option(p)
    p.add_argument("--warmup", type=float, default=None)
    p.add_argument("--measure", type=float, default=None)
    p.add_argument("--show-trace", action="store_true",
                   help="print per-core temperature sparklines")
    p.add_argument("--dump-traces", metavar="PATH", default=None,
                   help="export core temperature series to CSV")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of text")

    p = sub.add_parser("campaign",
                       help="run a named campaign through the "
                            "parallel engine")
    p.add_argument("name", nargs="?", default=None,
                   help="campaign name (see --list-campaigns)")
    p.add_argument("--list-campaigns", action="store_true",
                   help="list registered campaigns and exit")
    _add_phase_options(p)
    _add_engine_options(p)
    p.add_argument("--json", action="store_true",
                   help="emit the aggregated manifest as JSON")
    p.add_argument("--profile", nargs="?", metavar="PATH", default=None,
                   const="campaign_profile.json",
                   help="profile the run under cProfile: print the "
                        "hottest functions by cumulative time and write "
                        "a JSON artifact (default campaign_profile.json; "
                        "only in-process --workers 1 shows internals)")

    p = sub.add_parser("sweep",
                       help="ad-hoc cartesian sweep through the "
                            "campaign engine")
    p.add_argument("--policies", nargs="+", default=["migra"],
                   metavar="POLICY")
    p.add_argument("--thresholds", nargs="+", type=_threshold,
                   default=list(THRESHOLD_SWEEP_C), metavar="C")
    p.add_argument("--packages", nargs="+", default=["mobile"],
                   metavar="PKG")
    p.add_argument("--platforms", nargs="+", default=["conf1"],
                   metavar="PLAT")
    p.add_argument("--workloads", nargs="+", default=["sdr"],
                   metavar="NAME",
                   help="workload axis (registered names or family "
                        "instances like multi-sdr:2)")
    _add_phase_options(p)
    _add_engine_options(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("ablation", help="run an ablation study")
    p.add_argument("name", choices=sorted(ablation_mod.ALL_ABLATIONS))
    _add_engine_options(p)

    p = sub.add_parser("scaling",
                       help="core-count scaling study (extension)")
    p.add_argument("--cores", type=int, nargs="+", default=[2, 3, 4, 5])
    p.add_argument("--threshold", type=_threshold, default=2.0)
    _add_engine_options(p)

    p = sub.add_parser("results",
                       help="query a campaign result store")
    results_sub = p.add_subparsers(dest="results_command", required=True)
    for sub_name, sub_help in (
            ("list", "list stored campaigns with run counts"),
            ("show", "print stored runs as a table"),
            ("diff", "compare two stored campaigns row by row"),
            ("export", "export stored runs as CSV")):
        rp = results_sub.add_parser(sub_name, help=sub_help)
        rp.add_argument("--cache-dir", metavar="DIR", required=True,
                        help="directory holding the result store "
                             f"({STORE_FILENAME})")
        if sub_name in ("show", "export"):
            rp.add_argument("--campaign", default=None,
                            help="restrict to one campaign")
        if sub_name in ("show", "diff", "export"):
            rp.add_argument("--where", default=None, metavar="SQL",
                            help="SQL filter over the metric columns, "
                                 "e.g. \"peak_c > 70\"")
        if sub_name == "diff":
            rp.add_argument("campaign_a", metavar="CAMPAIGN_A",
                            help="baseline campaign name")
            rp.add_argument("campaign_b", metavar="CAMPAIGN_B",
                            help="comparison campaign name")
            rp.add_argument("--metrics", nargs="+", metavar="COL",
                            default=None,
                            help="numeric record columns to show "
                                 "deltas for (default: the headline "
                                 "figure metrics)")
        if sub_name == "show":
            rp.add_argument("--limit", type=int, default=None)
        if sub_name == "export":
            rp.add_argument("--csv", nargs="?", const="-", default=None,
                            metavar="PATH",
                            help="write CSV to PATH (default stdout)")

    p = sub.add_parser("worker",
                       help="lease and run configs from a "
                            "campaign-fabric queue")
    p.add_argument("--queue", metavar="DIR", required=True,
                   dest="queue_dir",
                   help="queue directory (holds queue.sqlite; created "
                        "by a distributed campaign or a coordinator)")
    p.add_argument("--backend", default="serial",
                   choices=[name for name in backend_registry.names()
                            if name != "distributed"],
                   help="in-process backend for leased batches "
                        "(default serial; vectorized advances a whole "
                        "lease per sensor epoch)")
    p.add_argument("--poll", type=float, default=0.1, metavar="S",
                   help="idle poll interval in seconds (default 0.1)")
    p.add_argument("--max-batches", type=int, default=None, metavar="N",
                   help="stop after N leased batches (default: run "
                        "until the queue is finished)")

    p = sub.add_parser("queue",
                       help="inspect/manage a campaign-fabric queue")
    queue_sub = p.add_subparsers(dest="queue_command", required=True)
    for sub_name, sub_help in (
            ("status", "task counts per state (exit 1 if any task "
                       "failed permanently)"),
            ("retry", "move failed tasks back to pending with a "
                      "fresh retry budget"),
            ("drain", "remove every pending/failed task (cancel "
                      "outstanding work)")):
        qp = queue_sub.add_parser(sub_name, help=sub_help)
        qp.add_argument("--queue", metavar="DIR", required=True,
                        dest="queue_dir",
                        help="queue directory (holds queue.sqlite)")

    p = sub.add_parser("baseline",
                       help="golden-baseline regression gate")
    baseline_sub = p.add_subparsers(dest="baseline_command",
                                    required=True)
    for sub_name, sub_help in (
            ("record", "run a campaign and snapshot its metrics as "
                       "the golden baseline"),
            ("check", "re-run (or read from cache) and gate against "
                      "the golden; exit 1 on violations"),
            ("promote", "re-record the golden after an intentional "
                        "metric change")):
        bp = baseline_sub.add_parser(sub_name, help=sub_help)
        bp.add_argument("name", metavar="CAMPAIGN",
                        help="campaign name (see repro campaign "
                             "--list-campaigns)")
        bp.add_argument("--baseline-dir", metavar="DIR",
                        default=golden_mod.DEFAULT_BASELINE_DIR,
                        help="directory of committed golden files "
                             "(default baselines/)")
        _add_workers_option(bp)
        bp.add_argument("--backend", default="serial",
                        choices=backend_registry.names(),
                        help="execution backend (default serial)")
        bp.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="serve already-simulated configs from "
                             "DIR's result store (and persist fresh "
                             "ones)")
        if sub_name in ("record", "promote"):
            _add_phase_options(bp)
            _add_solver_option(bp)
            if sub_name == "record":
                bp.add_argument("--force", action="store_true",
                                help="overwrite an existing golden "
                                     "(otherwise use promote)")
        else:
            bp.add_argument("--solver", default=None,
                            choices=solver_registry.names(),
                            help="check under this solver (default: "
                                 "the solver the golden was recorded "
                                 "with)")
            bp.add_argument("--report", metavar="PATH", default=None,
                            help="also write the Markdown regression "
                                 "report to PATH")

    p = sub.add_parser("thermal-map",
                       help="ASCII die temperature map (grid model)")
    p.add_argument("--policy", default="energy",
                   choices=("migra", "stopgo", "energy", "load"))
    p.add_argument("--threshold", type=_threshold, default=3.0)
    p.add_argument("--package", default="mobile",
                   choices=("mobile", "highperf"))
    p.add_argument("--cell", type=float, default=0.2,
                   help="cell size in mm")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        # Output piped into e.g. `head`: close quietly like cat does.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


def _dispatch(args: argparse.Namespace) -> int:

    if args.command == "list":
        print("Available experiments:")
        for line in _EXPERIMENTS:
            print(f"  {line}")
        print("Registered campaigns:")
        for name in campaign_registry.names():
            print(f"  {name}")
        return 0
    if args.command == "table1":
        print(table1().to_text())
        return 0
    if args.command == "table2":
        print(table2().to_text())
        return 0
    if args.command == "fig1":
        from repro.experiments.figure1 import figure1
        print(figure1().to_text())
        return 0
    if args.command in _FIGURES:
        if args.command == "fig2":
            print(figure2().to_text())
        else:
            base = _base_config(args)
            print(_FIGURES[args.command](
                THRESHOLD_SWEEP_C, base, workers=args.workers,
                cache_dir=args.cache_dir,
                backend=args.backend).to_text())
        return 0
    if args.command == "narrative":
        print(narrative_sec52(threshold_c=args.threshold).to_text())
        return 0
    if args.command == "run":
        kwargs = dict(policy=args.policy, threshold_c=args.threshold,
                      package=args.package, platform=args.platform,
                      workload=args.workload,
                      migration_strategy=args.strategy,
                      solver=args.solver)
        if args.cores is not None:
            kwargs["n_cores"] = args.cores
        if args.warmup is not None:
            kwargs["warmup_s"] = args.warmup
        if args.measure is not None:
            kwargs["measure_s"] = args.measure
        try:
            config = ExperimentConfig(**kwargs)
            result = run_experiment(config)
        except ValueError as error:
            # Typo'd scenario name, or a workload whose mapping needs
            # more cores than --cores provides: a clean error either
            # way, not a traceback.  The library speaks in config
            # fields (n_cores); name the CLI flag alongside.
            hint = " (the repro run flag is --cores)" \
                if "n_cores" in str(error) else ""
            print(f"error: {error}{hint}", file=sys.stderr)
            return 2
        print(result.report.to_json() if args.json
              else result.report.to_text())
        if args.show_trace:
            from repro.metrics.traces import render_core_temperatures
            print()
            print(render_core_temperatures(
                result.system.trace, config.n_cores))
        if args.dump_traces:
            from repro.metrics.traces import export_csv
            keys = [f"temp.core{i}" for i in range(config.n_cores)]
            export_csv(result.system.trace, keys, path=args.dump_traces)
            print(f"traces written to {args.dump_traces}")
        return 0
    if args.command == "campaign":
        if args.list_campaigns or args.name is None:
            print("Registered campaigns:")
            for name in campaign_registry.names():
                print(f"  {name}")
            return 0
        try:
            configs = expand_campaign(args.name, _base_config(args))
        except ValueError as error:     # typo'd campaign/scenario name
            print(f"error: {error}", file=sys.stderr)
            return 2
        runner = CampaignRunner(workers=args.workers,
                                cache_dir=args.cache_dir,
                                backend=args.backend)
        if args.profile:
            from repro.campaign.profiling import profile_call
            result, profile = profile_call(
                lambda: runner.run(configs, name=args.name))
            profile.write_json(args.profile)
            print(result.to_json() if args.json else result.to_text())
            print()
            # Event-path counters: how much kernel work the campaign
            # did, and how much of it slice coalescing absorbed.
            events = sum(r.events_executed for r in result.reports)
            slices = sum(r.slices_run for r in result.reports)
            coalesced = sum(r.slices_coalesced for r in result.reports)
            share = 100.0 * coalesced / slices if slices else 0.0
            print(f"event path: {events} kernel events, {slices} "
                  f"scheduler slices, {coalesced} coalesced "
                  f"({share:.0f}%)")
            print()
            print(profile.to_text())
            print(f"profile written to {args.profile}")
            return 0
        result = runner.run(configs, name=args.name)
        print(result.to_json() if args.json else result.to_text())
        return 0
    if args.command == "sweep":
        try:
            configs = sweep(_base_config(args),
                            platform=tuple(args.platforms),
                            package=tuple(args.packages),
                            workload=tuple(args.workloads),
                            policy=tuple(args.policies),
                            threshold_c=tuple(args.thresholds))
        except ValueError as error:     # typo'd scenario name
            print(f"error: {error}", file=sys.stderr)
            return 2
        runner = CampaignRunner(workers=args.workers,
                                cache_dir=args.cache_dir,
                                backend=args.backend)
        result = runner.run(configs, name="sweep")
        print(result.to_json() if args.json else result.to_text())
        return 0
    if args.command == "ablation":
        rows = ablation_mod.ALL_ABLATIONS[args.name](
            base=_base_config(args), workers=args.workers,
            cache_dir=args.cache_dir, backend=args.backend)
        print(ablation_mod.render(f"Ablation: {args.name}", rows))
        return 0
    if args.command == "scaling":
        from repro.experiments import scaling
        rows = scaling.scaling_study(core_counts=tuple(args.cores),
                                     threshold_c=args.threshold,
                                     base=_base_config(args),
                                     workers=args.workers,
                                     cache_dir=args.cache_dir,
                                     backend=args.backend)
        print(scaling.render(rows))
        return 0
    if args.command == "results":
        return _dispatch_results(args)
    if args.command in ("worker", "queue"):
        return _dispatch_fabric(args)
    if args.command == "baseline":
        return _dispatch_baseline(args)
    if args.command == "thermal-map":
        from repro.experiments.thermal_map import thermal_map
        cfg = ExperimentConfig(policy=args.policy,
                               threshold_c=args.threshold,
                               package=args.package)
        result = thermal_map(cfg, cell_mm=args.cell)
        print(result.text)
        print(f"peak {result.peak_c:.1f} C, spread {result.spread_c:.1f} C, "
              f"hottest block {result.hottest_block}")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


def _dispatch_baseline(args: argparse.Namespace) -> int:
    """The ``repro baseline`` subcommands (record / check / promote)."""
    from repro.campaign.golden import GoldenBaseline, GoldenError

    path = golden_mod.golden_path(args.name, args.baseline_dir)
    runner = shared_runner(cache_dir=args.cache_dir,
                           backend=args.backend)

    if args.baseline_command in ("record", "promote"):
        exists = path.is_file()
        if args.baseline_command == "record" and exists \
                and not args.force:
            print(f"error: golden {path} already exists; use "
                  f"'repro baseline promote {args.name}' to replace "
                  f"it after an intentional change (or --force)",
                  file=sys.stderr)
            return 2
        if args.baseline_command == "promote" and not exists:
            print(f"error: no golden at {path}; record the first "
                  f"snapshot with 'repro baseline record {args.name}'",
                  file=sys.stderr)
            return 2
        try:
            configs = expand_campaign(args.name, _base_config(args))
        except ValueError as error:   # typo'd campaign/scenario name
            print(f"error: {error}", file=sys.stderr)
            return 2
        result = runner.run(configs, name=args.name,
                            workers=args.workers)
        try:
            golden = GoldenBaseline.from_result(result,
                                                campaign=args.name)
        except GoldenError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if args.baseline_command == "promote":
            # Summarize what the promotion actually changed: rows of
            # the new run outside the *old* golden's gates.
            try:
                old = GoldenBaseline.load(path)
                drift = old.compare(result, solver=golden.solver,
                                    backend=args.backend)
                changed = drift.n_failed_rows + len(drift.missing) \
                    + len(drift.extra)
                print(f"promoting {args.name!r}: {changed} config(s) "
                      f"beyond the previous golden's tolerances")
            except GoldenError:
                print(f"promoting {args.name!r}: previous golden was "
                      f"unreadable, re-recording from scratch")
        golden.save(path)
        print(f"golden for {args.name!r} written to {path} "
              f"({len(golden.rows)} configs, solver {golden.solver})")
        return 0

    if args.baseline_command == "check":
        try:
            golden = GoldenBaseline.load(path)
        except GoldenError as error:
            known = ", ".join(
                golden_mod.available_goldens(args.baseline_dir)) \
                or "<none>"
            print(f"error: {error}\n"
                  f"recorded goldens in {args.baseline_dir}: {known}",
                  file=sys.stderr)
            return 2
        solver = args.solver or golden.solver
        result = runner.run(golden.configs(solver=solver),
                            name=args.name, workers=args.workers)
        report = golden.compare(result, solver=solver,
                                backend=args.backend)
        if args.report:
            report_path = Path(args.report)
            report_path.parent.mkdir(parents=True, exist_ok=True)
            report_path.write_text(report.to_markdown())
        print(report.to_text())
        if args.report:
            print(f"regression report written to {args.report}")
        return 0 if report.ok else 1

    raise AssertionError(
        f"unhandled baseline command {args.baseline_command!r}")


def _dispatch_fabric(args: argparse.Namespace) -> int:
    """The campaign-fabric commands (``worker`` and ``queue``)."""
    from repro.campaign.fabric import (QUEUE_FILENAME, CampaignQueue,
                                       QueueError, run_worker)

    queue_path = Path(args.queue_dir) / QUEUE_FILENAME
    if not queue_path.is_file():
        print(f"error: no campaign queue at {queue_path} (a "
              f"distributed campaign or coordinator creates it)",
              file=sys.stderr)
        return 2

    if args.command == "worker":
        try:
            completed = run_worker(args.queue_dir,
                                   backend=args.backend,
                                   poll_s=args.poll,
                                   max_batches=args.max_batches)
        except QueueError as error:   # corrupt/foreign file at the path
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"worker finished: {completed} task(s) completed")
        return 0

    try:
        queue = CampaignQueue(args.queue_dir)
    except QueueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    try:
        if args.queue_command == "status":
            # One GROUP BY aggregation covers every state count and
            # the backlog age; the failed-task detail query only runs
            # when something actually failed — status stays O(1)-ish
            # on a 10^5-row queue.
            status = queue.status()
            print(f"queue at {queue_path}: {status.total} task(s)")
            print(f"{'state':<10}{'tasks':>6}")
            for state, count in status.counts.items():
                print(f"{state:<10}{count:>6d}")
            if status.pending_backlog_age_s is not None:
                print(f"oldest pending task enqueued "
                      f"{status.pending_backlog_age_s:.1f}s ago")
            failed = (queue.failed_tasks()
                      if status.counts["failed"] else [])
            for task in failed:
                print(f"failed: {task['config_hash']} after "
                      f"{task['attempts']} attempt(s): "
                      f"{task['last_error']}")
            return 1 if failed else 0

        if args.queue_command == "retry":
            count = queue.retry_failed()
            print(f"{count} failed task(s) re-enqueued")
            return 0

        if args.queue_command == "drain":
            count = queue.drain()
            print(f"{count} task(s) removed from the queue")
            return 0
    finally:
        queue.close()

    raise AssertionError(
        f"unhandled queue command {args.queue_command!r}")


def _dispatch_results(args: argparse.Namespace) -> int:
    """The ``repro results`` subcommands against one store."""
    store_path = Path(args.cache_dir) / STORE_FILENAME
    if not store_path.is_file():
        print(f"error: no result store at {store_path}", file=sys.stderr)
        return 2
    try:
        store = ResultStore(store_path)
    except StoreError as error:       # corrupt/foreign file at the path
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.results_command == "list":
        campaigns = store.campaigns()
        if not campaigns:
            print("store is empty")
            return 0
        print(f"{'campaign':<24}{'runs':>6}")
        for name, count in campaigns:
            print(f"{name:<24}{count:>6d}")
        print(f"{'total':<24}{len(store):>6d}")
        return 0

    if args.results_command == "diff":
        # An empty store (or a typo'd name) used to fall through to a
        # confusing zero-row diff; name the missing campaign instead.
        unknown = [name for name in (args.campaign_a, args.campaign_b)
                   if not store.has_campaign(name)]
        if unknown:
            stored = ", ".join(name for name, _ in store.campaigns()) \
                or "<store is empty>"
            print(f"error: no such campaign: "
                  f"{', '.join(repr(n) for n in sorted(set(unknown)))}"
                  f" (stored campaigns: {stored})", file=sys.stderr)
            return 2
        try:
            diff = store.diff(args.campaign_a, args.campaign_b,
                              where=args.where)
            print(diff.to_text(metrics=args.metrics))
        except ValueError as error:   # typo'd metric column or filter
            print(f"error: {error}", file=sys.stderr)
            return 2
        return 0

    if args.results_command == "show":
        try:
            runs = store.runs(campaign=args.campaign, where=args.where,
                              limit=args.limit)
        except ValueError as error:       # malformed --where filter
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"{'campaign':<18}{'hash':<22}{RunReport.HEADER}")
        for run in runs:
            print(f"{run.campaign:<18}{run.config_hash:<22}"
                  f"{run.report.to_row()}")
        print(f"{len(runs)} run(s)")
        return 0

    if args.results_command == "export":
        if args.csv is None:
            print("error: pass --csv [PATH]", file=sys.stderr)
            return 2
        try:
            text = store.export_csv(
                path=None if args.csv == "-" else args.csv,
                campaign=args.campaign, where=args.where)
        except ValueError as error:   # malformed --where filter
            print(f"error: {error}", file=sys.stderr)
            return 2
        if args.csv == "-":
            sys.stdout.write(text)
        else:
            print(f"CSV written to {args.csv}")
        return 0

    raise AssertionError(
        f"unhandled results command {args.results_command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
