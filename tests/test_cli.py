"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (["list"], ["table1"], ["table2"], ["fig2"],
                     ["fig7"], ["narrative"], ["run"],
                     ["ablation", "top-k"]):
            assert parser.parse_args(argv).command == argv[0]

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "--policy", "stopgo", "--threshold", "2",
             "--package", "highperf", "--strategy", "recreation"])
        assert args.policy == "stopgo"
        assert args.threshold == 2.0
        assert args.package == "highperf"

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "bogus"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table2" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "RISC32" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Core 1 (533 MHz)" in out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "task-recreation" in out

    def test_run_short(self, capsys):
        assert main(["run", "--policy", "energy", "--warmup", "3",
                     "--measure", "3"]) == 0
        out = capsys.readouterr().out
        assert "policy=energy-balance" in out

    def test_fig7_short(self, capsys):
        from repro.campaign import clear_shared_runners
        clear_shared_runners()
        assert main(["fig7", "--warmup", "3", "--measure", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "Thermal-Balancing (ours)" in out
        clear_shared_runners()

    def test_run_show_trace(self, capsys):
        assert main(["run", "--policy", "energy", "--warmup", "2",
                     "--measure", "2", "--show-trace"]) == 0
        out = capsys.readouterr().out
        assert "core temperatures" in out
        assert "core2" in out

    def test_run_dump_traces(self, capsys, tmp_path):
        path = tmp_path / "traces.csv"
        assert main(["run", "--policy", "energy", "--warmup", "2",
                     "--measure", "2", "--dump-traces", str(path)]) == 0
        assert path.read_text().startswith("time_s,temp.core0")

    def test_new_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["fig1"]).command == "fig1"
        args = parser.parse_args(["scaling", "--cores", "2", "3"])
        assert args.cores == [2, 3]
        args = parser.parse_args(["thermal-map", "--policy", "migra",
                                  "--cell", "0.4"])
        assert args.cell == 0.4
        assert parser.parse_args(
            ["ablation", "stopgo-variant"]).name == "stopgo-variant"

    def test_thermal_map_runs(self, capsys):
        # A coarse, short map keeps this test quick.
        assert main(["thermal-map", "--policy", "energy",
                     "--cell", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "hottest block" in out
        assert "C]" in out


class TestCampaignCommands:
    def test_campaign_options_parse(self):
        parser = build_parser()
        args = parser.parse_args(["campaign", "smoke", "--workers", "4",
                                  "--warmup", "2", "--measure", "2"])
        assert args.command == "campaign"
        assert args.name == "smoke"
        assert args.workers == 4

    def test_sweep_options_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--policies", "migra", "stopgo",
             "--thresholds", "1", "2", "--packages", "highperf",
             "--workers", "2"])
        assert args.policies == ["migra", "stopgo"]
        assert args.thresholds == [1.0, 2.0]
        assert args.packages == ["highperf"]

    def test_campaign_lists_names(self, capsys):
        assert main(["campaign", "--list-campaigns"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "threshold-sweep" in out

    def test_campaign_smoke_runs(self, capsys):
        assert main(["campaign", "smoke", "--warmup", "2",
                     "--measure", "2"]) == 0
        out = capsys.readouterr().out
        assert "campaign 'smoke': 2 runs" in out
        assert "energy-balance" in out and "migra" in out

    def test_campaign_cache_dir(self, capsys, tmp_path):
        argv = ["campaign", "smoke", "--warmup", "2", "--measure", "2",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert (tmp_path / "results.sqlite").is_file()
        capsys.readouterr()
        assert main(argv) == 0          # second run served from the store
        assert "(2 cached)" in capsys.readouterr().out

    def test_backend_option_parses(self):
        parser = build_parser()
        for command in (["campaign", "smoke"], ["sweep"], ["fig7"],
                        ["ablation", "top-k"], ["scaling"]):
            args = parser.parse_args(command + ["--backend", "vectorized"])
            assert args.backend == "vectorized"
            assert args.cache_dir is None
        for backend in ("bogus", "process-pool", "batched"):
            with pytest.raises(SystemExit):
                parser.parse_args(["campaign", "smoke",
                                   "--backend", backend])

    def test_removed_backend_exits_2_listing_choices(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "smoke", "--backend", "process-pool"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'process-pool'" in err
        assert "'distributed', 'serial', 'vectorized'" in err

    def test_campaign_serial_backend_runs(self, capsys):
        assert main(["campaign", "smoke", "--warmup", "2",
                     "--measure", "2", "--backend", "serial"]) == 0
        assert "serial backend" in capsys.readouterr().out

    def test_campaign_vectorized_backend_with_profile(self, capsys,
                                                      tmp_path,
                                                      monkeypatch):
        """--backend vectorized --profile runs the lockstep path under
        cProfile, prints the hot-function table and writes the JSON
        artifact."""
        import json
        monkeypatch.chdir(tmp_path)
        assert main(["campaign", "smoke", "--warmup", "1",
                     "--measure", "1", "--backend", "vectorized",
                     "--profile", "prof.json"]) == 0
        out = capsys.readouterr().out
        assert "vectorized backend" in out
        assert "by cumulative" in out
        assert "profile written to prof.json" in out
        digest = json.loads((tmp_path / "prof.json").read_text())
        assert digest["total_calls"] > 0
        assert digest["rows"]
        functions = " ".join(r["function"] for r in digest["rows"])
        assert "lockstep" in functions

    def test_solver_option_parses_everywhere_backend_does(self):
        parser = build_parser()
        for command in (["campaign", "smoke"], ["sweep"], ["fig7"],
                        ["ablation", "top-k"], ["scaling"],
                        ["run"]):
            args = parser.parse_args(command
                                     + ["--solver", "sparse-exact"])
            assert args.solver == "sparse-exact"
        with pytest.raises(SystemExit):
            parser.parse_args(["campaign", "smoke", "--solver", "bogus"])

    def test_campaign_solver_flows_into_configs(self, capsys):
        import json
        assert main(["campaign", "smoke", "--warmup", "2",
                     "--measure", "2", "--solver", "sparse-exact",
                     "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert all(run["config"]["solver"] == "sparse-exact"
                   for run in manifest["runs"])


class TestResultsCommands:
    def _seed_store(self, tmp_path):
        assert main(["campaign", "smoke", "--warmup", "2",
                     "--measure", "2", "--cache-dir", str(tmp_path)]) == 0

    def test_results_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["results"])

    def test_results_list(self, capsys, tmp_path):
        self._seed_store(tmp_path)
        capsys.readouterr()
        assert main(["results", "list", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "2" in out

    def test_results_list_missing_store(self, capsys, tmp_path):
        assert main(["results", "list", "--cache-dir",
                     str(tmp_path)]) == 2
        assert "no result store" in capsys.readouterr().err

    def test_results_show_with_filter(self, capsys, tmp_path):
        self._seed_store(tmp_path)
        capsys.readouterr()
        assert main(["results", "show", "--cache-dir", str(tmp_path),
                     "--campaign", "smoke",
                     "--where", "policy = 'migra'"]) == 0
        out = capsys.readouterr().out
        assert "migra" in out and "1 run(s)" in out

    def test_results_export_csv_round_trips(self, capsys, tmp_path):
        """Acceptance: every metric column of RunReport.to_record()
        survives the CSV export."""
        import csv as csv_mod
        import io
        from repro.metrics.report import RunReport
        self._seed_store(tmp_path)
        capsys.readouterr()
        assert main(["results", "export", "--cache-dir", str(tmp_path),
                     "--csv"]) == 0
        rows = list(csv_mod.DictReader(io.StringIO(
            capsys.readouterr().out)))
        assert len(rows) == 2
        assert set(RunReport.record_columns()) <= set(rows[0])
        rebuilt = [RunReport.from_record(row) for row in rows]
        assert {r.policy for r in rebuilt} == {"energy-balance", "migra"}

    def test_results_import_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["results", "import", "--cache-dir", str(tmp_path),
                  str(tmp_path / "manifests")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'import'" in err
        assert "Traceback" not in err

    def test_results_export_manifest_dir_is_gone(self, capsys, tmp_path):
        self._seed_store(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["results", "export", "--cache-dir", str(tmp_path),
                  "--manifest-dir", str(tmp_path / "manifests")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --manifest-dir" in err
        assert "Traceback" not in err
        assert not (tmp_path / "manifests").exists()

    def test_results_diff_two_campaigns(self, capsys, tmp_path):
        self._seed_store(tmp_path)
        assert main(["campaign", "smoke", "--warmup", "2",
                     "--measure", "2", "--solver", "euler",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        # The smoke campaign stores both runs under "smoke"; the euler
        # variant has different config hashes, so diffing the campaign
        # against itself shows zero deltas over 4 shared rows ...
        assert main(["results", "diff", "smoke", "smoke",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "4 shared config(s)" in out
        # ... and a --where filter narrows both sides.
        assert main(["results", "diff", "smoke", "smoke",
                     "--cache-dir", str(tmp_path),
                     "--where", "policy = 'migra'"]) == 0
        assert "2 shared config(s)" in capsys.readouterr().out

    def test_results_diff_custom_metrics(self, capsys, tmp_path):
        self._seed_store(tmp_path)
        capsys.readouterr()
        assert main(["results", "diff", "smoke", "smoke",
                     "--cache-dir", str(tmp_path),
                     "--metrics", "peak_c", "energy_j"]) == 0
        out = capsys.readouterr().out
        assert "d peak_c" in out and "d energy_j" in out
        assert main(["results", "diff", "smoke", "smoke",
                     "--cache-dir", str(tmp_path),
                     "--metrics", "bogus_metric"]) == 2
        assert "unknown metric" in capsys.readouterr().err

    def test_results_diff_unknown_campaigns(self, capsys, tmp_path):
        self._seed_store(tmp_path)
        capsys.readouterr()
        assert main(["results", "diff", "nope-a", "nope-b",
                     "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "no such campaign" in err
        assert "'nope-a'" in err and "smoke" in err

    def test_results_diff_empty_store(self, capsys, tmp_path):
        """An empty store names the missing campaign cleanly instead
        of tracing back or printing a zero-row diff."""
        from repro.campaign.store import ResultStore
        ResultStore(tmp_path / "results.sqlite").close()
        assert main(["results", "diff", "smoke", "smoke",
                     "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "no such campaign" in err
        assert "store is empty" in err

    def test_results_commands_reject_corrupt_store(self, capsys,
                                                   tmp_path):
        (tmp_path / "results.sqlite").write_text("not a database")
        for argv in (["results", "list"],
                     ["results", "diff", "a", "b"]):
            assert main(argv + ["--cache-dir", str(tmp_path)]) == 2
            assert "not a result store" in capsys.readouterr().err

    def test_results_bad_where_filter_is_a_clean_error(self, capsys,
                                                       tmp_path):
        self._seed_store(tmp_path)
        capsys.readouterr()
        for argv in (["results", "show", "--where", "bogus_col > 1"],
                     ["results", "diff", "smoke", "smoke",
                      "--where", "bogus_col > 1"],
                     ["results", "export", "--csv",
                      "--where", "bogus_col > 1"]):
            assert main(argv + ["--cache-dir", str(tmp_path)]) == 2
            assert "invalid where filter" in capsys.readouterr().err

    def test_results_export_needs_a_target(self, capsys, tmp_path):
        self._seed_store(tmp_path)
        capsys.readouterr()
        assert main(["results", "export", "--cache-dir",
                     str(tmp_path)]) == 2
        assert "--csv" in capsys.readouterr().err

    def test_sweep_json_output(self, capsys):
        import json
        assert main(["sweep", "--policies", "energy", "--thresholds", "3",
                     "--warmup", "2", "--measure", "2", "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["runs"][0]["config"]["policy"] == "energy"

    def test_list_mentions_campaigns(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out and "threshold-sweep" in out


class TestBaselineCommands:
    def _record(self, tmp_path, *extra):
        return main(["baseline", "record", "smoke",
                     "--warmup", "2", "--measure", "2",
                     "--baseline-dir", str(tmp_path / "baselines"),
                     "--cache-dir", str(tmp_path / "cache"), *extra])

    def _check(self, tmp_path, *extra):
        return main(["baseline", "check", "smoke",
                     "--baseline-dir", str(tmp_path / "baselines"),
                     "--cache-dir", str(tmp_path / "cache"), *extra])

    def test_baseline_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["baseline"])

    def test_record_then_check_passes_from_warm_cache(self, capsys,
                                                      tmp_path):
        """Acceptance: record && check exits 0, served from cache."""
        assert self._record(tmp_path) == 0
        out = capsys.readouterr().out
        assert "golden for 'smoke'" in out and "2 configs" in out
        assert (tmp_path / "baselines" / "smoke.json").is_file()
        assert self._check(tmp_path) == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_detects_perturbation_and_exits_nonzero(
            self, capsys, tmp_path):
        """Acceptance: a metric beyond tolerance -> exit 1."""
        import json
        assert self._record(tmp_path) == 0
        path = tmp_path / "baselines" / "smoke.json"
        data = json.loads(path.read_text())
        key = sorted(data["rows"])[0]
        data["rows"][key]["metrics"]["peak_c"] += 1.0
        path.write_text(json.dumps(data))
        capsys.readouterr()
        report = tmp_path / "report.md"
        assert self._check(tmp_path, "--report", str(report)) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "peak_c" in out
        md = report.read_text()
        assert "# Regression report: `smoke`" in md
        assert "`peak_c` **FAIL**" in md

    def test_check_under_another_solver(self, capsys, tmp_path):
        assert self._record(tmp_path) == 0
        capsys.readouterr()
        assert self._check(tmp_path, "--solver", "sparse-exact") == 0
        assert "solver=sparse-exact" in capsys.readouterr().out

    def test_check_without_golden_is_a_clean_error(self, capsys,
                                                   tmp_path):
        assert self._check(tmp_path) == 2
        err = capsys.readouterr().err
        assert "cannot read golden" in err
        assert "recorded goldens" in err

    def test_record_refuses_to_overwrite(self, capsys, tmp_path):
        assert self._record(tmp_path) == 0
        capsys.readouterr()
        assert self._record(tmp_path) == 2
        assert "promote" in capsys.readouterr().err
        assert self._record(tmp_path, "--force") == 0

    def test_promote_requires_an_existing_golden(self, capsys,
                                                 tmp_path):
        argv = ["baseline", "promote", "smoke",
                "--warmup", "2", "--measure", "2",
                "--baseline-dir", str(tmp_path / "baselines"),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 2
        assert "record the first snapshot" in capsys.readouterr().err
        assert self._record(tmp_path) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "promoting 'smoke'" in out
        assert self._check(tmp_path) == 0

    def test_unknown_campaign_rejected(self, capsys, tmp_path):
        assert main(["baseline", "record", "bogus-campaign",
                     "--baseline-dir", str(tmp_path)]) == 2
        assert "unknown campaign" in capsys.readouterr().err


class TestFabricCommands:
    """``repro worker`` and ``repro queue status/retry/drain``."""

    def _seed_queue(self, tmp_path, retries=2):
        from repro.campaign import CampaignQueue, sweep
        from repro.experiments.config import ExperimentConfig
        configs = sweep(ExperimentConfig(warmup_s=0.2, measure_s=0.5),
                        policy=("energy", "migra"))
        queue = CampaignQueue(tmp_path / "queue", retries=retries,
                              backoff_s=0.0)
        queue.enqueue(configs, campaign="cli")
        return queue, configs

    # -- argument handling -------------------------------------------
    def test_worker_requires_queue_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_queue_requires_subcommand_and_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["queue"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["queue", "status"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["queue", "bogus", "--queue", "q"])

    def test_worker_rejects_the_distributed_backend(self):
        # A worker *implements* the distributed backend; leasing a
        # batch back into it would recurse.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["worker", "--queue", "q", "--backend", "distributed"])

    # -- missing/corrupt queues --------------------------------------
    def test_missing_queue_dir_is_exit_2(self, capsys, tmp_path):
        for argv in (["worker", "--queue", str(tmp_path / "nope")],
                     ["queue", "status", "--queue",
                      str(tmp_path / "nope")]):
            assert main(argv) == 2
            assert "no campaign queue" in capsys.readouterr().err

    def test_corrupt_queue_file_is_exit_2(self, capsys, tmp_path):
        queue_dir = tmp_path / "queue"
        queue_dir.mkdir()
        (queue_dir / "queue.sqlite").write_text("not a database")
        for argv in (["worker", "--queue", str(queue_dir)],
                     ["queue", "status", "--queue", str(queue_dir)]):
            assert main(argv) == 2
            assert "not a campaign queue" in capsys.readouterr().err

    # -- the worker loop ---------------------------------------------
    def test_worker_drains_a_queue(self, capsys, tmp_path):
        queue, configs = self._seed_queue(tmp_path)
        queue.close()
        assert main(["worker", "--queue",
                     str(tmp_path / "queue")]) == 0
        out = capsys.readouterr().out
        assert f"worker finished: {len(configs)} task(s) completed" \
            in out
        assert main(["queue", "status", "--queue",
                     str(tmp_path / "queue")]) == 0
        assert "done" in capsys.readouterr().out

    def test_worker_on_a_finished_queue_is_a_noop(self, capsys,
                                                  tmp_path):
        queue, _ = self._seed_queue(tmp_path)
        queue.drain()
        queue.close()
        assert main(["worker", "--queue",
                     str(tmp_path / "queue")]) == 0
        assert "worker finished: 0 task(s) completed" \
            in capsys.readouterr().out

    # -- queue management --------------------------------------------
    def test_status_reports_failures_with_exit_1(self, capsys,
                                                 tmp_path):
        queue, configs = self._seed_queue(tmp_path, retries=0)
        for task in queue.lease("w0"):
            queue.fail(task.config_hash, "w0", "ValueError('boom')")
        queue.close()
        argv = ["queue", "status", "--queue", str(tmp_path / "queue")]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "failed" in out and "boom" in out

        assert main(["queue", "retry", "--queue",
                     str(tmp_path / "queue")]) == 0
        assert f"{len(configs)} failed task(s) re-enqueued" \
            in capsys.readouterr().out
        assert main(argv) == 0          # nothing failed any more
        capsys.readouterr()

        assert main(["queue", "drain", "--queue",
                     str(tmp_path / "queue")]) == 0
        assert f"{len(configs)} task(s) removed" \
            in capsys.readouterr().out


class TestBadPhases:
    @pytest.mark.parametrize("argv", [
        ["run", "--warmup", "nan"],
        ["run", "--measure", "inf"],
    ])
    def test_run_exits_2_without_simulating(self, argv):
        # Both used to hang: NaN and infinity passed the phase checks
        # and the run never reached its end time.
        env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run([sys.executable, "-m", "repro", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=30)
        assert done.returncode == 2
        assert "error:" in done.stderr and "Traceback" not in done.stderr

    def test_sweep_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig7", "--warmup", "nan"])
        assert exit_info.value.code == 2
        assert "warmup_s" in capsys.readouterr().err


class TestBadWorkers:
    @pytest.mark.parametrize("argv", [
        ["campaign", "smoke", "--workers", "0"],
        ["sweep", "--workers", "0"],
        ["fig7", "--workers", "0"],
        ["ablation", "top-k", "--workers", "-1"],
        ["scaling", "--workers", "0"],
        ["baseline", "check", "smoke", "--workers", "0"],
        ["baseline", "record", "smoke", "--workers", "0"],
    ])
    def test_every_workers_flag_exits_2(self, argv, capsys):
        # `campaign`/`sweep --workers 0` ended in a ValueError
        # traceback; `fig7`, `ablation`, `scaling` and `baseline check`
        # ran on one worker and exited 0.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "argument --workers: workers must be >= 1" \
            in capsys.readouterr().err

    def test_non_integer_workers_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--workers", "two"])
        assert exit_info.value.code == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err


class TestBadThresholds:
    @pytest.mark.parametrize("argv", [
        ["run", "--threshold", "nan"],
        ["run", "--threshold", "inf"],
        ["sweep", "--thresholds", "2", "nan"],
        ["sweep", "--policies", "energy", "--thresholds", "0"],
        ["narrative", "--threshold", "-1"],
        ["scaling", "--threshold", "nan"],
        ["thermal-map", "--threshold", "0"],
    ])
    def test_every_threshold_flag_exits_2(self, argv, capsys):
        # `run --threshold nan` and `sweep --thresholds nan` used to
        # exit 0 with a `theta nan` report; `sweep --policies energy
        # --thresholds 0` ended in a traceback.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "threshold_c must be a finite number > 0" \
            in capsys.readouterr().err
