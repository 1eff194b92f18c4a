"""Tests for the command-line interface."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import ResultStore
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
        assert main(["fig7", "--warmup", "3", "--measure", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "Thermal-Balancing (ours)" in out

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

    def test_campaign_vectorized_backend_drives_lockstep(self, capsys,
                                                         monkeypatch):
        """--backend vectorized runs its configs through the lockstep
        driver, and its manifest equals serial's byte for byte."""
        from repro.campaign import lockstep
        driver = lockstep.run_lockstep_group
        driven = []

        def counted(configs):
            driven.extend(configs)
            return driver(configs)

        monkeypatch.setattr(lockstep, "run_lockstep_group", counted)
        argv = ["campaign", "smoke", "--warmup", "1", "--measure", "1",
                "--json", "--backend"]
        assert main(argv + ["vectorized"]) == 0
        vectorized = capsys.readouterr().out
        assert len(driven) == 2
        assert main(argv + ["serial"]) == 0
        assert capsys.readouterr().out == vectorized
        assert len(driven) == 2         # serial never enters the driver

    def test_campaign_profile_flag_is_gone(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "smoke", "--profile", "x"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --profile x" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

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

    def test_list_names_what_the_parser_accepts(self, capsys):
        # The hand-kept listing offered the deleted `results import`
        # and missed two of the nine ablations.
        assert main(["list"]) == 0
        listed = dict(re.findall(r"^  (\S+) \{(\S+)\}:",
                                 capsys.readouterr().out, re.M))
        commands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)).choices
        for command in ("results", "queue", "baseline", "ablation"):
            accepted = [name for action in commands[command]._actions
                        if not action.option_strings and action.choices
                        for name in action.choices]
            assert listed[command].split(",") == accepted
        assert "import" not in listed["results"].split(",")
        assert {"sensor-noise", "load-jitter"} \
            <= set(listed["ablation"].split(","))


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

    @pytest.mark.parametrize("setting, value", [
        ("lease_timeout_s", float("inf")), ("lease_timeout_s", -5.0),
        ("retries", -1.0), ("retries", 2.5), ("backoff_s", float("inf")),
    ])
    def test_invalid_journal_policy_is_exit_2(self, capsys, tmp_path,
                                              setting, value):
        queue, _ = self._seed_queue(tmp_path)
        queue._conn.execute("UPDATE settings SET value = ? WHERE key = ?",
                            (value, setting))
        queue._conn.commit()
        queue.close()
        queue_dir = str(tmp_path / "queue")
        for argv in (["worker", "--queue", queue_dir],
                     ["queue", "status", "--queue", queue_dir],
                     ["queue", "drain", "--queue", queue_dir]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"{setting} must be" \
                in err

    @pytest.mark.parametrize("text", ["nan", "inf", "-5", "abc"])
    def test_distributed_run_with_bad_lease_env_is_exit_2(
            self, capsys, tmp_path, monkeypatch, text):
        # nan ended in a "not a campaign queue" traceback; inf and -5
        # were stored as policy, abc silently became 30.
        monkeypatch.setenv("REPRO_FABRIC_LEASE_S", text)
        assert main(["campaign", "smoke", "--backend", "distributed",
                     "--warmup", "0.2", "--measure", "0.2",
                     "--cache-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: REPRO_FABRIC_LEASE_S must be a finite number >= 0")

    def test_distributed_run_with_a_short_window_is_exit_2(
            self, capsys, tmp_path):
        # Each config failed all 3 attempts after its warm-up, and the
        # run ended in a FabricError traceback.
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "smoke", "--backend", "distributed",
                  "--warmup", "0.1", "--measure", "1e-9",
                  "--cache-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: measure_s must be at least one "
                              "sensor_period_s") and "Traceback" not in err
        assert not (tmp_path / "queue").exists()

    # -- idle poll, batch limit and fault injection -----------------
    def _held_queue(self, tmp_path):
        """A queue whose only pending work another worker holds, so a
        fresh worker idles (and sleeps ``--poll``) at once."""
        queue, _ = self._seed_queue(tmp_path)
        assert queue.lease("other")
        queue.close()
        return str(tmp_path / "queue")

    @pytest.mark.parametrize("argv", [
        ["--poll", "nan"], ["--poll", "-1"], ["--poll", "inf"],
        ["--poll", "0"], ["--poll", "1e300"], ["--poll", "abc"],
        ["--max-batches", "0"], ["--max-batches", "-1"],
    ])
    def test_bad_worker_flag_exits_2(self, capsys, tmp_path, argv):
        # --poll nan/-1 ended in a ValueError traceback the first time
        # the worker idled and inf in an OverflowError; --max-batches
        # 0 and -1 still ran one batch.
        queue_dir = self._held_queue(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["worker", "--queue", queue_dir, *argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[0]}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("poll_s", [float("nan"), -1.0, 0.0,
                                        float("inf"), 1e300, "abc", True])
    def test_library_rejects_a_bad_poll_interval(self, tmp_path, poll_s):
        from repro.campaign import Coordinator
        from repro.campaign.fabric import run_worker
        queue_dir = self._held_queue(tmp_path)
        with pytest.raises(ValueError, match="poll interval must be"):
            run_worker(queue_dir, poll_s=poll_s)
        with pytest.raises(ValueError, match="poll interval must be"):
            Coordinator(queue_dir, poll_s=poll_s)
        # Refused before the worker opened its store.
        assert not list((tmp_path / "queue").glob("results-*"))

    @pytest.mark.parametrize("max_batches", [0, -1, 1.5, True])
    def test_library_rejects_a_bad_batch_limit(self, tmp_path,
                                               max_batches):
        from repro.campaign.fabric import run_worker
        queue_dir = self._held_queue(tmp_path)
        with pytest.raises(ValueError, match="max_batches must be"):
            run_worker(queue_dir, max_batches=max_batches)

    @pytest.mark.parametrize("text", ["1x", "-1", "nan", "1.5"])
    def test_worker_with_bad_kill_after_is_exit_2(
            self, capsys, tmp_path, monkeypatch, text):
        # `_env_int` read 1x, nan and 1.5 as 0: the fault never fired.
        queue, _ = self._seed_queue(tmp_path)
        queue.close()
        monkeypatch.setenv("REPRO_FABRIC_KILL_AFTER", text)
        assert main(["worker", "--queue", str(tmp_path / "queue")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: REPRO_FABRIC_KILL_AFTER must be a "
                              "whole number >= 1")
        assert "Traceback" not in err
        from repro.campaign import CampaignQueue
        with CampaignQueue(tmp_path / "queue") as queue:
            assert queue.max_attempts() == 0     # nothing was leased

    @pytest.mark.parametrize("text", ["1x", "-1", "nan", "1.5"])
    def test_distributed_run_with_bad_kill_after_is_exit_2(
            self, capsys, tmp_path, monkeypatch, text):
        monkeypatch.setenv("REPRO_FABRIC_KILL_AFTER", text)
        assert main(["campaign", "smoke", "--backend", "distributed",
                     "--workers", "2", "--warmup", "0.2", "--measure",
                     "0.2", "--cache-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: REPRO_FABRIC_KILL_AFTER must be a whole number >= 1")
        from repro.campaign import CampaignQueue
        with CampaignQueue(tmp_path / "queue") as queue:
            assert queue.max_attempts() == 0     # no worker leased
        assert not list((tmp_path / "queue").glob("results-*"))

    @pytest.mark.parametrize("text", ["", "0"])
    def test_kill_after_off_values_drain_normally(
            self, capsys, tmp_path, monkeypatch, text):
        queue, configs = self._seed_queue(tmp_path)
        queue.close()
        monkeypatch.setenv("REPRO_FABRIC_KILL_AFTER", text)
        assert main(["worker", "--queue", str(tmp_path / "queue"),
                     "--max-batches", "5"]) == 0
        assert f"worker finished: {len(configs)} task(s) completed" \
            in capsys.readouterr().out

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
        # A window shorter than one sensor period holds no temperature
        # sample: each ended in a traceback after the warm-up.
        ["campaign", "smoke", "--warmup", "0.1", "--measure", "1e-9"],
        ["sweep", "--measure", "1e-9"],
        ["fig7", "--measure", "1e-9"],
        ["ablation", "top-k", "--measure", "1e-9"],
        ["baseline", "record", "smoke", "--measure", "1e-9"],
    ])
    def test_run_exits_2_without_simulating(self, argv, tmp_path):
        # The first two used to hang: NaN and infinity passed the phase
        # checks and the run never reached its end time.  In tmp_path,
        # `baseline record` finds no golden to refuse to overwrite.
        env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run([sys.executable, "-m", "repro", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=30, cwd=tmp_path)
        assert done.returncode == 2
        assert "error:" in done.stderr and "Traceback" not in done.stderr

    def test_sweep_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig7", "--warmup", "nan"])
        assert exit_info.value.code == 2
        assert "warmup_s" in capsys.readouterr().err


class TestAblationAndScalingPhases:
    """``ablation`` and ``scaling`` take ``--warmup``/``--measure`` like
    every other sweep command; both used to reject them."""

    def _stored_phases(self, cache_dir):
        store = ResultStore(Path(cache_dir) / "results.sqlite")
        try:
            return {(run.config["warmup_s"], run.config["measure_s"])
                    for run in store.runs()}
        finally:
            store.close()

    def test_ablation_runs_the_given_phases(self, capsys, tmp_path):
        assert main(["ablation", "strategy", "--warmup", "0.5",
                     "--measure", "0.5", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Ablation: strategy" in out and "recreation" in out
        assert self._stored_phases(tmp_path) == {(0.5, 0.5)}

    def test_scaling_runs_the_given_phases(self, capsys, tmp_path):
        assert main(["scaling", "--cores", "2", "--warmup", "0.5",
                     "--measure", "0.5", "--cache-dir",
                     str(tmp_path)]) == 0
        assert "2 cores:" in capsys.readouterr().out
        assert self._stored_phases(tmp_path) == {(0.5, 0.5)}

    @pytest.mark.parametrize("argv", [
        ["ablation", "strategy", "--warmup", "nan"],
        ["scaling", "--cores", "2", "--warmup", "nan"],
    ])
    def test_bad_phase_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: warmup_s must be finite") \
            and "Traceback" not in err


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


class TestRegisteredChoices:
    def test_run_accepts_every_registered_policy(self, capsys):
        # `stopgo-original` is registered by repro.experiments.ablation;
        # `run --policy` used to offer a hard-coded four.
        assert main(["run", "--policy", "stopgo-original",
                     "--warmup", "0.5", "--measure", "0.5"]) == 0
        # The original Stop&Go reports a label of its own, not the
        # modified variant's `stop-go`.
        assert capsys.readouterr().out.split()[0] \
            == "policy=stop-go-original"

    def test_policy_and_package_choices_follow_the_registries(self):
        from repro.policies.registry import policy_registry
        from repro.thermal.registry import package_registry
        parser = build_parser()
        for command in ("run", "thermal-map"):
            for policy in policy_registry.names():
                assert parser.parse_args(
                    [command, "--policy", policy]).policy == policy
            for package in package_registry.names():
                assert parser.parse_args(
                    [command, "--package", package]).package == package


class TestBadCoresAndCells:
    @pytest.mark.parametrize("argv", [
        ["scaling", "--cores", "0"],
        ["scaling", "--cores", "1"],
        ["thermal-map", "--cell", "0"],
        ["thermal-map", "--cell", "-1"],
        ["thermal-map", "--cell", "nan"],
        ["thermal-map", "--cell", "inf"],
        # A 72,000-cell grid: a 41 GB dense conductance matrix.
        ["thermal-map", "--cell", "0.02"],
    ])
    def test_exits_2_with_a_clean_error(self, argv, capsys):
        # Each used to end in a ValueError traceback; `--cell nan` got
        # past the grid model's `cell_mm <= 0` check.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


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
