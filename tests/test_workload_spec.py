"""The declarative workload IR (repro.streaming.spec + families).

The heart of this file is the parity suite: the ``sdr`` and ``fig1``
workloads, re-expressed as :class:`WorkloadSpec`, must produce
**byte-identical** :class:`RunReport` s to the pre-IR factories they
replaced — the refactor may not move a single metric.  The factories
run through a :meth:`SystemBuilder.build_workload` override, the one
route for applications the IR cannot express.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.builder import SystemBuilder
from repro.campaign.store import ResultStore
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure1 import FIG1_MAPPING, build_fig1_graph
from repro.experiments.runner import build_system, measure, run_experiment
from repro.metrics.report import RunReport
from repro.mpos.system import MPOS
from repro.sim.kernel import Simulator
from repro.streaming.families import build_pipeline_graph, prefix_graph, \
    round_robin_mapping
from repro.streaming.graph import SINK, SOURCE, StreamGraph, TaskSpec
from repro.streaming.registry import resolve_workload
from repro.streaming.sdr_app import build_sdr_application, build_sdr_graph, \
    sdr_mapping
from repro.streaming.application import StreamingApplication
from repro.streaming.spec import AppSpec, LoadModel, WorkloadSpec, \
    instantiate_workload, single_app

SHORT = dict(warmup_s=1.0, measure_s=2.0)


def _legacy_sdr(sim, mpos, config, trace):
    """The pre-IR opaque ``sdr`` factory, verbatim."""
    return build_sdr_application(
        sim, mpos, frame_period_s=config.frame_period_s,
        queue_capacity=config.queue_capacity,
        sink_start_delay_frames=config.sink_start_delay_frames,
        n_bands=config.n_bands, trace=trace,
        load_jitter=config.load_jitter or None,
        jitter_seed=config.seed)


def _legacy_fig1(sim, mpos, config, trace):
    """The pre-IR opaque ``fig1`` factory, verbatim."""
    return StreamingApplication.build(
        sim, mpos, build_fig1_graph(), dict(FIG1_MAPPING),
        config.frame_period_s, config.queue_capacity,
        config.sink_start_delay_frames, trace)


class LegacyBuilder(SystemBuilder):
    """Builds the workload with a pre-IR factory instead of its spec."""

    def __init__(self, config, factory):
        super().__init__(config)
        self.factory = factory
        self.apps = []

    def build_workload(self, sim, mpos, trace):
        self.apps = [self.factory(sim, mpos, self.config, trace)]
        return self.apps


def _reports_for(spec_workload, legacy_factory, **overrides):
    """Run the spec workload and its legacy factory on one config."""
    config = ExperimentConfig(workload=spec_workload, **SHORT, **overrides)
    builder = LegacyBuilder(config, legacy_factory)
    sut = builder.build()
    # The factory's app is the one that runs: an override that fell
    # back to the spec would compare the spec with itself.
    assert len(builder.apps) == 1 and sut.apps == builder.apps
    sut.sim.run_until(config.warmup_s)
    legacy = measure(sut).report
    spec = run_experiment(config).report
    return spec, legacy


class TestParity:
    """Spec-built workloads replicate the legacy factories exactly."""

    def test_sdr_spec_byte_identical_to_factory(self):
        spec, legacy = _reports_for("sdr", _legacy_sdr)
        assert spec.to_json() == legacy.to_json()

    def test_sdr_parity_with_jitter_and_policy(self):
        spec, legacy = _reports_for("sdr", _legacy_sdr,
                                    load_jitter=0.1, seed=7,
                                    policy="migra", threshold_c=1.0)
        assert spec.to_json() == legacy.to_json()

    def test_sdr_parity_generalized_shape(self):
        spec, legacy = _reports_for("sdr", _legacy_sdr,
                                    n_cores=4, n_bands=4)
        assert spec.to_json() == legacy.to_json()

    def test_fig1_spec_byte_identical_to_factory(self):
        spec, legacy = _reports_for("fig1", _legacy_fig1, n_cores=2,
                                    policy="energy")
        assert spec.to_json() == legacy.to_json()


class TestSpecValidation:
    def test_duplicate_app_names_rejected(self):
        app = AppSpec("a", build_sdr_graph(3), sdr_mapping(3, 3))
        with pytest.raises(ValueError, match="duplicate app names"):
            WorkloadSpec("w", (app, app)).validate()

    def test_colliding_task_names_rejected(self):
        g = build_sdr_graph(3)
        spec = WorkloadSpec("w", (
            AppSpec("a", g, sdr_mapping(3, 3)),
            AppSpec("b", g, sdr_mapping(3, 3))))
        with pytest.raises(ValueError, match="appears in both"):
            spec.validate()

    def test_incomplete_mapping_rejected(self):
        spec = single_app("w", build_sdr_graph(3), {"LPF": 0})
        with pytest.raises(ValueError, match="mapping misses"):
            spec.validate()

    def test_stop_before_start_rejected(self):
        spec = single_app("w", build_sdr_graph(3), sdr_mapping(3, 3),
                          start_s=5.0, stop_s=4.0)
        with pytest.raises(ValueError, match="stop_s"):
            spec.validate()

    def test_too_few_cores_rejected_at_instantiation(self, sim, chip):
        spec = single_app("w", build_sdr_graph(3),
                          {t: 5 for t in sdr_mapping(3, 3)})
        with pytest.raises(ValueError, match="raise n_cores"):
            instantiate_workload(spec, sim, MPOS(sim, chip),
                                 ExperimentConfig(), None)

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError, match="no apps"):
            WorkloadSpec("w", ()).validate()


class TestLoadModelValidation:
    @pytest.mark.parametrize("kwargs, match", [
        (dict(kind="nope"), "unknown load model kind"),
        (dict(kind="phased", period_s=0.0), "period_s"),
        (dict(kind="phased", duty=0.0), "duty"),
        (dict(kind="phased", low_scale=0.0), "low_scale"),
        (dict(kind="bursty", burst_prob=1.5), "burst_prob"),
        (dict(kind="trace"), "needs points"),
        (dict(kind="trace", points=((1.0, 1.0), (1.0, 2.0))),
         "increasing"),
        (dict(kind="trace", points=((1.0, 0.0),)), "positive"),
    ])
    def test_invalid_models_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            LoadModel(**kwargs).validate()


class TestFamilies:
    def test_unknown_workload_lists_names_and_patterns(self):
        with pytest.raises(ValueError) as exc:
            resolve_workload("bogus")
        message = str(exc.value)
        assert "sdr" in message
        assert "multi-sdr:<K>" in message
        assert "pipeline:<depth>x<width>" in message
        assert "KeyError" not in message

    @pytest.mark.parametrize("name", ["multi-sdr:0", "multi-sdr:two",
                                      "pipeline:x", "pipeline:0x2",
                                      "pipeline:3x"])
    def test_malformed_family_args_rejected(self, name):
        with pytest.raises(ValueError, match="expected"):
            resolve_workload(name)

    def test_family_names_validate_in_config(self):
        ExperimentConfig(workload="multi-sdr:2", n_cores=6)
        ExperimentConfig(workload="pipeline:2x3")
        with pytest.raises(ValueError, match="unknown workload"):
            ExperimentConfig(workload="nope:3")

    def test_pipeline_graph_shape(self):
        graph = build_pipeline_graph(3, 2)
        assert len(graph.task_specs) == 2 + 3 * 2
        graph.validate()

    def test_prefix_graph_keeps_sentinels(self):
        graph = prefix_graph(build_sdr_graph(3), "r0.")
        graph.validate()
        assert {s.name for s in graph.task_specs} == \
            {"r0.LPF", "r0.DEMOD", "r0.BPF1", "r0.BPF2", "r0.BPF3",
             "r0.SUM"}
        assert graph.source_edges()[0].src == SOURCE

    def test_round_robin_mapping_covers_all_tasks(self):
        graph = build_pipeline_graph(2, 2)
        mapping = round_robin_mapping(graph, 3)
        assert set(mapping) == {s.name for s in graph.task_specs}
        assert set(mapping.values()) <= {0, 1, 2}

    def test_multi_sdr_spec_prefixes_and_offsets(self):
        factory = resolve_workload("multi-sdr:2")
        spec = factory(ExperimentConfig(workload="multi-sdr:2",
                                        n_cores=6))
        spec.validate()
        assert [app.name for app in spec.apps] == ["r0", "r1"]
        assert spec.apps[0].mapping["r0.BPF1"] == 0
        assert spec.apps[1].mapping["r1.BPF1"] == 3
        assert spec.min_cores() == 6


class TestMultiAppRuns:
    def test_multi_sdr_reports_per_app_qos(self):
        cfg = ExperimentConfig(workload="multi-sdr:2", n_cores=6,
                               **SHORT)
        report = run_experiment(cfg).report
        assert report.workload == "multi-sdr:2"
        for app in ("r0", "r1"):
            assert report.extra[f"qos.{app}.frames_played"] > 0
            assert f"qos.{app}.deadline_misses" in report.extra
            assert f"qos.{app}.miss_rate" in report.extra
            assert f"qos.{app}.source_drops" in report.extra
        assert report.frames_played == \
            report.extra["qos.r0.frames_played"] + \
            report.extra["qos.r1.frames_played"]

    def test_single_app_runs_leave_extra_empty(self):
        report = run_experiment(ExperimentConfig(**SHORT)).report
        assert report.extra == {}

    def test_per_app_qos_round_trips_through_the_store(self):
        cfg = ExperimentConfig(workload="multi-sdr:2", n_cores=6,
                               **SHORT)
        report = run_experiment(cfg).report
        store = ResultStore()
        store.put(cfg.config_hash(), cfg.to_dict(), report,
                  campaign="mix")
        runs = store.runs(where="workload = 'multi-sdr:2'")
        assert len(runs) == 1
        assert runs[0].report == report
        assert runs[0].report.extra["qos.r1.frames_played"] > 0

    def test_workload_column_filters_the_store(self):
        store = ResultStore()
        for i, workload in enumerate(("sdr", "multi-sdr:2", "sdr")):
            report = RunReport(policy="migra", package="mobile",
                               workload=workload, threshold_c=2.0,
                               duration_s=1.0)
            store.put(f"h{i}", {}, report, campaign="c")
        assert len(store.runs(where="workload = 'sdr'")) == 2
        assert len(store.runs(where="workload = 'multi-sdr:2'")) == 1

    def test_arrival_departure_shortens_second_app(self):
        cfg = ExperimentConfig(workload="sdr-arrival", n_cores=6,
                               warmup_s=1.0, measure_s=4.0)
        report = run_experiment(cfg).report
        r0 = report.extra["qos.r0.frames_played"]
        r1 = report.extra["qos.r1.frames_played"]
        assert 0 < r1 < r0


class TestDeferredStart:
    def test_tasks_map_at_arrival_time(self, sim, chip):
        mpos = MPOS(sim, chip)
        spec = single_app("late", build_sdr_graph(3), sdr_mapping(3, 3),
                          start_s=0.5, stop_s=1.5)
        app = instantiate_workload(spec, sim, mpos,
                                   ExperimentConfig(), None)[0]
        assert not app.started
        assert app.tasks["LPF"].core_index is None
        assert mpos.tasks == []
        sim.run_until(0.6)
        assert app.started
        assert app.tasks["LPF"].core_index == 2
        sim.run_until(1.6)
        assert app.stopped
        assert all(not s._process.running for s in app.sources)

    def test_departure_stops_the_traffic(self, sim, chip):
        mpos = MPOS(sim, chip)
        spec = single_app("brief", build_sdr_graph(3),
                          sdr_mapping(3, 3), stop_s=1.0)
        app = instantiate_workload(spec, sim, mpos,
                                   ExperimentConfig(), None)[0]
        sim.run_until(3.0)
        produced_at_stop = app.sources[0].frames_produced
        sim.run_until(5.0)
        assert app.sources[0].frames_produced == produced_at_stop


class TestLoadModulation:
    def _system(self, **overrides):
        cfg = ExperimentConfig(**{**SHORT, **overrides})
        return cfg, build_system(cfg)

    def test_phased_scales_cycle_budgets(self):
        cfg, sut = self._system(workload="phased", load_period_s=1.0,
                                load_duty=0.5)
        base = sut.app.tasks["LPF"].cycles_per_frame
        sut.sim.run_until(0.6)      # off phase began at 0.5
        assert sut.app.tasks["LPF"].cycles_per_frame == \
            pytest.approx(0.1 * base)
        sut.sim.run_until(1.1)      # full load resumed at 1.0
        assert sut.app.tasks["LPF"].cycles_per_frame == \
            pytest.approx(base)

    def test_phased_off_phase_lowers_dvfs_demand(self):
        cfg, sut = self._system(workload="phased", load_period_s=1.0,
                                load_duty=0.5)
        demand_on = sut.mpos.core_demand_hz(0)
        sut.sim.run_until(0.6)
        assert sut.mpos.core_demand_hz(0) == \
            pytest.approx(0.1 * demand_on)

    def test_trace_replays_points(self):
        cfg, sut = self._system(workload="trace")
        base = sut.app.tasks["LPF"].cycles_per_frame
        t = cfg.t_end
        sut.sim.run_until(0.2 * t + 0.01)
        assert sut.app.tasks["LPF"].cycles_per_frame == \
            pytest.approx(0.4 * base)
        sut.sim.run_until(0.6 * t + 0.01)
        assert sut.app.tasks["LPF"].cycles_per_frame == \
            pytest.approx(1.3 * base)

    def test_bursty_is_deterministic_per_seed(self):
        a = run_experiment(ExperimentConfig(
            workload="bursty", load_period_s=0.5, **SHORT)).report
        b = run_experiment(ExperimentConfig(
            workload="bursty", load_period_s=0.5, **SHORT)).report
        assert a.to_json() == b.to_json()


class TestConfigThreading:
    def test_load_model_params_in_config_hash(self):
        base = ExperimentConfig()
        assert base.config_hash() != \
            base.variant(load_duty=0.25).config_hash()
        assert base.scenario_hash() != \
            base.variant(load_period_s=1.0).scenario_hash()

    def test_workload_name_in_config_hash(self):
        base = ExperimentConfig(n_cores=6)
        assert base.config_hash() != \
            base.variant(workload="multi-sdr:2").config_hash()

    def test_invalid_load_params_rejected(self):
        with pytest.raises(ValueError, match="period_s"):
            ExperimentConfig(load_period_s=0.0)
        with pytest.raises(ValueError, match="duty"):
            ExperimentConfig(load_duty=1.5)

    def test_config_load_defaults_track_loadmodel(self):
        cfg = ExperimentConfig()
        model = LoadModel()
        assert cfg.load_period_s == model.period_s
        assert cfg.load_duty == model.duty

    def test_config_round_trips_with_new_fields(self):
        cfg = ExperimentConfig(workload="pipeline:2x2",
                               load_period_s=2.0, load_duty=0.75)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


class TestLoadModulationEdgeCases:
    """Regression tests for the review findings on the modulator."""

    def test_phased_full_duty_degenerates_to_steady(self):
        cfg = ExperimentConfig(workload="phased", load_period_s=0.5,
                               load_duty=1.0, **SHORT)
        sut = build_system(cfg)
        base = sut.app.tasks["LPF"].cycles_per_frame
        sut.sim.run_until(2.0)      # several periods past t=period_s
        assert sut.app.tasks["LPF"].cycles_per_frame == base

    def test_modulator_stops_rearming_after_departure(self, sim, chip):
        from repro.streaming.spec import LoadModulator

        mpos = MPOS(sim, chip)
        app = StreamingApplication.build(
            sim, mpos, build_sdr_graph(3), sdr_mapping(3, 3),
            frame_period_s=0.04, stop_s=1.0)
        LoadModulator(sim, mpos, app,
                      LoadModel(kind="phased", period_s=0.4, duty=0.5))
        sim.run_until(2.0)          # well past the departure at t=1
        assert app.stopped
        modulator_events = [
            e for e in sim._queue if not e.cancelled
            and getattr(e.callback, "__self__", None).__class__.__name__
            == "LoadModulator"]
        assert modulator_events == []

    def test_run_cli_reports_core_shortage_cleanly(self, capsys):
        from repro.cli import main

        code = main(["run", "--workload", "fig1", "--cores", "1",
                     "--warmup", "1", "--measure", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "raise n_cores" in captured.err
        assert "--cores" in captured.err       # names the CLI flag


class TestDeparturePhysics:
    """Departed apps must release their DVFS demand (review finding)."""

    def test_departure_releases_core_demand(self, sim, chip):
        mpos = MPOS(sim, chip)
        spec = single_app("brief", build_sdr_graph(3),
                          sdr_mapping(3, 3), stop_s=1.0)
        app = instantiate_workload(spec, sim, mpos,
                                   ExperimentConfig(), None)[0]
        sim.run_until(0.5)
        assert mpos.core_demand_hz(0) > 0
        f_before = chip.tile(0).frequency_hz
        sim.run_until(2.0)          # past the departure
        assert app.stopped
        assert mpos.core_demand_hz(0) == 0.0
        assert chip.tile(0).frequency_hz < f_before

    def test_survivor_keeps_its_demand_on_shared_cores(self):
        cfg = ExperimentConfig(workload="sdr-arrival", n_cores=6,
                               warmup_s=1.0, measure_s=4.0)
        sut = build_system(cfg)
        sut.sim.run_until(cfg.t_end)     # r1 departed at t=4
        r0_demand = sum(t.demand_hz for t in sut.mpos.tasks
                        if t.name.startswith("r0."))
        r1_demand = sum(t.demand_hz for t in sut.mpos.tasks
                        if t.name.startswith("r1."))
        assert r0_demand > 0
        assert r1_demand == 0.0

    def test_loads_view_safe_before_arrival(self, sim, chip):
        mpos = MPOS(sim, chip)
        spec = single_app("late", build_sdr_graph(3), sdr_mapping(3, 3),
                          start_s=1.0)
        app = instantiate_workload(spec, sim, mpos,
                                   ExperimentConfig(), None)[0]
        loads = app.task_loads_at_mapped_freq()
        assert set(loads) == set(app.tasks)
        assert all(v == 0.0 for v in loads.values())
