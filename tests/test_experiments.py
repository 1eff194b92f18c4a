"""Tests for the experiment configuration, runner, tables and figures.

Heavy end-to-end sweeps live in ``benchmarks/``; here we use shortened
phases to validate the harness logic itself.
"""

import pytest

from repro.experiments.config import (
    PACKAGES,
    PLATFORMS,
    THRESHOLD_SWEEP_C,
    ExperimentConfig,
)
from repro.experiments.figures import FigureSeries, figure2
from repro.experiments.runner import build_system, make_policy, run_experiment
from repro.experiments.tables import table1, table2
from repro.policies.energy_balance import EnergyBalancing
from repro.policies.load_balance import LoadBalancing
from repro.policies.migra import MigraThermalBalancer
from repro.policies.stop_go import StopAndGo

SHORT = dict(warmup_s=5.0, measure_s=5.0)


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = ExperimentConfig()
        assert cfg.warmup_s == 12.5          # Sec. 5.2 execution phase
        assert cfg.sensor_period_s == 0.01   # Sec. 4 update rate
        assert cfg.n_cores == 3
        assert cfg.threshold_c in THRESHOLD_SWEEP_C

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(policy="nonsense")

    def test_unknown_package_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(package="arctic")

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(platform="conf9")

    def test_variant_replaces_fields(self):
        cfg = ExperimentConfig().variant(threshold_c=2.0, package="highperf")
        assert cfg.threshold_c == 2.0
        assert cfg.package_params is PACKAGES["highperf"]

    def test_platform_presets_registered(self):
        assert set(PLATFORMS) >= {"conf1", "conf2",
                                  "conf1-grid", "conf2-grid"}

    def test_t_end(self):
        assert ExperimentConfig(warmup_s=2.0, measure_s=3.0).t_end == 5.0

    @pytest.mark.parametrize("field, value", [
        ("warmup_s", float("nan")), ("warmup_s", float("inf")),
        ("warmup_s", -1.0),
        ("measure_s", float("nan")), ("measure_s", float("inf")),
        ("measure_s", 0.0), ("measure_s", -1.0),
        ("quantum_s", float("nan")), ("quantum_s", float("inf")),
        ("quantum_s", 0.0),
        ("sensor_period_s", float("nan")), ("sensor_period_s", 0.0),
        ("sensor_period_s", -0.01), ("sensor_period_s", float("inf")),
        ("daemon_period_s", float("nan")), ("daemon_period_s", 0.0),
        ("daemon_period_s", float("inf")),
    ])
    def test_non_finite_or_empty_timing_rejected(self, field, value):
        # NaN passes any `<`/`<=` test, and a NaN or infinite phase or
        # period never ends the run.
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})

    def test_zero_warmup_accepted(self):
        assert ExperimentConfig(warmup_s=0.0).warmup_s == 0.0

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -float("inf"), 0.0, 0, -1.0,
        True, "3", None,
    ])
    def test_bad_threshold_rejected(self, value):
        # NaN passed the policies' ``<= 0`` test and ran with a
        # ``theta nan`` report; a string failed deep in the run.
        with pytest.raises(ValueError, match="threshold_c"):
            ExperimentConfig(threshold_c=value)
        with pytest.raises(ValueError, match="threshold_c"):
            ExperimentConfig.from_dict({"threshold_c": value})

    @pytest.mark.parametrize("field, value", [
        # Each ran under a hash of its own or failed deep in the run.
        ("seed", 1.5), ("seed", "x"), ("seed", True),
        ("n_cores", 2.5), ("n_cores", 3.0), ("n_cores", "3"),
        ("queue_capacity", "6"), ("queue_capacity", 6.0),
        ("sink_start_delay_frames", 4.5), ("n_bands", False),
        ("top_k", 3.0), ("max_from_hot", "2"), ("max_from_dst", None),
        # A NaN or infinite frame period ran with 0 frames played.
        ("frame_period_s", float("nan")), ("frame_period_s", float("inf")),
        ("frame_period_s", 0.0), ("frame_period_s", -0.04),
        # A NaN panic temperature compares false, so the guard never
        # fires; a NaN or negative noise sigma silently disables noise.
        ("panic_temp_c", float("nan")), ("panic_temp_c", float("inf")),
        ("panic_temp_c", -float("inf")),
        ("sensor_noise_c", float("nan")), ("sensor_noise_c", -0.1),
        ("sensor_noise_c", float("inf")),
    ])
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_dict({field: value})


class TestWarmupKey:
    def test_policy_only_fields_share_a_key(self):
        base = ExperimentConfig()
        other = base.variant(policy="stopgo", threshold_c=1.0, top_k=1,
                             max_from_hot=1, max_from_dst=2)
        assert other.warmup_key() == base.warmup_key()

    @pytest.mark.parametrize("change", [
        dict(seed=1), dict(package="highperf"), dict(solver="euler"),
        # Read during the warm-up: the MPOS daemons, the panic guard,
        # and deferred app arrivals scheduled from measure_s.
        dict(daemon_period_s=0.2), dict(panic_guard=False),
        dict(panic_temp_c=80.0), dict(measure_s=10.0),
    ])
    def test_other_fields_split_the_key(self, change):
        base = ExperimentConfig()
        assert base.variant(**change).warmup_key() != base.warmup_key()


class TestMakePolicy:
    def test_policy_types(self):
        assert isinstance(make_policy(ExperimentConfig(policy="migra")),
                          MigraThermalBalancer)
        assert isinstance(make_policy(ExperimentConfig(policy="stopgo")),
                          StopAndGo)
        assert isinstance(make_policy(ExperimentConfig(policy="energy")),
                          EnergyBalancing)
        assert isinstance(make_policy(ExperimentConfig(policy="load")),
                          LoadBalancing)

    def test_threshold_propagated(self):
        pol = make_policy(ExperimentConfig(policy="migra", threshold_c=2.0))
        assert pol.threshold_c == 2.0

    def test_daemon_cadence_propagated(self):
        pol = make_policy(ExperimentConfig(policy="migra",
                                           daemon_period_s=0.25))
        assert pol.eval_period_s == 0.25


class TestRunner:
    def test_build_system_wires_everything(self):
        sut = build_system(ExperimentConfig(**SHORT))
        assert sut.chip.n_tiles == 3
        assert len(sut.app.tasks) == 6
        assert sut.policy.mpos is sut.mpos
        assert sut.guard is not None

    def test_policy_disabled_during_warmup(self):
        cfg = ExperimentConfig(policy="migra", **SHORT)
        sut = build_system(cfg)
        sut.sim.run_until(cfg.warmup_s)
        assert not sut.policy.enabled
        assert len(sut.mpos.engine.records) == 0

    def test_run_produces_report(self):
        cfg = ExperimentConfig(policy="energy", **SHORT)
        result = run_experiment(cfg)
        assert result.report.policy == "energy-balance"
        assert result.report.duration_s == 5.0
        assert result.report.frames_played > 0
        assert len(result.report.core_mean_c) == 3

    def test_traceless_config_rejected_by_runner(self):
        cfg = ExperimentConfig(trace_enabled=False, **SHORT)
        with pytest.raises(ValueError):
            run_experiment(cfg)

    def test_guard_can_be_disabled(self):
        sut = build_system(ExperimentConfig(panic_guard=False, **SHORT))
        assert sut.guard is None

    def test_conf2_platform_runs(self):
        cfg = ExperimentConfig(platform="conf2", policy="energy", **SHORT)
        result = run_experiment(cfg)
        # ARM11-class cores burn less power: cooler die than Conf1.
        conf1 = run_experiment(ExperimentConfig(policy="energy", **SHORT))
        assert result.report.peak_c < conf1.report.peak_c

    def test_recreation_strategy_selected(self):
        from repro.mpos.migration import TaskRecreation
        sut = build_system(ExperimentConfig(
            migration_strategy="recreation", **SHORT))
        assert isinstance(sut.mpos.engine.strategy, TaskRecreation)


class TestTables:
    def test_table1_text(self):
        text = table1().to_text()
        assert "RISC32-streaming" in text
        assert "DCache" in text

    def test_table2_reproduces_loads(self):
        text = table2(settle_s=0.5).to_text()
        assert "Core 1 (533 MHz)" in text
        assert "Core 2 (266 MHz)" in text
        assert "36.7" in text           # BPF1 load
        assert "60.9" in text           # BPF2/BPF3 load


class TestFigures:
    def test_figure2_series_shapes(self):
        fig = figure2(sizes_kb=(64, 128, 256))
        assert len(fig.x) == 3
        repl = fig.series["task-replication"]
        recr = fig.series["task-recreation"]
        assert all(r > p for r, p in zip(recr, repl))
        assert repl == sorted(repl)

    def test_figure_series_to_text(self):
        fig = figure2(sizes_kb=(64, 128))
        text = fig.to_text()
        assert "Figure 2" in text
        assert "task-replication" in text

    def test_figure_series_dataclass(self):
        fig = FigureSeries(figure="F", title="t", x_label="x",
                           y_label="y", x=[1.0], series={"s": [2.0]})
        assert "F" in fig.to_text()
