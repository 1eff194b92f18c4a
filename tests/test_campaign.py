"""Tests for the campaign subsystem: config serialization, the sweep
spec helpers, the SystemBuilder, the execution backends, and the
store-backed CampaignRunner."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignRunner,
    SystemBuilder,
    backend_registry,
    campaign_registry,
    expand_campaign,
    sweep,
)
from repro.campaign.backends import lockstep_group_key
from repro.campaign.engine import STORE_FILENAME
from repro.experiments.config import THRESHOLD_SWEEP_C, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.metrics.report import RunReport
from repro.platform.presets import CONF1_STREAMING
from repro.platform.registry import platform_registry

SHORT = dict(warmup_s=1.5, measure_s=1.5)


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = ExperimentConfig(policy="stopgo", threshold_c=2.0,
                               package="highperf", n_cores=4, n_bands=4,
                               migration_strategy="recreation", seed=7)
        data = cfg.to_dict()
        json.dumps(data)                      # plain JSON types only
        assert ExperimentConfig.from_dict(data) == cfg

    def test_from_dict_rejects_unknown_fields(self):
        data = ExperimentConfig().to_dict()
        data["mystery_knob"] = 1
        with pytest.raises(ValueError, match="mystery_knob"):
            ExperimentConfig.from_dict(data)

    def test_config_is_hashable(self):
        a = ExperimentConfig(threshold_c=1.0)
        b = ExperimentConfig(threshold_c=1.0)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_config_hash_stable_and_distinguishing(self):
        a = ExperimentConfig(threshold_c=1.0)
        assert a.config_hash() == ExperimentConfig(
            threshold_c=1.0).config_hash()
        assert a.config_hash() != ExperimentConfig(
            threshold_c=2.0).config_hash()


class TestSweepSpec:
    def test_cartesian_product(self):
        configs = sweep(ExperimentConfig(**SHORT),
                        policy=("energy", "migra"),
                        threshold_c=(1.0, 2.0, 3.0))
        assert len(configs) == 6
        assert {c.policy for c in configs} == {"energy", "migra"}
        assert all(c.warmup_s == 1.5 for c in configs)

    def test_scalar_pins_a_field(self):
        configs = sweep(ExperimentConfig(**SHORT), package="highperf",
                        policy=("energy", "migra"))
        assert len(configs) == 2
        assert all(c.package == "highperf" for c in configs)

    def test_named_campaigns_registered(self):
        assert {"smoke", "threshold-sweep", "fig7", "fig9",
                "scaling", "topology",
                "floorplan-scaling"} <= set(campaign_registry)

    def test_topology_campaign_sweeps_floorplan_families(self):
        configs = expand_campaign("topology", ExperimentConfig(**SHORT))
        platforms = {c.platform for c in configs}
        assert platforms == {"conf1", "conf1-grid", "conf1-lshape",
                             "conf1-gridgap"}

    def test_floorplan_scaling_campaign_uses_sparse_solver(self):
        configs = expand_campaign("floorplan-scaling",
                                  ExperimentConfig(**SHORT))
        assert {c.n_cores for c in configs} == {4, 9, 16}
        assert all(c.solver == "sparse-exact" for c in configs)
        assert all(c.platform == "conf1-grid" for c in configs)

    def test_expand_campaign(self):
        configs = expand_campaign("threshold-sweep",
                                  ExperimentConfig(**SHORT))
        assert len(configs) == 2 * 3 * len(THRESHOLD_SWEEP_C)
        assert {c.package for c in configs} == {"mobile", "highperf"}

    def test_unknown_campaign_lists_names(self):
        with pytest.raises(ValueError, match="smoke"):
            expand_campaign("nonsense")


class TestSystemBuilder:
    def test_matches_runner_build_system(self):
        sut = SystemBuilder(ExperimentConfig(**SHORT)).build()
        assert sut.chip.n_tiles == 3
        assert len(sut.app.tasks) == 6
        assert sut.policy.mpos is sut.mpos
        assert sut.guard is not None

    def test_override_hook(self):
        marker = []

        class Probed(SystemBuilder):
            def build_policy(self):
                marker.append("policy")
                return super().build_policy()

        Probed(ExperimentConfig(**SHORT)).build()
        assert marker == ["policy"]

    def test_eight_core_generated_platform_end_to_end(self):
        """An 8-core scenario runs via the registries alone (no runner
        changes): registered platform + generated floorplan/network."""
        big = dataclasses.replace(CONF1_STREAMING, name="Conf1-8core")
        with platform_registry.temporarily("conf1-8core", big):
            cfg = ExperimentConfig(platform="conf1-8core", n_cores=8,
                                   n_bands=8, policy="migra",
                                   threshold_c=2.0, **SHORT)
            result = run_experiment(cfg)
        assert result.system.chip.n_tiles == 8
        # 8 cores + per-tile caches/memories + shared mem + package node.
        assert result.system.sensors.network.n_blocks == 8 * 4 + 1
        assert len(result.report.core_mean_c) == 8
        assert result.report.frames_played > 0


class TestCampaignRunner:
    def test_memory_cache_and_dedup(self):
        runner = CampaignRunner()
        cfg = ExperimentConfig(policy="energy", **SHORT)
        result = runner.run([cfg, cfg], name="dup")
        assert len(result.runs) == 2
        assert result.runs[0].cached is False
        assert result.runs[1].cached is False     # same simulation, once
        again = runner.run([cfg], name="again")
        assert again.runs[0].cached is True
        assert again.runs[0].report.to_json() == \
            result.runs[0].report.to_json()

    def test_store_cache_survives_new_runner(self, tmp_path):
        cfg = ExperimentConfig(policy="energy", **SHORT)
        first = CampaignRunner(cache_dir=str(tmp_path)).run([cfg])
        assert (tmp_path / STORE_FILENAME).is_file()
        second = CampaignRunner(cache_dir=str(tmp_path)).run([cfg])
        assert second.runs[0].cached is True
        assert second.runs[0].report.to_json() == \
            first.runs[0].report.to_json()

    def test_json_manifest_in_cache_dir_is_not_read(self, tmp_path):
        """The store is the only persistent cache: a pre-store
        ``<config_hash>.json`` manifest in ``cache_dir`` is ignored."""
        cfg = ExperimentConfig(policy="energy", **SHORT)
        key = cfg.config_hash()
        stale = RunReport(policy="energy-balance", package="mobile",
                          threshold_c=cfg.threshold_c, duration_s=1.5)
        (tmp_path / f"{key}.json").write_text(json.dumps(
            {"config_hash": key, "config": cfg.to_dict(),
             "report": stale.to_dict()}))
        result = CampaignRunner(cache_dir=str(tmp_path)).run([cfg])
        assert result.runs[0].cached is False
        assert result.runs[0].report.frames_played > 0

    def test_cached_hits_recorded_under_new_campaign_name(self, tmp_path):
        """A campaign served entirely from cache must still appear in
        the store under its own name — rows are keyed by
        (config_hash, campaign)."""
        cfg = ExperimentConfig(policy="energy", **SHORT)
        runner = CampaignRunner(cache_dir=str(tmp_path))
        runner.run([cfg], name="first")
        result = runner.run([cfg], name="second")
        assert result.n_cached == 1
        campaigns = dict(runner.store.campaigns())
        assert campaigns == {"first": 1, "second": 1}
        assert len(runner.store.runs(campaign="second")) == 1

    def test_report_for_unknown_config_raises(self):
        runner = CampaignRunner()
        result = runner.run([ExperimentConfig(policy="energy", **SHORT)])
        with pytest.raises(KeyError):
            result.report_for(ExperimentConfig(policy="migra", **SHORT))

    def test_result_renderings(self):
        result = CampaignRunner().run(
            [ExperimentConfig(policy="energy", **SHORT)], name="render")
        text = result.to_text()
        assert "render" in text and "energy-balance" in text
        manifest = json.loads(result.to_json())
        assert manifest["runs"][0]["config"]["policy"] == "energy"

    def test_threshold_sweep_parallel_matches_serial_byte_identical(self):
        """Acceptance: the Fig. 7-style threshold sweep (both packages)
        through workers>1 equals the serial path byte-for-byte."""
        configs = expand_campaign("threshold-sweep",
                                  ExperimentConfig(**SHORT))
        serial = CampaignRunner(workers=1).run(configs, name="serial")
        parallel = CampaignRunner(workers=4).run(configs, name="parallel")
        assert parallel.n_cached == 0
        serial_json = [run.report.to_json() for run in serial.runs]
        parallel_json = [run.report.to_json() for run in parallel.runs]
        assert serial_json == parallel_json

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(workers=0)


class TestExecutionBackends:
    def test_builtin_backends_registered(self):
        assert set(backend_registry) == {"serial", "vectorized",
                                         "distributed"}

    def test_unknown_backend_lists_names(self):
        with pytest.raises(ValueError, match="vectorized"):
            CampaignRunner(backend="quantum")

    @pytest.mark.parametrize("name", ["process-pool", "batched"])
    def test_removed_backends_are_unknown(self, name):
        from repro.campaign.backends import make_backend
        with pytest.raises(ValueError) as err:
            make_backend(name)
        assert "distributed, serial, vectorized" in str(err.value)

    def test_unknown_backend_lists_names_sorted(self):
        """The error enumerates every backend, alphabetically."""
        from repro.campaign.backends import make_backend
        with pytest.raises(ValueError) as err:
            make_backend("quantum")
        names = sorted(backend_registry)
        listed = str(err.value).split(":")[-1]
        assert [n.strip() for n in listed.split(",")] == names

    def test_lockstep_group_key_groups_by_thermal_network(self):
        a = ExperimentConfig(policy="energy", **SHORT)
        b = a.variant(policy="migra", threshold_c=1.0)     # same network
        c = a.variant(platform="conf2")                    # different
        d = a.variant(n_cores=4, n_bands=4)                # different
        e = a.variant(solver="sparse-exact")       # different artifacts
        assert lockstep_group_key(a) == lockstep_group_key(b)
        assert lockstep_group_key(a) != lockstep_group_key(c)
        assert lockstep_group_key(a) != lockstep_group_key(d)
        assert lockstep_group_key(a) != lockstep_group_key(e)

    def test_backend_parity_mixed_platform_campaign(self):
        """Acceptance: the serial backend produces byte-identical
        manifests at 1, 2 and 3 workers on a campaign mixing two
        platforms (hence two warm-up groups, sliced over the pool)."""
        base = ExperimentConfig(**SHORT)
        configs = (sweep(base, platform="conf1",
                         policy=("energy", "migra")) +
                   sweep(base, platform="conf1-grid",
                         policy=("energy", "migra")))
        manifests = {}
        for workers in (1, 2, 3):
            result = CampaignRunner(workers=workers,
                                    backend="serial").run(
                configs, name="parity")
            assert result.n_cached == 0
            assert result.backend == "serial"
            assert result.workers == workers
            manifests[workers] = result.to_json()
        assert manifests[1] == manifests[2]
        assert manifests[1] == manifests[3]

    def test_lockstep_group_key_extends_network_key(self):
        a = ExperimentConfig(policy="energy", **SHORT)
        b = a.variant(policy="migra", threshold_c=1.0)    # same group
        c = a.variant(sensor_period_s=0.02)               # other epochs
        d = a.variant(measure_s=3.0)                      # other phases
        assert lockstep_group_key(a) == lockstep_group_key(b)
        assert lockstep_group_key(a) != lockstep_group_key(c)
        assert lockstep_group_key(a) != lockstep_group_key(d)
        # The fabric journals this tuple, so its layout is pinned.
        assert lockstep_group_key(a) == (
            "conf1", "mobile", 3, "dense-exact", a.sensor_period_s,
            1.5, 1.5)

    @pytest.mark.parametrize("solver",
                             ["dense-exact", "sparse-exact", "reduced"])
    def test_vectorized_backend_byte_identical_to_serial(self, solver):
        """Acceptance: the lockstep backend's manifest is byte-identical
        to serial for every solver, on a sweep whose configs share one
        thermal network (the case the backend batches)."""
        base = ExperimentConfig(solver=solver, **SHORT)
        configs = sweep(base, policy=("energy", "migra"),
                        threshold_c=(1.0, 2.0))
        manifests = {}
        for backend in ("serial", "vectorized"):
            result = CampaignRunner(workers=1, backend=backend).run(
                configs, name="parity-vec")
            assert result.n_cached == 0
            manifests[backend] = result.to_json()
        assert manifests["serial"] == manifests["vectorized"]

    def test_vectorized_backend_parity_multi_group_pool(self):
        """Two lockstep groups + workers=2 exercises the pool path."""
        base = ExperimentConfig(**SHORT)
        configs = (sweep(base, platform="conf1",
                         policy=("energy", "migra")) +
                   sweep(base, platform="conf1-grid",
                         policy=("energy", "migra")))
        serial = CampaignRunner(workers=1, backend="serial").run(
            configs, name="parity-vec-pool")
        vec = CampaignRunner(workers=2, backend="vectorized").run(
            configs, name="parity-vec-pool")
        assert serial.to_json() == vec.to_json()

    def test_vectorized_pool_never_exceeds_group_count(self, monkeypatch):
        """--workers above the group count must not spawn idle workers."""
        from repro.campaign import backends as backends_mod
        base = ExperimentConfig(**SHORT)
        configs = (sweep(base, platform="conf1",
                         policy=("energy", "migra")) +
                   sweep(base, platform="conf1-grid",
                         policy=("energy", "migra")))
        sizes = []

        class SpyContext:
            def __init__(self, ctx):
                self._ctx = ctx

            def Pool(self, processes):
                sizes.append(processes)
                return self._ctx.Pool(processes)

        real = backends_mod.ExecutionBackend._pool_context
        monkeypatch.setattr(
            backends_mod.ExecutionBackend, "_pool_context",
            staticmethod(lambda: SpyContext(real())))
        backends_mod.make_backend("vectorized").execute(configs, workers=8)
        assert sizes == [2]   # two groups, not eight workers

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_serial_slices_follow_warmup_groups(self, monkeypatch,
                                                workers):
        """With workers > 1, serial partitions the configs into slices
        of one warm-up key each, none above ceil(n / workers)."""
        from repro.campaign import backends as backends_mod
        base = ExperimentConfig(**SHORT)
        configs = (sweep(base, policy=("migra", "stopgo"),
                         threshold_c=(1.0, 2.0, 3.0)) +
                   sweep(base, package="highperf", policy="migra",
                         threshold_c=(1.0, 2.0)) +
                   sweep(base, seed=5, policy="migra"))
        captured = []
        real = backends_mod._fan_out

        def spy(entry, configs, batches, workers):
            captured.append((entry, batches))
            return real(entry, configs, batches, workers)

        monkeypatch.setattr(backends_mod, "_fan_out", spy)
        reports = backends_mod.make_backend("serial").execute(
            configs, workers=workers)
        [(entry, slices)] = captured
        assert entry is backends_mod._execute_group
        assert sorted(i for piece in slices for i in piece) == \
            list(range(len(configs)))
        limit = -(-len(configs) // workers)
        for piece in slices:
            assert 0 < len(piece) <= limit
            assert len({configs[i].warmup_key() for i in piece}) == 1
        assert [len(piece) for piece in slices] == \
            sorted((len(piece) for piece in slices), reverse=True)
        assert [r.to_dict() for r in reports] == \
            [r.to_dict() for r in backends_mod.make_backend(
                "serial").execute(configs, workers=1)]

    def test_serial_splits_one_warmup_group_over_the_pool(
            self, monkeypatch):
        """9 configs sharing one warm-up on 2 workers: 2 processes."""
        from repro.campaign import backends as backends_mod
        configs = sweep(ExperimentConfig(**SHORT), policy="migra",
                        threshold_c=tuple(float(t) for t in range(1, 10)))
        assert len({config.warmup_key() for config in configs}) == 1
        sizes = []
        captured = []
        real_fan_out = backends_mod._fan_out
        real_context = backends_mod.ExecutionBackend._pool_context

        class SpyContext:
            def __init__(self, ctx):
                self._ctx = ctx

            def Pool(self, processes):
                sizes.append(processes)
                return self._ctx.Pool(processes)

        def spy(entry, configs, batches, workers):
            captured.append([len(batch) for batch in batches])
            return real_fan_out(entry, configs, batches, workers)

        monkeypatch.setattr(backends_mod, "_fan_out", spy)
        monkeypatch.setattr(
            backends_mod.ExecutionBackend, "_pool_context",
            staticmethod(lambda: SpyContext(real_context())))
        backends_mod.make_backend("serial").execute(configs, workers=2)
        assert captured == [[5, 4]]
        assert sizes == [2]

    def test_serial_single_slice_stays_in_process(self, monkeypatch):
        """One config on 4 workers opens no pool."""
        from repro.campaign import backends as backends_mod

        def no_pool(*args):
            raise AssertionError("opened a pool for one slice")

        monkeypatch.setattr(backends_mod, "_fan_out", no_pool)
        [report] = backends_mod.make_backend("serial").execute(
            [ExperimentConfig(**SHORT)], workers=4)
        assert report.to_dict() == \
            run_experiment(ExperimentConfig(**SHORT)).report.to_dict()


class TestDistributedQueueDir:
    def test_adhoc_queue_dir_is_removed(self, tmp_path, monkeypatch):
        """Without cache_dir the journal lives in a temporary
        directory that is gone once the run ends."""
        import tempfile
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        created = []
        real = tempfile.mkdtemp

        def recording(*args, **kwargs):
            created.append(real(*args, **kwargs))
            return created[-1]

        monkeypatch.setattr(tempfile, "mkdtemp", recording)
        configs = [ExperimentConfig(**SHORT)]
        result = CampaignRunner(backend="distributed").run(configs)
        assert result.to_json() == \
            CampaignRunner(backend="serial").run(configs).to_json()
        [queue_dir] = [d for d in created
                       if Path(d).name.startswith("repro-queue-")]
        assert Path(queue_dir).parent == tmp_path
        assert not Path(queue_dir).exists()
        assert not list(tmp_path.glob("repro-queue-*"))

    def test_adhoc_queue_dir_is_removed_when_the_queue_will_not_open(
            self, tmp_path, monkeypatch):
        import tempfile

        from repro.campaign.fabric import QueueError
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setenv("REPRO_FABRIC_LEASE_S", "nan")
        with pytest.raises(QueueError, match="REPRO_FABRIC_LEASE_S"):
            CampaignRunner(backend="distributed").run(
                [ExperimentConfig(**SHORT)])
        assert not list(tmp_path.glob("repro-queue-*"))

    def test_cache_dir_queue_is_kept_for_resume(self, tmp_path):
        runner = CampaignRunner(backend="distributed",
                                cache_dir=str(tmp_path / "cache"))
        try:
            runner.run([ExperimentConfig(**SHORT)])
        finally:
            runner.close()
        assert (tmp_path / "cache" / "queue" / "queue.sqlite").is_file()


class TestIncrementalAnalysis:
    @pytest.fixture
    def calls(self, monkeypatch):
        """The configs simulated so far in the test."""
        from repro.experiments import runner as runner_mod
        calls = []
        real = runner_mod.finalize_run

        # Every simulated run is finalized once, whether it ran on its
        # own or forked from a shared warm-up.
        def counting(sut, energy_j):
            calls.append(sut.config)
            return real(sut, energy_j)

        monkeypatch.setattr(runner_mod, "finalize_run", counting)
        return calls

    def test_fig7_cache_dir_simulates_zero_on_second_run(
            self, tmp_path, calls):
        """Acceptance: ``repro fig7 --cache-dir DIR`` run twice
        simulates zero configs the second time — every row comes from
        the persistent store."""
        from repro.experiments import figures
        base = ExperimentConfig(**SHORT)
        # A fresh runner per figure, as a fresh `repro fig7` process
        # builds: only the store carries rows from one to the next.
        with CampaignRunner(cache_dir=str(tmp_path)) as runner:
            first = figures.figure7((1.0, 2.0), base, runner=runner)
        n_simulated = len(calls)
        # 3 policies x 2 thresholds, but energy never reads its
        # threshold: its two configs share one run.
        assert n_simulated == 5
        with CampaignRunner(cache_dir=str(tmp_path)) as runner:
            second = figures.figure7((1.0, 2.0), base, runner=runner)
        assert len(calls) == n_simulated      # zero new simulations
        assert second == first

    def test_scaling_reads_through_store(self, tmp_path, calls):
        from repro.experiments.scaling import scaling_study
        base = ExperimentConfig(**SHORT)
        with CampaignRunner(cache_dir=str(tmp_path)) as runner:
            first = scaling_study(core_counts=(2, 3), base=base,
                                  runner=runner)
        assert len(calls) == 4          # 2 core counts x 2 policies
        with CampaignRunner(cache_dir=str(tmp_path)) as runner:
            again = scaling_study(core_counts=(2, 3), base=base,
                                  runner=runner)
        assert len(calls) == 4          # zero new simulations
        assert [r.to_text() for r in first] == \
            [r.to_text() for r in again]
