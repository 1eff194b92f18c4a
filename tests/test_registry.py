"""Tests for the scenario registries (policies, workloads, platforms,
packages) and the generic Registry container."""

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, make_policy
from repro.platform.presets import CONF1_STREAMING
from repro.platform.registry import platform_registry, register_platform
from repro.policies.energy_balance import EnergyBalancing
from repro.policies.registry import policy_registry
from repro.registry import Registry
from repro.streaming.registry import workload_registry
from repro.thermal.registry import package_registry

SHORT = dict(warmup_s=2.0, measure_s=2.0)


class TestGenericRegistry:
    def test_register_and_resolve(self):
        reg = Registry("widget")
        reg.register("a", 1)
        assert reg.resolve("a") == 1
        assert reg["a"] == 1
        assert "a" in reg
        assert reg.names() == ("a",)

    def test_register_as_decorator(self):
        reg = Registry("widget")

        @reg.register("fn")
        def fn():
            return 42

        assert reg.resolve("fn") is fn

    def test_duplicate_rejected_unless_overwrite(self):
        reg = Registry("widget")
        reg.register("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", 2)
        reg.register("a", 2, overwrite=True)
        assert reg["a"] == 2

    def test_unknown_name_lists_known_names(self):
        reg = Registry("widget")
        reg.register("alpha", 1)
        reg.register("beta", 2)
        with pytest.raises(ValueError) as exc:
            reg.resolve("gamma")
        message = str(exc.value)
        assert "gamma" in message
        assert "alpha" in message and "beta" in message

    def test_unknown_name_listing_is_sorted(self):
        """Error listings enumerate names alphabetically regardless of
        registration order (scanning a long list wants an order)."""
        reg = Registry("widget")
        for name in ("zeta", "alpha", "mid"):
            reg.register(name, 1)
        with pytest.raises(ValueError) as exc:
            reg.resolve("nope")
        listed = str(exc.value).split("widgets:")[-1]
        assert [n.strip() for n in listed.split(",")] == \
            ["alpha", "mid", "zeta"]

    def test_temporarily_restores_previous_entry(self):
        reg = Registry("widget")
        reg.register("a", 1)
        with reg.temporarily("a", 99):
            assert reg["a"] == 99
        assert reg["a"] == 1

    def test_temporarily_removes_new_entry(self):
        reg = Registry("widget")
        with reg.temporarily("tmp", 5):
            assert "tmp" in reg
        assert "tmp" not in reg

    def test_mapping_protocol(self):
        reg = Registry("widget")
        reg.register("a", 1)
        reg.register("b", 2)
        assert set(reg) == {"a", "b"}
        assert len(reg) == 2
        assert dict(reg.items()) == {"a": 1, "b": 2}
        # Standard Mapping contract: KeyError / default, not ValueError.
        assert reg.get("missing") is None
        assert reg.get("missing", 9) == 9
        with pytest.raises(KeyError):
            reg["missing"]


class TestPolicyRegistry:
    def test_builtins_registered(self):
        for name in ("migra", "stopgo", "energy", "load"):
            assert name in policy_registry

    def test_custom_policy_runs_without_touching_runner(self):
        class Lazy(EnergyBalancing):
            name = "lazy"

        with policy_registry.temporarily(
                "lazy", lambda cfg: Lazy(threshold_c=cfg.threshold_c)):
            cfg = ExperimentConfig(policy="lazy", threshold_c=2.0, **SHORT)
            policy = make_policy(cfg)
            assert isinstance(policy, Lazy)
            assert policy.threshold_c == 2.0
            sut = build_system(cfg)
            assert sut.policy.name == "lazy"

    def test_typo_raises_with_known_names(self):
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(policy="mirga")
        message = str(exc.value)
        assert "mirga" in message
        assert "migra" in message and "stopgo" in message

    def test_config_validation_tracks_live_registry(self):
        # Names become valid exactly while they are registered.
        with policy_registry.temporarily(
                "transient", lambda cfg: EnergyBalancing()):
            ExperimentConfig(policy="transient")
        with pytest.raises(ValueError):
            ExperimentConfig(policy="transient")


class TestWorkloadRegistry:
    def test_sdr_registered(self):
        assert "sdr" in workload_registry

    def test_custom_workload_runs_without_touching_runner(self):
        from repro.streaming.sdr_app import build_sdr_graph, sdr_mapping
        from repro.streaming.spec import single_app

        def narrow_sdr(config):
            return single_app("narrow-sdr", build_sdr_graph(2),
                              sdr_mapping(2, config.n_cores))

        with workload_registry.temporarily("narrow-sdr", narrow_sdr):
            sut = build_system(ExperimentConfig(workload="narrow-sdr",
                                                **SHORT))
            # LPF + DEMOD + 2 bands + SUM.
            assert len(sut.app.tasks) == 5

    def test_typo_raises_with_known_names(self):
        with pytest.raises(ValueError, match="sdr"):
            ExperimentConfig(workload="srd")


class TestPlatformAndPackageRegistries:
    def test_presets_registered(self):
        assert set(platform_registry) >= {"conf1", "conf2"}
        assert set(package_registry) >= {"mobile", "highperf"}

    def test_register_platform_decorator_form(self):
        try:
            @register_platform("conf1-copy")
            def _copy():
                return dataclasses.replace(CONF1_STREAMING,
                                           name="Conf1-copy")

            assert platform_registry["conf1-copy"].name == "Conf1-copy"
            ExperimentConfig(platform="conf1-copy")
        finally:
            platform_registry.unregister("conf1-copy")

    def test_typo_raises_with_known_names(self):
        with pytest.raises(ValueError, match="conf1"):
            ExperimentConfig(platform="conf9")
        with pytest.raises(ValueError, match="mobile"):
            ExperimentConfig(package="arctic")
