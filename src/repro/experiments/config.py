"""Experiment configuration.

A single dataclass pins down everything a run needs; its default values
reproduce the paper's setup (3 cores, Conf1 power figures, Table 2
mapping, 12.5 s warm-up, 10 ms sensors, task-replication migration).

The ``policy``, ``workload``, ``package``, ``platform`` and ``solver``
fields are names resolved through the scenario registries (see
:mod:`repro.registry`), so configurations can reference components that
were registered after this module was imported.  Configurations are
frozen (hashable), and :meth:`ExperimentConfig.to_dict` /
:meth:`ExperimentConfig.from_dict` round-trip through plain JSON types
so the campaign engine can key caches and result manifests on
:meth:`ExperimentConfig.config_hash`.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, Tuple

from repro.platform.presets import PlatformConfig
from repro.platform.registry import platform_registry
from repro.thermal.package import ThermalPackageParams
from repro.thermal.registry import package_registry

#: Package name -> parameter set (live registry view).
PACKAGES = package_registry

#: Platform configuration name -> preset (live registry view).
PLATFORMS = platform_registry

#: The paper's built-in policies (the full live set is
#: ``repro.policies.registry.policy_registry``).
POLICY_NAMES = ("migra", "stopgo", "energy", "load")

#: The threshold sweep of Figs. 7-11 (distance from the mean, Celsius).
THRESHOLD_SWEEP_C = (1.0, 2.0, 3.0, 4.0)

#: The fields only the policy reads.  A disabled policy does nothing,
#: so configs that differ only in these share their policy-off warm-up
#: (see :meth:`ExperimentConfig.warmup_key`).
POLICY_ONLY_FIELDS = ("policy", "threshold_c", "top_k", "max_from_hot",
                      "max_from_dst")


@dataclass(frozen=True)
class ExperimentConfig:
    """All parameters of one run.

    The defaults are the paper's operating point; experiments vary
    ``policy``, ``threshold_c`` and ``package``.
    """

    policy: str = "migra"
    threshold_c: float = 3.0
    package: str = "mobile"
    platform: str = "conf1"
    n_cores: int = 3
    #: Thermal solver (``repro.thermal.solvers.solver_registry``):
    #: ``dense-exact`` (default, the paper's integrator), ``euler``,
    #: ``sparse-exact`` or ``reduced`` for large floorplans.
    solver: str = "dense-exact"

    # Streaming workload.  ``workload`` names a registered workload or
    # a parametric family instance (``multi-sdr:<K>``,
    # ``pipeline:<depth>x<width>``); the remaining fields parameterize
    # the spec the name resolves to (see ``repro.streaming.spec``).
    workload: str = "sdr"
    frame_period_s: float = 0.04
    queue_capacity: int = 6
    sink_start_delay_frames: int = 4
    n_bands: int = 3
    load_jitter: float = 0.0       # per-frame workload variation (+-frac)
    #: Phase/burst interval of the ``phased``/``bursty`` load models.
    load_period_s: float = 5.0
    #: Full-load fraction of each period under the ``phased`` model.
    load_duty: float = 0.5

    # Phases: policy off during warm-up (the paper's "first execution
    # phase (12.5 sec)"), measured afterwards.
    warmup_s: float = 12.5
    measure_s: float = 25.0

    # OS / middleware.
    quantum_s: float = 0.001
    sensor_period_s: float = 0.01
    sensor_noise_c: float = 0.0               # Gaussian sigma on readings
    daemon_period_s: float = 0.1
    migration_strategy: str = "replication"   # or "recreation"

    # Policy tuning knobs (Migra phase-2 search bounds).
    top_k: int = 3
    max_from_hot: int = 2
    max_from_dst: int = 1

    # Safety net.
    panic_guard: bool = True
    panic_temp_c: float = 95.0

    seed: int = 0
    trace_enabled: bool = True

    def __post_init__(self) -> None:
        # Imported here: the policy/workload registries import the OS
        # and streaming stacks, which must not load just to define a
        # config class.
        from repro.policies.registry import policy_registry
        from repro.streaming.registry import resolve_workload
        from repro.thermal.solvers import solver_registry
        policy_registry.resolve(self.policy)
        resolve_workload(self.workload)
        package_registry.resolve(self.package)
        platform_registry.resolve(self.platform)
        solver_registry.resolve(self.solver)
        if self.migration_strategy not in ("replication", "recreation"):
            raise ValueError(
                f"unknown migration strategy {self.migration_strategy!r}")
        # NaN fails every comparison, so test for the valid range: a
        # NaN or infinite phase or period would never end a run, and a
        # NaN noise sigma or panic temperature silently turns the
        # noise or the guard off.
        for name in ("warmup_s", "sensor_noise_c"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got "
                                 f"{value!r}")
        for name in ("measure_s", "quantum_s", "sensor_period_s",
                     "daemon_period_s", "frame_period_s"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got "
                                 f"{value!r}")
        if not -math.inf < self.panic_temp_c < math.inf:
            raise ValueError(f"panic_temp_c must be finite, got "
                             f"{self.panic_temp_c!r}")
        # type(), not isinstance(): a bool is an int.  A float or a
        # string would run under a hash of its own, or fail deep in
        # the run.
        for value in _int_values(self):
            if type(value) is not int:
                name = next(name for name in _INT_FIELDS
                            if getattr(self, name) is value)
                raise ValueError(f"{name} must be an int, got {value!r}")
        # Checked, not coerced, so no hash moves: a bool or a string
        # would hash apart from the equal number.
        threshold = self.threshold_c
        if isinstance(threshold, bool) or \
                not isinstance(threshold, (int, float)) or \
                not 0 < threshold < math.inf:
            raise ValueError(f"threshold_c must be a finite number > 0, "
                             f"got {threshold!r}")
        if self.n_cores < 1:
            raise ValueError("need at least one core")
        # Single-source the load-knob validation: these fields feed the
        # phased model's period/duty, so its own validator is the rule.
        from repro.streaming.spec import LoadModel
        LoadModel(kind="phased", period_s=self.load_period_s,
                  duty=self.load_duty).validate()

    # ------------------------------------------------------------------
    @property
    def package_params(self) -> ThermalPackageParams:
        return package_registry.resolve(self.package)

    @property
    def platform_config(self) -> PlatformConfig:
        return platform_registry.resolve(self.platform)

    @property
    def t_end(self) -> float:
        return self.warmup_s + self.measure_s

    def variant(self, **changes) -> "ExperimentConfig":
        """A copy with some fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # serialization (campaign caching and result manifests)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """All fields as plain JSON-serializable types."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config fields: {unknown}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def config_hash(self) -> str:
        """Stable hex digest identifying this configuration.

        Unlike :func:`hash`, the digest is identical across processes
        and interpreter runs, so it keys the campaign engine's on-disk
        cache and result manifests.  Memoized: the config is frozen, so
        the digest is computed at most once per instance.
        """
        cached = getattr(self, "_config_hash", None)
        if cached is None:
            cached = hashlib.sha256(self.to_json().encode()).hexdigest()[:20]
            object.__setattr__(self, "_config_hash", cached)
        return cached

    def scenario_hash(self) -> str:
        """Digest of the *scenario*: the config with ``solver`` removed.

        Two configurations that differ only in the thermal solver
        describe the same experiment computed two ways, so they share a
        scenario hash while keeping distinct :meth:`config_hash` values
        (the execution caches must never serve one solver's rows for
        another).  Golden baselines key their rows on this digest,
        which is what lets one recorded golden gate every
        solver/backend combination.
        """
        cached = getattr(self, "_scenario_hash", None)
        if cached is None:
            data = self.to_dict()
            del data["solver"]
            encoded = json.dumps(data, sort_keys=True).encode()
            cached = hashlib.sha256(encoded).hexdigest()[:20]
            object.__setattr__(self, "_scenario_hash", cached)
        return cached

    def warmup_key(self) -> Tuple:
        """Identity of the run's policy-off warm-up phase.

        The config minus :data:`POLICY_ONLY_FIELDS`.  Until the policy
        is enabled it does nothing, so runs with equal keys simulate a
        bit-identical warm-up, which the runner simulates once and
        forks (see :func:`repro.experiments.runner.run_batch`).
        ``daemon_period_s``, the ``panic_*`` fields and ``measure_s``
        stay in the key: the OS daemons, the panic guard and deferred
        app arrivals read them during the warm-up.
        """
        return tuple((f.name, getattr(self, f.name)) for f in fields(self)
                     if f.name not in POLICY_ONLY_FIELDS)


#: The int fields, each checked to hold an int at construction.
_INT_FIELDS = tuple(f.name for f in fields(ExperimentConfig)
                    if f.type == "int")
_int_values = operator.attrgetter(*_INT_FIELDS)
