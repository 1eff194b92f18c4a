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

import functools
import hashlib
import json
import math
import operator
from dataclasses import dataclass, fields, replace
from typing import Dict, Tuple

from repro.platform.presets import PlatformConfig
from repro.platform.registry import platform_registry
from repro.thermal.package import ThermalPackageParams
from repro.thermal.registry import package_registry

#: Package name -> parameter set (live registry view).
PACKAGES = package_registry

#: Platform configuration name -> preset (live registry view).
PLATFORMS = platform_registry

#: The threshold sweep of Figs. 7-11 (distance from the mean, Celsius).
THRESHOLD_SWEEP_C = (1.0, 2.0, 3.0, 4.0)

#: The fields only the policy reads.  A disabled policy does nothing,
#: so configs that differ only in these share their policy-off warm-up
#: (see :meth:`ExperimentConfig.warmup_key`).
POLICY_ONLY_FIELDS = ("policy", "threshold_c", "top_k", "max_from_hot",
                      "max_from_dst", "daemon_period_s")


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
    daemon_period_s: float = 0.1              # MiGra's decision cadence
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
        policy_registry, resolve_workload, solver_registry = \
            _late_imports()
        # Types first, from the field table read off the dataclass
        # (below).
        for kind, value in zip(_FIELD_TYPES, _field_values(self)):
            if type(value) is not kind:
                self._coerce_types()
                break
        policy_registry.resolve(self.policy)
        resolve_workload(self.workload)
        package_registry.resolve(self.package)
        platform_registry.resolve(self.platform)
        solver_registry.resolve(self.solver)
        if self.migration_strategy not in ("replication", "recreation"):
            raise ValueError(f"unknown migration_strategy "
                             f"{self.migration_strategy!r}")
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
                     "daemon_period_s", "frame_period_s", "load_period_s"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got "
                                 f"{value!r}")
        if not -math.inf < self.panic_temp_c < math.inf:
            raise ValueError(f"panic_temp_c must be finite, got "
                             f"{self.panic_temp_c!r}")
        if not 0 < self.threshold_c < math.inf:
            raise ValueError(f"threshold_c must be a finite number > 0, "
                             f"got {self.threshold_c!r}")
        # A jitter outside [0, 1) used to fail only when the system was
        # built, which in the fabric is after the task's retries.
        if not 0 <= self.load_jitter < 1:
            raise ValueError(f"load_jitter must lie in [0, 1), got "
                             f"{self.load_jitter!r}")
        # The phased load model's duty (LoadModel.validate applies the
        # same rule to it and to the period above).
        if not 0 < self.load_duty <= 1:
            raise ValueError(f"load_duty must lie in (0, 1], got "
                             f"{self.load_duty!r}")
        # The minima the components enforce, checked here so that a bad
        # config fails before anything is built, run or enqueued.
        for name, least in _INT_MINIMA:
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got "
                                 f"{getattr(self, name)!r}")
        # After the per-field checks, so a bad period is named as such.
        # A window shorter than one sensor period can hold no sample.
        if self.measure_s < self.sensor_period_s:
            raise ValueError(f"measure_s must be at least one "
                             f"sensor_period_s ({self.sensor_period_s!r}), "
                             f"got {self.measure_s!r}")
        # -0.0 == 0.0, so the two spellings are one config as well.
        for name in _ZERO_VALID_FIELDS:
            if getattr(self, name) == 0:
                object.__setattr__(self, name, 0.0)

    def _coerce_types(self) -> None:
        """Coerce ints in float fields; reject any other mistyped field.

        type(), not isinstance(): a bool is an int.  Float fields
        coerce ints, so 3 and 3.0 are one config under one hash.  Any
        other mistyped value (a bool or a string where a number goes,
        a float where an int goes, a truthy string where a bool goes)
        would run under a hash of its own or fail deep in the run.
        """
        for name, kind, value in zip(_FIELD_NAMES, _FIELD_TYPES,
                                     _field_values(self)):
            if type(value) is kind:
                continue
            if kind is float and isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                try:
                    object.__setattr__(self, name, float(value))
                    continue
                except OverflowError:   # an int beyond the float range
                    pass
            raise ValueError(f"{name} must be {_TYPE_NAMES[kind]}, got "
                             f"{value!r}")

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
        """All fields as plain JSON-serializable types.

        A shallow copy is exact: construction leaves every field a
        str, int, float or bool.
        """
        return dict(zip(_FIELD_NAMES, _field_values(self)))

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise."""
        if not _FIELD_SET.issuperset(data):
            unknown = sorted(set(data) - _FIELD_SET)
            raise ValueError(f"unknown config fields: {unknown}")
        return cls(**data)

    def to_json(self) -> str:
        return _canonical_json(self.to_dict())

    def config_hash(self) -> str:
        """Stable hex digest identifying this configuration.

        Unlike :func:`hash`, the digest is identical across processes
        and interpreter runs, so it keys the campaign engine's on-disk
        cache and result manifests.  Memoized: the config is frozen, so
        the digest is computed at most once per instance.
        """
        cached = getattr(self, "_config_hash", None)
        if cached is None:
            cached = self.hash_and_json()[0]
        return cached

    def hash_and_json(self) -> Tuple[str, str]:
        """``(config_hash(), to_json())`` from one encode of the config.

        For callers that store the text under the hash (the fabric's
        queue rows).  Only the hash is memoized: keeping each config's
        ~1 KB text alive costs more memory than re-encoding it costs
        time.
        """
        text = self.to_json()
        cached = getattr(self, "_config_hash", None)
        if cached is None:
            cached = hashlib.sha256(text.encode()).hexdigest()[:20]
            object.__setattr__(self, "_config_hash", cached)
        return cached, text

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
            encoded = _canonical_json(data).encode()
            cached = hashlib.sha256(encoded).hexdigest()[:20]
            object.__setattr__(self, "_scenario_hash", cached)
        return cached

    def warmup_key(self) -> Tuple:
        """Identity of the run's policy-off warm-up phase.

        The config minus :data:`POLICY_ONLY_FIELDS`.  Until the policy
        is enabled it does nothing, so runs with equal keys simulate a
        bit-identical warm-up, which the runner simulates once and
        forks (see :func:`repro.experiments.runner.run_batch`).
        The ``panic_*`` fields and ``measure_s`` stay in the key: the
        panic guard and deferred app arrivals read them during the
        warm-up.  ``daemon_period_s`` does not: only MiGra reads it.
        """
        return tuple((name, getattr(self, name)) for name in _FIELD_NAMES
                     if name not in POLICY_ONLY_FIELDS)


@functools.lru_cache(maxsize=None)
def _late_imports() -> Tuple:
    """What construction validates against, imported on first use.

    The policy and workload registries import the OS and streaming
    stacks, which must not load just to define a config class.  Once
    loaded, an import statement still costs about a microsecond, so
    ``__post_init__`` does not repeat three of them per config.
    """
    from repro.policies.registry import policy_registry
    from repro.streaming.registry import resolve_workload
    from repro.thermal.solvers import solver_registry
    return policy_registry, resolve_workload, solver_registry


#: ``json.dumps(value, sort_keys=True)``, without building an encoder
#: per call.
_canonical_json = json.JSONEncoder(sort_keys=True).encode

#: What each field annotation requires, as an error message names it.
_TYPE_NAMES = {str: "a str", float: "a real number", int: "an int",
               bool: "a bool"}

#: The field table, read off the dataclass: every field's name and
#: type, in order.
_FIELD_NAMES = tuple(f.name for f in fields(ExperimentConfig))
_FIELD_SET = frozenset(_FIELD_NAMES)
_FIELD_TYPES = tuple({kind.__name__: kind for kind in _TYPE_NAMES}[f.type]
                     for f in fields(ExperimentConfig))
_field_values = operator.attrgetter(*_FIELD_NAMES)

#: ``(field, least value)`` of the int fields with a lower bound.
_INT_MINIMA = (("n_cores", 1), ("n_bands", 1), ("queue_capacity", 1),
               ("sink_start_delay_frames", 0), ("top_k", 1),
               ("max_from_hot", 1), ("max_from_dst", 0))

#: The float fields whose valid range includes zero (and so -0.0).
_ZERO_VALID_FIELDS = ("warmup_s", "sensor_noise_c", "load_jitter",
                      "panic_temp_c")
