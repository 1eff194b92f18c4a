"""Workload registry: names -> declarative workload specs.

Maps the names accepted by ``ExperimentConfig.workload`` to workloads
in the IR of :mod:`repro.streaming.spec`, instantiated by the one
generic :func:`~repro.streaming.spec.instantiate_workload`.  Two kinds
of entry:

* **spec factories**: ``factory(config) -> WorkloadSpec`` registered
  with :func:`register_workload_spec` (a plain :class:`WorkloadSpec`
  entry works too);
* **parametric families**: prefixes like ``multi-sdr`` resolved for
  any ``multi-sdr:<K>`` name by :func:`register_workload_family`
  parsers (see :mod:`repro.streaming.families`).

An application the IR cannot express (a custom harness, a hand-wired
source) is built by overriding
:meth:`~repro.campaign.builder.SystemBuilder.build_workload` instead;
such a system runs outside campaigns.

The paper's SDR benchmark is pre-registered as ``"sdr"`` — as a spec,
with a parity test guaranteeing it reproduces the original factory
byte-for-byte::

    from repro.streaming.registry import register_workload_spec
    from repro.streaming.spec import single_app

    @register_workload_spec("video")
    def _video(config):
        return single_app("video", build_video_graph(), mapping,
                          frame_period_s=0.02)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.mpos.system import MPOS
from repro.registry import Registry
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder
from repro.streaming.application import StreamingApplication
from repro.streaming.sdr_app import build_sdr_graph, sdr_mapping
from repro.streaming.spec import WorkloadSpec, instantiate_workload, \
    single_app

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.config import ExperimentConfig

#: Name -> workload entry (a spec factory or a WorkloadSpec).
workload_registry = Registry("workload")

#: Family prefix -> ``parser(args) -> factory(config) -> WorkloadSpec``.
workload_family_registry = Registry("workload family",
                                    plural="workload families")


def register_workload_spec(name: str):
    """Decorator registering ``factory(config) -> WorkloadSpec``."""
    return workload_registry.register(name)


def register_workload_family(prefix: str, pattern: str):
    """Decorator registering a parametric workload family.

    The parser is called with everything after the colon of a
    ``<prefix>:<args>`` workload name and must return a spec factory
    ``factory(config) -> WorkloadSpec`` (or raise ``ValueError`` on
    malformed args).  ``pattern`` is the human-readable name grammar
    (e.g. ``"multi-sdr:<K>"``) shown by unknown-name errors.
    """
    def decorate(parser):
        parser.pattern = pattern
        workload_family_registry.register(prefix, parser)
        return parser
    return decorate


def family_patterns() -> tuple:
    """The registered families' name grammars, sorted."""
    return tuple(sorted(
        getattr(parser, "pattern", f"{prefix}:<...>")
        for prefix, parser in workload_family_registry.items()))


def resolve_workload(name: str):
    """Look up a workload name, expanding parametric families.

    Exact registrations win; otherwise a ``<prefix>:<args>`` name is
    handed to the matching family parser.  Unknown names raise a
    ``ValueError`` listing the registered workloads *and* the family
    patterns, so a typo'd ``ExperimentConfig.workload`` or CLI
    ``--workload`` never surfaces as a bare ``KeyError``.
    """
    entry = workload_registry.get(name)
    if entry is not None:
        return entry
    prefix, sep, args = name.partition(":")
    if sep and prefix in workload_family_registry:
        return workload_family_registry[prefix](args)
    known = ", ".join(workload_registry.names()) or "<none>"
    patterns = ", ".join(family_patterns()) or "<none>"
    raise ValueError(
        f"unknown workload {name!r}; registered workloads: {known}; "
        f"parametric families: {patterns}")


def make_workloads(sim: Simulator, mpos: MPOS,
                   config: "ExperimentConfig",
                   trace: Optional[TraceRecorder],
                   ) -> List[StreamingApplication]:
    """Instantiate the workload named in the configuration.

    Returns the workload's applications in spec order.
    """
    entry = resolve_workload(config.workload)
    spec = entry if isinstance(entry, WorkloadSpec) else entry(config)
    return instantiate_workload(spec, sim, mpos, config, trace)


@register_workload_spec("sdr")
def _sdr(config: "ExperimentConfig") -> WorkloadSpec:
    """The paper's SDR benchmark (Sec. 5.1) as a declarative spec."""
    return single_app(
        "sdr", build_sdr_graph(config.n_bands),
        sdr_mapping(config.n_bands, config.n_cores))
