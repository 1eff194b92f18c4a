"""Streaming application framework.

Builds frame-processing pipelines (dataflow graphs of tasks connected by
bounded message queues) and runs them on the MPOS: a frame source pushes
at the frame rate, a playback sink pops at the frame rate, and every pop
from an empty final queue is a deadline miss — exactly the QoS metric of
the paper ("if the queue of the last stage gets empty a deadline miss
occurs", Sec. 5.2).

Workloads are declared in the IR of :mod:`repro.streaming.spec`
(:class:`WorkloadSpec` of :class:`AppSpec` of :class:`LoadModel`) and
named in :data:`~repro.streaming.registry.workload_registry` — the
namespace behind ``ExperimentConfig.workload``.  The paper's SDR
benchmark registers as ``sdr``; parametric families
(``pipeline:<depth>x<width>``, ``multi-sdr:<K>``) and load-model
variants (``phased``, ``bursty``, ``trace``, ``sdr-arrival``) live in
:mod:`repro.streaming.families`.  See ``docs/scenario-cookbook.md`` §2.
"""

from repro.streaming.frames import Frame, FrameSource, PlaybackSink
from repro.streaming.graph import SINK, SOURCE, EdgeSpec, StreamGraph, TaskSpec
from repro.streaming.qos import QoSTracker
from repro.streaming.application import StreamingApplication
from repro.streaming.spec import (
    AppSpec,
    LoadModel,
    LoadModulator,
    WorkloadSpec,
    instantiate_workload,
    single_app,
)
from repro.streaming.registry import (
    make_workloads,
    register_workload_family,
    register_workload_spec,
    resolve_workload,
    workload_family_registry,
    workload_registry,
)
from repro.streaming.sdr_app import (
    SDR_TABLE2_LOADS,
    TABLE2_MAPPING,
    build_sdr_application,
    build_sdr_graph,
    sdr_mapping,
)
from repro.streaming import families  # registers the built-in families

__all__ = [
    "AppSpec",
    "EdgeSpec",
    "Frame",
    "FrameSource",
    "LoadModel",
    "LoadModulator",
    "PlaybackSink",
    "QoSTracker",
    "SDR_TABLE2_LOADS",
    "SINK",
    "SOURCE",
    "StreamGraph",
    "StreamingApplication",
    "TABLE2_MAPPING",
    "TaskSpec",
    "WorkloadSpec",
    "build_sdr_application",
    "build_sdr_graph",
    "families",
    "instantiate_workload",
    "make_workloads",
    "register_workload_family",
    "register_workload_spec",
    "resolve_workload",
    "sdr_mapping",
    "single_app",
    "workload_family_registry",
    "workload_registry",
]
