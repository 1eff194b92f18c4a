"""Application runtime: instantiate a graph on the MPOS.

Creates the message queues and tasks from a :class:`StreamGraph`,
applies the initial mapping, wires queue wake-ups, and starts the frame
source(s) and playback sink(s).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.mpos.queues import MsgQueue
from repro.mpos.system import MPOS
from repro.mpos.task import StreamTask
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder
from repro.streaming.frames import FrameSource, PlaybackSink
from repro.streaming.graph import SINK, SOURCE, StreamGraph
from repro.streaming.qos import QoSTracker


class StreamingApplication:
    """A running streaming pipeline.

    Use :meth:`build` rather than the constructor.

    Attributes
    ----------
    qos:
        Deadline-miss / latency accounting for the whole pipeline.
    queues:
        Queue objects by edge name (``"lpf->demod"``).
    tasks:
        Task objects by name.
    name:
        Application name (distinguishes the apps of a multi-application
        workload in per-app QoS columns and traces).
    start_s / stop_s:
        Arrival and departure times: tasks are mapped and traffic
        starts at ``start_s`` (0 = at build, the classic behaviour);
        at ``stop_s`` the sources and sinks stop.
    """

    def __init__(self, sim: Simulator, mpos: MPOS, frame_period_s: float,
                 qos: QoSTracker, name: str = "app"):
        self.sim = sim
        self.mpos = mpos
        self.name = name
        self.frame_period_s = float(frame_period_s)
        self.qos = qos
        self.queues: Dict[str, MsgQueue] = {}
        self.tasks: Dict[str, StreamTask] = {}
        self.sources: List[FrameSource] = []
        self.sinks: List[PlaybackSink] = []
        self.start_s = 0.0
        self.stop_s: Optional[float] = None
        self.started = False
        self.stopped = False

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, sim: Simulator, mpos: MPOS, graph: StreamGraph,
              mapping: Dict[str, int], frame_period_s: float,
              queue_capacity: int = 6,
              sink_start_delay_frames: int = 4,
              trace: Optional[TraceRecorder] = None,
              load_jitter: Optional[float] = None,
              jitter_seed: int = 0,
              start_s: float = 0.0,
              stop_s: Optional[float] = None,
              name: str = "app") -> "StreamingApplication":
        """Instantiate ``graph`` on ``mpos`` with the given mapping.

        Parameters
        ----------
        mapping:
            Task name -> core index (the paper's Table 2 placement for
            the SDR benchmark).
        queue_capacity:
            Default frame capacity for edges that do not specify one.
        sink_start_delay_frames:
            Initial playback buffering in frame periods — the pipeline's
            slack against stalls.
        load_jitter:
            When given, overrides every task spec's per-frame workload
            jitter fraction (data-dependent DSP cost).
        jitter_seed:
            Seed for the per-task jitter streams (deterministic runs).
        start_s:
            Application arrival time.  0 (default) maps the tasks and
            starts the traffic immediately — the classic single-app
            path, with no extra kernel events; a later time defers
            mapping and traffic to a scheduled arrival, so the DVFS
            governor only sees the load once the app exists.
        stop_s:
            Application departure time: sources and sinks stop here
            (``None`` = run forever).
        """
        graph.validate()
        missing = [s.name for s in graph.task_specs if s.name not in mapping]
        if missing:
            raise ValueError(f"mapping misses tasks: {missing}")
        if start_s < 0:
            raise ValueError("start_s must be non-negative")
        if stop_s is not None and stop_s <= start_s:
            raise ValueError("stop_s must exceed start_s")

        qos = QoSTracker(trace)
        app = cls(sim, mpos, frame_period_s, qos, name=name)
        app.start_s = float(start_s)
        app.stop_s = stop_s

        for edge in graph.edges:
            capacity = edge.capacity if edge.capacity is not None \
                else queue_capacity
            queue = MsgQueue(edge.name, capacity, edge.frame_bytes)
            mpos.bind_queue(queue)
            app.queues[edge.name] = queue

        for spec in graph.task_specs:
            jitter = spec.jitter_fraction if load_jitter is None \
                else load_jitter
            task = StreamTask(
                spec.name,
                cycles_per_frame=spec.resolve_cycles(frame_period_s),
                frame_period_s=frame_period_s,
                context_bytes=spec.context_bytes,
                code_bytes=spec.code_bytes,
                jitter_fraction=jitter,
                jitter_seed=jitter_seed)
            # Deterministic wiring order: edge declaration order.
            task.inputs = [app.queues[e.name] for e in graph.inputs_of(spec.name)]
            task.outputs = [app.queues[e.name]
                            for e in graph.outputs_of(spec.name)]
            app.tasks[spec.name] = task

        delay = sink_start_delay_frames * frame_period_s
        if start_s == 0.0:
            app._start(graph, mapping, delay)   # inline: no extra events
        else:
            sim.schedule_at(start_s, app._start, graph, mapping, delay)
        if stop_s is not None:
            sim.schedule_at(stop_s, app.stop)
        return app

    def _start(self, graph: StreamGraph, mapping: Dict[str, int],
               sink_delay_s: float) -> None:
        """Arrival: map the tasks, then start sources and sinks.

        A method scheduled with its arguments, not a closure, so a
        system with a pending arrival still pickles (shared warm-ups
        checkpoint systems by pickling them).
        """
        self.started = True
        # Map tasks before traffic starts so DVFS settles first.
        for spec in graph.task_specs:
            self.mpos.map_task(self.tasks[spec.name], mapping[spec.name])
        for edge in graph.source_edges():
            self.sources.append(FrameSource(
                self.sim, self.queues[edge.name], self.frame_period_s,
                self.qos))
        for edge in graph.sink_edges():
            self.sinks.append(PlaybackSink(
                self.sim, self.queues[edge.name], self.frame_period_s,
                self.qos, start_delay_s=sink_delay_s))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def queue_levels(self) -> Dict[str, int]:
        return {name: q.level for name, q in self.queues.items()}

    def min_sink_level(self) -> int:
        """Occupancy of the final-stage queue(s) — the deadline buffer."""
        if not self.sinks:      # app not yet arrived (start_s in future)
            return 0
        return min(s.queue.level for s in self.sinks)

    def task_loads_at_mapped_freq(self) -> Dict[str, float]:
        """Per-task utilization at its core's current frequency — the
        form Table 2 reports.  Tasks of a not-yet-arrived app (deferred
        ``start_s``) report zero load, mirroring
        :meth:`min_sink_level`'s not-yet-arrived behaviour."""
        out = {}
        for name, task in self.tasks.items():
            if task.core_index is None:
                out[name] = 0.0
                continue
            f = self.mpos.chip.tile(task.core_index).frequency_hz
            out[name] = task.load_at(f)
        return out

    def stop(self) -> None:
        """Application departure.  Idempotent.

        Stops the traffic and retires the tasks: their nominal demand
        leaves the DVFS and policy picture immediately (the governor
        re-evaluates the affected cores), while the task objects stay
        mapped so scheduler state is never corrupted mid-quantum —
        in-flight frames drain at the new operating points.
        """
        if self.stopped:
            return
        self.stopped = True
        for s in self.sources:
            s.stop()
        for s in self.sinks:
            s.stop()
        cores = set()
        for task in self.tasks.values():
            task.retire()
            if task.core_index is not None:
                cores.add(task.core_index)
        for core in sorted(cores):
            self.mpos.governor.update_core(core)
