"""Declarative workload IR.

A :class:`WorkloadSpec` describes *what* runs — one or more
:class:`AppSpec`\\ s, each a task graph with a static mapping, a frame
period, optional start/stop times and a :class:`LoadModel` — without
saying *how* to wire it into a live system.  One generic instantiator,
:func:`instantiate_workload`, turns any spec into running
:class:`~repro.streaming.application.StreamingApplication`\\ s, so the
experiment runner, the campaign engine and the metrics layer never see
workload-specific construction code.

Compared to the opaque ``factory(sim, mpos, config, trace) -> app``
registrations the registry started with, the IR makes the scenario axis
data: a spec can be inspected (task count, total FSE load, app arrival
times), validated before any simulation starts, and composed — the
``multi-sdr:<K>`` family is literally K prefixed copies of the ``sdr``
app spec in one :class:`WorkloadSpec`.

Load models
-----------
Every app carries a :class:`LoadModel` describing how its computational
demand evolves over time:

* ``steady`` — the constant-rate characterization of Table 2 (the
  default; adds **no** simulation events, so steady single-app specs
  reproduce the legacy factories byte-for-byte);
* ``phased`` — an on/off duty cycle: full load for ``duty * period_s``,
  then ``low_scale`` of it for the rest of each period;
* ``bursty`` — at each period boundary a deterministic per-app stream
  draws full load or ``burst_scale`` of it with ``burst_prob``;
* ``trace`` — piecewise-constant replay of ``points`` (offset-from-
  start, scale) pairs.

Scaling is applied by a :class:`LoadModulator`, which rewrites each
task's per-frame cycle budget and pokes the DVFS governor — exactly
what a re-characterized task set does to the real platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.mpos.system import MPOS
from repro.sim.kernel import Simulator
from repro.sim.rng import SimRandom
from repro.sim.trace import TraceRecorder
from repro.streaming.application import StreamingApplication
from repro.streaming.graph import StreamGraph

#: LoadModel kinds understood by the modulator.
LOAD_KINDS = ("steady", "phased", "bursty", "trace")


@dataclass(frozen=True)
class LoadModel:
    """How one application's load evolves over time.

    ``scale`` values multiply every task's nominal cycles-per-frame;
    they must stay strictly positive (a task with a zero cycle budget
    is not schedulable — model an idle phase with a small
    ``low_scale`` instead).
    """

    kind: str = "steady"
    #: Phase/burst interval (``phased`` and ``bursty``).
    period_s: float = 5.0
    #: Fraction of each period spent at full load (``phased``).
    duty: float = 0.5
    #: Load multiplier during the off phase (``phased``).
    low_scale: float = 0.1
    #: Load multiplier during a burst (``bursty``).
    burst_scale: float = 1.5
    #: Probability a period is a burst (``bursty``).
    burst_prob: float = 0.3
    #: ``(offset_from_start_s, scale)`` steps for ``trace`` replay.
    points: Tuple[Tuple[float, float], ...] = ()

    def validate(self) -> None:
        if self.kind not in LOAD_KINDS:
            raise ValueError(f"unknown load model kind {self.kind!r}; "
                             f"expected one of {', '.join(LOAD_KINDS)}")
        if self.kind in ("phased", "bursty") and \
                not 0 < self.period_s < math.inf:
            raise ValueError("load model period_s must be finite and "
                             "positive")
        if self.kind == "phased":
            if not 0.0 < self.duty <= 1.0:
                raise ValueError("phased duty must lie in (0, 1]")
            if self.low_scale <= 0:
                raise ValueError("phased low_scale must be positive "
                                 "(tasks need a nonzero cycle budget)")
        if self.kind == "bursty":
            if self.burst_scale <= 0:
                raise ValueError("bursty burst_scale must be positive")
            if not 0.0 <= self.burst_prob <= 1.0:
                raise ValueError("bursty burst_prob must lie in [0, 1]")
        if self.kind == "trace":
            if not self.points:
                raise ValueError("trace load model needs points")
            last = -1.0
            for offset, scale in self.points:
                if offset < 0 or offset <= last:
                    raise ValueError("trace points must have strictly "
                                     "increasing non-negative offsets")
                if scale <= 0:
                    raise ValueError("trace scales must be positive")
                last = offset


#: The constant-rate default (shared; LoadModel is frozen).
STEADY = LoadModel()


@dataclass(frozen=True)
class AppSpec:
    """One application of a workload: topology, placement and phasing.

    ``None`` for a tuning field means "inherit the experiment
    configuration's value" (frame period, queue capacity, sink delay,
    jitter override) — the sdr spec built from a default config is
    therefore indistinguishable from the legacy factory call.
    """

    name: str
    graph: StreamGraph
    #: Task name -> core index (the app's static mapping).
    mapping: Mapping[str, int]
    frame_period_s: Optional[float] = None
    queue_capacity: Optional[int] = None
    sink_start_delay_frames: Optional[int] = None
    #: Simulated arrival time; tasks are mapped and traffic starts here.
    start_s: float = 0.0
    #: Simulated departure time (sources/sinks stop); ``None`` = never.
    stop_s: Optional[float] = None
    load: LoadModel = STEADY
    #: Per-frame workload jitter override (``None`` = inherit config).
    load_jitter: Optional[float] = None

    def validate(self) -> None:
        if not self.name:
            raise ValueError("app spec needs a name")
        self.graph.validate()
        missing = [s.name for s in self.graph.task_specs
                   if s.name not in self.mapping]
        if missing:
            raise ValueError(
                f"app {self.name!r}: mapping misses tasks {missing}")
        if self.start_s < 0:
            raise ValueError(f"app {self.name!r}: start_s must be >= 0")
        if self.stop_s is not None and self.stop_s <= self.start_s:
            raise ValueError(
                f"app {self.name!r}: stop_s must exceed start_s")
        if self.frame_period_s is not None and self.frame_period_s <= 0:
            raise ValueError(
                f"app {self.name!r}: frame_period_s must be positive")
        self.load.validate()

    def max_core(self) -> int:
        """Highest core index the static mapping references."""
        return max(self.mapping.values(), default=0)


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete workload: one or more concurrent applications."""

    name: str
    apps: Tuple[AppSpec, ...]

    def validate(self) -> None:
        if not self.apps:
            raise ValueError(f"workload {self.name!r} has no apps")
        names = [app.name for app in self.apps]
        if len(set(names)) != len(names):
            raise ValueError(
                f"workload {self.name!r} has duplicate app names")
        tasks: Dict[str, str] = {}
        for app in self.apps:
            app.validate()
            for spec in app.graph.task_specs:
                if spec.name in tasks:
                    raise ValueError(
                        f"workload {self.name!r}: task {spec.name!r} "
                        f"appears in both {tasks[spec.name]!r} and "
                        f"{app.name!r} (task names are global to the "
                        f"MPOS; prefix them per app)")
                tasks[spec.name] = app.name

    def min_cores(self) -> int:
        """Cores the combined static mappings require."""
        return 1 + max(app.max_core() for app in self.apps)


def single_app(name: str, graph: StreamGraph,
               mapping: Mapping[str, int], **kwargs) -> WorkloadSpec:
    """Convenience: a one-app workload spec (the common case)."""
    return WorkloadSpec(name=name,
                        apps=(AppSpec(name=name, graph=graph,
                                      mapping=mapping, **kwargs),))


# ----------------------------------------------------------------------
# instantiation
# ----------------------------------------------------------------------
def instantiate_workload(spec: WorkloadSpec, sim: Simulator, mpos: MPOS,
                         config, trace: Optional[TraceRecorder],
                         ) -> List[StreamingApplication]:
    """Wire a validated spec into live applications on the MPOS.

    The generic path behind every registered workload: defaults come
    from ``config`` where the spec leaves fields ``None``, per-app
    jitter streams are seeded from ``config.seed``, and non-steady
    load models get a :class:`LoadModulator` driving their task cycle
    budgets.  For a single steady app starting at t=0 the wiring is
    byte-identical to the legacy opaque factories.
    """
    spec.validate()
    if spec.min_cores() > mpos.chip.n_tiles:
        raise ValueError(
            f"workload {spec.name!r} maps tasks onto core "
            f"{spec.min_cores() - 1} but the chip has only "
            f"{mpos.chip.n_tiles} tiles; raise n_cores")
    apps: List[StreamingApplication] = []
    for index, app_spec in enumerate(spec.apps):
        jitter = app_spec.load_jitter
        if jitter is None:
            jitter = config.load_jitter or None
        app = StreamingApplication.build(
            sim, mpos, app_spec.graph, dict(app_spec.mapping),
            app_spec.frame_period_s or config.frame_period_s,
            app_spec.queue_capacity if app_spec.queue_capacity is not None
            else config.queue_capacity,
            app_spec.sink_start_delay_frames
            if app_spec.sink_start_delay_frames is not None
            else config.sink_start_delay_frames,
            trace, load_jitter=jitter, jitter_seed=config.seed,
            start_s=app_spec.start_s, stop_s=app_spec.stop_s,
            name=app_spec.name)
        if app_spec.load.kind != "steady":
            LoadModulator(sim, mpos, app, app_spec.load,
                          rng=SimRandom(config.seed).fork(1000 + index),
                          trace=trace)
        apps.append(app)
    return apps


class LoadModulator:
    """Drives an application's task cycle budgets per its load model.

    At each transition the modulator multiplies every task's *nominal*
    cycles-per-frame by the model's current scale and re-evaluates the
    DVFS operating point of the cores those tasks sit on — the same
    reaction a real governor has to a re-characterized task set.
    Transitions are anchored at the app's start time, so a phased app
    arriving at t=20 s begins its first full-load phase there.
    """

    def __init__(self, sim: Simulator, mpos: MPOS,
                 app: StreamingApplication, model: LoadModel,
                 rng: Optional[SimRandom] = None,
                 trace: Optional[TraceRecorder] = None):
        model.validate()
        self.sim = sim
        self.mpos = mpos
        self.app = app
        self.model = model
        self.rng = rng or SimRandom(0)
        self.trace = trace
        self.scale = 1.0
        self._base = {name: task.cycles_per_frame
                      for name, task in app.tasks.items()}
        start = app.start_s
        if model.kind == "phased":
            # duty == 1 means no off phase at all: degenerate steady.
            if model.duty < 1.0:
                sim.schedule_at(start + model.duty * model.period_s,
                                self._phase_off)
        elif model.kind == "bursty":
            sim.schedule_at(start + model.period_s, self._burst_tick)
        elif model.kind == "trace":
            for offset, scale in model.points:
                sim.schedule_at(start + offset, self._apply, scale)

    # ------------------------------------------------------------------
    def _phase_off(self) -> None:
        if self.app.stopped:    # app departed: stop re-arming ticks
            return
        self._apply(self.model.low_scale)
        self.sim.schedule((1.0 - self.model.duty) * self.model.period_s,
                          self._phase_on)

    def _phase_on(self) -> None:
        if self.app.stopped:
            return
        self._apply(1.0)
        self.sim.schedule(self.model.duty * self.model.period_s,
                          self._phase_off)

    def _burst_tick(self) -> None:
        if self.app.stopped:
            return
        burst = self.rng.uniform(0.0, 1.0) < self.model.burst_prob
        self._apply(self.model.burst_scale if burst else 1.0)
        self.sim.schedule(self.model.period_s, self._burst_tick)

    def _apply(self, scale: float) -> None:
        if self.app.stopped:
            return
        self.scale = float(scale)
        cores = set()
        for name, task in self.app.tasks.items():
            task.cycles_per_frame = self._base[name] * self.scale
            if task.core_index is not None:
                cores.add(task.core_index)
        for core in sorted(cores):
            self.mpos.governor.update_core(core)
        if self.trace is not None:
            self.trace.record(f"load.{self.app.name}.scale",
                              self.sim.now, self.scale)
