"""Outside-in layer timing: ``perf_counter_ns`` wrappers around public calls.

:class:`Tracer` replaces a fixed set of functions and methods of the
``repro`` package with timing wrappers while it is installed, and puts
the originals back when it is removed.  Nothing in ``src/`` knows about
it.  Each wrapper opens a span named ``<layer>.<operation>``; a span's
*self time* is its duration minus the time of the spans it encloses, so
the self times of one process add up to the time spent inside spans
without double counting.

Rules that keep the overhead small and the numbers exact:

* A call made while a span of the *same layer* is open is not a span of
  its own: its time stays with the enclosing span.  The per-column
  ``advance`` calls inside ``advance_batch`` and the ``step`` calls of
  a ``run_until`` therefore cost one attribute check, not a timer.
* Hot, tiny calls are counted after the fact rather than timed: trace
  records, events and slices are read off the finished run.
* Spans are aggregated in memory per name (self nanoseconds, calls,
  units) and only written out when the run ends.
* Forked processes inherit the wrappers.  Each child entry point (the
  fabric worker loop and the pool functions of ``repro.campaign.backends``)
  starts a child's aggregates from nothing and dumps them to a JSON file
  in the tracer's dump directory when it returns; the parent folds those
  files in with :meth:`Tracer.absorb_child_dumps`.  Spans recorded in a
  worker are therefore never lost when a backend fans work out.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: Filename prefix of the per-child span dumps in the dump directory.
CHILD_DUMP_PREFIX = "spans-"


def _layer(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Tracer:
    """Aggregating span recorder with installable wrappers."""

    def __init__(self, dump_dir: Path):
        #: Where forked children write their span aggregates.
        self.dump_dir = Path(dump_dir)
        self._originals: List[Tuple[object, str, object]] = []
        #: The process that installed the wrappers; others are children.
        self._pid = os.getpid()
        self._in_child_entry = False
        self._dumps = 0
        #: Open spans, innermost last: ``[layer, child_ns]``.
        self.stack: List[list] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Per-span quantity (rows, tasks, batch columns...).
        self.units: Dict[str, int] = defaultdict(int)
        #: Calls whose quantity was non-zero (e.g. leases that got work).
        self.nonzero: Dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        """Drop every aggregate and the open-span stack.

        Clears in place: the wrappers hold these containers directly.
        """
        for container in (self.stack, self.self_ns, self.calls,
                          self.units, self.nonzero):
            container.clear()

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable,
             units: Optional[Callable] = None) -> Callable:
        """A timing wrapper of ``fn`` recording span ``name``.

        ``units(args, result)`` optionally returns a quantity added to
        the span's unit counter.
        """
        layer = _layer(name)
        stack, self_ns, calls = self.stack, self.self_ns, self.calls
        units_of, nonzero = self.units, self.nonzero

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                self_ns[name] += elapsed - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if units is not None:
                amount = units(args, result)
                units_of[name] += amount
                if amount:
                    nonzero[name] += 1
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame = [_layer(name), 0]
        self.stack.append(frame)
        start = perf_counter_ns()
        try:
            yield
        finally:
            elapsed = perf_counter_ns() - start
            self.stack.pop()
            self.self_ns[name] += elapsed - frame[1]
            self.calls[name] += 1
            if self.stack:
                self.stack[-1][1] += elapsed

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target (see :func:`_targets`)."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        self._pid = os.getpid()
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        for owner, attr, name, units in _targets():
            original = owner.__dict__[attr]
            wrapped = (self._child_entry(original) if name is None
                       else self.wrap(name, original, units))
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every original (safe to call when not installed)."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _child_entry(self, entry: Callable) -> Callable:
        """A child's entry point: fresh aggregates, dumped on return.

        In the installing process, and when nested in another child
        entry, the call passes straight through.
        """
        tracer = self

        @functools.wraps(entry)
        def wrapper(*args, **kwargs):
            if os.getpid() == tracer._pid or tracer._in_child_entry:
                return entry(*args, **kwargs)
            # A forked child inherits the parent's open spans and
            # aggregates; its own spans start from nothing.  Pool
            # children run several tasks, each dumped on its own.
            tracer.reset()
            tracer._in_child_entry = True
            try:
                return entry(*args, **kwargs)
            finally:
                tracer._in_child_entry = False
                tracer._dumps += 1
                path = tracer.dump_dir / (f"{CHILD_DUMP_PREFIX}"
                                          f"{os.getpid()}-{tracer._dumps}.json")
                path.write_text(json.dumps(tracer.snapshot()))

        return wrapper

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """``{span: {self_ns, calls, units, nonzero}}`` (plain ints)."""
        return {name: {"self_ns": self.self_ns[name],
                       "calls": self.calls[name],
                       "units": self.units.get(name, 0),
                       "nonzero": self.nonzero.get(name, 0)}
                for name in self.calls}

    def absorb_child_dumps(self) -> int:
        """Fold the children's span dumps in and delete them.

        Returns the number of dumps read.
        """
        paths = sorted(self.dump_dir.glob(f"{CHILD_DUMP_PREFIX}*.json"))
        for path in paths:
            for name, agg in json.loads(path.read_text()).items():
                self.self_ns[name] += agg["self_ns"]
                self.calls[name] += agg["calls"]
                self.units[name] += agg["units"]
                self.nonzero[name] += agg["nonzero"]
            path.unlink()
        return len(paths)


# ----------------------------------------------------------------------
# what is wrapped
# ----------------------------------------------------------------------
def _returned(args, result) -> int:
    return int(result)


def _returned_len(args, result) -> int:
    return len(result)


def _batch_width(args, result) -> int:
    # advance_batch(self, temps (n_nodes, K), power, dt)
    return int(args[1].shape[1])


def _trace_records(args, result) -> int:
    # finalize_run(sut, energy_j): count the run's trace samples here,
    # once per run, instead of timing every TraceRecorder.record call.
    trace = args[0].trace
    return sum(len(trace.series(key)) for key in trace.keys())


def _subclasses_defining(base: type, attr: str) -> List[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _targets():
    """``(owner, attribute, span name, units)`` of every wrapped call.

    A ``None`` span name marks a child process's entry point, which
    gets the dump-on-return wrapper instead of a span.
    """
    import repro.campaign.backends as backends
    import repro.campaign.fabric as fabric
    import repro.campaign.lockstep as lockstep
    import repro.experiments.runner as runner
    import repro.thermal.sensors as sensors
    from repro.campaign.backends import SerialBackend, VectorizedBackend
    from repro.campaign.builder import SystemBuilder
    from repro.campaign.engine import CampaignRunner
    from repro.campaign.fabric import CampaignQueue
    from repro.campaign.store import ResultStore
    from repro.experiments.config import ExperimentConfig
    from repro.platform.chip import Chip
    from repro.policies.base import ThermalPolicy
    from repro.sim.kernel import Simulator
    from repro.thermal.solvers import solver_registry

    targets = [
        (Simulator, "run_until", "sim.event_path", None),
        (Simulator, "step", "sim.event_path", None),
        (Chip, "update_temperatures", "platform.update_temperatures", None),
        (Chip, "drain_average_power", "platform.drain_average_power", None),
        (sensors, "make_solver", "thermal.solver_build", None),
        (runner, "finalize_run", "metrics.finalize", _trace_records),
        (SystemBuilder, "build", "campaign.builder.build", None),
        (CampaignRunner, "run", "campaign.engine.run", None),
        (SerialBackend, "execute", "campaign.backends.execute", None),
        (VectorizedBackend, "execute", "campaign.backends.execute", None),
        (lockstep, "run_lockstep_group", "campaign.lockstep.driver", None),
        (ExperimentConfig, "config_hash", "experiments.config.hash", None),
        (ResultStore, "put_many", "campaign.store.put_many", _returned),
        (ResultStore, "get", "campaign.store.get", None),
        (ResultStore, "merge_from", "campaign.store.merge", _returned),
        (CampaignQueue, "lease", "campaign.fabric.lease", _returned_len),
        (CampaignQueue, "complete_many", "campaign.fabric.complete_many",
         _returned),
        (fabric, "run_worker", None, None),
        (backends, "_execute_one", None, None),
        (backends, "_execute_group", None, None),
        (backends, "_execute_lockstep_group", None, None),
    ]
    for cls in _subclasses_defining(ThermalPolicy, "on_temperature_update"):
        targets.append((cls, "on_temperature_update", "policies.update",
                        None))
    solver_classes = {factory for factory in solver_registry.values()
                      if isinstance(factory, type)}
    for cls in sorted(solver_classes, key=lambda c: c.__name__):
        for attr, name, units in (
                ("advance", "thermal.advance", None),
                ("advance_batch", "thermal.advance_batch", _batch_width)):
            if attr in cls.__dict__:
                targets.append((cls, attr, name, units))
    return targets
