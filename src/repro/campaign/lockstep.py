"""Lockstep multi-simulator driving for the ``vectorized`` backend.

Configs that share a thermal network, solver and timing grid differ only
in their *inputs* to the thermal model (policy, workload, threshold,
seed), not in its structure.  Their simulators therefore hit sensor
ticks at exactly the same instants — every :class:`PeriodicProcess`
accumulates ``k * period`` from ``t = 0`` with identical float
arithmetic.  This module exploits that: it advances K simulators side by
side, and at each common sensor epoch replaces K independent
``advance(...)`` calls with one
:meth:`~repro.thermal.solvers.ThermalSolver.advance_batch` mat-mat.

Byte-identical by construction:

* each simulator's own events still execute in their exact serial
  order — the driver only *pauses* a simulator when the next event is
  its sensor tick;
* the driver drains interval power at the tick's timestamp (it sets the
  clock exactly as :meth:`Simulator.step` would) and hands column ``k``
  of the batched result to the tick via
  :meth:`ThermalSubsystem.inject_advance`;
* ``advance_batch`` guarantees bitwise column equality with ``advance``.

Divergence is graceful: a simulator whose tick vanishes (sensors
stopped) or whose network digest disagrees, and every simulator of a
solver with no ``advance_batch``, simply falls back to normal
per-event stepping; the batch shrinks, correctness is untouched.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.campaign.builder import SystemUnderTest
from repro.experiments.config import ExperimentConfig
from repro.metrics.report import RunReport


def run_lockstep_group(configs: Sequence[ExperimentConfig]) -> List[RunReport]:
    """Run one network-compatible group of configs in lockstep.

    Every config must share platform, package, core count, solver,
    sensor period and phase timing (the ``vectorized`` backend's group
    key guarantees this).  Returns reports in input order.

    Each distinct warm-up runs once (see
    :func:`repro.experiments.runner.run_batch`): phase 1 advances one
    trunk per warm-up key in lockstep, phase 2 advances every config's
    fork of its trunk in lockstep.
    """
    from repro.experiments.runner import (
        build_system,
        check_traced,
        finalize_run,
        member_systems,
        warmup_groups,
    )

    for config in configs:
        check_traced(config)
    groups = warmup_groups(configs)
    warmup = configs[0].warmup_s
    t_end = configs[0].t_end

    # Phase 1: initial execution, policy off (temperatures stabilize).
    trunks = [build_system(group[0].config) for group in groups]
    _run_lockstep(trunks, warmup)
    suts: List[SystemUnderTest] = [None] * len(configs)  # type: ignore
    cold = []
    for group in groups:
        # Popped, so a checkpointed trunk is freed once it is forked.
        for index, sut, warmed in member_systems(group, trunks.pop(0)):
            suts[index] = sut
            if not warmed:
                cold.append(sut)
    _run_lockstep(cold, warmup)
    for sut in suts:
        sut.policy.enable(sut.sim.now)

    # Phase 2: policy active; figures measure this window.
    starts = [float(sut.chip.cumulative_energy_j().sum()) for sut in suts]
    _run_lockstep(suts, t_end)

    reports = []
    for sut, start in zip(suts, starts):
        energy_j = float(sut.chip.cumulative_energy_j().sum() - start)
        reports.append(finalize_run(sut, energy_j).report)
    return reports


def _run_lockstep(suts: Sequence[SystemUnderTest], t_stop: float) -> None:
    """Advance every simulator to ``t_stop``, in lockstep where possible.

    The backend's group key guarantees network compatibility; the
    digest check is a cheap belt-and-braces guard so a drifting config
    degrades to serial stepping instead of silently mixing networks in
    one mat-mat.  A solver without ``advance_batch`` (the registry
    accepts any object with ``advance`` and ``steady_state``) steps
    every simulator serially.
    """
    if not suts:
        return
    first = suts[0].sensors
    digest = first.network.digest()
    batches = hasattr(first.integrator, "advance_batch")
    batchable, serial = [], []
    for sut in suts:
        compatible = (batches
                      and sut.sensors.network.digest() == digest
                      and sut.sensors.solver_name == first.solver_name
                      and sut.sensors.period_s == first.period_s)
        (batchable if compatible else serial).append(sut)
    _advance_lockstep(batchable, t_stop)
    for sut in serial:
        sut.sim.run_until(t_stop)


def _advance_lockstep(suts: Sequence[SystemUnderTest],
                      t_stop: float) -> None:
    """Advance every simulator to ``t_stop``, batching sensor epochs."""
    while True:
        # Live sensor ticks within the window, one per simulator at most.
        ticks = []
        for sut in suts:
            event = sut.sensors.next_tick_event()
            if (event is not None and not event.cancelled
                    and event.time <= t_stop):
                ticks.append((event, sut))
        if not ticks:
            break
        t_min = min(event.time for event, _ in ticks)
        epoch = [(event, sut) for event, sut in ticks if event.time == t_min]
        ready = []
        for event, sut in epoch:
            if _step_to_event(sut.sim, event):
                ready.append(sut)
            # else: the tick was cancelled while stepping (sensors
            # stopped); the mop-up run_until below finishes that sim.
        _fire_epoch(ready, t_min)
    # Mop up events past the last tick and pin every clock to t_stop.
    for sut in suts:
        sut.sim.run_until(t_stop)


def _step_to_event(sim, event) -> bool:
    """Execute events until ``event`` is at the queue head.

    Returns False if ``event`` can no longer fire (cancelled or gone).
    """
    while True:
        if event.cancelled:
            return False
        head = sim.peek_event()
        if head is event:
            return True
        if head is None or head.time > event.time:
            return False
        sim.step()


def _fire_epoch(suts: List[SystemUnderTest], t_min: float) -> None:
    """Fire one common sensor tick across ``suts`` with a batched advance.

    Each simulator's head event is its sensor tick at ``t_min``.  A
    batch of one just fires the tick normally.
    """
    if not suts:
        return
    if len(suts) == 1:
        suts[0].sim.step()
        return

    solver = suts[0].sensors.integrator
    period_s = suts[0].sensors.period_s
    n_nodes = suts[0].sensors.network.n_nodes
    n_blocks = suts[0].sensors.network.n_blocks
    temps = np.empty((n_nodes, len(suts)))
    power = np.empty((n_blocks, len(suts)))
    for k, sut in enumerate(suts):
        # The tick is the next event; firing it would set the clock to
        # t_min before draining, so draining at t_min here is exact.
        sut.sim.now = t_min
        temps[:, k] = sut.sensors.temps
        power[:, k] = sut.chip.drain_average_power()
    advanced = solver.advance_batch(temps, power, period_s)
    for k, sut in enumerate(suts):
        sut.sensors.inject_advance(advanced[:, k].copy())
        sut.sim.step()

