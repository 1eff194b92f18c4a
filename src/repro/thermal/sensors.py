"""Thermal sensor subsystem.

Mirrors the paper's monitoring loop (Sec. 4): every 10 ms the emulation
framework computes fresh block temperatures from the accumulated energy
figures and publishes per-processor temperatures through shared memory
for the MPOS.  Here, a :class:`ThermalSubsystem` drains interval-average
power from the chip, advances the RC network exactly over the interval,
feeds the temperatures back into the chip (for leakage) and notifies
registered listeners (the thermal policies).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.platform.chip import Chip
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.rng import SimRandom
from repro.sim.trace import TraceRecorder
from repro.thermal.rc_network import RCNetwork
from repro.thermal.solvers import DEFAULT_SOLVER, make_solver

#: The sensor update period stated in Sec. 4 of the paper.
DEFAULT_SENSOR_PERIOD_S = 0.010

#: Event-category tag on every sensor tick.  A tick only reads chip
#: power/thermal state (invariant between tile activity transitions)
#: and acts on the schedulers exclusively through their unwind hooks
#: (gate/ungate, DVFS re-planning) or timing-neutral flags, so the
#: slice-coalescing horizon may look straight through this class (see
#: ``repro.mpos.scheduler.HORIZON_TRANSPARENT_CATEGORIES``).
SENSOR_EVENT_CATEGORY = "sensor"

TemperatureListener = Callable[[float, np.ndarray], None]


class ThermalSubsystem:
    """Periodic thermal integration + temperature publication.

    Parameters
    ----------
    sim, chip, network:
        Kernel, power source and thermal model.  The network's block
        order must match ``chip.blocks``.
    period_s:
        Sensor update interval (10 ms in the paper).
    trace:
        Optional recorder; core temperatures are logged as
        ``temp.core<i>``, the package as ``temp.package``.
    noise_sigma_c:
        Optional Gaussian sensor noise (applied to *published* values
        only, never to the integrator state), with a deterministic RNG.
    solver:
        Thermal solver name, resolved through
        :data:`~repro.thermal.solvers.solver_registry` (default
        ``dense-exact``, the paper's exact dense integrator; pick
        ``sparse-exact`` or ``reduced`` for large floorplans).
    """

    def __init__(self, sim: Simulator, chip: Chip, network: RCNetwork,
                 period_s: float = DEFAULT_SENSOR_PERIOD_S,
                 trace: Optional[TraceRecorder] = None,
                 noise_sigma_c: float = 0.0,
                 rng: Optional[SimRandom] = None,
                 solver: str = DEFAULT_SOLVER):
        if network.n_blocks != chip.n_blocks:
            raise ValueError(
                f"network has {network.n_blocks} blocks, chip has "
                f"{chip.n_blocks}")
        self.sim = sim
        self.chip = chip
        self.network = network
        self.period_s = float(period_s)
        self.trace = trace
        self.noise_sigma_c = float(noise_sigma_c)
        self.rng = rng or SimRandom(0)
        self.solver_name = str(solver)
        self.integrator = make_solver(self.solver_name, network)
        self.temps = network.initial_temperatures()
        self._listeners: List[TemperatureListener] = []
        self._core_indices = np.array(chip.core_block_indices(),
                                      dtype=np.intp)
        self._process = PeriodicProcess(sim, self.period_s, self._tick,
                                        category=SENSOR_EVENT_CATEGORY)
        self.updates = 0
        self._injected: Optional[np.ndarray] = None
        # Trace keys are invariant; building the f-strings on every tick
        # showed up in campaign profiles.
        self._trace_keys = [f"temp.core{i}"
                            for i in range(len(self._core_indices))]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def add_listener(self, listener: TemperatureListener) -> None:
        """Register ``listener(time, core_temps)`` for every update."""
        self._listeners.append(listener)

    def replace_listener(self, old: TemperatureListener,
                         new: TemperatureListener) -> None:
        """Put ``new`` in ``old``'s place in the notification order."""
        self._listeners[self._listeners.index(old)] = new

    def core_temperatures(self) -> np.ndarray:
        """Latest per-core temperatures (tile order), with sensor noise."""
        temps = self.temps[self._core_indices]     # a fresh array
        if self.noise_sigma_c > 0:
            noise = np.array([self.rng.gauss(0.0, self.noise_sigma_c)
                              for _ in temps])
            temps = temps + noise
        return temps

    def block_temperatures(self) -> np.ndarray:
        """Latest die-block temperatures (no package node, no noise)."""
        return self.temps[:-1].copy()

    def package_temperature(self) -> float:
        return float(self.temps[-1])

    def preheat_to_steady_state(self, iterations: int = 8) -> None:
        """Jump the die to equilibrium under the current power state.

        Leakage depends on temperature, so the equilibrium is a fixed
        point: iterate steady-state solve -> leakage update until the
        temperatures stop moving.  Useful to skip the cold-start
        transient in unit tests; the experiments instead run the
        paper's 12.5 s warm-up phase.
        """
        self.chip.drain_average_power()   # flush stale energy
        for _ in range(iterations):
            power = self.chip.current_power_w()
            temps = self.integrator.steady_state(power)
            if np.allclose(temps, self.temps, atol=1e-6):
                break
            self.temps = temps
            self.chip.update_temperatures(self.temps[:-1])
        self.chip.drain_average_power()

    def stop(self) -> None:
        self._process.stop()

    # ------------------------------------------------------------------
    # lockstep driving (the ``vectorized`` campaign backend)
    # ------------------------------------------------------------------
    def next_tick_event(self):
        """The queued kernel event for the next sensor tick (or ``None``).

        A lockstep driver steps the simulator until this event is at the
        queue head, drains the interval power itself, batches the thermal
        advance across many simulators, then hands the result back via
        :meth:`inject_advance` before firing the tick.
        """
        return self._process.next_event

    def inject_advance(self, temps: np.ndarray) -> None:
        """Provide externally computed temperatures for the next tick.

        The caller has already drained :meth:`Chip.drain_average_power`
        at the tick's timestamp and advanced the integrator (typically
        through ``advance_batch`` over many configs); the next
        :meth:`_tick` consumes ``temps`` instead of advancing itself.
        Everything downstream of the advance — leakage feedback, traces,
        listener notification — runs unchanged, so injected and normal
        ticks are byte-identical when ``temps`` is.
        """
        if self._injected is not None:
            raise RuntimeError("an injected advance is already pending")
        self._injected = temps

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _tick(self, _process: PeriodicProcess) -> None:
        injected = self._injected
        if injected is not None:
            self._injected = None
            self.temps = injected
        else:
            avg_power = self.chip.drain_average_power()
            self.temps = self.integrator.advance(self.temps, avg_power,
                                                 self.period_s)
        self.chip.update_temperatures(self.temps[:-1])
        self.updates += 1
        now = self.sim.now
        # Traces carry the ground truth (the thermal library knows the
        # real cell temperatures); listeners — the policies — get the
        # noisy sensor readings.
        true_temps = self.temps[self._core_indices]
        if self.trace is not None:
            record = self.trace.record
            for key, t in zip(self._trace_keys, true_temps.tolist()):
                record(key, now, t)
            record("temp.package", now, self.package_temperature())
        core_temps = (self.core_temperatures() if self.noise_sigma_c > 0
                      else true_temps)
        for listener in self._listeners:
            listener(now, core_temps)
