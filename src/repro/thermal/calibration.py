"""Calibration and validation helpers for the thermal model.

These utilities answer the questions the paper's Sec. 4/5 narrative poses
of any thermal substrate: how large is the steady gradient at a given
operating point, how fast does a core heat up, and when does the die
settle after a power step.  They are used by tests, by the Sec. 5.2
narrative experiment, and were used to pick the package constants in
:mod:`repro.thermal.package`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.thermal.integrator import ExactIntegrator
from repro.thermal.rc_network import RCNetwork


@dataclass(frozen=True)
class SteadyStateReport:
    """Equilibrium summary for a constant power vector."""

    temps_c: Dict[str, float]
    hottest: str
    coolest: str
    spread_c: float
    package_c: float

    def __str__(self) -> str:  # pragma: no cover - formatting only
        rows = [f"  {name:16s} {t:7.2f} C" for name, t in self.temps_c.items()]
        rows.append(f"  spread {self.spread_c:.2f} C "
                    f"({self.hottest} vs {self.coolest})")
        return "\n".join(rows)


def steady_state_report(network: RCNetwork, block_power: np.ndarray,
                        only: Sequence[str] = ()) -> SteadyStateReport:
    """Equilibrium temperatures; ``only`` restricts the spread computation
    (e.g. to the core blocks) while all block temperatures are reported."""
    temps = network.steady_state(block_power)
    names = network.node_names[:-1]
    temps_c = {name: float(temps[network.index(name)]) for name in names}
    focus = list(only) if only else names
    hottest = max(focus, key=lambda n: temps_c[n])
    coolest = min(focus, key=lambda n: temps_c[n])
    return SteadyStateReport(
        temps_c=temps_c,
        hottest=hottest,
        coolest=coolest,
        spread_c=temps_c[hottest] - temps_c[coolest],
        package_c=float(temps[-1]),
    )


def thermal_time_constant(network: RCNetwork, block_name: str,
                          power_w: float = 0.5) -> float:
    """63 % rise time of one block under a power step on that block.

    Integrates the network from ambient with ``power_w`` applied to the
    named block only and returns the time at which the block covers 63 %
    of its total excursion — the effective RC constant including lateral
    and package coupling.
    """
    power = np.zeros(network.n_blocks)
    power[network.index(block_name)] = power_w
    integ = ExactIntegrator(network)
    target = network.steady_state(power)[network.index(block_name)]
    start = network.ambient_c
    threshold = start + 0.632 * (target - start)

    temps = network.initial_temperatures()
    dt = 0.01
    t = 0.0
    idx = network.index(block_name)
    # Cap the search generously; a pathological network would never cross.
    while t < 1000.0:
        temps = integ.advance(temps, power, dt)
        t += dt
        if temps[idx] >= threshold:
            return t
    raise RuntimeError(f"block {block_name!r} never reached 63% of its step")


def settling_time(network: RCNetwork, block_power: np.ndarray,
                  tolerance_c: float = 0.5) -> float:
    """Time from ambient until every node is within ``tolerance_c`` of
    its equilibrium — the length of the paper's initial execution phase
    (12.5 s in Sec. 5.2) for the mobile package."""
    integ = ExactIntegrator(network)
    target = network.steady_state(block_power)
    temps = network.initial_temperatures()
    dt = 0.05
    t = 0.0
    while t < 1000.0:
        temps = integ.advance(temps, block_power, dt)
        t += dt
        if float(np.max(np.abs(temps - target))) <= tolerance_c:
            return t
    raise RuntimeError("network failed to settle within 1000 s")


def heating_rate_c_per_s(network: RCNetwork, block_name: str,
                         power_w: float) -> float:
    """Initial dT/dt of a block under a power step (cold die)."""
    power = np.zeros(network.n_blocks)
    power[network.index(block_name)] = power_w
    deriv = network.derivative(network.initial_temperatures(), power)
    return float(deriv[network.index(block_name)])

