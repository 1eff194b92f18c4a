"""The simulator's core loops, each run once and checked.

Raw kernel event dispatch, the thermal step and a full-system
simulated second.  Their cost is measured by ``perfbench/run.py``
(the ``sweep-serial`` workload times the same loops inside whole
runs, layer by layer with ``--trace 1``).
"""

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.platform.presets import build_floorplan
from repro.sim.kernel import Simulator
from repro.thermal.integrator import ExactIntegrator
from repro.thermal.package import MOBILE_EMBEDDED
from repro.thermal.rc_network import build_network


def test_kernel_event_throughput():
    """Dispatch 10k self-rescheduling events."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()
        return count[0]

    assert run() == 10_000


def test_thermal_step_cost():
    """One exact 10 ms thermal step of the 3-tile network."""
    fp = build_floorplan(3)
    net = build_network(fp, list(fp.names), MOBILE_EMBEDDED)
    integ = ExactIntegrator(net)
    temps = net.initial_temperatures()
    power = np.full(net.n_blocks, 0.1)
    integ.advance(temps, power, 0.01)   # warm the propagator cache

    result = integ.advance(temps, power, 0.01)
    assert result.shape == temps.shape


def test_full_system_simulated_second():
    """One simulated second of the full SDR + policy stack."""

    def run():
        sut = build_system(ExperimentConfig(
            policy="migra", warmup_s=1.0, measure_s=1.0))
        sut.sim.run_until(1.0)
        return sum(s.slices_run for s in sut.mpos.schedulers)

    # The executed quantum slices measure the simulated work; kernel
    # event counts depend on the slice engine (coalescing collapses
    # most slice events into windows).
    slices = run()
    assert slices > 1000
