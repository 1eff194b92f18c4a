"""Compact thermal model (HotSpot-style equivalent RC network).

The paper runs the HotSpot-based thermal library of [13] on a host PC and
writes per-block temperatures back to the emulated MPSoC every 10 ms.  We
reproduce the same structure: a block-level RC network derived from the
floorplan, a package node to ambient, exact integration over each sensor
interval, and a sensor subsystem that publishes core temperatures to the
OS/policy layer at the 10 ms period stated in Sec. 4.

Integration is pluggable: a *thermal solver* is any object with
``advance(temps, block_power, dt)`` and ``steady_state(block_power)``,
resolved by name through
:data:`~repro.thermal.solvers.solver_registry`.  Four are built in —
``dense-exact`` (the default; the paper's exact dense-``expm``
integrator), ``euler`` (stability-bounded forward Euler), and two
scalable fast paths for large floorplans: ``sparse-exact`` (sparse
Chebyshev propagation, no dense exponential ever formed) and
``reduced`` (modal truncation with a build-time-checked error bound).
Registering a new solver follows the scenario-registry pattern used
everywhere else; no runner or sensor code changes::

    from repro.thermal.solvers import register_solver

    @register_solver("my-solver")
    def _build(network):              # factory: RCNetwork -> solver
        return MySolver(network)

    ExperimentConfig(solver="my-solver")          # config field
    ThermalSubsystem(sim, chip, network, solver="my-solver")

Registry entry points:
:data:`~repro.thermal.solvers.solver_registry` (``@register_solver``,
shown above — the namespace behind ``ExperimentConfig.solver`` /
``--solver``) and :data:`~repro.thermal.registry.package_registry`
(``register_package`` — :class:`ThermalPackageParams` sets behind
``ExperimentConfig.package``; the paper's packaging registers as
``mobile`` and ``highperf``).  See ``docs/scenario-cookbook.md`` §4
and §6.

One-time per-network artifacts (dense propagators, sparse factors and
operators, modal bases) are shared process-wide through
:mod:`repro.thermal.cache` — a 256-entry LRU, with hit/miss counters
exposed through :func:`~repro.thermal.cache.cache_stats`.
"""

from repro.thermal.package import (
    HIGH_PERFORMANCE,
    MOBILE_EMBEDDED,
    ThermalPackageParams,
)
from repro.thermal.rc_network import RCNetwork, build_network
from repro.thermal.cache import cache_stats, clear_artifact_cache
from repro.thermal.grid import GridThermalModel, render_ascii_map
from repro.thermal.integrator import EulerIntegrator, ExactIntegrator
from repro.thermal.solvers import (
    ReducedOrderIntegrator,
    SparseExactIntegrator,
    ThermalSolver,
    make_solver,
    register_solver,
    solver_registry,
)
from repro.thermal.sensors import ThermalSubsystem
from repro.thermal.calibration import (
    settling_time,
    steady_state_report,
    thermal_time_constant,
)

__all__ = [
    "EulerIntegrator",
    "ExactIntegrator",
    "GridThermalModel",
    "HIGH_PERFORMANCE",
    "MOBILE_EMBEDDED",
    "RCNetwork",
    "ReducedOrderIntegrator",
    "SparseExactIntegrator",
    "ThermalPackageParams",
    "ThermalSolver",
    "ThermalSubsystem",
    "build_network",
    "cache_stats",
    "clear_artifact_cache",
    "make_solver",
    "register_solver",
    "render_ascii_map",
    "settling_time",
    "solver_registry",
    "steady_state_report",
    "thermal_time_constant",
]
