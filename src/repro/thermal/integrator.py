"""Dense integrators for the thermal ODE.

Two implementations of the :class:`~repro.thermal.solvers.ThermalSolver`
interface (``advance(temps, block_power, dt)`` +
``steady_state(block_power)``):

* :class:`ExactIntegrator` (registered as ``dense-exact``) — because
  the network is linear and the power is piecewise constant over a
  sensor interval, the interval can be integrated *exactly*:
  ``T(t+h) = T_ss + expm(-C^-1 K h) (T(t) - T_ss)`` with ``T_ss`` the
  steady state under the interval-average power.  The matrix
  exponential is precomputed per step size, so a step costs one
  pre-factored LAPACK ``getrs`` solve and one mat-vec.
* :class:`EulerIntegrator` (registered as ``euler``) — plain forward
  Euler with automatic sub-stepping below the stability bound; exists
  to cross-validate the exact integrators in tests and for users who
  modify the network time-dependently.

The scalable solvers (``sparse-exact``, ``reduced``) live in
:mod:`repro.thermal.solvers` next to the solver registry.  One-time
per-network artifacts (here: the dense propagators) are shared through
the process-wide :data:`repro.thermal.cache.shared_artifacts` cache, so
campaign runs over the same platform/package compute each matrix
exponential once per worker.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from scipy.linalg import expm, lu_factor
from scipy.linalg.lapack import dgetrs

from repro.thermal.cache import shared_artifacts
from repro.thermal.rc_network import RCNetwork


class ExactIntegrator:
    """Exact piecewise-constant-input integrator for the linear network."""

    #: Registry name (see :data:`repro.thermal.solvers.solver_registry`).
    name = "dense-exact"

    def __init__(self, network: RCNetwork):
        self.network = network
        self._lu, self._piv = lu_factor(network.conductance)
        self._propagators: Dict[float, np.ndarray] = {}
        # -C^-1 K, the state matrix of dT/dt = A T + C^-1 (P + b).
        self._state_matrix = -(network.conductance
                               / network.capacitance[:, None])
        self._digest = network.digest()

    def _propagator(self, dt: float) -> np.ndarray:
        """``expm(A * dt)`` cached per distinct step size.

        Backed by the process-wide artifact cache keyed on the state
        matrix, so integrators over identical networks (e.g. the runs
        of one campaign sweep) compute each matrix exponential once.
        """
        key = round(float(dt), 12)
        prop = self._propagators.get(key)
        if prop is None:
            prop = shared_artifacts.get_or_build(
                (self.name, self._digest, key),
                lambda: expm(self._state_matrix * float(dt)))
            self._propagators[key] = prop
        return prop

    def steady_state(self, block_power: np.ndarray) -> np.ndarray:
        """Equilibrium for constant power: LAPACK ``getrs`` on the LU."""
        # lu_solve's two checks, without its batch-dispatch overhead.
        rhs = self.network.forcing_vector(block_power)
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        temps, info = dgetrs(self._lu, self._piv, rhs, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of getrs")
        return temps

    def advance(self, temps: np.ndarray, block_power: np.ndarray,
                dt: float) -> np.ndarray:
        """Exact temperatures after ``dt`` seconds of constant power."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        t_ss = self.steady_state(block_power)
        return t_ss + self._propagator(dt) @ (temps - t_ss)

    def advance_batch(self, temps: np.ndarray, block_power: np.ndarray,
                      dt: float) -> np.ndarray:
        """Batched advance over ``(N, K)`` stacked states.

        Column-by-column: a dense gemm over the stacked columns is not
        bitwise column-stable across batch widths, and this solver's
        contract is byte-for-byte equality with the paper's integrator.
        """
        from repro.thermal.solvers import batched_by_columns
        return batched_by_columns(self, temps, block_power, dt)


class EulerIntegrator:
    """Forward Euler with stability-bounded sub-steps."""

    #: Registry name (see :data:`repro.thermal.solvers.solver_registry`).
    name = "euler"

    def __init__(self, network: RCNetwork, safety: float = 0.2):
        if not 0 < safety <= 1:
            raise ValueError("safety factor must lie in (0, 1]")
        self.network = network
        self.max_substep = safety * network.min_time_constant()

    def steady_state(self, block_power: np.ndarray) -> np.ndarray:
        """Equilibrium for constant power (direct dense solve)."""
        return self.network.steady_state(block_power)

    def advance(self, temps: np.ndarray, block_power: np.ndarray,
                dt: float) -> np.ndarray:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        n_sub = max(1, int(np.ceil(dt / self.max_substep)))
        h = dt / n_sub
        t = np.asarray(temps, dtype=float).copy()
        for _ in range(n_sub):
            t += h * self.network.derivative(t, block_power)
        return t

    def advance_batch(self, temps: np.ndarray, block_power: np.ndarray,
                      dt: float) -> np.ndarray:
        """Batched advance over ``(N, K)`` stacked states (column loop)."""
        from repro.thermal.solvers import batched_by_columns
        return batched_by_columns(self, temps, block_power, dt)


def integrator_agreement(network: RCNetwork, block_power: np.ndarray,
                         duration: float, dt: float) -> Tuple[float, float]:
    """Max per-node disagreement between the two dense integrators.

    Returns ``(max_abs_error_c, final_mean_temp_c)``; used by validation
    tests and by :mod:`repro.thermal.calibration` reports.
    """
    exact = ExactIntegrator(network)
    euler = EulerIntegrator(network, safety=0.05)
    t_exact = network.initial_temperatures()
    t_euler = t_exact.copy()
    steps = max(1, int(round(duration / dt)))
    worst = 0.0
    for _ in range(steps):
        t_exact = exact.advance(t_exact, block_power, dt)
        t_euler = euler.advance(t_euler, block_power, dt)
        worst = max(worst, float(np.max(np.abs(t_exact - t_euler))))
    return worst, float(np.mean(t_exact))
