"""Equivalent RC thermal network construction.

Given a floorplan and package parameters, builds the linear system

    C * dT/dt = -K * T + P + b

where ``T`` stacks one temperature per block plus one package node,
``K`` is the conductance Laplacian (lateral block-block legs, vertical
block-package legs, package-ambient leg), ``P`` is the power vector
(zero on the package node) and ``b = g_ambient * T_ambient`` enters on
the package node only.  This is the block-level variant of the HotSpot
methodology the paper relies on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.platform.floorplan import Floorplan
from repro.thermal.package import ThermalPackageParams

PACKAGE_NODE = "__package__"

#: COO-style conductance triplets: (rows, cols, values).
ConductanceTriplets = Tuple[List[int], List[int], List[float]]


class RCNetwork:
    """The assembled thermal network.

    Attributes
    ----------
    node_names:
        Block names in order, followed by the package node.
    capacitance:
        Per-node heat capacities, J/K.
    conductance:
        The symmetric positive-definite matrix ``K`` (W/K) including the
        ambient leg on the package diagonal.
    ambient_vector:
        Per-node conductance to ambient (non-zero only on the package).
    ambient_c:
        Ambient temperature.
    """

    def __init__(self, node_names: Sequence[str], capacitance: np.ndarray,
                 conductance: np.ndarray, ambient_vector: np.ndarray,
                 ambient_c: float,
                 conductance_triplets: Optional[ConductanceTriplets] = None):
        self.node_names = list(node_names)
        self.capacitance = np.asarray(capacitance, dtype=float)
        self.conductance = np.asarray(conductance, dtype=float)
        self.ambient_vector = np.asarray(ambient_vector, dtype=float)
        self.ambient_c = float(ambient_c)
        self._triplets = conductance_triplets
        self._sparse = None
        n = len(self.node_names)
        if self.capacitance.shape != (n,):
            raise ValueError("capacitance vector shape mismatch")
        if self.conductance.shape != (n, n):
            raise ValueError("conductance matrix shape mismatch")
        if self.ambient_vector.shape != (n,):
            raise ValueError("ambient vector shape mismatch")
        self._index: Dict[str, int] = {
            name: i for i, name in enumerate(self.node_names)}
        # The ambient half of ``P + b``, evaluated once per network.
        self._ambient_forcing = self.ambient_vector * self.ambient_c

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    @property
    def n_blocks(self) -> int:
        """Number of die blocks (excludes the package node)."""
        return self.n_nodes - 1

    def index(self, name: str) -> int:
        return self._index[name]

    def full_power_vector(self, block_power: np.ndarray) -> np.ndarray:
        """Extend a per-block power vector with the zero package entry."""
        if len(block_power) != self.n_blocks:
            raise ValueError(
                f"expected {self.n_blocks} block powers, got {len(block_power)}")
        return np.concatenate([np.asarray(block_power, dtype=float), [0.0]])

    def forcing_vector(self, block_power: np.ndarray) -> np.ndarray:
        """``P + b`` — the constant forcing term of the ODE.

        Filled in place: elementwise the same sums as
        ``full_power_vector(block_power) + ambient_vector * ambient_c``,
        without the concatenation or the per-call ambient product.
        """
        n_blocks = len(self.node_names) - 1
        if len(block_power) != n_blocks:
            raise ValueError(
                f"expected {n_blocks} block powers, got {len(block_power)}")
        rhs = np.empty(n_blocks + 1)
        rhs[:-1] = block_power
        rhs[-1] = 0.0
        rhs += self._ambient_forcing
        return rhs

    def forcing_matrix(self, block_power: np.ndarray) -> np.ndarray:
        """Column-stacked forcing terms for ``(n_blocks, K)`` powers.

        Column ``k`` is bitwise identical to
        ``forcing_vector(block_power[:, k])`` — the batched thermal
        step (:meth:`~repro.thermal.solvers.ThermalSolver.advance_batch`)
        relies on that to stay byte-compatible with per-config stepping.
        """
        block_power = np.asarray(block_power, dtype=float)
        if block_power.ndim != 2 or block_power.shape[0] != self.n_blocks:
            raise ValueError(
                f"expected ({self.n_blocks}, K) block powers, got "
                f"{block_power.shape}")
        full = np.concatenate(
            [block_power, np.zeros((1, block_power.shape[1]))])
        return full + (self.ambient_vector * self.ambient_c)[:, None]

    def steady_state(self, block_power: np.ndarray) -> np.ndarray:
        """Equilibrium temperatures for constant power: ``K T = P + b``."""
        return np.linalg.solve(self.conductance,
                               self.forcing_vector(block_power))

    def initial_temperatures(self) -> np.ndarray:
        """A cold start: every node at ambient."""
        return np.full(self.n_nodes, self.ambient_c, dtype=float)

    def derivative(self, temps: np.ndarray,
                   block_power: np.ndarray) -> np.ndarray:
        """``dT/dt`` at the given state (used by the Euler integrator)."""
        rhs = self.forcing_vector(block_power) - self.conductance @ temps
        return rhs / self.capacitance

    def min_time_constant(self) -> float:
        """Smallest node time constant — the Euler stability bound."""
        return float(np.min(self.capacitance / np.diag(self.conductance)))

    # ------------------------------------------------------------------
    # sparse views (the scalable-solver fast path)
    # ------------------------------------------------------------------
    def conductance_sparse(self):
        """``K`` as a cached ``scipy.sparse.csr_matrix``.

        Built from the O(nnz) assembly triplets when the network came
        out of :func:`build_network`; a directly constructed network
        falls back to converting the dense matrix.  The dense
        ``conductance`` stays the source of truth for the dense solver
        (summation order there is untouched); the sparse view may
        differ from it at float round-off level only.
        """
        if self._sparse is None:
            import scipy.sparse as sp
            n = self.n_nodes
            if self._triplets is not None:
                rows, cols, vals = self._triplets
                self._sparse = sp.coo_matrix(
                    (vals, (rows, cols)), shape=(n, n)).tocsr()
            else:
                self._sparse = sp.csr_matrix(self.conductance)
        return self._sparse

    def symmetrized_operator(self):
        """``(c_sqrt, M)`` with ``M = C^-1/2 K C^-1/2`` (sparse CSR).

        The state matrix ``A = -C^-1 K`` is similar to ``-M`` via
        ``C^1/2``, and ``M`` is symmetric positive definite, so solvers
        can work with a real non-negative spectrum: Chebyshev expansion
        of the propagator (sparse-exact) and orthogonal modal
        decomposition (reduced) both rely on this form.
        """
        import scipy.sparse as sp
        c_sqrt = np.sqrt(self.capacitance)
        scale = sp.diags(1.0 / c_sqrt)
        m = sp.csr_matrix(scale @ self.conductance_sparse() @ scale)
        return c_sqrt, m

    def digest(self) -> bytes:
        """Stable fingerprint of the network numerics (cache keying)."""
        import hashlib
        h = hashlib.sha1()
        h.update(self.capacitance.tobytes())
        h.update(self.conductance.tobytes())
        h.update(self.ambient_vector.tobytes())
        h.update(np.float64(self.ambient_c).tobytes())
        return h.digest()


def build_network(floorplan: Floorplan, block_names: Sequence[str],
                  params: ThermalPackageParams,
                  ambient_c: float = 35.0) -> RCNetwork:
    """Construct the RC network for ``block_names`` on ``floorplan``.

    ``block_names`` fixes the node ordering (it must match the chip's
    block order so power vectors line up).  Every named block must exist
    in the floorplan; floorplan blocks not listed are ignored.

    The conductance Laplacian is assembled twice in one pass: densely
    (unchanged summation order — the dense-exact solver stays
    bit-for-bit reproducible) and as O(nnz) COO triplets that feed the
    sparse solvers without ever scanning an N x N matrix.
    """
    names: List[str] = list(block_names)
    for name in names:
        if name not in floorplan:
            raise ValueError(f"block {name!r} not present in floorplan")
    n = len(names) + 1  # + package node
    pkg = n - 1
    index = {name: i for i, name in enumerate(names)}

    capacitance = np.zeros(n)
    conductance = np.zeros((n, n))
    ambient_vector = np.zeros(n)
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []

    def leg(i: int, j: int, g: float) -> None:
        """One conduction leg between nodes ``i`` and ``j``."""
        conductance[i, i] += g
        conductance[j, j] += g
        conductance[i, j] -= g
        conductance[j, i] -= g
        rows.extend((i, j, i, j))
        cols.extend((i, j, j, i))
        vals.extend((g, g, -g, -g))

    # Vertical legs: block <-> package, plus block capacitances.
    for name in names:
        i = index[name]
        area = floorplan.area_mm2(name)
        capacitance[i] = params.block_capacitance(area)
        leg(i, pkg, 1.0 / params.block_vertical_resistance(area))

    # Lateral legs between abutting blocks.
    for a, b, edge in floorplan.adjacencies():
        if a not in index or b not in index:
            continue
        dist = floorplan.rect(a).center_distance_mm(floorplan.rect(b))
        leg(index[a], index[b], params.k_lateral_w_per_k * edge / dist)

    # Package node: capacity and leg to ambient.
    capacitance[pkg] = params.package_capacitance
    g_amb = 1.0 / params.r_package_k_per_w
    conductance[pkg, pkg] += g_amb
    rows.append(pkg)
    cols.append(pkg)
    vals.append(g_amb)
    ambient_vector[pkg] = g_amb

    return RCNetwork(names + [PACKAGE_NODE], capacitance, conductance,
                     ambient_vector, ambient_c,
                     conductance_triplets=(rows, cols, vals))
