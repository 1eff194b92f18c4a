"""Grid-scaling benchmark: dense vs sparse vs reduced thermal solvers.

Sweeps square grid floorplans (4x4 up to 16x16 tiles) and, per solver,
measures the campaign cold-start cost that dominates floorplan-topology
sweeps: build the solver from a fresh artifact cache, then advance one
simulated sensor window (60 x 10 ms steps).  The dense path pays an
O(N^3) matrix exponential per network; the sparse Chebyshev path never
forms it, which is what turns large-grid campaigns from minutes into
seconds.

Prints the per-size, per-solver timing/error table and asserts the
sparse solver's acceptance criterion on the largest grid (16 x 16,
i.e. >= 8 x 8): ``sparse-exact`` matches ``dense-exact`` within 1e-8 C
while running at least 5x faster end-to-end.
"""

from __future__ import annotations

import time

import numpy as np

from repro.platform.presets import build_grid_floorplan, grid_shape
from repro.thermal.cache import cache_stats, clear_artifact_cache
from repro.thermal.package import MOBILE_EMBEDDED
from repro.thermal.rc_network import build_network
from repro.thermal.solvers import make_solver

from conftest import emit

#: Square tile counts: 4x4, 8x8, 16x16.
GRID_TILES = (16, 64, 256)

#: Solvers compared (euler is a different accuracy class; the parity
#: tests cover it).
SOLVERS = ("dense-exact", "sparse-exact", "reduced")

#: One sensor window: 60 steps of the paper's 10 ms period.
STEPS = 60
DT = 0.01

#: The acceptance thresholds on the largest (>= 8x8) grid.
MIN_SPEEDUP = 5.0
MAX_ERROR_C = 1e-8


def _power_pattern(n_blocks: int, step: int) -> np.ndarray:
    return 0.25 * (1.0 + np.sin(step / 13.0 + np.arange(n_blocks)))


def _measure(name: str, network) -> dict:
    """Cold-start build + one sensor window for one solver."""
    clear_artifact_cache()
    t0 = time.perf_counter()
    solver = make_solver(name, network)
    build_s = time.perf_counter() - t0

    temps = network.initial_temperatures()
    trajectory = []
    t0 = time.perf_counter()
    for step in range(STEPS):
        temps = solver.advance(temps,
                               _power_pattern(network.n_blocks, step), DT)
        trajectory.append(temps.copy())
    step_s = time.perf_counter() - t0
    return {"solver": name, "build_s": build_s, "steps_s": step_s,
            "total_s": build_s + step_s,
            "trajectory": np.asarray(trajectory)}


def _warm_code_paths() -> None:
    """Trigger scipy's lazy module loads on a toy network, so the
    measurements below time the solvers rather than the first-ever
    import of ``scipy.sparse.linalg`` and friends."""
    fp = build_grid_floorplan(2)
    network = build_network(fp, list(fp.names), MOBILE_EMBEDDED)
    for name in SOLVERS:
        _measure(name, network)


def test_grid_scaling_dense_vs_sparse_vs_reduced():
    _warm_code_paths()
    rows = []
    by_size = {}
    for n_tiles in GRID_TILES:
        n_rows, n_cols = grid_shape(n_tiles)
        fp = build_grid_floorplan(n_tiles)
        network = build_network(fp, list(fp.names), MOBILE_EMBEDDED)
        results = {name: _measure(name, network) for name in SOLVERS}
        reference = results["dense-exact"]["trajectory"]
        for name in SOLVERS:
            r = results[name]
            r["max_err_c"] = float(np.max(np.abs(
                r.pop("trajectory") - reference)))
            r.update(n_tiles=n_tiles, n_nodes=network.n_nodes,
                     grid=f"{n_rows}x{n_cols}",
                     speedup_vs_dense=(results["dense-exact"]["total_s"]
                                       / max(r["total_s"], 1e-12)))
            rows.append(r)
        by_size[n_tiles] = results
    clear_artifact_cache()

    lines = [f"grid-scaling solver benchmark ({STEPS} steps of "
             f"{1000 * DT:.0f} ms, cold artifact cache)",
             f"{'grid':>8}{'nodes':>7}{'solver':>14}{'build':>10}"
             f"{'steps':>10}{'total':>10}{'vs dense':>10}"
             f"{'max err C':>12}"]
    for r in rows:
        lines.append(
            f"{r['grid']:>8}{r['n_nodes']:>7d}{r['solver']:>14}"
            f"{1000 * r['build_s']:>8.1f}ms{1000 * r['steps_s']:>8.1f}ms"
            f"{1000 * r['total_s']:>8.1f}ms{r['speedup_vs_dense']:>9.1f}x"
            f"{r['max_err_c']:>12.2e}")
    emit("\n".join(lines))

    # Acceptance: on the largest grid (16x16 >= 8x8) the sparse path is
    # exact to 1e-8 and at least 5x faster end-to-end than dense.
    largest = by_size[max(GRID_TILES)]
    sparse, dense = largest["sparse-exact"], largest["dense-exact"]
    assert sparse["max_err_c"] <= MAX_ERROR_C, \
        f"sparse-exact deviates {sparse['max_err_c']:.2e} C"
    speedup = dense["total_s"] / sparse["total_s"]
    assert speedup >= MIN_SPEEDUP, \
        (f"sparse-exact only {speedup:.1f}x faster than dense-exact "
         f"on the largest grid (need >= {MIN_SPEEDUP}x)")
    # The reduced solver must stay within its documented (here: zero
    # truncation, round-off only) bound as well.
    assert largest["reduced"]["max_err_c"] <= 1e-6


def test_warm_cache_absorbs_repeat_builds():
    """Second build of the same (network, solver) pair is ~free, and
    the cache counters prove the artifacts were served from cache."""
    fp = build_grid_floorplan(16)
    network = build_network(fp, list(fp.names), MOBILE_EMBEDDED)
    clear_artifact_cache()
    t0 = time.perf_counter()
    solver = make_solver("sparse-exact", network)
    solver.advance(network.initial_temperatures(),
                   np.full(network.n_blocks, 0.2), DT)
    cold = time.perf_counter() - t0
    before = cache_stats()

    t0 = time.perf_counter()
    solver = make_solver("sparse-exact", network)
    solver.advance(network.initial_temperatures(),
                   np.full(network.n_blocks, 0.2), DT)
    warm = time.perf_counter() - t0
    after = cache_stats()

    emit(f"solver artifact cache reuse: cold {1000 * cold:.2f}ms, "
         f"warm {1000 * warm:.2f}ms\n{after.to_text()}")
    assert after.hits >= before.hits + 3   # splu, operator, coefficients
    assert after.misses == before.misses
    clear_artifact_cache()
