"""Benchmark: regenerate Fig. 2 (migration cost vs task size).

Expected shape: both curves linear in task size; task-recreation with a
large constant offset (fork/exec + file-system state) and a visibly
steeper slope (program reload through the slow file system on top of
the context transfer); task-replication pays the context copy only.
"""

from conftest import emit

from repro.experiments.figures import figure2


def test_fig2_migration_cost():
    fig = figure2()
    emit(fig.to_text())

    repl = fig.series["task-replication"]
    recr = fig.series["task-recreation"]
    # Recreation strictly above replication at every size.
    assert all(r > p for r, p in zip(recr, repl))
    # Offset at the smallest size: fork/exec dominates.
    assert recr[0] - repl[0] > 3e6
    # Slope comparison over the sweep (cycles per KB).
    span = fig.x[-1] - fig.x[0]
    slope_repl = (repl[-1] - repl[0]) / span
    slope_recr = (recr[-1] - recr[0]) / span
    assert slope_recr > 5 * slope_repl
    # Both monotone increasing.
    assert repl == sorted(repl)
    assert recr == sorted(recr)
