"""Benchmark: reproduce Fig. 1 (the motivating two-core example).

Expected: tasks A (50 %) + B (40 %) on core 1, C (40 %) on core 2 is
energy-balanced (no remapping lowers the DVFS power), yet core 1 runs
visibly hotter; periodically migrating task B between the cores
equalizes the time-averaged load at 65 %/65 % and flattens the
temperatures.
"""

from conftest import emit

from repro.experiments.figure1 import figure1


def test_fig1_two_core_example(paper_protocol):
    result = figure1(base=paper_protocol)
    emit(result.to_text())

    # Energy-balanced: DVFS picked the lowest covering points.
    assert result.freqs_before_mhz[0] > result.freqs_before_mhz[1]
    # ...but thermally unbalanced by several degrees.
    assert result.spread_unbalanced_c > 5.0
    # Periodic migration flattens the gradient dramatically.
    assert result.spread_balanced_c < 0.4 * result.spread_unbalanced_c
    # And the task being exchanged is B — exactly the paper's figure.
    assert result.migrated_task_names == ("B",)
