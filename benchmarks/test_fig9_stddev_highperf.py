"""Benchmark: regenerate Fig. 9 (temperature std dev, high-performance).

Expected shape (paper): "the energy balancing policies achieve very
poor results"; both reactive policies control the deviation, and the
migration policy's advantage over Stop&Go grows with the threshold
("our algorithm starts behaving significantly better than Stop&Go when
the threshold increases").
"""

from conftest import emit

from repro.experiments.figures import POLICY_LABELS, figure9


def test_fig9_stddev_highperf(paper_protocol, runner):
    fig = figure9(base=paper_protocol, runner=runner)
    emit(fig.to_text())

    energy = fig.series[POLICY_LABELS["energy"]]
    stopgo = fig.series[POLICY_LABELS["stopgo"]]
    migra = fig.series[POLICY_LABELS["migra"]]

    # Energy balancing is very poor on the fast package.
    for i in range(len(fig.x)):
        assert energy[i] > stopgo[i]
        assert energy[i] > migra[i]
    # The migration policy's margin over Stop&Go grows with threshold.
    gap_lo = stopgo[0] - migra[0]
    gap_hi = stopgo[-1] - migra[-1]
    assert gap_hi > gap_lo
