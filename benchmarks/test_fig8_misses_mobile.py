"""Benchmark: regenerate Fig. 8 (deadline misses, mobile package).

Expected shape (paper): the migration policy causes almost no misses —
"missed frames appear only for the minimum threshold" — while Stop&Go
"suffers a higher value of missed frames" because gating stalls the
software pipeline until the inter-processor queues refill.
"""

from conftest import emit

from repro.experiments.figures import POLICY_LABELS, figure8


def test_fig8_misses_mobile(paper_protocol, runner):
    fig = figure8(base=paper_protocol, runner=runner)
    emit(fig.to_text())

    energy = fig.series[POLICY_LABELS["energy"]]
    stopgo = fig.series[POLICY_LABELS["stopgo"]]
    migra = fig.series[POLICY_LABELS["migra"]]

    assert all(v == 0 for v in energy)           # nothing ever stalls
    assert all(v <= 3 for v in migra)            # bounded, near zero
    assert all(s > 50 for s in stopgo)           # pipeline stalls hurt
    assert all(s > 20 * max(m, 1) for s, m in zip(stopgo, migra))
