"""Benchmark: regenerate Fig. 10 (deadline misses, high-performance).

Expected shape (paper): Stop&Go still "causes a large amount of
deadline misses" while the migration policy "causes a lot less";
additionally "Stop&Go causes less deadline misses with the fast thermal
model than with the slow one, due to the faster speed the lower
threshold is reached after shutdown".
"""

from conftest import emit

from repro.experiments.figures import POLICY_LABELS, figure8, figure10


def test_fig10_misses_highperf(paper_protocol, runner):
    fig = figure10(base=paper_protocol, runner=runner)
    emit(fig.to_text())

    stopgo = fig.series[POLICY_LABELS["stopgo"]]
    migra = fig.series[POLICY_LABELS["migra"]]
    assert all(v <= 3 for v in migra)
    assert all(s > 50 for s in stopgo)

    # Cross-package comparison (reuses the cached Fig. 8 runs).
    mobile = figure8(base=paper_protocol,
                     runner=runner).series[POLICY_LABELS["stopgo"]]
    fewer = sum(1 for fast, slow in zip(stopgo, mobile) if fast < slow)
    assert fewer >= 3, (
        f"Stop&Go should miss less on the fast package at most "
        f"thresholds: fast={stopgo} mobile={mobile}")
