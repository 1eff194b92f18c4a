"""Benchmark: regenerate Fig. 7 (temperature std dev, mobile package).

Expected shape (paper, Sec. 5.2): deviation grows with the threshold
for the threshold-driven policies; the migration-based thermal balancer
is the most effective "because it acts on both hot and cold cores",
Stop&Go sits in between ("does not change the temperature of the cold
cores"), and Energy-Balancing is flat and worst.
"""

from conftest import emit

from repro.experiments.figures import POLICY_LABELS, figure7


def test_fig7_stddev_mobile(paper_protocol, runner):
    fig = figure7(base=paper_protocol, runner=runner)
    emit(fig.to_text())

    energy = fig.series[POLICY_LABELS["energy"]]
    stopgo = fig.series[POLICY_LABELS["stopgo"]]
    migra = fig.series[POLICY_LABELS["migra"]]

    for i in range(len(fig.x)):
        assert migra[i] < stopgo[i] < energy[i]
    # Energy balancing never reacts: flat within measurement noise.
    assert max(energy) - min(energy) < 0.05
    # Threshold-driven deviation growth.
    assert migra[-1] > migra[0]
    assert stopgo[-1] > stopgo[0]
