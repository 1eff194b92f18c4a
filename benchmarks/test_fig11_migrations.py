"""Benchmark: regenerate Fig. 11 (migrations/s, both packages).

Expected shape (paper): the migration rate decreases as the threshold
grows, and is higher for the high-performance package (faster thermal
swings trigger more often).  The paper's worst case is ~3/s, i.e.
3 x 64 KB = 192 KB/s of migration traffic — "a negligible overhead".
Our simulator's exact rate differs (documented in EXPERIMENTS.md), but
the ordering, the monotone trend and the negligible-overhead bound must
hold.
"""

from conftest import emit

from repro.experiments.figures import figure11


def test_fig11_migrations(paper_protocol, runner):
    fig = figure11(base=paper_protocol, runner=runner)
    emit(fig.to_text())

    mobile = fig.series["embedded mobile"]
    fast = fig.series["high-performance"]

    # Faster package -> more migrations at every threshold.
    for m, f in zip(mobile, fast):
        assert f > m
    # Rate decreases (weakly) with the threshold.
    assert all(a >= b for a, b in zip(mobile, mobile[1:]))
    assert all(a >= b for a, b in zip(fast, fast[1:]))
    # Negligible overhead: even the worst rate moves < 1 MB/s of the
    # 170 MB/s effective bus (64 KB per migration).
    worst = max(fast) * 64 * 1024
    assert worst < 1e6
