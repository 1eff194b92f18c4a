"""Benchmark: measure the Sec. 5.2 prose claims (mobile, theta = 3 C).

* ~10 C hottest-to-coolest spread after the 12.5 s warm-up;
* thermal balance within ~1 s of enabling the policy;
* the hottest core exceeds the upper threshold only briefly while
  balancing (paper: < 400 ms on their platform);
* a modest queue capacity sustains migration with zero misses (the
  paper's platform needed 11 frames; our freeze times are far shorter,
  so the minimum is smaller — reported, not asserted equal).
"""

from conftest import emit

from repro.experiments.narrative import narrative_sec52


def test_sec52_narrative(paper_protocol):
    report = narrative_sec52(base=paper_protocol,
                             queue_capacities=(2, 3, 4, 6, 8, 11))
    emit(report.to_text())

    assert 7.0 < report.initial_spread_c < 16.0
    assert report.time_to_balance_s is not None
    assert report.time_to_balance_s < 2.5
    assert report.longest_upper_excursion_s < 1.0
    assert report.min_sustainable_queue_frames is not None
    assert report.min_sustainable_queue_frames <= 11
