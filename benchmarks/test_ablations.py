"""Ablation benchmarks for the design choices DESIGN.md calls out.

These go beyond the paper: each one switches off or sweeps one
mechanism of the policy/middleware and prints the impact, quantifying
*why* the pieces exist.
"""

from conftest import emit

from repro.experiments import ablation
from repro.experiments.config import ExperimentConfig

#: Shortened protocol for the ablation sweeps (they are many runs; the
#: claims they check are coarse orderings, robust at this length).
BASE = ExperimentConfig(warmup_s=12.5, measure_s=15.0)


def test_ablation_candidate_filter(runner):
    rows = ablation.ablation_candidate_filter(base=BASE, runner=runner)
    emit(ablation.render("Ablation: phase-1 candidate filter "
                         "(condition 2 on/off, high-perf, theta=2)", rows))
    full, nofilter = rows
    # Dropping the frequency-consistency condition must not *improve*
    # balance; it typically migrates more for equal or worse control.
    assert nofilter.pooled_std_c >= full.pooled_std_c - 0.15

def test_ablation_top_k(runner):
    rows = ablation.ablation_top_k(base=BASE, runner=runner)
    emit(ablation.render("Ablation: phase-2 search width top_k", rows))
    by_k = {r.label: r for r in rows}
    # The paper's pruning claim: considering only the highest-load few
    # tasks suffices — widening the search does not materially improve
    # the balance.
    assert abs(by_k["top_k=3"].pooled_std_c
               - by_k["top_k=2"].pooled_std_c) < 0.5


def test_ablation_strategy(runner):
    rows = ablation.ablation_strategy(base=BASE, runner=runner)
    emit(ablation.render("Ablation: replication vs recreation under the "
                         "full policy", rows))
    repl, recr = rows
    # Fig. 2's cost gap must not translate into QoS collapse at the
    # default queue sizing: recreation misses stay bounded.
    assert recr.deadline_misses <= repl.deadline_misses + 25


def test_ablation_queue_capacity(runner):
    rows = ablation.ablation_queue_capacity(base=BASE, runner=runner)
    emit(ablation.render("Ablation: queue capacity vs Stop&Go misses",
                         rows))
    misses = [r.deadline_misses for r in rows]
    # Deeper queues can only help a stalling pipeline.
    assert misses[-1] <= misses[0]


def test_ablation_sensor_period(runner):
    rows = ablation.ablation_sensor_period(base=BASE, runner=runner)
    emit(ablation.render("Ablation: sensor period (high-perf, theta=2)",
                         rows))
    by_label = {r.label: r for r in rows}
    # 10x slower monitoring must visibly loosen control on the fast
    # package.
    assert (by_label["sensor=100ms"].pooled_std_c
            >= by_label["sensor=10ms"].pooled_std_c - 0.1)


def test_ablation_sensor_noise(runner):
    rows = ablation.ablation_sensor_noise(base=BASE, runner=runner)
    emit(ablation.render("Ablation: sensor noise (mobile, theta=2)", rows))
    clean, *_, noisiest = rows
    # Graceful degradation: balance within 0.5 C of the clean run even
    # at sigma = threshold, paid for with extra (spurious) migrations.
    assert abs(noisiest.pooled_std_c - clean.pooled_std_c) < 0.5
    assert noisiest.migrations_per_s >= clean.migrations_per_s
    assert noisiest.deadline_misses <= 3


def test_ablation_load_jitter(runner):
    rows = ablation.ablation_load_jitter(base=BASE, runner=runner)
    emit(ablation.render("Ablation: per-frame load jitter "
                         "(mobile, theta=2)", rows))
    clean, *_, wildest = rows
    # Data-dependent cost variation up to +-40% must not break balance
    # or QoS — the queues absorb it and the policy plans on the mean.
    assert abs(wildest.pooled_std_c - clean.pooled_std_c) < 0.3
    assert wildest.deadline_misses <= 3


def test_ablation_stopgo_variant(runner):
    rows = ablation.ablation_stopgo_variant(base=BASE, runner=runner)
    emit(ablation.render("Ablation: Stop&Go modified (relative band) vs "
                         "original (panic + timeout)", rows))
    modified, original = rows
    # Both variants stall the pipeline; both miss heavily.
    assert modified.deadline_misses > 50
    assert original.deadline_misses > 50


def test_ablation_platform(runner):
    rows = ablation.ablation_platform(base=BASE, runner=runner)
    emit(ablation.render("Ablation: Conf1 vs Conf2 power configuration",
                         rows))
    by_label = {r.label: r for r in rows}
    # The lower-power ARM11-class platform has a smaller unbalanced
    # gradient, and the policy still improves on it.
    assert (by_label["conf2 (no policy)"].pooled_std_c
            < by_label["conf1 (no policy)"].pooled_std_c)
    assert (by_label["conf2"].pooled_std_c
            < by_label["conf2 (no policy)"].pooled_std_c)
