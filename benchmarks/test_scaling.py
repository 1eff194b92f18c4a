"""Benchmark: core-count scaling study (extension beyond the paper).

The policy is N-core by construction (phase 1 filters candidate pairs
among all processors); this benchmark instantiates the generalized SDR
pipeline on 2-5 cores and checks the policy keeps removing most of the
static thermal deviation at every size without QoS damage.
"""

from conftest import emit

from repro.experiments.config import ExperimentConfig
from repro.experiments.scaling import render, scaling_study

BASE = ExperimentConfig(warmup_s=12.5, measure_s=15.0)


def test_core_count_scaling(runner):
    rows = scaling_study(core_counts=(2, 3, 4, 5), base=BASE,
                         runner=runner)
    emit(render(rows))

    for row in rows:
        assert row.balanced_std_c < row.static_std_c
        assert row.std_reduction > 0.2
        assert row.deadline_misses <= 3
