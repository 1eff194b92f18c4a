"""Stress the policy with 6x faster thermal dynamics (Sec. 5.2, part 2).

The high-performance package heats and cools six times faster than the
mobile one, so the 100 ms decision loop of the master daemon becomes a
real control-latency constraint.  This example reruns the comparison on
the fast package and then demonstrates the paper's closing conclusion —
"pure software techniques cannot handle fast temperature variations" —
by sweeping the policy's decision cadence.

Run:  python examples/high_performance_package.py
"""

from repro import ExperimentConfig, run_experiment
from repro.metrics.report import RunReport


def main() -> None:
    print("Policy comparison on the high-performance package:")
    print(RunReport.HEADER)
    for policy in ("energy", "stopgo", "migra"):
        for theta in (1.0, 2.0, 3.0, 4.0):
            cfg = ExperimentConfig(policy=policy, threshold_c=theta,
                                   package="highperf")
            print(run_experiment(cfg).report.to_row())

    print()
    print("Decision-cadence sweep (migra, theta = 2 C): the faster the")
    print("software loop, the tighter the balance — and the paper's")
    print("point: software alone has a latency floor.")
    print(f"{'cadence':>10} {'T std (C)':>10} {'migr/s':>8} {'misses':>8}")
    for period in (0.02, 0.05, 0.1, 0.2, 0.4):
        cfg = ExperimentConfig(policy="migra", threshold_c=2.0,
                               package="highperf",
                               daemon_period_s=period)
        report = run_experiment(cfg).report
        print(f"{1000 * period:>8.0f}ms {report.pooled_std_c:>10.3f} "
              f"{report.migrations_per_s:>8.2f} "
              f"{report.deadline_misses:>8d}")


if __name__ == "__main__":
    main()
