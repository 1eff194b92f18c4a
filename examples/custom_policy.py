"""Write your own thermal policy against the public API.

Demonstrates the extension surface: subclass
:class:`repro.ThermalPolicy`, read temperatures from the sensor
callback, actuate through the MPOS (migration engine / core gating),
and register the policy with ``@register_policy`` so the standard
runner — and any campaign sweep — can run it by name.

The toy policy here — "coolest-core herding" — periodically moves the
single highest-load task of the hottest core to the coolest core,
ignoring every safeguard the paper's policy has (no frequency
consistency check, no cost function, no power condition).  The example
then shows *why* those safeguards exist by comparing both policies.

Run:  python examples/custom_policy.py
"""

import numpy as np

from repro import ExperimentConfig, ThermalPolicy, run_experiment
from repro.mpos.migration import MigrationPlan
from repro.policies.registry import register_policy


class CoolestCoreHerding(ThermalPolicy):
    """Naive greedy policy: hottest core sheds its biggest task."""

    name = "herding"

    def __init__(self, threshold_c: float = 3.0,
                 eval_period_s: float = 0.1):
        super().__init__(threshold_c)
        self.eval_period_s = eval_period_s
        self._last = -float("inf")

    def step(self, now: float, core_temps: np.ndarray) -> None:
        if now - self._last < self.eval_period_s:
            return
        self._last = now
        if self.mpos.engine.busy:
            return
        mean, _lower, upper = self.band(core_temps)
        hot = int(np.argmax(core_temps))
        cold = int(np.argmin(core_temps))
        if core_temps[hot] < upper or hot == cold:
            return
        tasks = self.mpos.tasks_on_core(hot)
        if not tasks:
            return
        victim = max(tasks, key=lambda t: t.demand_hz)
        # Skip moves the destination cannot absorb.
        f_max = self.mpos.chip.tile(cold).opp_table.f_max_hz
        if self.mpos.core_demand_hz(cold) + victim.demand_hz > f_max:
            return
        self.mpos.engine.request_plan(MigrationPlan(
            moves=[(victim, cold)], reason="herding", triggered_by=hot))
        self.record(now, "migration", hot, detail=victim.name)


# One decorator makes the policy a first-class scenario: the runner,
# the CLI and the campaign engine can all run it by name.
@register_policy("herding")
def _herding(config: ExperimentConfig) -> CoolestCoreHerding:
    return CoolestCoreHerding(threshold_c=config.threshold_c)


def run_with(policy_name, label):
    """Run the standard experiment with a registered policy name."""
    result = run_experiment(ExperimentConfig(policy=policy_name,
                                             threshold_c=3.0))
    report = result.report
    print(f"{label:<28} T.std={report.pooled_std_c:6.3f} C  "
          f"migr/s={report.migrations_per_s:5.2f}  "
          f"misses={report.deadline_misses}")
    return report


def main() -> None:
    print("Custom policy vs the paper's policy (mobile, theta = 3 C):")
    naive = run_with("herding", "coolest-core herding")
    paper = run_with("migra", "paper policy (migra)")
    print()
    if naive.migrations_per_s > paper.migrations_per_s:
        print("The naive policy migrates more for its balance — the")
        print("paper's candidate filter and Eq. 1 cost selection buy the")
        print("same (or better) balance with less migration traffic.")


if __name__ == "__main__":
    main()
