"""The paper's migration-based thermal balancing policy (Sec. 3.1).

The strategy bounds every core's temperature inside
``[T_mean - theta, T_mean + theta]`` around the *current average*
temperature.  Crossing the upper threshold triggers a migration that
sheds load to a below-average core; crossing the lower threshold
triggers a migration that pulls load from an above-average core.  Both
resolve to the same primitive: an **exchange of task sets** between one
hot and one cold core whose net full-speed-equivalent demand flows from
hot to cold.

The algorithm has the paper's two phases:

**Phase 1 — candidate processor filter.**  A destination ``dst`` is a
candidate for source ``src`` iff all three conditions hold:

1. opposite thermal sides: ``(T_src - T_mean) * (T_dst - T_mean) < 0``;
2. opposite frequency sides: ``(f_src - f_mean) * (f_dst - f_mean) < 0``;
3. no extra power after the exchange:
   ``f_src^2 + f_dst^2 (before) >= f_src^2 + f_dst^2 (after)``
   (with the DVFS governor's post-exchange operating points).

**Phase 2 — task-set selection by migration cost (Eq. 1).**  Among
candidate exchanges the policy minimizes

    cost = (moved bytes) / (T_target - T_mean)^2

i.e. data volume divided by the squared distance of the target from the
mean — the farther the target from the mean, the longer until the next
migration is needed, so the cheaper the move per unit time.  To keep the
search tractable the paper restricts attention to "the few tasks having
the highest load": only the top-``top_k`` loaded tasks per core are
enumerated.

Triggers are edge-sensitive: a core must re-enter the band before it can
trigger again, and only one plan is in flight at a time ("the algorithm
moves tasks only between two processors at a time").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mpos.migration import MigrationPlan
from repro.mpos.task import StreamTask
from repro.policies.base import ThermalPolicy, mean_of

#: Tolerance when comparing the f^2 power proxies (condition 3): the
#: paper allows equality ("no extra power"), so only a strict increase
#: beyond float noise rejects an exchange.
_PROXY_EPS = 1e-3


@dataclass(frozen=True)
class ExchangeOption:
    """One evaluated candidate exchange (exposed for tests/ablation)."""

    src_core: int
    dst_core: int
    tasks_from_src: Tuple[str, ...]
    tasks_from_dst: Tuple[str, ...]
    bytes_moved: int
    cost: float
    balance_after_hz: float

    @property
    def n_tasks(self) -> int:
        return len(self.tasks_from_src) + len(self.tasks_from_dst)


class MigraThermalBalancer(ThermalPolicy):
    """Migration-based thermal balancing (the paper's policy).

    Parameters
    ----------
    threshold_c:
        Band half-width around the mean temperature (Figs. 7-11 sweep
        1-4 C).
    top_k:
        How many highest-load tasks per core phase 2 considers.
    max_from_hot / max_from_dst:
        Largest task-set sizes moved from the hot side and returned from
        the cold side in one exchange.
    eval_period_s:
        Decision cadence: the period of the paper's *master daemon*,
        which decides from statistics the slave daemons publish
        periodically (Sec. 3.2), while sensors update every 10 ms.
        Plans here use each task's nominal ``demand_hz``.  On the slow
        mobile package the cadence is invisible (thermal constants are
        ~2 s); on the 6x faster high-performance package the lag is
        what makes the policy "oscillate more than Stop&Go" at small
        thresholds (Sec. 5.2).
    """

    name = "migra"

    def __init__(self, threshold_c: float = 3.0, top_k: int = 2,
                 max_from_hot: int = 2, max_from_dst: int = 1,
                 eval_period_s: float = 0.1):
        super().__init__(threshold_c)
        if top_k < 1 or max_from_hot < 1 or max_from_dst < 0:
            raise ValueError("invalid task-subset search bounds")
        if eval_period_s < 0:
            raise ValueError("eval_period_s must be non-negative")
        self.top_k = top_k
        self.max_from_hot = max_from_hot
        self.max_from_dst = max_from_dst
        self.eval_period_s = float(eval_period_s)
        self._armed: Dict[int, bool] = {}
        self._last_eval = -float("inf")
        self.triggers_fired = 0
        self.plans_issued = 0

    # ------------------------------------------------------------------
    # policy step
    # ------------------------------------------------------------------
    def step(self, now: float, core_temps: np.ndarray) -> None:
        assert self.mpos is not None
        mean, lower, upper = self.band(core_temps)
        temps = core_temps.tolist()

        # Re-arm cores that returned inside the band (every sensor tick,
        # so no crossing is lost between daemon evaluations).
        for i, t in enumerate(temps):
            if lower <= t <= upper:
                self._armed[i] = True

        # Decisions happen on the master daemon's cadence.
        if now - self._last_eval < self.eval_period_s:
            return
        self._last_eval = now
        if self.mpos.engine.busy:
            return

        # Armed cores outside the band, most deviant first.
        triggers = sorted(
            (i for i, t in enumerate(temps)
             if (t > upper or t < lower) and self._armed.get(i, True)),
            key=lambda i: -abs(temps[i] - mean))
        for src in triggers:
            self.triggers_fired += 1
            option = self.plan_exchange(src, core_temps)
            if option is None:
                continue
            plan = self._to_plan(option)
            self.mpos.engine.request_plan(plan)
            self._armed[src] = False
            self.plans_issued += 1
            self.record(now, "migration", src,
                        detail=f"{plan.moves[0][0].name}... "
                               f"{option.src_core}->{option.dst_core} "
                               f"cost={option.cost:.3g}")
            return  # one plan at a time

    # ------------------------------------------------------------------
    # phase 1 + 2: build the best exchange for a triggering core
    # ------------------------------------------------------------------
    def plan_exchange(self, src: int,
                      core_temps: np.ndarray) -> Optional[ExchangeOption]:
        """Evaluate all candidate exchanges for ``src``; return the best.

        Returns ``None`` when phase 1 leaves no candidate or no exchange
        passes the phase 2 validity checks.
        """
        assert self.mpos is not None
        temps = np.asarray(core_temps, dtype=float)
        mean = mean_of(temps)
        freqs = self.mpos.governor.frequencies_hz()
        f_mean = mean_of(freqs)
        options: List[Tuple[tuple, ExchangeOption]] = []
        loads: Dict[int, Tuple[List[StreamTask], float]] = {}

        for dst in range(len(temps)):
            if dst == src:
                continue
            # Condition 1: src and dst on opposite sides of the mean.
            if (temps[src] - mean) * (temps[dst] - mean) >= 0:
                continue
            hot, cold = (src, dst) if temps[src] > mean else (dst, src)
            # Condition 2: frequencies on opposite sides of their mean,
            # *consistently* with the thermal sides — the hot core must
            # be the high-frequency one.  When temperature ordering
            # disagrees with the current power ordering (thermal lag
            # right after a previous exchange), migrating would pump
            # load into an already high-power core, so the pair is
            # skipped until temperatures catch up.
            if not (freqs[hot] > f_mean and freqs[cold] < f_mean):
                continue
            for option in self._enumerate_exchanges(hot, cold, dst, temps,
                                                    mean, loads):
                rank = (option.cost, option.balance_after_hz,
                        option.bytes_moved, option.n_tasks, option.dst_core)
                options.append((rank, option))

        if not options:
            return None
        options.sort(key=lambda pair: pair[0])
        return options[0][1]

    def _enumerate_exchanges(self, hot: int, cold: int, target: int,
                             temps: np.ndarray, mean: float,
                             loads: Dict[int, Tuple[List[StreamTask],
                                                    float]]):
        """Yield valid exchanges between a hot and a cold core.

        ``loads`` memoizes :meth:`_core_load` across one
        :meth:`plan_exchange` (no task moves while it runs).
        """
        assert self.mpos is not None
        chip = self.mpos.chip
        f_max = chip.tile(hot).opp_table.f_max_hz
        hot_tasks, d_hot = self._core_load(hot, loads)
        cold_tasks, d_cold = self._core_load(cold, loads)
        opp_hot_before = self._opp_for(hot, d_hot)
        proxy_before = (opp_hot_before.power_proxy()
                        + self._opp_for(cold, d_cold).power_proxy())
        denom = (temps[target] - mean) ** 2
        if denom <= 0:
            return

        for set_hot in self._subsets(hot_tasks, 1, self.max_from_hot):
            for set_cold in self._subsets(cold_tasks, 0, self.max_from_dst):
                net = (sum(t.demand_hz for t in set_hot)
                       - sum(t.demand_hz for t in set_cold))
                if net <= 0:
                    continue  # load must flow hot -> cold
                d_hot_after = d_hot - net
                d_cold_after = d_cold + net
                if d_cold_after > f_max:
                    continue  # destination would be overloaded
                # The exchange must drop the hot core's operating point,
                # otherwise it barely changes the hot core's power and
                # the trigger is wasted on a thermally useless move —
                # the paper's observation that "the effect of migration
                # of a task on the temperature balancing decreases
                # together with its load", turned into a hard filter.
                opp_hot_after = self._opp_for(hot, d_hot_after)
                if opp_hot_after.frequency_hz >= opp_hot_before.frequency_hz:
                    continue
                # Condition 3: pair power (f^2 proxy) must not grow.
                # Note: an exchange that *overshoots* (the cold core ends
                # up more loaded than the hot one was) is deliberately
                # allowed — the paper balances temperature by migrating
                # load back and forth, so the pair's roles must be able
                # to swap between consecutive triggers.
                proxy_after = (
                    opp_hot_after.power_proxy()
                    + self._opp_for(cold, d_cold_after).power_proxy())
                if proxy_after > proxy_before + _PROXY_EPS * proxy_before:
                    continue
                balance_after = abs(d_hot_after - d_cold_after)
                nbytes = (sum(t.context_bytes for t in set_hot)
                          + sum(t.context_bytes for t in set_cold))
                yield ExchangeOption(
                    src_core=hot, dst_core=cold,
                    tasks_from_src=tuple(t.name for t in set_hot),
                    tasks_from_dst=tuple(t.name for t in set_cold),
                    bytes_moved=nbytes,
                    cost=nbytes / denom,
                    balance_after_hz=balance_after)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _core_load(self, core: int, loads: Dict) -> Tuple[List[StreamTask],
                                                          float]:
        """``(top-loaded tasks, summed demand)`` of ``core``, memoized."""
        load = loads.get(core)
        if load is None:
            tasks = self.mpos.tasks_on_core(core)
            load = loads[core] = (self._top_loaded(tasks),
                                  sum(t.demand_hz for t in tasks))
        return load

    def _top_loaded(self, tasks: Sequence[StreamTask]) -> List[StreamTask]:
        """The paper's pruning: keep only the highest-load tasks."""
        ordered = sorted(tasks, key=lambda t: -t.demand_hz)
        return ordered[:self.top_k]

    @staticmethod
    def _subsets(tasks: Sequence[StreamTask], lo: int, hi: int):
        for size in range(lo, min(hi, len(tasks)) + 1):
            if size == 0:
                yield ()
            else:
                yield from combinations(tasks, size)

    def _opp_for(self, core: int, demand_hz: float):
        assert self.mpos is not None
        table = self.mpos.chip.tile(core).opp_table
        return table.point_for_demand(max(demand_hz, 0.0))

    def _to_plan(self, option: ExchangeOption) -> MigrationPlan:
        assert self.mpos is not None
        moves = []
        for name in option.tasks_from_src:
            moves.append((self.mpos.task(name), option.dst_core))
        for name in option.tasks_from_dst:
            moves.append((self.mpos.task(name), option.src_core))
        return MigrationPlan(moves=moves, reason="thermal-balance",
                             triggered_by=option.src_core)
