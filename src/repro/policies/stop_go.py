"""The Stop&Go baseline policy.

The original policy ([5] in the paper) shuts a core down when it hits a
fixed panic temperature and resumes it after a timeout.  For a fair
comparison the paper modifies it to use the *same thresholds* as the
balancing policy: gate when the core exceeds ``T_mean + theta``, resume
when it falls below ``T_mean - theta`` (Sec. 5.2).  Both variants are
implemented; the experiments use the modified one.

Stop&Go controls hot cores only — it never warms a cold core — which is
exactly why its temperature deviation stays above the migration policy's
in Fig. 7, and its gating stalls the streaming pipeline, which is why it
pays the deadline misses of Figs. 8/10.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.policies.base import ThermalPolicy
from repro.sim.process import Timer


class StopAndGo(ThermalPolicy):
    """Core gating on thermal thresholds.

    Parameters
    ----------
    threshold_c:
        Band half-width (modified variant).
    mode:
        ``"threshold"`` — the paper's modified variant (default);
        ``"timeout"`` — the original: gate above ``panic_temp_c``,
        resume after ``timeout_s``; it reports as
        ``stop-go-original``.
    panic_temp_c, timeout_s:
        Parameters of the original variant.
    """

    name = "stop-go"

    def __init__(self, threshold_c: float = 3.0, mode: str = "threshold",
                 panic_temp_c: float = 80.0, timeout_s: float = 1.0):
        super().__init__(threshold_c)
        if mode not in ("threshold", "timeout"):
            raise ValueError(f"unknown Stop&Go mode {mode!r}")
        self.mode = mode
        if mode == "timeout":
            self.name = "stop-go-original"
        self.panic_temp_c = float(panic_temp_c)
        self.timeout_s = float(timeout_s)
        self.gate_events = 0
        self.total_gated_time_s = 0.0
        self._gated_since: Dict[int, float] = {}
        self._timers: Dict[int, Timer] = {}

    # ------------------------------------------------------------------
    def step(self, now: float, core_temps: np.ndarray) -> None:
        assert self.mpos is not None
        if self.mode == "threshold":
            self._step_threshold(now, core_temps)
        else:
            self._step_timeout(now, core_temps)

    def _step_threshold(self, now: float, core_temps: np.ndarray) -> None:
        mean, lower, upper = self.band(core_temps)
        gated = set(self.mpos.gated_cores())
        for i, t in enumerate(core_temps.tolist()):
            if i not in gated and t > upper:
                self._gate(now, i)
            elif i in gated and t < lower:
                self._ungate(now, i)

    def _step_timeout(self, now: float, core_temps: np.ndarray) -> None:
        gated = set(self.mpos.gated_cores())
        for i, t in enumerate(core_temps.tolist()):
            if i not in gated and t > self.panic_temp_c:
                self._gate(now, i)
                timer = self._timers.get(i)
                if timer is None:
                    timer = Timer(self.mpos.sim,
                                  lambda core=i: self._on_timeout(core))
                    self._timers[i] = timer
                timer.arm(self.timeout_s)

    # ------------------------------------------------------------------
    def _gate(self, now: float, core: int) -> None:
        self.mpos.gate_core(core)
        self.gate_events += 1
        self._gated_since[core] = now
        self.record(now, "gate", core)

    def _ungate(self, now: float, core: int) -> None:
        self.mpos.ungate_core(core)
        since = self._gated_since.pop(core, now)
        self.total_gated_time_s += now - since
        self.record(now, "ungate", core)

    def _on_timeout(self, core: int) -> None:
        if core in self.mpos.gated_cores():
            self._ungate(self.mpos.sim.now, core)
