"""Thermal-runaway panic guard.

The paper notes (Sec. 3.1) that runaway "can be managed by stopping the
core when it reaches a temperature above a predefined panic threshold"
and that the balancing policy operates *below* that threshold.  The
guard is an independent sensor listener that composes with any policy:
it gates a core at the absolute panic temperature and releases it once
the core cools to the resume temperature.
"""

from __future__ import annotations

from typing import Set

import numpy as np

from repro.policies.base import ThermalPolicy


class PanicGuard(ThermalPolicy):
    """Absolute-temperature emergency stop, independent of any policy.

    Parameters
    ----------
    panic_temp_c:
        Gate a core at or above this temperature.
    resume_margin_c:
        Resume once the core is this far below the panic temperature.
    """

    name = "panic-guard"

    def __init__(self, panic_temp_c: float = 95.0,
                 resume_margin_c: float = 5.0):
        # The band threshold is irrelevant for the guard; pass a valid
        # dummy to the base class.
        super().__init__(threshold_c=1.0)
        if resume_margin_c <= 0:
            raise ValueError("resume_margin_c must be positive")
        self.panic_temp_c = float(panic_temp_c)
        self.resume_temp_c = self.panic_temp_c - float(resume_margin_c)
        self.panic_events = 0
        self._panicked: Set[int] = set()

    @property
    def any_panicked(self) -> bool:
        return bool(self._panicked)

    def step(self, now: float, core_temps: np.ndarray) -> None:
        assert self.mpos is not None
        for i, t in enumerate(core_temps.tolist()):
            if i not in self._panicked and t >= self.panic_temp_c:
                self.mpos.gate_core(i)
                self._panicked.add(i)
                self.panic_events += 1
                self.record(now, "panic-gate", i, detail=f"{t:.2f}C")
            elif i in self._panicked and t <= self.resume_temp_c:
                self.mpos.ungate_core(i)
                self._panicked.discard(i)
                self.record(now, "panic-resume", i, detail=f"{t:.2f}C")
