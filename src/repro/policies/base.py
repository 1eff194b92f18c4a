"""Policy interface.

A policy is a listener on the thermal sensor subsystem: every 10 ms it
receives the core temperatures and may actuate the OS (request a
migration plan, gate/ungate a core).  Policies start disabled so the
experiments can run the paper's 12.5 s warm-up phase before turning the
policy on (Sec. 5.2).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.mpos.system import MPOS


@dataclass
class PolicyDecision:
    """One actuation taken by a policy (for traces and tests)."""

    time: float
    kind: str                 # "migration", "gate", "ungate", ...
    core: int
    detail: str = ""


class ThermalPolicy(abc.ABC):
    """Base class for all thermal policies.

    A policy acts only through :meth:`step`, which
    :meth:`on_temperature_update` calls only after :meth:`enable`.  A
    disabled policy therefore does nothing, so configs that differ only
    in their policy share one simulated warm-up
    (:func:`repro.experiments.runner.run_batch`).  A subclass that
    overrides :meth:`attach`, :meth:`enable` or
    :meth:`on_temperature_update` could act while disabled; its configs
    opt out and run their own warm-ups.

    Parameters
    ----------
    threshold_c:
        The half-width of the allowed temperature band around the
        current mean (the X axis of Figs. 7-11).
    """

    name = "abstract"

    def __init__(self, threshold_c: float = 3.0):
        if threshold_c <= 0:
            raise ValueError("threshold_c must be positive")
        self.threshold_c = float(threshold_c)
        self.mpos: Optional[MPOS] = None
        self.enabled = False
        self.enabled_at: Optional[float] = None
        self.decisions: List[PolicyDecision] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, mpos: MPOS) -> None:
        """Bind the policy to the OS it actuates."""
        self.mpos = mpos

    def enable(self, now: float = 0.0) -> None:
        if self.mpos is None:
            raise RuntimeError(f"policy {self.name} not attached to an MPOS")
        self.enabled = True
        self.enabled_at = now

    def disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------
    # sensor callback
    # ------------------------------------------------------------------
    def on_temperature_update(self, now: float,
                              core_temps: np.ndarray) -> None:
        """Sensor listener entry point; dispatches to :meth:`step`."""
        if not self.enabled:
            return
        self.step(now, np.asarray(core_temps, dtype=float))

    @abc.abstractmethod
    def step(self, now: float, core_temps: np.ndarray) -> None:
        """One policy evaluation at a sensor tick."""

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def record(self, now: float, kind: str, core: int,
               detail: str = "") -> None:
        self.decisions.append(PolicyDecision(now, kind, core, detail))

    def band(self, core_temps: np.ndarray):
        """``(mean, lower, upper)`` — the allowed temperature band."""
        mean = float(np.mean(core_temps))
        return mean, mean - self.threshold_c, mean + self.threshold_c

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} theta={self.threshold_c}C>"
