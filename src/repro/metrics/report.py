"""Run-level reports.

A :class:`RunReport` condenses one simulation run (policy x threshold x
package) into the numbers the paper's figures plot, with text and JSON
renderers used by the CLI and the benchmark harness.

:meth:`RunReport.to_record` / :meth:`RunReport.from_record` define the
stable *flat* schema (one scalar or string per column) that backs the
campaign result store and its CSV export — every metric is its own
column, list-valued fields are JSON-encoded strings.
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Callable, Dict, List, Tuple


@dataclass
class RunReport:
    """Summary of one experiment run."""

    policy: str
    package: str
    threshold_c: float
    duration_s: float

    #: The workload name the run executed (``ExperimentConfig.workload``,
    #: e.g. ``"sdr"`` or ``"multi-sdr:2"``) — queryable in the result
    #: store (``repro results show --where "workload = 'multi-sdr:2'"``).
    workload: str = "sdr"

    # Temperature family (Figs. 7/9).  ``pooled_std_c`` is the headline
    # "temperature standard deviation" (spatial + temporal).
    pooled_std_c: float = 0.0
    spatial_std_c: float = 0.0
    temporal_std_c: float = 0.0
    combined_std_c: float = 0.0
    peak_c: float = 0.0
    max_spread_c: float = 0.0
    mean_spread_c: float = 0.0

    # QoS family (Figs. 8/10).
    deadline_misses: int = 0
    miss_rate: float = 0.0
    source_drops: int = 0

    # Migration family (Fig. 11).
    migrations: int = 0
    migrations_per_s: float = 0.0
    migrated_bytes_per_s: float = 0.0
    mean_freeze_ms: float = 0.0

    # Energy family (the policy's constraint: balancing must not cost
    # energy).
    energy_j: float = 0.0
    avg_power_w: float = 0.0

    # Event-path observability: kernel and scheduler counters.
    # ``events_executed`` / ``slices_coalesced`` count how the slice
    # engine coalesced the run — diagnostics, never gated;
    # ``slices_run`` equals the per-quantum oracle's by construction.
    events_executed: int = 0
    slices_run: int = 0
    slices_coalesced: int = 0

    # Bookkeeping.
    core_mean_c: List[float] = field(default_factory=list)
    frames_played: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    HEADER = (f"{'policy':<16}{'pkg':<14}{'theta':>6}{'T.std':>8}"
              f"{'misses':>8}{'migr/s':>8}{'KB/s':>8}{'peak C':>8}")

    def to_row(self) -> str:
        """One fixed-width table row (pairs with :attr:`HEADER`)."""
        return (f"{self.policy:<16}{self.package:<14}"
                f"{self.threshold_c:>6.1f}{self.pooled_std_c:>8.3f}"
                f"{self.deadline_misses:>8d}{self.migrations_per_s:>8.2f}"
                f"{self.migrated_bytes_per_s / 1024:>8.1f}"
                f"{self.peak_c:>8.2f}")

    def to_text(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"policy={self.policy} package={self.package} "
            f"workload={self.workload} "
            f"theta={self.threshold_c:.1f}C duration={self.duration_s:.1f}s",
            f"  temperature: pooled std {self.pooled_std_c:.3f} C, "
            f"spatial std {self.spatial_std_c:.3f} C, "
            f"temporal std {self.temporal_std_c:.3f} C, "
            f"peak {self.peak_c:.2f} C, "
            f"mean spread {self.mean_spread_c:.2f} C",
            f"  qos: {self.deadline_misses} deadline misses "
            f"({100 * self.miss_rate:.2f}%), {self.frames_played} played, "
            f"{self.source_drops} source drops",
            f"  migration: {self.migrations} total "
            f"({self.migrations_per_s:.2f}/s, "
            f"{self.migrated_bytes_per_s / 1024:.1f} KB/s, "
            f"mean freeze {self.mean_freeze_ms:.1f} ms)",
            f"  energy: {self.energy_j:.2f} J over the window "
            f"({self.avg_power_w:.3f} W average)",
        ]
        if self.core_mean_c:
            temps = ", ".join(f"core{i}={t:.2f}C"
                              for i, t in enumerate(self.core_mean_c))
            lines.append(f"  core means: {temps}")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """All fields as plain Python types (JSON-serializable)."""
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        """JSON rendering for downstream tooling (``repro run --json``)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # ------------------------------------------------------------------
    # flat record schema (result store / CSV)
    # ------------------------------------------------------------------
    #: Fields that are not scalars; stored as JSON-encoded strings.
    JSON_COLUMNS = ("core_mean_c", "extra")
    #: Integer-valued metric columns.
    INT_COLUMNS = ("deadline_misses", "source_drops", "migrations",
                   "events_executed", "slices_run", "slices_coalesced",
                   "frames_played")
    #: Event-path diagnostics: values depend on the slice engine /
    #: kernel internals, not on simulated behaviour — reported and
    #: stored, but never gated against a golden.
    EVENT_PATH_COLUMNS = ("events_executed", "slices_run",
                          "slices_coalesced")
    #: String-valued identity columns.
    STR_COLUMNS = ("policy", "package", "workload")

    @classmethod
    def record_columns(cls) -> List[str]:
        """Column names of the flat record schema, in field order."""
        return [name for name, _, _, _ in _record_plan(cls)]

    def to_record(self) -> Dict:
        """One flat row: scalars verbatim, lists/dicts JSON-encoded.

        The column set is exactly the dataclass fields, in order, so a
        tabular store (SQLite, CSV) can hold one run per row with every
        metric individually queryable.
        """
        record = {}
        for name, encode, _, _ in _record_plan(type(self)):
            value = getattr(self, name)
            record[name] = value if encode is None else encode(value)
        return record

    @classmethod
    def from_record(cls, record: Dict) -> "RunReport":
        """Inverse of :meth:`to_record`, coercing stringly-typed values.

        Accepts rows read back from stores that only preserve text
        (CSV) as well as natively typed rows (SQLite): every column is
        coerced to its field's type, so
        ``RunReport.from_record(r.to_record()) == r`` holds across a
        full stringification round trip.  A missing or ``None`` column
        falls back to the field's default — rows written before a
        metric existed (the store's ``ALTER TABLE`` forward migration
        leaves ``NULL`` there) must still load.
        """
        kwargs = {}
        for name, _, decode, default in _record_plan(cls):
            value = record.get(name)
            kwargs[name] = default() if value is None else decode(value)
        return cls(**kwargs)


#: ``json.dumps(value, sort_keys=True)``, without building an encoder
#: per call.
_encode_json = json.JSONEncoder(sort_keys=True).encode


def _decode_json(value):
    return json.loads(value) if isinstance(value, str) else value


def _required(name: str) -> Callable:
    def missing():
        raise ValueError(f"record is missing required column {name!r}")
    return missing


@functools.lru_cache(maxsize=None)
def _record_plan(cls: type) -> Tuple[Tuple, ...]:
    """The record columns of a report class, built once per class.

    One ``(name, encode, decode, default)`` per field: ``encode`` maps
    the value to its column (``None``: stored verbatim), ``decode``
    maps a non-``None`` column back, and ``default()`` gives the value
    of a missing or ``None`` column (or raises if it is required).
    """
    plan = []
    for f in fields(cls):
        name = f.name
        if name in cls.JSON_COLUMNS:
            encode, decode = _encode_json, _decode_json
        else:
            encode = None
            decode = (int if name in cls.INT_COLUMNS
                      else str if name in cls.STR_COLUMNS else float)
        if f.default is not MISSING:
            default = (lambda value=f.default: value)
        elif f.default_factory is not MISSING:
            default = f.default_factory
        else:
            default = _required(name)
        plan.append((name, encode, decode, default))
    return tuple(plan)
