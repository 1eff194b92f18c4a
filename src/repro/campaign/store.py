"""Queryable campaign result store (SQLite).

:class:`ResultStore` persists one row per completed run, keyed by
``(config_hash, campaign)``, with every metric of
:meth:`~repro.metrics.report.RunReport.to_record` as its own column —
so completed sweeps can be listed, filtered and exported without
re-running or re-aggregating anything:

* :class:`~repro.campaign.engine.CampaignRunner` caches through the
  store (``cache_dir`` puts ``results.sqlite`` there), making it the
  cross-session cache *and* the queryable result artifact;
* the figure/ablation/scaling layers read through it, so
  ``repro fig7 --cache-dir DIR`` only simulates configs with no stored
  row;
* ``repro results`` lists campaigns, shows/filters runs and exports
  CSV;
* rows produced remotely (the campaign fabric's workers,
  :mod:`repro.campaign.fabric`) import through the idempotent
  :meth:`ResultStore.merge_from`, keyed by ``(config_hash,
  campaign)`` so duplication, partial writes and merge order cannot
  change the outcome.

The write paths are set-at-a-time: :meth:`ResultStore.put_many`
journals any number of rows in one ``executemany`` transaction (with
:meth:`ResultStore.put` kept as the one-row case),
:meth:`ResultStore.buffered` wraps that in a :class:`BufferedWriter`
for producers that stream rows one at a time, and
:meth:`ResultStore.merge_from` imports a whole sibling store through
one ``ATTACH DATABASE`` + ``INSERT OR IGNORE … SELECT`` statement
(falling back to a per-row loop for cross-schema stores).  File-backed
stores run in WAL journal mode, so a merge can read a worker store
that is still being written.  Every batched path is proven equal to
its per-row twin via :meth:`canonical_bytes` (see
``tests/test_fleet_io.py``), and ``benchmarks/test_fleet_scale.py``
records the throughput of both in ``BENCH_fleet.json``.

The schema is derived from the flat record, so adding a metric to
:class:`~repro.metrics.report.RunReport` extends the store
automatically (existing databases are migrated by ``ALTER TABLE`` on
open).

Worked example — store two runs, query one back, diff campaigns::

    from repro.campaign.store import ResultStore
    from repro.metrics.report import RunReport

    store = ResultStore()                 # ":memory:"; pass a path to
    report = RunReport(policy="migra",    # persist across sessions
                       package="mobile", threshold_c=2.0,
                       duration_s=25.0, peak_c=61.5)
    store.put("hash-a", {"threshold_c": 2.0}, report, campaign="fig7")
    store.put("hash-a", {"threshold_c": 2.0}, report, campaign="rerun")

    hot = store.runs(campaign="fig7", where="peak_c > 60")
    assert hot[0].report.peak_c == 61.5
    diff = store.diff("fig7", "rerun")    # per-metric b - a deltas
    assert diff.max_abs_delta("peak_c") == 0.0

The tolerance-aware layer on top of :meth:`ResultStore.diff` — golden
baselines gating a campaign's metrics in CI — lives in
:mod:`repro.campaign.golden`.
"""

from __future__ import annotations

import csv
import io
import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.report import RunReport

#: Python value type -> SQLite column affinity for record columns.
_AFFINITY = {int: "INTEGER", float: "REAL", str: "TEXT", bool: "INTEGER"}


def _record_schema() -> List[Tuple[str, str]]:
    """``(column, sql_type)`` pairs of the flat RunReport record."""
    reference = RunReport(policy="", package="", threshold_c=0.0,
                          duration_s=0.0).to_record()
    return [(name, _AFFINITY.get(type(value), "TEXT"))
            for name, value in reference.items()]


class StoreError(RuntimeError):
    """The store file exists but is not a readable result store."""


@dataclass
class StoredRun:
    """One persisted run: identity, configuration and report."""

    config_hash: str
    campaign: str
    config: Dict
    report: RunReport


class ResultStore:
    """SQLite-backed store of campaign run results.

    Parameters
    ----------
    path:
        Database file (created, with parent directories, on first
        write).  ``":memory:"`` gives an ephemeral store for tests.
    """

    def __init__(self, path: str = ":memory:"):
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        self._columns = [name for name, _ in _record_schema()]
        try:
            if self.path != ":memory:":
                # WAL keeps readers (merges, status queries) off the
                # writers' locks and makes one-transaction batches
                # cheap; NORMAL is durable against process crashes —
                # the only loss window is an OS/power failure, where a
                # torn batch re-runs from the queue journal anyway.
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
            self._create_schema()
        except sqlite3.DatabaseError as error:
            self._conn.close()
            raise StoreError(
                f"{self.path} is not a result store ({error})") from None

    # ------------------------------------------------------------------
    # schema
    # ------------------------------------------------------------------
    def _create_schema(self) -> None:
        metric_cols = ", ".join(f'"{name}" {sql_type}'
                                for name, sql_type in _record_schema())
        self._conn.execute(
            f"CREATE TABLE IF NOT EXISTS runs ("
            f"config_hash TEXT NOT NULL, "
            f"campaign TEXT NOT NULL, "
            f"config TEXT NOT NULL, "
            f"{metric_cols}, "
            f"PRIMARY KEY (config_hash, campaign))")
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_runs_campaign "
            "ON runs (campaign)")
        # Forward migration: add columns new RunReport fields introduce.
        existing = {row[1] for row in
                    self._conn.execute("PRAGMA table_info(runs)")}
        for name, sql_type in _record_schema():
            if name not in existing:
                self._conn.execute(
                    f'ALTER TABLE runs ADD COLUMN "{name}" {sql_type}')
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, config_hash: str, config: Dict, report: RunReport,
            campaign: str = "adhoc") -> None:
        """Insert (or replace) one run row (one-row :meth:`put_many`)."""
        self.put_many([(config_hash, config, report)], campaign=campaign)

    def put_many(self, rows: Iterable[Tuple[str, Dict, RunReport]],
                 campaign: str = "adhoc") -> int:
        """Insert (or replace) run rows in one transaction.

        ``rows`` is an iterable of ``(config_hash, config, report)``
        triples, journaled by a single ``executemany`` and one commit —
        the set-at-a-time twin of :meth:`put`, byte-identical to a
        per-row loop (parity-tested via :meth:`canonical_bytes`) but
        without a commit per row.  Returns the number of rows written.
        """
        values = []
        for config_hash, config, report in rows:
            record = report.to_record()
            values.append([config_hash, campaign,
                           json.dumps(config, sort_keys=True)]
                          + [record[name] for name in self._columns])
        if not values:
            return 0
        columns = ["config_hash", "campaign", "config"] + self._columns
        placeholders = ", ".join("?" for _ in columns)
        quoted = ", ".join(f'"{c}"' for c in columns)
        self._conn.executemany(
            f"INSERT OR REPLACE INTO runs ({quoted}) "
            f"VALUES ({placeholders})", values)
        self._conn.commit()
        return len(values)

    def buffered(self, campaign: str = "adhoc",
                 flush_every: int = 512) -> "BufferedWriter":
        """A :class:`BufferedWriter` accumulating rows for this store."""
        return BufferedWriter(self, campaign=campaign,
                              flush_every=flush_every)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, config_hash: str) -> Optional[RunReport]:
        """The stored report for a config hash (any campaign), if any."""
        row = self._conn.execute(
            "SELECT * FROM runs WHERE config_hash = ? LIMIT 1",
            (config_hash,)).fetchone()
        if row is None:
            return None
        return RunReport.from_record({name: row[name]
                                      for name in self._columns})

    def __contains__(self, config_hash: str) -> bool:
        return self.get(config_hash) is not None

    def has(self, config_hash: str, campaign: str) -> bool:
        """True if a row exists for this exact (hash, campaign) key."""
        row = self._conn.execute(
            "SELECT 1 FROM runs WHERE config_hash = ? AND campaign = ? "
            "LIMIT 1", (config_hash, campaign)).fetchone()
        return row is not None

    def __len__(self) -> int:
        return int(self._conn.execute(
            "SELECT COUNT(*) FROM runs").fetchone()[0])

    def campaigns(self) -> List[Tuple[str, int]]:
        """``(campaign, run_count)`` pairs, alphabetical."""
        rows = self._conn.execute(
            "SELECT campaign, COUNT(*) FROM runs "
            "GROUP BY campaign ORDER BY campaign").fetchall()
        return [(row[0], int(row[1])) for row in rows]

    def has_campaign(self, campaign: str) -> bool:
        """True if at least one run is stored under ``campaign``."""
        row = self._conn.execute(
            "SELECT 1 FROM runs WHERE campaign = ? LIMIT 1",
            (campaign,)).fetchone()
        return row is not None

    def campaign_hashes(self, campaign: str) -> set:
        """All config hashes stored under ``campaign`` (one query).

        The campaign engine uses this to register a sweep's cache hits
        with one membership probe instead of a ``has`` query per row.
        """
        rows = self._conn.execute(
            "SELECT config_hash FROM runs WHERE campaign = ?",
            (campaign,)).fetchall()
        return {row[0] for row in rows}

    def runs(self, campaign: Optional[str] = None,
             where: Optional[str] = None,
             limit: Optional[int] = None) -> List[StoredRun]:
        """Stored runs, optionally filtered.

        ``where`` is a raw SQL condition over the record columns
        (e.g. ``"peak_c > 70 AND policy = 'migra'"``) — the store is a
        local artifact, so the query surface is deliberately plain SQL.
        """
        query = "SELECT * FROM runs"
        clauses, params = [], []
        if campaign is not None:
            clauses.append("campaign = ?")
            params.append(campaign)
        if where:
            clauses.append(f"({where})")
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY campaign, config_hash"
        if limit is not None:
            query += f" LIMIT {int(limit)}"
        out = []
        try:
            rows = self._conn.execute(query, params).fetchall()
        except sqlite3.OperationalError as error:
            # A typo'd column or malformed SQL in the user's filter:
            # surface it as a normal bad-argument error, not a
            # traceback from deep inside sqlite.
            raise ValueError(
                f"invalid where filter {where!r}: {error}") from None
        for row in rows:
            report = RunReport.from_record(
                {name: row[name] for name in self._columns})
            out.append(StoredRun(config_hash=row["config_hash"],
                                 campaign=row["campaign"],
                                 config=json.loads(row["config"]),
                                 report=report))
        return out

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    def export_csv(self, path: Optional[str] = None,
                   campaign: Optional[str] = None,
                   where: Optional[str] = None) -> str:
        """CSV of every stored run: identity + all record columns.

        Returns the CSV text; with ``path`` it is also written there.
        Every metric column of :meth:`RunReport.to_record` appears, so
        ``RunReport.from_record`` on a parsed row rebuilds the report.
        """
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["config_hash", "campaign"] + self._columns)
        for run in self.runs(campaign=campaign, where=where):
            record = run.report.to_record()
            writer.writerow([run.config_hash, run.campaign]
                            + [record[name] for name in self._columns])
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text

    # ------------------------------------------------------------------
    # merging (the distributed-campaign import path)
    # ------------------------------------------------------------------
    def merge_from(self, other: "ResultStore") -> int:
        """Import rows from another store, exactly once per key.

        Keyed by ``(config_hash, campaign)`` with *insert-if-absent*
        semantics: rows already present are left untouched.  Runs are
        deterministic, so two stores never disagree about a key's
        content — which makes the merge idempotent, order-independent
        and safe under duplication: any interleaving of merges over
        any partition of the rows converges to the same
        :meth:`canonical_bytes` image (property-tested in
        ``tests/test_campaign_store.py``).  Merging a store into
        itself is a no-op.  Returns the number of rows imported.

        The import is one ``ATTACH DATABASE`` + ``INSERT OR IGNORE …
        SELECT`` statement, the streaming set-at-a-time path (>10x the
        row loop at 10⁴ rows, see ``BENCH_fleet.json``).  It falls
        back to a per-row loop when the source is in-memory, is this
        very store, or carries a different column set (a store
        written by another repo version); both produce the same
        :meth:`canonical_bytes` image (parity-tested).
        """
        if self._attach_compatible(other):
            return self._merge_attach(other)
        return self._merge_rows(other)

    def _attach_compatible(self, other: "ResultStore") -> bool:
        """True when the streaming ATTACH merge applies to ``other``."""
        if self.path == ":memory:" or other.path == ":memory:":
            return False                       # nothing to attach
        if Path(self.path).resolve() == Path(other.path).resolve():
            return False                       # self-merge: no-op loop
        ours = {row[1] for row in
                self._conn.execute("PRAGMA table_info(runs)")}
        theirs = {row[1] for row in
                  other._conn.execute("PRAGMA table_info(runs)")}
        return ours == theirs

    def _merge_attach(self, other: "ResultStore") -> int:
        """Streaming merge: one INSERT … SELECT across an ATTACH."""
        columns = ["config_hash", "campaign", "config"] + self._columns
        quoted = ", ".join(f'"{c}"' for c in columns)
        other._conn.commit()      # the attach reads committed state
        self._conn.commit()       # ATTACH must run outside a txn
        self._conn.execute("ATTACH DATABASE ? AS merge_src",
                           (other.path,))
        try:
            before = self._conn.total_changes
            self._conn.execute(
                f"INSERT OR IGNORE INTO runs ({quoted}) "
                f"SELECT {quoted} FROM merge_src.runs")
            imported = self._conn.total_changes - before
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise
        finally:
            self._conn.execute("DETACH DATABASE merge_src")
        return imported

    def _merge_rows(self, other: "ResultStore") -> int:
        """Per-row reference merge (cross-schema tolerant)."""
        rows = other._conn.execute("SELECT * FROM runs").fetchall()
        imported = 0
        for row in rows:
            present = set(row.keys())
            columns = [name for name in
                       ["config_hash", "campaign", "config"]
                       + self._columns if name in present]
            quoted = ", ".join(f'"{c}"' for c in columns)
            placeholders = ", ".join("?" for _ in columns)
            cursor = self._conn.execute(
                f"INSERT OR IGNORE INTO runs ({quoted}) "
                f"VALUES ({placeholders})",
                [row[name] for name in columns])
            imported += cursor.rowcount
        self._conn.commit()
        return imported

    def canonical_bytes(self, campaign: Optional[str] = None) -> bytes:
        """A deterministic byte image of the store's logical content.

        Two stores holding the same runs yield identical bytes
        regardless of insertion order, merge history or SQLite page
        layout — the equality the fault-injection suite asserts
        between a resumed distributed campaign and a serial pass.
        """
        rows = [{"config_hash": run.config_hash,
                 "campaign": run.campaign,
                 "config": run.config,
                 "record": run.report.to_record()}
                for run in self.runs(campaign=campaign)]
        return json.dumps(rows, sort_keys=True,
                          separators=(",", ":")).encode()

    # ------------------------------------------------------------------
    # cross-campaign comparison
    # ------------------------------------------------------------------
    def diff(self, campaign_a: str, campaign_b: str,
             where: Optional[str] = None) -> "StoreDiff":
        """Row-by-row comparison of two stored campaigns.

        Configurations are matched by ``config_hash``; every numeric
        record column of the shared rows gets a ``b - a`` delta.
        ``where`` filters both sides with the same raw SQL condition
        accepted by :meth:`runs`.  Hashes present on one side only are
        reported, not an error — campaigns routinely overlap
        partially (e.g. a sweep re-run with one extra axis value).
        """
        runs_a = {run.config_hash: run
                  for run in self.runs(campaign=campaign_a, where=where)}
        runs_b = {run.config_hash: run
                  for run in self.runs(campaign=campaign_b, where=where)}
        numeric = _numeric_columns()
        rows = []
        for config_hash in sorted(set(runs_a) & set(runs_b)):
            a, b = runs_a[config_hash], runs_b[config_hash]
            rec_a, rec_b = a.report.to_record(), b.report.to_record()
            deltas = {name: rec_b[name] - rec_a[name] for name in numeric}
            rows.append(DiffRow(config_hash=config_hash, config=a.config,
                                report_a=a.report, report_b=b.report,
                                deltas=deltas))
        return StoreDiff(
            campaign_a=campaign_a, campaign_b=campaign_b, rows=rows,
            only_a=sorted(set(runs_a) - set(runs_b)),
            only_b=sorted(set(runs_b) - set(runs_a)))


class BufferedWriter:
    """Accumulates ``put`` calls and flushes them set-at-a-time.

    Producers that receive rows one at a time (the campaign engine's
    collect loop, a fabric worker draining a lease) write through this
    instead of committing per row: rows buffer in memory, grouped by
    campaign, and each :meth:`flush` is one
    :meth:`ResultStore.put_many` transaction per campaign.  Used as a
    context manager it flushes on exit; an exception mid-batch leaves
    the store exactly at the last flush boundary — the same crash
    surface a per-row writer has at its last commit.
    """

    def __init__(self, store: ResultStore, campaign: str = "adhoc",
                 flush_every: int = 512):
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.store = store
        self.campaign = campaign
        self.flush_every = int(flush_every)
        self._pending: Dict[str, List[Tuple[str, Dict, RunReport]]] = {}
        self._buffered = 0

    @property
    def pending(self) -> int:
        """Rows buffered but not yet written to the store."""
        return self._buffered

    def put(self, config_hash: str, config: Dict, report: RunReport,
            campaign: Optional[str] = None) -> None:
        """Buffer one row (flushes once ``flush_every`` accumulate)."""
        key = self.campaign if campaign is None else campaign
        self._pending.setdefault(key, []).append(
            (config_hash, config, report))
        self._buffered += 1
        if self._buffered >= self.flush_every:
            self.flush()

    def flush(self) -> int:
        """Write every buffered row (one transaction per campaign)."""
        written = 0
        for campaign, rows in self._pending.items():
            written += self.store.put_many(rows, campaign=campaign)
        self._pending.clear()
        self._buffered = 0
        return written

    def __enter__(self) -> "BufferedWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.flush()


def _numeric_columns() -> List[str]:
    """Record columns that get a delta in :meth:`ResultStore.diff`."""
    return [name for name in RunReport.record_columns()
            if name not in RunReport.JSON_COLUMNS
            and name not in RunReport.STR_COLUMNS]


@dataclass
class DiffRow:
    """One shared configuration across two campaigns."""

    config_hash: str
    config: Dict
    report_a: RunReport
    report_b: RunReport
    #: Numeric record column -> ``value_b - value_a``.
    deltas: Dict[str, float]


@dataclass
class StoreDiff:
    """Result of :meth:`ResultStore.diff` (renderable + queryable)."""

    campaign_a: str
    campaign_b: str
    rows: List[DiffRow]
    only_a: List[str]     # config hashes stored only under campaign_a
    only_b: List[str]     # config hashes stored only under campaign_b

    #: Default columns of :meth:`to_text` — the headline figure metrics.
    DEFAULT_METRICS = ("pooled_std_c", "peak_c", "deadline_misses",
                       "migrations_per_s", "energy_j")

    @property
    def n_shared(self) -> int:
        return len(self.rows)

    def max_abs_delta(self, metric: str) -> float:
        """Largest |b - a| of one metric over the shared rows."""
        return max((abs(row.deltas[metric]) for row in self.rows),
                   default=0.0)

    def to_text(self, metrics: Optional[Sequence[str]] = None) -> str:
        """Fixed-width per-row delta table plus a coverage summary."""
        metrics = list(metrics or self.DEFAULT_METRICS)
        known = _numeric_columns()
        for name in metrics:
            if name not in known:
                raise ValueError(f"unknown metric {name!r}; "
                                 f"numeric columns: "
                                 f"{', '.join(sorted(known))}")
        lines = [f"diff {self.campaign_a!r} -> {self.campaign_b!r}: "
                 f"{self.n_shared} shared config(s), "
                 f"{len(self.only_a)} only in {self.campaign_a!r}, "
                 f"{len(self.only_b)} only in {self.campaign_b!r}"]
        width = max([14] + [len(m) + 4 for m in metrics])
        lines.append(f"{'hash':<22}{'policy':<14}"
                     + "".join(f"{('d ' + m):>{width}}" for m in metrics))
        for row in self.rows:
            lines.append(
                f"{row.config_hash:<22}{row.report_a.policy:<14}"
                + "".join(f"{row.deltas[m]:>{width}.4f}"
                          for m in metrics))
        for label, hashes in ((self.campaign_a, self.only_a),
                              (self.campaign_b, self.only_b)):
            for config_hash in hashes:
                lines.append(f"{config_hash:<22}(only in {label!r})")
        return "\n".join(lines)
