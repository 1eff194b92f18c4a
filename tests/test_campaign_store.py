"""Tests for the queryable result store and the flat report record."""

import csv
import io

import pytest

from repro.campaign.store import ResultStore
from repro.experiments.config import ExperimentConfig
from repro.metrics.report import RunReport


def _report(policy="migra", threshold_c=2.0, peak_c=61.5) -> RunReport:
    return RunReport(policy=policy, package="mobile-embedded",
                     threshold_c=threshold_c, duration_s=25.0,
                     pooled_std_c=1.25, peak_c=peak_c,
                     deadline_misses=3, migrations=7,
                     migrations_per_s=0.28, energy_j=23.5,
                     core_mean_c=[51.0, 49.5, 50.2],
                     frames_played=625, extra={"note": 1.0})


class TestRunReportRecord:
    def test_record_is_flat(self):
        record = _report().to_record()
        assert all(isinstance(v, (int, float, str))
                   for v in record.values())

    def test_record_covers_every_field(self):
        import dataclasses
        record = _report().to_record()
        assert set(record) == {f.name for f in
                               dataclasses.fields(RunReport)}

    def test_round_trip(self):
        report = _report()
        assert RunReport.from_record(report.to_record()) == report

    def test_round_trip_through_strings(self):
        """CSV-style stringification must still rebuild the report."""
        report = _report()
        stringly = {k: str(v) for k, v in report.to_record().items()}
        assert RunReport.from_record(stringly) == report

    def test_null_and_missing_columns_fall_back_to_defaults(self):
        """Rows written before a metric existed read back with the
        field's default (the store's ALTER TABLE migration leaves NULL
        in old rows)."""
        record = _report().to_record()
        record["peak_c"] = None            # NULL from a migrated store
        del record["mean_freeze_ms"]       # column absent entirely
        report = RunReport.from_record(record)
        assert report.peak_c == 0.0
        assert report.mean_freeze_ms == 0.0
        assert report.policy == "migra"

    def test_missing_required_column_raises(self):
        record = _report().to_record()
        del record["policy"]               # no default to fall back on
        with pytest.raises(ValueError, match="policy"):
            RunReport.from_record(record)


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "r.sqlite")
        report = _report()
        store.put("abc123", {"policy": "migra"}, report, campaign="fig7")
        assert store.get("abc123") == report
        assert store.get("missing") is None
        assert "abc123" in store and len(store) == 1

    def test_keyed_by_hash_and_campaign(self, tmp_path):
        store = ResultStore(tmp_path / "r.sqlite")
        store.put("h1", {}, _report(), campaign="a")
        store.put("h1", {}, _report(), campaign="b")
        store.put("h2", {}, _report(policy="energy"), campaign="a")
        assert store.campaigns() == [("a", 2), ("b", 1)]
        assert len(store) == 3
        # replacing the same (hash, campaign) does not add a row
        store.put("h1", {}, _report(peak_c=70.0), campaign="a")
        assert len(store) == 3
        assert store.runs(campaign="a")[0].report.peak_c in (61.5, 70.0)

    def test_runs_where_filter(self, tmp_path):
        store = ResultStore(tmp_path / "r.sqlite")
        store.put("h1", {}, _report(peak_c=55.0), campaign="sweep")
        store.put("h2", {}, _report(peak_c=72.0), campaign="sweep")
        hot = store.runs(where="peak_c > 70")
        assert [run.config_hash for run in hot] == ["h2"]
        assert store.runs(campaign="nope") == []

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "r.sqlite"
        with ResultStore(path) as store:
            store.put("h1", {"seed": 0}, _report(), campaign="x")
        reopened = ResultStore(path)
        runs = reopened.runs()
        assert runs[0].config == {"seed": 0}
        assert runs[0].report == _report()

    def test_csv_round_trips_every_metric_column(self, tmp_path):
        """Acceptance: the CSV export carries every column of
        ``RunReport.to_record()`` and rebuilds identical reports."""
        store = ResultStore(tmp_path / "r.sqlite")
        reports = [_report(), _report(policy="energy", threshold_c=4.0)]
        for i, report in enumerate(reports):
            store.put(f"h{i}", {}, report, campaign="csv")
        text = store.export_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert set(RunReport.record_columns()) <= set(rows[0])
        rebuilt = [RunReport.from_record(row) for row in rows]
        assert sorted(r.policy for r in rebuilt) == ["energy", "migra"]
        for report in reports:
            assert report in rebuilt

    def test_csv_written_to_path(self, tmp_path):
        store = ResultStore(tmp_path / "r.sqlite")
        store.put("h1", {}, _report(), campaign="x")
        out = tmp_path / "runs.csv"
        store.export_csv(path=out)
        assert out.read_text().startswith("config_hash,campaign,policy")

    def test_schema_migration_adds_new_columns(self, tmp_path):
        """A store created before a metric existed gains the column on
        reopen, and its pre-migration rows (NULL in the new column)
        still load with the field's default."""
        path = tmp_path / "r.sqlite"
        store = ResultStore(path)
        store.put("h1", {}, _report(), campaign="x")
        store.close()
        import sqlite3
        conn = sqlite3.connect(path)
        conn.execute("ALTER TABLE runs DROP COLUMN peak_c")
        conn.commit()
        conn.close()
        reopened = ResultStore(path)           # re-adds the column
        old = reopened.get("h1")               # row has NULL peak_c
        assert old is not None and old.peak_c == 0.0
        reopened.put("h2", {}, _report(), campaign="x")
        assert reopened.get("h2") == _report()

    def test_has_is_per_campaign(self, tmp_path):
        store = ResultStore(tmp_path / "r.sqlite")
        store.put("h1", {}, _report(), campaign="a")
        assert store.has("h1", "a")
        assert not store.has("h1", "b")
        assert not store.has("h2", "a")

class TestStoreDiff:
    def _seed(self, store):
        cfg = ExperimentConfig()
        h1 = cfg.config_hash()
        h2 = cfg.variant(threshold_c=1.0).config_hash()
        h3 = cfg.variant(threshold_c=2.0).config_hash()
        store.put(h1, cfg.to_dict(),
                  _report(peak_c=60.0), campaign="a")
        store.put(h1, cfg.to_dict(),
                  _report(peak_c=61.5), campaign="b")
        store.put(h2, cfg.to_dict(),
                  _report(policy="energy", peak_c=70.0), campaign="a")
        store.put(h2, cfg.to_dict(),
                  _report(policy="energy", peak_c=70.0), campaign="b")
        store.put(h3, cfg.to_dict(), _report(), campaign="a")
        return h1, h2, h3

    def test_shared_rows_get_per_metric_deltas(self):
        store = ResultStore()
        h1, h2, h3 = self._seed(store)
        diff = store.diff("a", "b")
        assert diff.n_shared == 2
        assert diff.only_a == [h3] and diff.only_b == []
        by_hash = {row.config_hash: row for row in diff.rows}
        assert by_hash[h1].deltas["peak_c"] == pytest.approx(1.5)
        assert by_hash[h2].deltas["peak_c"] == 0.0
        # Every numeric record column is present in the deltas.
        assert "pooled_std_c" in by_hash[h1].deltas
        assert "deadline_misses" in by_hash[h1].deltas
        # Non-numeric columns are not.
        assert "policy" not in by_hash[h1].deltas
        assert "core_mean_c" not in by_hash[h1].deltas

    def test_where_filters_both_sides(self):
        store = ResultStore()
        h1, _h2, _h3 = self._seed(store)
        diff = store.diff("a", "b", where="policy = 'migra'")
        assert [row.config_hash for row in diff.rows] == [h1]

    def test_max_abs_delta_and_text(self):
        store = ResultStore()
        h1, _h2, h3 = self._seed(store)
        diff = store.diff("a", "b")
        assert diff.max_abs_delta("peak_c") == pytest.approx(1.5)
        text = diff.to_text()
        assert "2 shared config(s)" in text
        assert h1 in text and h3 in text
        assert "only in 'a'" in text
        custom = diff.to_text(metrics=["peak_c"])
        assert "d peak_c" in custom
        with pytest.raises(ValueError, match="unknown metric"):
            diff.to_text(metrics=["not_a_column"])

    def test_metric_typo_rejected_even_without_shared_rows(self):
        store = ResultStore()
        diff = store.diff("empty-a", "empty-b")
        assert diff.n_shared == 0
        with pytest.raises(ValueError, match="unknown metric"):
            diff.to_text(metrics=["bogus_metric"])

    def test_disjoint_campaigns_share_nothing(self):
        store = ResultStore()
        cfg = ExperimentConfig()
        store.put(cfg.config_hash(), cfg.to_dict(), _report(),
                  campaign="a")
        other = cfg.variant(threshold_c=1.0)
        store.put(other.config_hash(), other.to_dict(), _report(),
                  campaign="b")
        diff = store.diff("a", "b")
        assert diff.n_shared == 0
        assert diff.only_a == [cfg.config_hash()]
        assert diff.only_b == [other.config_hash()]
        assert diff.max_abs_delta("peak_c") == 0.0


# ----------------------------------------------------------------------
# merge_from: the distributed-campaign import path
# ----------------------------------------------------------------------
def _keyed_report(config_hash: str) -> RunReport:
    """A deterministic report per key — the merge model of determinism:
    two stores can only ever hold the *same* content for a key."""
    seed = sum(config_hash.encode())
    return _report(policy=f"p-{config_hash}",
                   threshold_c=float(seed % 5),
                   peak_c=50.0 + (seed % 17) * 0.25)


def _put_rows(store: ResultStore, rows) -> None:
    for config_hash, campaign in rows:
        store.put(config_hash, {"k": config_hash},
                  _keyed_report(config_hash), campaign=campaign)


class TestMergeFrom:
    def test_imports_missing_rows_once(self, tmp_path):
        a = ResultStore(tmp_path / "a.sqlite")
        b = ResultStore(tmp_path / "b.sqlite")
        _put_rows(a, [("h1", "x")])
        _put_rows(b, [("h1", "x"), ("h2", "x"), ("h1", "y")])
        assert a.merge_from(b) == 2              # h1/x already present
        assert len(a) == 3
        assert a.merge_from(b) == 0              # idempotent
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_merge_into_self_is_a_noop(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        _put_rows(store, [("h1", "x"), ("h2", "y")])
        before = store.canonical_bytes()
        assert store.merge_from(store) == 0
        assert store.canonical_bytes() == before

    def test_existing_rows_left_untouched(self, tmp_path):
        """Insert-if-absent: a merge never rewrites a present key, so
        merge order cannot matter."""
        a = ResultStore(tmp_path / "a.sqlite")
        b = ResultStore(tmp_path / "b.sqlite")
        a.put("h1", {}, _report(peak_c=61.5), campaign="x")
        b.put("h1", {}, _report(peak_c=99.0), campaign="x")
        assert a.merge_from(b) == 0
        assert a.get("h1").peak_c == 61.5

    def test_canonical_bytes_ignores_insertion_order(self, tmp_path):
        fwd = ResultStore(tmp_path / "f.sqlite")
        rev = ResultStore(tmp_path / "r.sqlite")
        rows = [("h1", "x"), ("h2", "x"), ("h1", "y")]
        _put_rows(fwd, rows)
        _put_rows(rev, list(reversed(rows)))
        assert fwd.canonical_bytes() == rev.canonical_bytes()
        assert fwd.canonical_bytes(campaign="y") \
            == rev.canonical_bytes(campaign="y")
        assert fwd.canonical_bytes(campaign="x") \
            != fwd.canonical_bytes(campaign="y")


class TestMergeFromProperties:
    """Hypothesis: any interleaving of duplicated, shuffled partial
    merges converges to the serial store's canonical image."""

    KEYS = [(f"h{i}", campaign) for i in range(4)
            for campaign in ("a", "b")]

    @staticmethod
    def _strategy():
        from hypothesis import strategies as st
        keys = st.sampled_from(TestMergeFromProperties.KEYS)
        # Several worker stores, each holding an arbitrary multiset of
        # rows (duplication across workers is the retry case).
        return st.lists(st.lists(keys, max_size=8), min_size=1,
                        max_size=4)

    def test_shuffled_duplicated_merges_converge(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=40, deadline=None)
        @given(partitions=self._strategy(), data=st.data())
        def run(partitions, data):
            expected = ResultStore()
            _put_rows(expected, sorted(
                {row for part in partitions for row in part}))
            workers = []
            for part in partitions:
                store = ResultStore()
                _put_rows(store, part)
                workers.append(store)
            order = data.draw(st.permutations(range(len(workers))))
            merged = ResultStore()
            for index in order:
                merged.merge_from(workers[index])
                merged.merge_from(workers[index])   # duplicate merge
            assert merged.canonical_bytes() \
                == expected.canonical_bytes()
            total = sum(len({row for row in part}) for part in [
                {r for part in partitions for r in part}])
            assert len(merged) == total

        run()

    def test_pairwise_merge_order_is_commutative(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st
        keys = st.sampled_from(self.KEYS)

        @settings(max_examples=40, deadline=None)
        @given(rows_a=st.lists(keys, max_size=6),
               rows_b=st.lists(keys, max_size=6))
        def run(rows_a, rows_b):
            ab, ba = ResultStore(), ResultStore()
            a1, b1 = ResultStore(), ResultStore()
            _put_rows(a1, rows_a)
            _put_rows(b1, rows_b)
            _put_rows(ab, rows_a)
            ab.merge_from(b1)
            _put_rows(ba, rows_b)
            ba.merge_from(a1)
            assert ab.canonical_bytes() == ba.canonical_bytes()

        run()
