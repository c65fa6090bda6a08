"""The version-keyed intermediate cache: unit and end-to-end behavior.

Unit level: LRU accounting, copy-on-put/get safety (generated merge
templates sort staged structures in place), byte-budget eviction and
table-scoped invalidation.  End to end: a warm repeated query is
answered from the cache, and once writes have made its answer stale
it reuses the staged scan output of the table they did not touch
(visible in stats, EXPLAIN ANALYZE and Prometheus metrics); DML on one
table drops only the entries that read it, and DDL clears everything
(a recreated table restarts its version epoch, which would otherwise
alias stale keys).
"""

from __future__ import annotations


from repro import Column, Database, INT
from repro.parallel.intermediates import IntermediateCache


def _rows(n, start=0):
    return [(start + i, i % 7) for i in range(n)]


class TestIntermediateCacheUnit:
    def test_hit_and_miss_accounting(self):
        cache = IntermediateCache()
        sig = ("b", "sort", ("k",), 1, False, (), "()", ())
        assert cache.get("t", 1, sig) is None
        cache.put("t", 1, sig, [(1, 2), (3, 4)])
        assert cache.get("t", 1, sig) == [(1, 2), (3, 4)]
        # A different version of the same table never matches.
        assert cache.get("t", 2, sig) is None
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 2
        assert 0 < stats.hit_rate < 1

    def test_get_and_put_return_private_copies(self):
        cache = IntermediateCache()
        sig = ("b", "none", (), 1, False, (), "()", ())
        original = [(1,), (2,), (3,)]
        cache.put("t", 1, sig, original)
        original.append((4,))  # caller keeps mutating its list
        first = cache.get("t", 1, sig)
        assert first == [(1,), (2,), (3,)]
        first.sort(reverse=True)  # consumers sort staged rows in place
        assert cache.get("t", 1, sig) == [(1,), (2,), (3,)]

    def test_partitioned_shapes_copy_buckets(self):
        cache = IntermediateCache()
        sig = ("b", "partition", ("k",), 2, False, (), "()", ())
        staged = [[(1,), (2,)], [(3,)]]
        cache.put("t", 1, sig, staged)
        got = cache.get("t", 1, sig)
        got[0].clear()
        assert cache.get("t", 1, sig) == [[(1,), (2,)], [(3,)]]
        fine_sig = ("b", "partition", ("k",), 2, True, (), "()", ())
        cache.put("t", 1, fine_sig, {0: [(1,)], 1: [(2,)]})
        fine = cache.get("t", 1, fine_sig)
        fine[0].append((9,))
        assert cache.get("t", 1, fine_sig) == {0: [(1,)], 1: [(2,)]}

    def test_byte_budget_evicts_lru(self):
        cache = IntermediateCache(capacity_bytes=4096)
        big = [(i, i) for i in range(30)]  # ~2.6 KiB each
        cache.put("t", 1, ("a",), big)
        cache.put("t", 1, ("b",), big)  # over budget: "a" evicted
        assert cache.get("t", 1, ("a",)) is None
        assert cache.get("t", 1, ("b",)) is not None
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.bytes <= stats.capacity_bytes

    def test_value_larger_than_budget_not_admitted(self):
        cache = IntermediateCache(capacity_bytes=512)
        cache.put("t", 1, ("a",), [(i, i) for i in range(100)])
        assert len(cache) == 0

    def test_invalidate_is_table_scoped(self):
        cache = IntermediateCache()
        cache.put("t", 1, ("a",), [(1,)])
        cache.put("t", 2, ("a",), [(2,)])
        cache.put("u", 1, ("a",), [(3,)])
        assert cache.invalidate_table("t") == 2
        assert cache.get("u", 1, ("a",)) is not None
        assert cache.stats().invalidations == 2
        assert cache.clear() == 1


class TestIntermediateCacheEndToEnd:
    """The cache under ``run_query``.  An answer is banked from its
    second miss, a staging from its second miss under a stale answer."""

    def _db(self) -> Database:
        db = Database()
        db.create_table("t", [Column("a", INT), Column("b", INT)])
        db.load_rows("t", _rows(20_000))
        db.create_table("u", [Column("k", INT), Column("v", INT)])
        db.load_rows("u", _rows(20_000))
        db.analyze()
        return db

    _JOIN = (
        "SELECT t.b AS g, count(u.v) AS n FROM t, u "
        "WHERE t.a = u.k GROUP BY t.b"
    )

    @staticmethod
    def _stale(db: Database) -> None:
        """Stale the join's answer, not its rows: no ``t.a`` is -1."""
        db.execute("INSERT INTO u VALUES (-1, 1)")

    def _bank_stagings(self, db: Database) -> list:
        """Run the join until both inputs' stagings are banked: the
        answer banks on the second run, and each stale answer after it
        sights, then banks, the stagings under it."""
        rows = db.execute(self._JOIN)
        assert db.execute(self._JOIN) == rows
        for _ in range(2):
            self._stale(db)
            assert db.execute(self._JOIN) == rows
        return rows

    def test_warm_query_reuses_staged_intermediates(self):
        db = self._db()
        try:
            cold = db.execute(self._JOIN)
            assert db.intermediates.stats().entries == 0  # first sighting
            assert db.execute(self._JOIN) == cold
            assert db.intermediates.stats().entries == 1  # the answer
            assert db.execute(self._JOIN) == cold
            assert db.intermediates.stats().answers == 1
            self._bank_stagings(db)
            # A new preparation is a first sighting of its answer, and
            # reads the stagings the old one banked.
            db.service.cache.invalidate()
            hits = db.intermediates.stats().hits
            warm = db.execute(self._JOIN)
            assert warm == cold
            stats = db.intermediates.stats()
            assert stats.hits - hits >= 2  # both join inputs reused
        finally:
            db.close()

    def test_dml_invalidates_only_the_mutated_table(self):
        db = self._db()
        try:
            self._bank_stagings(db)
            entries_before = db.intermediates.stats().entries
            assert entries_before >= 2
            db.execute("INSERT INTO u VALUES (99999, 1)")
            stats = db.intermediates.stats()
            assert stats.invalidations >= 1
            assert stats.entries < entries_before  # u dropped, t kept
            assert stats.entries >= 1
            # Re-running stages u afresh and reuses t.
            hits_before = stats.hits
            db.execute(self._JOIN)
            assert db.intermediates.stats().hits > hits_before
        finally:
            db.close()

    def test_ddl_clears_everything(self):
        db = self._db()
        try:
            self._bank_stagings(db)
            assert db.intermediates.stats().entries > 0
            db.create_table("w", [Column("x", INT)])
            assert db.intermediates.stats().entries == 0
        finally:
            db.close()

    def test_results_stay_correct_after_reuse_and_mutation(self):
        db = self._db()
        try:
            sql = "SELECT count(a) AS n FROM t WHERE b = 3"
            first = db.execute(sql)
            assert db.execute(sql) == first  # warm, possibly cached
            db.execute("INSERT INTO t VALUES (90001, 3)")
            after = db.execute(sql)
            assert after == [(first[0][0] + 1,)]
        finally:
            db.close()

    def test_parameter_vector_is_part_of_the_key(self):
        db = self._db()
        try:
            sql = (
                "SELECT t.b AS g, count(u.v) AS n FROM t, u "
                "WHERE t.a = u.k AND t.b = ? GROUP BY t.b"
            )
            three = db.execute(sql, params=(3,))
            four = db.execute(sql, params=(4,))
            assert three != four
            # Repeat with the original parameter: still the first rows.
            assert db.execute(sql, params=(3,)) == three
        finally:
            db.close()

    def test_explain_analyze_reports_reuse(self):
        db = self._db()
        try:
            self._bank_stagings(db)
            self._stale(db)
            text = db.explain_analyze(self._JOIN)
            assert "staging: reused cached intermediate" in text
            assert "serial-fallback" not in text
        finally:
            db.close()

    def test_stats_surface_in_metrics_and_insights(self):
        db = self._db()
        try:
            self._bank_stagings(db)
            self._stale(db)
            db.execute(self._JOIN)  # t's staging reused
            db.execute(self._JOIN)  # the answer recycled
            metrics = db.metrics_text()
            assert "repro_intermediate_cache_hits_total" in metrics
            assert "repro_intermediate_cache_answers_total 1" in metrics
            assert "repro_intermediate_cache_stale_total 3" in metrics
            snapshot = db.insights().snapshot()
            assert snapshot["intermediate_cache"]["hits"] >= 2
            assert snapshot["intermediate_cache"]["answers"] == 1
            assert snapshot["intermediate_cache"]["stale"] == 3
            text = db.insights_text()
            assert "intermediate cache:" in text
            assert "1 answer(s) recycled, 3 stale" in text
        finally:
            db.close()
