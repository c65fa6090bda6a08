"""The query service: prepared statements, plan cache, sessions."""

import random
import threading

import pytest

from repro.api import Database, ENGINE_KINDS
from repro.errors import AdmissionError, BindError, ServiceError
from repro.service.cache import PlanCache
from repro.storage import Column, INT, Schema

#: (placeholder form, params, inlined form) triples over the t/u tables.
PARAMETERIZED_QUERIES = [
    (
        "SELECT a, b FROM t WHERE a = ?",
        (42,),
        "SELECT a, b FROM t WHERE a = 42",
    ),
    (
        "SELECT a, b, c FROM t WHERE a < ? AND k = ?",
        (50, 3),
        "SELECT a, b, c FROM t WHERE a < 50 AND k = 3",
    ),
    (
        "SELECT c, sum(b) AS s FROM t WHERE a >= ? GROUP BY c ORDER BY s DESC",
        (120,),
        "SELECT c, sum(b) AS s FROM t WHERE a >= 120 GROUP BY c ORDER BY s "
        "DESC",
    ),
    (
        "SELECT k, count(*) AS n FROM t WHERE c = ? GROUP BY k ORDER BY k",
        ("x1",),
        "SELECT k, count(*) AS n FROM t WHERE c = 'x1' GROUP BY k ORDER BY k",
    ),
    (
        "SELECT t.a, u.d FROM t, u WHERE t.k = u.k AND t.a < ?",
        (30,),
        "SELECT t.a, u.d FROM t, u WHERE t.k = u.k AND t.a < 30",
    ),
]


def canonical(rows):
    return sorted(
        repr([round(v, 6) if isinstance(v, float) else v for v in row])
        for row in rows
    )


# -- differential: params vs inlined literals, every engine ----------------------


@pytest.mark.parametrize("engine", ENGINE_KINDS)
@pytest.mark.parametrize(
    "sql,params,inlined", PARAMETERIZED_QUERIES, ids=lambda v: str(v)[:40]
)
def test_params_match_inlined_literals(simple_db, engine, sql, params, inlined):
    with_params = simple_db.execute(sql, engine=engine, params=params)
    direct = simple_db.engine(engine).execute(inlined)
    assert canonical(with_params) == canonical(direct)


@pytest.mark.parametrize("engine", ENGINE_KINDS)
def test_prepared_statement_repeats_with_fresh_params(simple_db, engine):
    stmt = simple_db.prepare("SELECT a, b FROM t WHERE a = ?", engine=engine)
    for value in (10, 55, 160):
        expected = simple_db.engine(engine).execute(
            f"SELECT a, b FROM t WHERE a = {value}"
        )
        assert canonical(stmt.execute((value,))) == canonical(expected)


def test_execute_many_matches_individual_executes(simple_db):
    results = simple_db.service.execute_many(
        "SELECT a, b FROM t WHERE k = ?", [(1,), (2,), (3,)]
    )
    for params, rows in zip([(1,), (2,), (3,)], results):
        assert canonical(rows) == canonical(
            simple_db.execute("SELECT a, b FROM t WHERE k = ?", params=params)
        )


# -- parameter contract ------------------------------------------------------------


def test_missing_params_is_an_error(simple_db):
    with pytest.raises(ServiceError):
        simple_db.execute("SELECT a FROM t WHERE a = ?")


def test_wrong_arity_is_an_error(simple_db):
    stmt = simple_db.prepare("SELECT a FROM t WHERE a = ? AND k = ?")
    with pytest.raises(ServiceError):
        stmt.execute((1,))


def test_literal_statement_accepts_param_override(simple_db):
    stmt = simple_db.prepare("SELECT a, b FROM t WHERE a = 10")
    assert stmt.default_params == (10,)
    assert canonical(stmt.execute((20,))) == canonical(
        simple_db.engine("hique").execute("SELECT a, b FROM t WHERE a = 20")
    )


# -- the normalizing cache ---------------------------------------------------------


def test_literal_varying_queries_share_one_compiled_plan(simple_db):
    service = simple_db.service
    compiler = simple_db.engine("hique").compiler
    before = compiler._counter

    simple_db.execute("SELECT a, b FROM t WHERE a = 1")
    simple_db.execute("SELECT a, b FROM t WHERE a = 2")
    simple_db.execute("SELECT a, b FROM t WHERE a = 3")

    stats = service.stats()
    assert compiler._counter == before + 1  # one codegen for three texts
    assert stats.cache.misses == 1
    assert stats.cache.hits == 2


def test_warm_execution_skips_all_preparation(simple_db):
    """Acceptance: a warm hit pays zero parse/optimize/generate/compile."""
    service = simple_db.service
    sql = "SELECT a, b FROM t WHERE a = ? AND k = ?"
    stmt = service.prepare(sql)
    entry = service.cache.entries()[-1]
    assert entry.value.prepared.timings.total_seconds > 0  # cold cost

    compiler = simple_db.engine("hique").compiler
    compiled_before = compiler._counter
    hits_before = service.cache.stats().hits
    text_hits_before = service.stats().text_hits

    stmt.execute((5, 1))
    service.execute(sql, params=(6, 2))  # same text: parse skipped too

    stats = service.stats()
    assert compiler._counter == compiled_before  # no generate/compile
    assert stats.cache.hits == hits_before + 2  # hit counter increments
    assert stats.text_hits == text_hits_before + 1
    assert stats.cache.seconds_saved > 0


def test_per_entry_hit_counts(simple_db):
    service = simple_db.service
    stmt = service.prepare("SELECT a FROM t WHERE a = ?")
    stmt.execute((1,))
    stmt.execute((2,))
    entry = service.cache.entries()[-1]
    assert entry.hits == 2
    assert entry.key == ("hique", "SELECT a FROM t WHERE a = ?", (None,))


def test_warm_cache_does_not_skip_type_checking(simple_db):
    """c = 'x1' and c = 3 normalize to the same SQL but must not share
    a plan: the second is a type error whether the cache is warm or
    cold."""
    simple_db.execute("SELECT a FROM t WHERE c = 'x1'")
    with pytest.raises(BindError):
        simple_db.execute("SELECT a FROM t WHERE c = 3")
    # And the reverse order, against a warm numeric entry.
    simple_db.execute("SELECT a FROM t WHERE a = 1")
    with pytest.raises(BindError):
        simple_db.execute("SELECT a FROM t WHERE a = 'oops'")


def test_one_shot_execute_rejects_params_without_placeholders(simple_db):
    with pytest.raises(ServiceError):
        simple_db.execute("SELECT a FROM t WHERE a = 1", params=(5,))


def test_override_values_are_type_checked(simple_db):
    """A statement bound for a CHAR parameter must reject an int value
    rather than silently comparing unequal everywhere."""
    stmt = simple_db.prepare("SELECT a FROM t WHERE c = 'x1'")
    assert stmt.execute() != []
    with pytest.raises(ServiceError):
        stmt.execute((3,))
    numeric = simple_db.prepare("SELECT a FROM t WHERE a < ?")
    with pytest.raises(ServiceError):
        numeric.execute(("abc",))
    assert numeric.execute((5,)) == simple_db.engine("hique").execute(
        "SELECT a FROM t WHERE a < 5"
    )


def test_date_objects_accepted_as_parameters():
    import datetime

    from repro.storage import DATE, DOUBLE, date_to_ordinal

    db = Database()
    db.create_table(
        "events", [Column("d", DATE), Column("v", DOUBLE)]
    )
    day = datetime.date(1998, 9, 2)
    db.load_rows("events", [(day, 1.0), (datetime.date(1999, 1, 1), 2.0)])
    db.analyze()
    try:
        for engine in ("hique", "volcano"):
            by_object = db.execute(
                "SELECT v FROM events WHERE d = ?",
                engine=engine,
                params=(day,),
            )
            by_ordinal = db.execute(
                "SELECT v FROM events WHERE d = ?",
                engine=engine,
                params=(date_to_ordinal(day),),
            )
            assert by_object == by_ordinal == [(1.0,)]
            assert db.execute(
                "SELECT v FROM events WHERE d < ?",
                engine=engine,
                params=(datetime.date(1998, 12, 31),),
            ) == [(1.0,)]
    finally:
        db.close()


def test_stats_count_executions_not_lookups(simple_db):
    """One never-repeated query must record one miss, zero hits, and no
    phantom 'seconds saved'."""
    simple_db.execute("SELECT a, b, c, k FROM t WHERE a = 7")
    stats = simple_db.service.stats().cache
    assert stats.misses == 1
    assert stats.hits == 0
    assert stats.seconds_saved == 0


def test_statement_output_names(simple_db):
    stmt = simple_db.prepare("SELECT a, sum(b) AS s FROM t GROUP BY a")
    assert stmt.output_names == ["a", "s"]
    interpreted = simple_db.prepare(
        "SELECT a, b FROM t WHERE a = ?", engine="volcano"
    )
    assert interpreted.output_names == ["a", "b"]


def test_database_close_removes_catalog_listener(simple_catalog):
    before = len(simple_catalog._listeners)
    db = Database(catalog=simple_catalog)
    db.execute("SELECT a FROM t WHERE a = 1")
    db.close()
    assert len(simple_catalog._listeners) == before


def test_lru_eviction(simple_catalog):
    db = Database(catalog=simple_catalog, cache_capacity=2, max_workers=2)
    try:
        db.execute("SELECT a FROM t WHERE a = 1")
        db.execute("SELECT b FROM t WHERE a = 1")
        db.execute("SELECT c FROM t WHERE a = 1")  # evicts the oldest
        stats = db.service.stats().cache
        assert stats.size == 2
        assert stats.evictions == 1
        # The evicted shape must re-prepare (a miss), not error.
        db.execute("SELECT a FROM t WHERE a = 2")
        assert db.service.stats().cache.misses == 4
    finally:
        db.close()


# -- invalidation ------------------------------------------------------------------


def test_analyze_invalidates_cached_plans(simple_db):
    simple_db.execute("SELECT a FROM t WHERE a = 1")
    assert simple_db.service.stats().cache.size == 1
    simple_db.analyze()
    stats = simple_db.service.stats().cache
    assert stats.size == 0
    assert stats.invalidations == 1


def test_ddl_invalidates_cached_plans(simple_db):
    simple_db.execute("SELECT a FROM t WHERE a = 1")
    simple_db.create_table("extra", Schema([Column("x", INT)]))
    assert simple_db.service.stats().cache.size == 0
    simple_db.execute("SELECT a FROM t WHERE a = 1")
    simple_db.catalog.drop_table("extra")
    assert simple_db.service.stats().cache.size == 0


def test_statement_survives_invalidation(simple_db):
    stmt = simple_db.prepare("SELECT a, b FROM t WHERE a = ?")
    before = canonical(stmt.execute((7,)))
    simple_db.analyze()  # drops the cached plan under the statement
    assert canonical(stmt.execute((7,))) == before


# -- sessions / admission -----------------------------------------------------------


def test_concurrent_sessions_return_correct_rows(simple_db):
    futures = [
        simple_db.service.submit(
            "SELECT a, b FROM t WHERE k = ?", params=(i % 5,)
        )
        for i in range(16)
    ]
    for i, future in enumerate(futures):
        expected = simple_db.engine("hique").execute(
            f"SELECT a, b FROM t WHERE k = {i % 5}"
        )
        assert canonical(future.result(timeout=30)) == canonical(expected)
    stats = simple_db.service.stats()
    assert stats.submitted == 16
    assert stats.completed == 16
    assert stats.failed == 0
    assert stats.pending == 0


def test_admission_rejects_when_saturated(simple_db):
    service = simple_db.service
    service.max_pending = 0
    with pytest.raises(AdmissionError):
        service.submit("SELECT a FROM t WHERE a = 1")
    assert service.stats().rejected == 1


def test_failed_sessions_are_counted(simple_db):
    future = simple_db.service.submit("SELECT nope FROM t")
    with pytest.raises(Exception):
        future.result(timeout=30)
    assert simple_db.service.stats().failed == 1


def test_closed_service_refuses_work(simple_db):
    simple_db.service.close()
    with pytest.raises(ServiceError):
        simple_db.service.execute("SELECT a FROM t WHERE a = 1")
    with pytest.raises(ServiceError):
        simple_db.service.submit("SELECT a FROM t WHERE a = 1")


def test_close_drains_admitted_sessions(simple_catalog):
    """close() must *drain* queued work, not fail it: a session that
    won admission before the close completes with real rows instead of
    "query service is closed"."""
    import time

    from repro import Database as Db

    db = Db(catalog=simple_catalog, max_workers=1)
    service = db.service
    original = service.execute

    def slowed(sql, params=None, engine=None):
        time.sleep(0.05)  # hold the single worker so a queue builds
        return original(sql, params, engine)

    service.execute = slowed
    expected = db.execute("SELECT a, b FROM t WHERE k = 3")
    futures = [
        service.submit("SELECT a, b FROM t WHERE k = ?", params=(3,))
        for _ in range(6)
    ]
    service.close()  # queued sessions drain; new submissions reject
    for future in futures:
        assert future.result(timeout=30) == expected
    stats = service.stats()
    assert stats.completed == 6
    assert stats.failed == 0
    assert stats.pending == 0
    with pytest.raises(ServiceError):
        service.submit("SELECT a FROM t WHERE a = 1")
    db.close()


def test_futures_cancelled_while_queued_release_their_slots(
    simple_catalog,
):
    """Cancelling a still-queued future must free its admission slot
    and count as failed, leaving stats consistent."""
    import threading
    import time

    from repro import Database as Db

    db = Db(catalog=simple_catalog, max_workers=1)
    service = db.service
    service.max_pending = 64
    gate = threading.Event()
    original = service.execute

    def gated(sql, params=None, engine=None):
        gate.wait(timeout=30)
        return original(sql, params, engine)

    service.execute = gated
    blocker = service.submit("SELECT a FROM t WHERE a = 1")
    time.sleep(0.05)  # let the blocker occupy the only worker
    queued = [
        service.submit("SELECT a FROM t WHERE a = ?", params=(i,))
        for i in range(4)
    ]
    cancelled = [future.cancel() for future in queued]
    assert all(cancelled)  # still queued behind the blocker
    gate.set()
    assert blocker.result(timeout=30)
    stats = service.stats()
    assert stats.pending == 0
    assert stats.completed == 1
    assert stats.failed == 4  # the cancelled sessions
    assert stats.submitted == 5
    db.close()


def test_resolve_params_rejects_short_default_vector(simple_db):
    """A statement whose extracted literals do not cover every
    parameter must refuse to execute with the short vector."""
    import dataclasses

    stmt = simple_db.prepare("SELECT a, b FROM t WHERE a = 10")
    # Simulate a mixed explicit-?/extracted-literal statement: one
    # extracted value standing in front of two expected parameters.
    mixed = dataclasses.replace(
        stmt.parameterized, num_params=2
    )
    broken = dataclasses.replace(stmt, parameterized=mixed)
    with pytest.raises(ServiceError, match="extracted only 1"):
        broken.resolve_params(None)
    # Well-formed defaults still pass through untouched.
    assert stmt.resolve_params(None) == (10,)


def test_shell_sql_uses_one_preparation_per_shape():
    """The shell must not pay extra codegen for column names."""
    import io

    from repro.cli import Shell

    shell = Shell(stdout=io.StringIO())
    shell.handle(".tpch 0.0005")
    compiler = shell.db.engine("hique").compiler
    before = compiler._counter
    shell.handle("SELECT count(*) AS n FROM orders WHERE o_orderkey < 5")
    shell.handle("SELECT count(*) AS n FROM orders WHERE o_orderkey < 9")
    assert compiler._counter == before + 1
    assert "n\n" in shell.stdout.getvalue()  # header still rendered


# -- cost-aware cache admission -------------------------------------------------------


def test_cache_cost_aware_eviction_protects_valuable_entries():
    cache = PlanCache(capacity=2)
    cache.put("expensive", 1, cost_seconds=0.5, size_bytes=100)
    cache.put("cheap", 2, cost_seconds=0.001, size_bytes=100)
    # Hits earn the expensive entry its bytes even though it is LRU.
    cache.get("expensive")
    cache.get("cheap")
    cache.put("newcomer", 3, cost_seconds=0.1, size_bytes=100)
    assert "expensive" in cache
    assert "cheap" not in cache  # lowest seconds-saved/size score
    assert "newcomer" in cache
    assert cache.stats().policy.startswith("cost-aware")


def test_cache_ties_break_in_lru_order():
    cache = PlanCache(capacity=2)
    cache.put("first", 1)
    cache.put("second", 2)
    cache.put("third", 3)  # all scores zero: evict the LRU entry
    assert "first" not in cache
    assert "second" in cache and "third" in cache


def _full_scan_victim(cache: PlanCache, exclude) -> object:
    """Reference eviction rule: the lowest score, LRU order breaking
    ties, over every entry."""
    victim, best = None, None
    for entry in cache.entries():  # LRU → MRU
        if entry.key == exclude:
            continue
        if best is None or entry.score < best:
            victim, best = entry.key, entry.score
    return victim


def test_cache_early_exit_victim_matches_the_full_scan():
    """Stopping at the first zero score picks the full scan's victim."""
    rng = random.Random(20100419)
    for _ in range(300):
        cache = PlanCache(capacity=64)
        keys = list(range(rng.randrange(2, 40)))
        for key in keys:
            # Few distinct costs and sizes, so scores tie often
            # (0.1 / 100 == 0.2 / 200); cost 0 scores zero however hit.
            cache.put(
                key,
                key,
                cost_seconds=rng.choice((0.0, 0.1, 0.2)),
                size_bytes=rng.choice((100, 200)),
            )
        for key in rng.sample(keys, rng.randrange(len(keys) + 1)):
            cache.get(key)  # a hit gives a positive score, and recency
        exclude = rng.choice(keys)
        assert cache._pick_victim(exclude) == _full_scan_victim(
            cache, exclude
        )


def test_cache_entry_counters_update_under_lock():
    cache = PlanCache(capacity=4)
    cache.put("k", "v", cost_seconds=0.25)
    threads_n, per_thread = 8, 200

    def hammer():
        for _ in range(per_thread):
            cache.get("k")

    threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    entry = cache.entries()[-1]
    assert entry.hits == threads_n * per_thread  # no dropped increments
    assert entry.seconds_saved == pytest.approx(
        entry.hits * entry.cost_seconds
    )
    stats = cache.stats()
    assert stats.hits == threads_n * per_thread
    assert stats.seconds_saved == pytest.approx(entry.seconds_saved)
