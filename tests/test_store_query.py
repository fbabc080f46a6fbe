"""The query surface, property-tested against its reference.

:func:`repro.store.query.query_rows` is the executable specification;
the sqlite store compiles the same ``ResultQuery`` to one SELECT.  A
seeded fuzz population (both record shapes, duplicate sort values,
shared key prefixes, overwrites) is pushed through hundreds of random
queries and full pagination walks on both implementations — every page
and every cursor must agree exactly.  The keyset-stability tests then
pin the property the future HTTP service needs: a cursor stays valid
while the store is being written to.
"""

from __future__ import annotations

import random

import pytest

from repro.batch import ResultCache
from repro.store import QueryError, ResultQuery, query_rows

VERDICTS = ["terminating", "non-terminating", "unknown"]
CRITERIA = ["WA", "SC", "SwA", "SR", "IR"]
DIMENSIONS = [None, None, None, "steps", "atoms"]
PREFIXES = ["a0", "a1", "b7", "ff"]


def _entry(rng: random.Random, i: int) -> tuple[str, str, dict]:
    """One synthetic cache record: classify- or evaluate-shaped."""
    key = rng.choice(PREFIXES) + f"{rng.getrandbits(32):08x}"
    if rng.random() < 0.5:
        data = {
            "verdict": rng.choice(VERDICTS),
            "accepted_by": rng.sample(CRITERIA, rng.randint(0, 3)),
        }
    else:
        data = {
            "semi_acyclic": rng.random() < 0.5,
            "chase_halted": rng.random() < 0.5,
        }
    record = {
        "name": f"p{rng.randint(0, 20)}",  # deliberate duplicates
        "data": data,
    }
    # ~1 in 4 records never measured wall-clock: elapsed_ms stays absent
    # and sorts as NULL.  Regression: the sqlite keyset cursor used to
    # compile to a bare row-value comparison, which evaluates to NULL on
    # these rows and silently dropped them mid-walk.
    if rng.random() < 0.75:
        record["elapsed_ms"] = float(rng.choice([0, 1, 1, 5, rng.randint(0, 50)]))
    dim = rng.choice(DIMENSIONS)
    if dim:
        record["exhausted"] = {"dimension": dim}
    return key, "params", record


def _populate(cache: ResultCache, rng: random.Random, n: int) -> None:
    keys = []
    for i in range(n):
        key, params, record = _entry(rng, i)
        cache.put(key, params, record)
        keys.append(key)
    # Overwrites re-mint seq, so the oracle must follow the rewrite.
    for key in rng.sample(keys, max(1, n // 10)):
        _, params, record = _entry(rng, -1)
        cache.put(key, params, record)


def _random_query(rng: random.Random, cursor: str | None = None) -> ResultQuery:
    sign = rng.choice(["", "-"])
    return ResultQuery(
        verdict=rng.choice([None, None] + VERDICTS),
        criterion=rng.choice([None, None] + CRITERIA),
        exhausted=rng.choice([None, None, True, False]),
        key_prefix=rng.choice([None, None] + PREFIXES + ["a"]),
        sort=sign + rng.choice(["seq", "name", "verdict", "elapsed_ms", "key"]),
        limit=rng.choice([1, 3, 7, 50]),
        cursor=cursor,
    )


def _walk(run, q: ResultQuery) -> list[dict]:
    """Exhaust a query's pagination (from ``q.cursor``, if set); returns
    every emitted row."""
    emitted = []
    cursor = q.cursor
    for _ in range(1000):  # hard stop against a cursor loop
        page = run(
            ResultQuery(
                verdict=q.verdict, criterion=q.criterion,
                exhausted=q.exhausted, key_prefix=q.key_prefix,
                sort=q.sort, limit=q.limit, cursor=cursor,
            )
        )
        emitted.extend(page.rows)
        if page.next_cursor is None:
            return emitted
        cursor = page.next_cursor
    raise AssertionError("pagination never terminated")


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("query"))
    _populate(cache, random.Random(7), 150)
    return cache


class TestSqliteMatchesReference:
    def test_single_pages_agree(self, populated):
        rng = random.Random(11)
        rows = populated._table.rows()
        for _ in range(300):
            q = _random_query(rng)
            got = populated.query(q)
            want = query_rows(rows, q)
            assert got.rows == want.rows, f"page mismatch for {q}"
            assert got.next_cursor == want.next_cursor, f"cursor mismatch for {q}"

    def test_full_walks_agree_and_cover_exactly(self, populated):
        rng = random.Random(13)
        rows = populated._table.rows()
        for _ in range(60):
            q = _random_query(rng)
            got = _walk(populated.query, q)
            want = _walk(lambda qq: query_rows(rows, qq), q)
            assert got == want
            # A walk is a permutation-free cover of the filtered set.
            seqs = [r["seq"] for r in got]
            assert len(seqs) == len(set(seqs))

    def test_cursor_round_trips_through_pages(self, populated):
        page = populated.query(sort="name", limit=5)
        assert page.next_cursor is not None
        nxt = populated.query(sort="name", limit=5, cursor=page.next_cursor)
        first = {r["seq"] for r in page.rows}
        assert first.isdisjoint(r["seq"] for r in nxt.rows)


class TestKeysetStability:
    """Rows inserted behind an open cursor never shift, duplicate, or
    hide rows already emitted."""

    def test_inserts_behind_the_cursor_do_not_disturb_the_walk(self, tmp_path):
        cache = ResultCache(tmp_path)
        rng = random.Random(31)
        _populate(cache, rng, 60)
        q = ResultQuery(sort="name", limit=5)
        original = {r["seq"] for r in _walk(cache.query, q)}
        emitted: list[dict] = []
        cursor = None
        step = 0
        while True:
            page = cache.query(
                ResultQuery(sort="name", limit=5, cursor=cursor)
            )
            emitted.extend(page.rows)
            if page.next_cursor is None:
                break
            cursor = page.next_cursor
            # Interleave: insert rows sorting strictly *behind* the
            # cursor (names below every generated "p…" name).
            cache.put(f"zz{step:04d}", "params",
                      {"name": f"a-behind-{step}", "data": {}})
            step += 1
        seqs = [r["seq"] for r in emitted]
        assert len(seqs) == len(set(seqs)), "a row was emitted twice"
        assert original <= set(seqs), "an original row was hidden"
        assert step > 0  # the interleaving actually happened

    def test_inserts_ahead_of_the_cursor_are_picked_up(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(6):
            cache.put(f"k{i}", "params", {"name": f"m{i}", "data": {}})
        page = cache.query(sort="name", limit=3)
        cache.put("late", "params", {"name": "z-late", "data": {}})
        rest = _walk(
            cache.query,
            ResultQuery(sort="name", limit=3, cursor=page.next_cursor),
        )
        assert "z-late" in [r["name"] for r in rest]


class TestNullSortValues:
    """NULL elapsed_ms rows paginate like any others (NULLs first
    ascending / last descending, ties by seq) instead of vanishing."""

    @pytest.mark.parametrize("sort", ["elapsed_ms", "-elapsed_ms"])
    def test_walk_covers_null_rows_exactly_once(self, tmp_path, sort):
        cache = ResultCache(tmp_path)
        _populate(cache, random.Random(37), 40)
        rows = cache._table.rows()
        nulls = [r["seq"] for r in rows if r["elapsed_ms"] is None]
        assert nulls, "population must include unmeasured records"
        emitted = _walk(cache.query, ResultQuery(sort=sort, limit=3))
        seqs = [r["seq"] for r in emitted]
        assert len(seqs) == len(set(seqs))
        assert set(seqs) == {r["seq"] for r in rows}

    def test_cursor_landing_on_a_null_row_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(4):
            cache.put(f"n{i}", "params", {"name": f"u{i}", "data": {}})
        for i in range(4):
            cache.put(f"m{i}", "params",
                      {"name": f"m{i}", "data": {}, "elapsed_ms": float(i)})
        # Ascending sorts NULLs first, so page one ends on a NULL row
        # and its cursor value is JSON null.
        page = cache.query(sort="elapsed_ms", limit=2)
        assert page.next_cursor is not None
        assert "null" in page.next_cursor
        rest = _walk(
            cache.query,
            ResultQuery(sort="elapsed_ms", limit=2, cursor=page.next_cursor),
        )
        assert len(page.rows) + len(rest) == 8
        first = {r["seq"] for r in page.rows}
        assert first.isdisjoint(r["seq"] for r in rest)


class TestLegacySchemaMigration:
    def test_not_null_elapsed_ms_store_is_rebuilt_in_place(self, tmp_path):
        """A store created by the old NOT NULL schema accepts unmeasured
        records after reopening (the table is rebuilt once on open)."""
        import sqlite3

        from repro.store.sqlite import STORE_NAME

        path = tmp_path / STORE_NAME
        # repro-lint: disable=fork-safety -- forging a legacy-schema store file; never crosses a fork
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE results (
                seq        INTEGER PRIMARY KEY AUTOINCREMENT,
                schema     INTEGER NOT NULL,
                key        TEXT    NOT NULL,
                params     TEXT    NOT NULL,
                name       TEXT    NOT NULL DEFAULT '',
                verdict    TEXT    NOT NULL DEFAULT '',
                accepted   TEXT    NOT NULL DEFAULT '',
                exhausted  TEXT,
                elapsed_ms REAL    NOT NULL DEFAULT 0.0,
                entry      TEXT    NOT NULL,
                UNIQUE (schema, key)
            );
            CREATE INDEX results_by_verdict
                ON results (schema, verdict, seq);
            CREATE INDEX results_by_name
                ON results (schema, name, seq);
            """
        )
        conn.close()
        cache = ResultCache(tmp_path)
        cache.put("unmeasured", "params", {"name": "u", "data": {}})
        (row,) = cache._table.rows()
        assert row["elapsed_ms"] is None
        # repro-lint: disable=fork-safety -- single-process schema inspection; never crosses a fork
        info = sqlite3.connect(path).execute(
            "PRAGMA table_info(results)"
        ).fetchall()
        (elapsed,) = [c for c in info if c[1] == "elapsed_ms"]
        assert not elapsed[3]  # notnull flag cleared


class TestMalformedQueries:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sort": "owner"},
            {"sort": "-owner"},
            {"limit": 0},
            {"limit": -3},
            {"cursor": "not json"},
            {"cursor": "[1]"},
            {"cursor": '["x",1]', "sort": "seq"},
            {"cursor": "[1,2]", "sort": "name"},
            # null cursor values only fit nullable sort fields
            {"cursor": "[null,2]", "sort": "name"},
        ],
    )
    def test_query_error(self, tmp_path, kwargs):
        cache = ResultCache(tmp_path)
        cache.put("k", "p", {"name": "n", "data": {}})
        with pytest.raises(QueryError):
            cache.query(**kwargs)
