"""put_many ≡ looped put, record for record.

The batched write path is a pure representation optimisation: one
transaction per batch instead of per record.  These tests pin that the
two paths are indistinguishable to every reader — same entries, same
last-write-wins resolution, same write order — and that the ``stats()``
hook reports the observable store state.
"""

from __future__ import annotations

from repro.batch.cache import ResultCache


def fill_looped(cache, items):
    for key, params, record in items:
        cache.put(key, params, record)


def fill_batched(cache, items):
    cache.put_many(list(items))


def sample_items(n=12):
    items = [
        (f"{i:02d}" * 8, f"params-{i % 3}", {"data": {"verdict": f"v{i}"}})
        for i in range(n)
    ]
    # Duplicate keys inside one batch: last write must win, exactly as
    # it does when the same sequence goes through put one at a time.
    items.append((items[0][0], "params-x", {"data": {"verdict": "rewritten"}}))
    return items


class TestPutManyEquivalence:
    def test_entries_identical_to_looped_put(self, tmp_path):
        items = sample_items()
        with ResultCache(tmp_path / "loop") as loop:
            fill_looped(loop, items)
            looped = loop.entries()
        with ResultCache(tmp_path / "batch") as batch:
            fill_batched(batch, items)
            batched = batch.entries()
        assert [e for _, e in looped] == [e for _, e in batched]
        assert len(batched) == len(items) - 1  # the rewrite collapsed

    def test_reload_sees_batched_writes(self, tmp_path):
        items = sample_items()
        with ResultCache(tmp_path) as cache:
            cache.put_many(items)
        with ResultCache(tmp_path) as cache:
            assert len(cache) == len(items) - 1
            key, params, record = items[-1]
            assert cache.get(key, params) == record
            for key, params, record in items[1:-1]:
                assert cache.get(key, params) == record

    def test_empty_batch_is_a_noop(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            cache.put_many([])
            assert len(cache) == 0

    def test_get_after_put_many_counts_hits(self, tmp_path):
        items = sample_items(4)[:4]
        with ResultCache(tmp_path) as cache:
            cache.put_many(items)
            for key, params, record in items:
                assert cache.get(key, params) == record
            assert cache.stats.hits == 4
            assert cache.get("absent" * 8, "p") is None
            assert cache.stats.misses == 1


class TestStats:
    def test_stats_snapshot_shape(self, tmp_path):
        items = sample_items(5)[:5]
        with ResultCache(tmp_path) as cache:
            cache.put_many(items)
            cache.get(items[0][0], items[0][1])
            cache.get("absent" * 8, "p")
            snap = cache.stats_snapshot()
        assert snap["entries"] == 5
        assert snap["hits"] == 1
        assert snap["misses"] == 1
        assert snap["hit_rate"] == 0.5
        store = snap["store"]
        assert store["tables"]["results"] == 5
        assert store["file_bytes"] > 0
        assert isinstance(store["wal_bytes"], int)
