"""Cache correctness: hits, misses, invalidation, corruption recovery,
and the cached-equals-fresh differential guarantee."""

from __future__ import annotations

import dataclasses
import sqlite3

import pytest

from repro.batch import (
    SCHEMA_VERSION,
    BatchConfig,
    ResultCache,
    canonical_fingerprint,
    evaluate_corpus,
)
from repro.budget import Cancellation
from repro.generators import generate_corpus, random_isomorph
from repro.io import jsonl_dumps


@pytest.fixture
def small_corpus():
    return generate_corpus(scale=0.03, tests_scale=0.05, max_size=15)


def config(tmp_path, **kwargs) -> BatchConfig:
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    kwargs.setdefault("chase_steps", 300)
    return BatchConfig(**kwargs)


def age_schema(cache: ResultCache) -> None:
    """Rewrite every stored entry as if an older engine wrote it."""
    # repro-lint: disable=fork-safety -- test fixture rewrites schema versions directly; cache handle is closed
    with sqlite3.connect(cache.path) as conn:
        conn.execute("UPDATE results SET schema = ?", (SCHEMA_VERSION - 1,))


def legacy_line(key: str, answer: int) -> str:
    """One ``results.jsonl`` line as an older, JSONL-backed engine wrote it."""
    return jsonl_dumps(
        {"schema": SCHEMA_VERSION, "key": key, "params": "p1",
         "record": {"answer": answer}}
    )


class TestCacheBasics:
    def test_hit_and_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("k1", "p1") is None
        cache.put("k1", "p1", {"answer": 42})
        assert cache.get("k1", "p1") == {"answer": 42}
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        cache.close()
        # A fresh process sees the same entry.
        reread = ResultCache(tmp_path)
        assert reread.stats.loaded == 1
        assert reread.get("k1", "p1") == {"answer": 42}

    def test_params_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", "p1", {"answer": 42})
        assert cache.get("k1", "other-params") is None
        assert cache.stats.params_misses == 1

    def test_last_write_wins(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", "p1", {"answer": 1})
        cache.put("k1", "p1", {"answer": 2})
        cache.close()
        reread = ResultCache(tmp_path)
        assert reread.get("k1", "p1") == {"answer": 2}
        assert len(reread) == 1

    def test_schema_bump_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", "p1", {"answer": 42})
        cache.close()
        age_schema(cache)
        stale = ResultCache(tmp_path)
        assert stale.get("k1", "p1") is None
        assert stale.stats.stale_schema == 1
        assert len(stale) == 0

    def test_corrupted_line_recovery(self, tmp_path):
        # A legacy results.jsonl migrates line by line: damage in the
        # middle — garbage, a truncated record (a crashed writer's torn
        # final line), a non-object line — is counted and skipped, and a
        # good record *after* the damage still loads.
        good = legacy_line("k1", 1)
        (tmp_path / "results.jsonl").write_text(
            good + "\n"
            + "<<<not json>>>\n"
            + good[: len(good) // 2] + "\n"
            + "[1, 2, 3]\n"
            + legacy_line("k2", 2) + "\n"
        )
        recovered = ResultCache(tmp_path)
        assert recovered.stats.corrupted == 3
        assert recovered.stats.imported == 2
        assert recovered.get("k1", "p1") == {"answer": 1}
        assert recovered.get("k2", "p1") == {"answer": 2}

    def test_blank_lines_are_not_corruption(self, tmp_path):
        (tmp_path / "results.jsonl").write_text(
            "\n" + legacy_line("k1", 1) + "\n\n\n"
        )
        cache = ResultCache(tmp_path)
        assert cache.stats.corrupted == 0
        assert cache.stats.imported == 1


class TestEngineCaching:
    def test_differential_cached_equals_fresh(self, tmp_path, small_corpus):
        """The load-bearing guarantee: a warm run returns byte-identical
        evaluations to the cold run that populated the cache, and a
        cache-less run agrees on every verdict."""
        cfg = config(tmp_path)
        cold = evaluate_corpus(small_corpus, cfg)
        warm = evaluate_corpus(small_corpus, cfg)
        assert warm.computed == 0
        assert warm.hits + warm.deduplicated == len(small_corpus)
        assert [dataclasses.asdict(e) for e in cold.evaluations()] == [
            dataclasses.asdict(e) for e in warm.evaluations()
        ]
        fresh = evaluate_corpus(
            small_corpus, BatchConfig(chase_steps=cfg.chase_steps)
        )
        verdicts = lambda r: [  # noqa: E731 - local projection
            (e.name, e.semi_acyclic, e.chase_halted, e.adorned_size)
            for e in r.evaluations()
        ]
        assert verdicts(fresh) == verdicts(warm)

    def test_isomorphic_twin_hits(self, tmp_path, small_corpus):
        """A renamed/reordered corpus is served entirely from the cache
        populated by the original — the content-addressing payoff."""
        cfg = config(tmp_path)
        evaluate_corpus(small_corpus, cfg)
        twins = [
            dataclasses.replace(o, sigma=random_isomorph(o.sigma, seed=o.seed))
            for o in small_corpus
        ]
        warm = evaluate_corpus(twins, cfg)
        assert warm.computed == 0

    def test_changed_program_is_recomputed(self, tmp_path, small_corpus):
        cfg = config(tmp_path)
        evaluate_corpus(small_corpus, cfg)
        changed = list(small_corpus)
        grown = changed[0].sigma.relabel()
        extra = generate_corpus(scale=0.03, tests_scale=0.05, max_size=15,
                                seed=999)[0].sigma
        for d in extra:
            grown.add(d)
        changed[0] = dataclasses.replace(changed[0], sigma=grown)
        warm = evaluate_corpus(changed, cfg)
        assert warm.computed == 1

    def test_params_change_recomputes(self, tmp_path, small_corpus):
        evaluate_corpus(small_corpus, config(tmp_path, chase_steps=300))
        other = evaluate_corpus(small_corpus, config(tmp_path, chase_steps=301))
        assert other.computed > 0
        assert other.hits == 0

    def test_no_resume_recomputes_but_refreshes(self, tmp_path, small_corpus):
        cfg = config(tmp_path)
        evaluate_corpus(small_corpus, cfg)
        refresh = evaluate_corpus(
            small_corpus, dataclasses.replace(cfg, resume=False)
        )
        assert refresh.computed > 0 and refresh.hits == 0
        warm = evaluate_corpus(small_corpus, cfg)
        assert warm.computed == 0

    def test_interrupt_then_resume(self, tmp_path, small_corpus):
        """A cancelled run keeps what it finished; the re-run picks up
        exactly the remainder (the resume semantics of DESIGN.md §4)."""
        cancelled = Cancellation()
        cancelled.cancel()
        cfg = config(tmp_path)
        # Pre-tripped token: the drain happens before anything runs.
        nothing = evaluate_corpus(small_corpus, cfg, cancellation=cancelled)
        assert nothing.interrupted and not nothing.complete
        assert nothing.computed == 0
        # Partial progress: evaluate a prefix, then resume the full corpus.
        prefix = evaluate_corpus(small_corpus[:4], cfg)
        assert prefix.computed > 0
        resumed = evaluate_corpus(small_corpus, cfg)
        assert resumed.complete
        assert resumed.computed + resumed.hits + resumed.deduplicated == len(
            small_corpus
        )
        assert resumed.computed <= len(small_corpus) - 4

    def test_pool_honours_pretripped_cancellation(self, tmp_path, small_corpus):
        """Regression: the jobs>1 path used to submit (and compute) work
        even when the cancellation token was already tripped — the token
        was only polled after the first completion."""
        cancelled = Cancellation()
        cancelled.cancel()
        report = evaluate_corpus(
            small_corpus, config(tmp_path, jobs=2), cancellation=cancelled
        )
        assert report.interrupted and report.computed == 0

    def test_exhausted_is_persisted(self, tmp_path, small_corpus):
        """A budget-exhausted verdict must come back from the cache as
        exhausted — a cached rejection is only as trustworthy as its
        budget, and the CLI's exit code 2 depends on seeing it."""
        cfg = config(tmp_path, budget_steps=1)
        cold = evaluate_corpus(small_corpus[:2], cfg)
        warm = evaluate_corpus(small_corpus[:2], cfg)
        assert warm.computed == 0
        assert cold.any_exhausted and warm.any_exhausted
        dims = [r.exhausted["dimension"] for r in warm.results if r.exhausted]
        assert "steps" in dims

    def test_sharding_partitions_and_shares_cache(self, tmp_path, small_corpus):
        cfg = config(tmp_path)
        seen: list[str] = []
        for i in range(3):
            shard = evaluate_corpus(
                small_corpus, dataclasses.replace(cfg, shard=(i, 3))
            )
            assert shard.complete
            seen += [r.name for r in shard.results]
        assert sorted(seen) == sorted(o.name for o in small_corpus)
        full = evaluate_corpus(small_corpus, cfg)
        assert full.computed == 0

    def test_pool_agrees_with_inline(self, tmp_path, small_corpus):
        inline = evaluate_corpus(small_corpus, BatchConfig(chase_steps=300))
        pooled = evaluate_corpus(
            small_corpus,
            config(tmp_path, jobs=2),
        )
        project = lambda r: [  # noqa: E731 - local projection
            (e.name, e.semi_acyclic, e.chase_halted, e.adorned_size)
            for e in r.evaluations()
        ]
        assert project(inline) == project(pooled)

    def test_classify_mode_round_trip(self, tmp_path, small_corpus):
        cfg = config(tmp_path, mode="classify", criteria=["WA", "SC", "SwA"])
        cold = evaluate_corpus(small_corpus[:4], cfg)
        warm = evaluate_corpus(small_corpus[:4], cfg)
        assert warm.computed == 0
        assert [r.record["data"] for r in cold.results] == [
            r.record["data"] for r in warm.results
        ]
        with pytest.raises(ValueError):
            warm.evaluations()


class TestFingerprintKeying:
    def test_key_is_the_fingerprint(self, tmp_path, small_corpus):
        cfg = config(tmp_path)
        report = evaluate_corpus(small_corpus[:1], cfg)
        assert report.results[0].key == canonical_fingerprint(
            small_corpus[0].sigma
        )
