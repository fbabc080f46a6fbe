"""The store's round-trip contract, end to end through the batch engine.

``store.sqlite`` is the one live store; JSONL is its export/import
format.  These tests pin:

* a warm run serves its cold run's records verbatim, in both modes;
* export → import into a fresh directory → export is a byte-identical
  fixed point, and the imported store warms a rerun completely;
* a legacy JSONL directory self-migrates on first open into exactly the
  store ``import_jsonl`` builds from the same files (one reader serves
  both), including the damage a crashed append-only writer leaves: a
  duplicated key resolves last-write-wins, a stale-schema line is
  skipped, a torn line is counted and skipped while the lines after it
  are kept, and artifact lines for one program merge, deduplicated by
  probe.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.batch import (
    ARTIFACT_SCHEMA,
    SCHEMA_VERSION,
    ArtifactStore,
    BatchConfig,
    ResultCache,
    evaluate_corpus,
)
from repro.generators import generate_corpus
from repro.io import jsonl_dumps
from repro.store import export_jsonl, import_jsonl, record_identity

CLASSIFY = dict(mode="classify", criteria=["SR", "IR"])


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(scale=0.03, tests_scale=0.05, max_size=15)


def run(corpus, cache_dir, **kwargs):
    kwargs.setdefault("chase_steps", 300)
    return evaluate_corpus(corpus, BatchConfig(cache_dir=cache_dir, **kwargs))


def export(cache_dir) -> tuple[str, str]:
    with ResultCache(cache_dir) as cache, ArtifactStore(cache_dir) as store:
        results_text, artifacts_text, _ = export_jsonl(cache, store)
    return results_text, artifacts_text


def import_into(cache_dir, results_text, artifacts_text):
    with ResultCache(cache_dir) as cache, ArtifactStore(cache_dir) as store:
        return import_jsonl(cache, results_text, store, artifacts_text)


class TestColdWarm:
    def test_warm_evaluate_run_serves_the_cold_records(self, corpus, tmp_path):
        cold = run(corpus, tmp_path)
        warm = run(corpus, tmp_path)
        assert cold.computed > 0 and warm.computed == 0
        assert [r.record for r in warm.results] == [
            r.record for r in cold.results
        ]
        assert [dataclasses.asdict(e) for e in warm.evaluations()] == [
            dataclasses.asdict(e) for e in cold.evaluations()
        ]

    def test_warm_classify_run_serves_the_cold_records(self, corpus, tmp_path):
        cold = run(corpus[:6], tmp_path, **CLASSIFY)
        warm = run(corpus[:6], tmp_path, **CLASSIFY)
        assert cold.decisions_recorded > 0  # non-vacuous artifact layer
        assert warm.computed == 0
        assert [r.record for r in warm.results] == [
            r.record for r in cold.results
        ]


class TestMigration:
    def test_legacy_jsonl_directory_self_migrates(self, corpus, tmp_path):
        cold = run(corpus, tmp_path / "src")
        results_text, _ = export(tmp_path / "src")
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        (legacy / "results.jsonl").write_text(results_text)
        # First open imports the log.
        cache = ResultCache(legacy)
        assert cache.stats.imported == len(cache)
        assert cache.stats.imported > 0
        cache.close()
        warm = run(corpus, legacy)
        assert warm.computed == 0
        assert [r.record for r in warm.results] == [
            r.record for r in cold.results
        ]
        assert (legacy / "results.jsonl").read_text() == results_text

    def test_migration_does_not_rerun_on_reopen(self, tmp_path):
        (tmp_path / "results.jsonl").write_text(
            "".join(_line(f"k{i}", {"i": i}) for i in range(4))
        )
        first = ResultCache(tmp_path)
        imported = first.stats.imported
        assert imported == 4
        first.close()
        again = ResultCache(tmp_path)
        assert again.stats.imported == 0
        assert again.stats.loaded == imported

    def test_self_migration_equals_import(self, corpus, tmp_path):
        run(corpus[:6], tmp_path / "src", **CLASSIFY)
        results_text, artifacts_text = _damaged_legacy(
            *export(tmp_path / "src")
        )
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        (legacy / "results.jsonl").write_text(results_text)
        (legacy / "artifacts.jsonl").write_text(artifacts_text)
        with ResultCache(legacy) as migrated, ArtifactStore(legacy) as store:
            stats = migrated.stats
            assert store.imported > 0
        report = import_into(tmp_path / "imported", results_text, artifacts_text)
        assert stats.imported == report.results
        assert stats.corrupted == 2  # the two torn results lines
        assert report.corrupted == 3  # … plus the torn artifacts tail
        assert export(legacy) == export(tmp_path / "imported")
        # The legacy files are left untouched.
        assert (legacy / "results.jsonl").read_text() == results_text
        assert (legacy / "artifacts.jsonl").read_text() == artifacts_text

    def test_legacy_damage_is_pinned(self, corpus, tmp_path):
        run(corpus[:6], tmp_path / "src", **CLASSIFY)
        clean_results, clean_artifacts = export(tmp_path / "src")
        results_text, artifacts_text = _damaged_legacy(
            clean_results, clean_artifacts
        )
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        (legacy / "results.jsonl").write_text(results_text)
        (legacy / "artifacts.jsonl").write_text(artifacts_text)
        clean = [json.loads(line) for line in clean_results.splitlines()]
        first_key, last_key = clean[0]["key"], clean[-1]["key"]
        with ResultCache(legacy) as cache:
            # Torn lines counted and skipped; the stale line is not
            # migrated; every key survives exactly once.
            assert cache.stats.corrupted == 2
            assert len(cache) == len(clean)
            # The duplicated key: the later line wins and moves last.
            assert cache.get(first_key, "rewritten") == {"rewritten": True}
            # The line after the mid-file torn line is kept.
            assert cache.get(last_key, clean[-1]["params"]) == (
                clean[-1]["record"]
            )
            assert "stale" not in cache
            assert [e["key"] for _, e in cache.entries()][-1] == first_key
        with ArtifactStore(legacy) as store:
            key, records = _first_artifact(clean_artifacts)
            # Re-appended records merged away; the one new probe added.
            assert store.get(key) == sorted(
                records + [_EXTRA_DECISION], key=record_identity
            )
            assert len(store) == len(clean_artifacts.splitlines())


class TestPortRoundTrip:
    def test_export_import_preserves_every_record(self, corpus, tmp_path):
        run(corpus[:6], tmp_path / "src", **CLASSIFY)
        src = tmp_path / "src"
        with ResultCache(src) as cache, ArtifactStore(src) as store:
            results_text, artifacts_text, exported = export_jsonl(cache, store)
        imported = import_into(tmp_path / "dst", results_text, artifacts_text)
        assert exported.artifacts > 0  # non-vacuous on the artifact side
        assert imported.results == exported.results
        assert imported.artifacts == exported.artifacts
        assert imported.programs == exported.programs
        assert imported.skipped == 0
        # The imported store warms a rerun exactly like the original.
        warm = run(corpus[:6], tmp_path / "dst", **CLASSIFY)
        assert warm.computed == 0

    def test_export_is_a_fixpoint(self, corpus, tmp_path):
        run(corpus[:5], tmp_path / "src", **CLASSIFY)
        results_text, artifacts_text = export(tmp_path / "src")
        import_into(tmp_path / "dst", results_text, artifacts_text)
        assert export(tmp_path / "dst") == (results_text, artifacts_text)

    def test_import_skips_stale_and_torn_lines(self, tmp_path):
        cache = ResultCache(tmp_path)
        text = (
            '{"schema": 999, "key": "old", "params": "p", "record": {}}\n'
            '{"schema": 1, "key": "good", "params": "p", "record": {"x": 1}}\n'
            '{"schema": 1, "key": "torn'
        )
        report = import_jsonl(cache, text)
        assert report.results == 1
        assert report.stale == 1 and report.corrupted == 1
        assert report.skipped == 2
        assert cache.get("good", "p") == {"x": 1}

    def test_import_counts_programs_not_lines(self, tmp_path):
        # An append-only artifacts.jsonl carries one line per write, so
        # one program can span several lines; they merge into one.
        lines = "".join(
            jsonl_dumps(
                {"schema": ARTIFACT_SCHEMA, "key": "k", "oracle": [_decision(i)]}
            ) + "\n"
            for i in range(3)
        )
        with ResultCache(tmp_path) as cache, ArtifactStore(tmp_path) as store:
            report = import_jsonl(cache, "", store, lines)
            assert len(store) == 1
        assert report.programs == 1
        assert report.artifacts == 3


def _line(key: str, record: dict, params: str = "p") -> str:
    return jsonl_dumps(
        {"schema": SCHEMA_VERSION, "key": key, "params": params,
         "record": record}
    ) + "\n"


def _decision(i: int) -> dict:
    return {"kind": "precedes", "r1": f"a{i}", "r2": "b", "variant": "standard",
            "budget": 1, "edge": True, "exact": True}


_EXTRA_DECISION = _decision(999)


def _first_artifact(artifacts_text: str) -> tuple[str, list[dict]]:
    line = json.loads(artifacts_text.splitlines()[0])
    return line["key"], line["oracle"]


def _damaged_legacy(results_text: str, artifacts_text: str) -> tuple[str, str]:
    """An export as an append-only JSONL writer would have left it.

    Results: a torn line mid-file (lines after it must survive), a
    rewrite of the first key (last write wins), a stale-schema line and
    a torn tail.  Artifacts: a second line for the first program that
    repeats its records plus one new probe (merge, deduplicated by
    probe), a stale-schema line and a torn tail.
    """
    lines = results_text.splitlines(keepends=True)
    first = json.loads(lines[0])
    results = (
        "".join(lines[:-1])
        + lines[-1][: len(lines[-1]) // 2] + "\n"
        + lines[-1]
        + _line(first["key"], {"rewritten": True}, params="rewritten")
        + jsonl_dumps({"schema": SCHEMA_VERSION + 1, "key": "stale",
                       "params": "p", "record": {}}) + "\n"
        + lines[0][:20]
    )
    key, records = _first_artifact(artifacts_text)
    artifacts = (
        artifacts_text
        + jsonl_dumps({"schema": ARTIFACT_SCHEMA, "key": key,
                       "oracle": records + [_EXTRA_DECISION]}) + "\n"
        + jsonl_dumps({"schema": ARTIFACT_SCHEMA + 1, "key": "stale",
                       "oracle": [_decision(0)]}) + "\n"
        + artifacts_text.splitlines()[0][:30]
    )
    return results, artifacts
