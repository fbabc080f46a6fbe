"""The batch engine's persisted firing-decision artifacts
(``repro.batch.artifacts``): codec round-trip, renaming invariance,
store durability, and the warm-start contract — a rerun that misses the
result cache (changed evaluation parameters) must still skip its chase
probes.
"""

from __future__ import annotations

import random
import sqlite3

from repro.analysis import classify
from repro.batch import (
    ARTIFACT_SCHEMA,
    ArtifactStore,
    BatchConfig,
    canonical_fingerprint,
    decisions_to_json,
    evaluate_corpus,
    seed_decisions,
)
from repro.firing.relations import DecisionCache
from repro.generators import random_dependency_set
from repro.generators.corpus import GeneratedOntology
from repro.generators.metamorphic import rename_predicates, rename_variables
from repro.io import jsonl_dumps


def _classify_decisions(sigma) -> DecisionCache:
    """Run the full portfolio over a fresh decision cache and return it."""
    cache = DecisionCache()
    classify(sigma, decisions=cache)
    return cache


def _programs(seeds):
    return [
        GeneratedOntology(
            name=f"p{seed}",
            class_name="t",
            sigma=random_dependency_set(seed, n_deps=3, egd_fraction=0.3),
            seed=seed,
            character="t",
        )
        for seed in seeds
    ]


class TestCodec:
    def test_roundtrip_repopulates_every_own_decision(self):
        sigma = random_dependency_set(4, n_deps=3, egd_fraction=0.3)
        cache = _classify_decisions(sigma)
        records = decisions_to_json(sigma, cache)
        assert records, "the portfolio should have decided some edges"
        fresh = DecisionCache()
        seeded = seed_decisions(sigma, records, fresh)
        assert seeded == len(records)
        own = {
            key: d.edge
            for key, d in cache.snapshot().items()
            if all(r in sigma for r in (key[1], key[2]))
        }
        assert {k: d.edge for k, d in fresh.snapshot().items()} == own

    def test_foreign_dependencies_are_skipped(self):
        # LS probes pairs of the adorned set Σα through the same cache;
        # those must not serialise as artifacts of Σ.
        sigma = random_dependency_set(9, n_deps=3, egd_fraction=0.3)
        cache = _classify_decisions(sigma)
        records = decisions_to_json(sigma, cache)
        codes = {r["r1"] for r in records} | {r["r2"] for r in records}
        from repro.batch.artifacts import dependency_codes

        own = dependency_codes(sigma)
        assert own is not None
        assert codes <= set(own.values())

    def test_decisions_survive_renaming(self):
        # The twin shares the fingerprint, so the store would serve the
        # original's records to it — seeding them must fully warm the
        # twin's cache (probe count zero afterwards).
        sigma = random_dependency_set(6, n_deps=3, egd_fraction=0.3)
        records = decisions_to_json(sigma, _classify_decisions(sigma))
        rng = random.Random(1)
        twin = rename_variables(rename_predicates(sigma, rng), rng)
        assert canonical_fingerprint(twin) == canonical_fingerprint(sigma)
        warmed = DecisionCache()
        assert seed_decisions(twin, records, warmed) == len(records)
        # The oracle-heavy criteria probe only Σ's own pairs (LS would
        # also probe the adorned set Σα, which is never persisted).
        oracle_criteria = ["Str", "CStr", "SR", "IR", "S-Str"]
        report = classify(twin, criteria=oracle_criteria, decisions=warmed)
        stats = warmed.stats()
        assert stats["misses"] == 0, "a warm-started twin re-probed an edge"
        # And the verdicts match the original's (metamorphic invariance).
        original = classify(sigma, criteria=oracle_criteria)
        assert [(n, r.accepted) for n, r in report.results.items()] == [
            (n, r.accepted) for n, r in original.results.items()
        ]

    def test_symmetric_program_refuses_persistence(self):
        # Colour refinement cannot tell the two halves of a
        # predicate-symmetric program apart, so their codes collide and
        # the ordered pairs (d1,d1)/(d1,d2) would serialise identically.
        # Such programs must opt out of persistence entirely: seeding a
        # conflated decision once flipped exact rejections of this
        # non-terminating program into acceptances.
        from repro.model.parser import parse_dependencies

        sigma = parse_dependencies(
            "r1: P(x, y) -> exists z. Q(y, z)\n"
            "r2: Q(x, y) -> exists z. P(y, z)\n"
        )
        cache = _classify_decisions(sigma)
        assert decisions_to_json(sigma, cache) == []
        # And the seeding side refuses records too, even hand-made ones.
        fresh = DecisionCache()
        fake = [{"kind": "precedes", "r1": "c", "r2": "c",
                 "variant": "oblivious", "budget": 1,
                 "edge": False, "exact": True}]
        assert seed_decisions(sigma, fake, fresh) == 0

    def test_symmetric_program_warm_rerun_is_verdict_identical(self, tmp_path):
        from repro.model.parser import parse_dependencies

        sigma = parse_dependencies(
            "r1: P(x, y) -> exists z. Q(y, z)\n"
            "r2: Q(x, y) -> exists z. P(y, z)\n"
        )
        programs = [
            GeneratedOntology(name="sym", class_name="t", sigma=sigma,
                              seed=0, character="t")
        ]
        criteria = ["Str", "CStr", "SR", "IR", "S-Str"]
        cold = evaluate_corpus(
            programs,
            BatchConfig(mode="classify", cache_dir=tmp_path, criteria=criteria),
        )
        warm = evaluate_corpus(
            programs,
            BatchConfig(
                mode="classify", cache_dir=tmp_path,
                criteria=criteria, resume=False,
            ),
        )
        assert (
            warm.results[0].record["data"]["criteria"]
            == cold.results[0].record["data"]["criteria"]
        )

    def test_stale_records_degrade_to_cold_probes(self):
        sigma = random_dependency_set(6, n_deps=3)
        cache = DecisionCache()
        stale = [{"kind": "precedes", "r1": "gone", "r2": "gone",
                  "variant": "standard", "budget": 1, "edge": True,
                  "exact": True}]
        assert seed_decisions(sigma, stale, cache) == 0
        assert len(cache) == 0


REC = {"kind": "precedes", "r1": "a", "r2": "b",
       "variant": "standard", "budget": 1, "edge": True, "exact": True}


class TestArtifactStore:
    def test_put_get_and_merge_dedup(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.put("k", [REC]) == 1
        assert store.put("k", [REC]) == 0  # same probe: nothing appended
        store.close()
        reloaded = ArtifactStore(tmp_path)
        assert reloaded.get("k") == [REC]
        assert reloaded.get("other") == []

    def test_schema_bump_invalidates(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("k", [REC])
        store.close()
        # repro-lint: disable=fork-safety -- test fixture rewrites schema versions directly; store handle is closed
        with sqlite3.connect(store.path) as conn:
            conn.execute("UPDATE artifacts SET schema = ?", (ARTIFACT_SCHEMA + 1,))
        assert ArtifactStore(tmp_path).get("k") == []

    def test_corrupted_tail_is_skipped(self, tmp_path):
        # A legacy artifacts.jsonl whose writer crashed mid-line migrates
        # everything before the torn tail.
        (tmp_path / "artifacts.jsonl").write_text(
            jsonl_dumps({"schema": ARTIFACT_SCHEMA, "key": "k", "oracle": [REC]})
            + "\n"
            + '{"schema": 1, "key": "k2", "oracle": [tru'  # crash mid-line
        )
        reloaded = ArtifactStore(tmp_path)
        assert reloaded.imported == 1
        assert reloaded.get("k") == [REC]
        assert reloaded.get("k2") == []


class TestEngineWarmStart:
    def test_params_change_skips_chase_probes(self, tmp_path):
        programs = _programs(range(5))
        cold = evaluate_corpus(
            programs, BatchConfig(mode="classify", cache_dir=tmp_path)
        )
        assert cold.decisions_recorded > 0
        assert cold.decisions_preloaded == 0
        # Different criteria subset → params mismatch → every program is
        # a result-cache miss, but the decision layer is warm.
        warm = evaluate_corpus(
            programs,
            BatchConfig(
                mode="classify", cache_dir=tmp_path,
                criteria=["Str", "CStr", "SR", "IR", "S-Str"],
            ),
        )
        assert warm.computed == len(programs)
        assert warm.decisions_preloaded > 0
        assert warm.decisions_recorded == 0  # no new probes were needed
        # Verdicts agree with the cold run criterion by criterion.
        for a, b in zip(cold.results, warm.results):
            cold_criteria = a.record["data"]["criteria"]
            for name, verdict in b.record["data"]["criteria"].items():
                assert verdict["accepted"] == cold_criteria[name]["accepted"]

    def test_result_hits_do_not_touch_the_store(self, tmp_path):
        programs = _programs(range(3))
        config = BatchConfig(mode="classify", cache_dir=tmp_path)
        evaluate_corpus(programs, config)
        size = ArtifactStore(tmp_path).path.stat().st_size
        rerun = evaluate_corpus(programs, config)
        assert rerun.computed == 0
        assert ArtifactStore(tmp_path).path.stat().st_size == size

    def test_evaluate_mode_has_no_store(self, tmp_path):
        programs = _programs(range(2))
        report = evaluate_corpus(
            programs, BatchConfig(mode="evaluate", cache_dir=tmp_path)
        )
        assert report.decisions_recorded == 0
        assert len(ArtifactStore(tmp_path)) == 0
