"""Batch engine acceptance bench: cold vs warm on the class-1 corpus.

The whole point of the content-addressed cache is that re-running a
corpus costs fingerprinting plus file reads, not classification.  This
bench pins that contract on the paper's first corpus class (E1-10/G1-10,
all 50 ontologies at bench scale):

* the **cold** run, against an empty cache, evaluates everything;
* the **warm** run performs **zero** evaluations (``computed == 0`` — the
  smoke assertion CI relies on) and finishes ≥10x faster.

The measured speedup is typically far above the floor; the floor is set
where a fingerprinting or cache-loading regression would trip it while
machine noise cannot.  Results land in ``benchmarks/results/batch.txt``
(the CI batch-smoke job publishes the hit-rate line in its job summary).
"""

from __future__ import annotations

import os
import time

from conftest import write_result

from repro.batch import BatchConfig, canonical_fingerprint, evaluate_corpus
from repro.generators import generate_corpus

#: Warm runs must beat cold runs at least this much (acceptance floor).
MIN_SPEEDUP = 10.0

CLASS_NAME = "E1-10/G1-10"


#: The warm rerun may not cost more than this over its unavoidable work:
#: fingerprinting every program of the corpus (the key of every lookup).
#: What is left on top — opening the store and one indexed point read
#: per program — must stay small next to it.
MAX_STORE_OVERHEAD = 1.5

#: Absolute slack for the floor comparison: at smoke scale both timings
#: are fractions of a second, where scheduler noise would dominate a
#: pure ratio.
NOISE_FLOOR_S = 0.25


def test_bench_batch_cold_vs_warm(tmp_path):
    corpus = generate_corpus(classes=[CLASS_NAME])
    chase_steps = int(os.environ.get("REPRO_CHASE_STEPS", "1200"))
    config = BatchConfig(cache_dir=tmp_path / "cache", chase_steps=chase_steps)

    start = time.perf_counter()
    cold = evaluate_corpus(corpus, config)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = evaluate_corpus(corpus, config)
    warm_s = time.perf_counter() - start

    # The warm run's unavoidable work: one canonical fingerprint per
    # program.  Its time is the floor the store is held to.
    start = time.perf_counter()
    for ont in corpus:
        canonical_fingerprint(ont.sigma)
    fp_floor_s = time.perf_counter() - start

    speedup = cold_s / max(warm_s, 1e-9)
    lines = [
        f"Batch evaluation — class {CLASS_NAME} synthetic corpus "
        f"({len(corpus)} ontologies)",
        "",
        f"cold run: {cold.computed} evaluated, "
        f"{cold.hits + cold.deduplicated} from cache, {cold_s:8.3f} s",
        f"warm run: {warm.computed} evaluated, "
        f"{warm.hits + warm.deduplicated} from cache, {warm_s:8.3f} s",
        f"speedup:  {speedup:.1f}x (acceptance floor: {MIN_SPEEDUP:.0f}x)",
        f"cache hit rate (warm): {warm.hit_rate:.0%}",
        "",
        f"warm rerun {warm_s:8.3f} s vs fingerprint floor "
        f"{fp_floor_s:8.3f} s (bound: warm <= "
        f"max({MAX_STORE_OVERHEAD:.1f}x floor, floor + {NOISE_FLOOR_S} s))",
        "",
        "warm-run verdicts are byte-identical to cold-run verdicts",
        "(differential-tested in tests/test_batch_cache.py and",
        "tests/test_store_differential.py).",
    ]
    write_result("batch", "\n".join(lines))

    # The smoke contract: a warm rerun classifies nothing…
    assert warm.computed == 0, "warm run must perform zero evaluations"
    assert warm.hits + warm.deduplicated == len(corpus)
    assert warm.complete and cold.complete
    # …and the served records really are the cold run's records.
    assert [e.__dict__ for e in warm.evaluations()] == [
        e.__dict__ for e in cold.evaluations()
    ]
    assert speedup >= MIN_SPEEDUP, (
        f"warm run only {speedup:.1f}x faster than cold "
        f"({warm_s:.3f}s vs {cold_s:.3f}s)"
    )
    # The store stays within its overhead budget of the fingerprint floor.
    assert warm_s <= max(
        MAX_STORE_OVERHEAD * fp_floor_s, fp_floor_s + NOISE_FLOOR_S
    ), (
        f"warm rerun {warm_s:.3f}s exceeds {MAX_STORE_OVERHEAD:.1f}x the "
        f"fingerprint floor {fp_floor_s:.3f}s"
    )
