"""Multi-process writer stress for the shared store (DESIGN.md §7).

N real writer processes hammer one cache directory at once.  What must
hold:

* no lost record — every acknowledged ``put`` from every writer is
  readable after all writers exit;
* no duplicated record — the store holds exactly one live row per key
  (last write wins on the contested key, not a pile-up);
* no ``database is locked`` escaping ``busy_timeout`` — every writer
  exits 0 with a clean stderr;
* engine-level parity — a corpus sharded across concurrent processes
  into one cache dir warms a rerun exactly as well as the single-writer
  baseline does.

Marked ``stress`` and excluded from tier-1 (see pytest.ini); the CI
``store-smoke`` job runs it explicitly with ``-m stress``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.batch import ResultCache

pytestmark = pytest.mark.stress

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

N_WRITERS = 6
KEYS_PER_WRITER = 40


STRESS_WRITER = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, sys.argv[1])
    from repro.batch.cache import ResultCache
    cache_dir, writer, keys = sys.argv[2:5]
    w = int(writer)
    cache = ResultCache(cache_dir)
    for i in range(int(keys)):
        cache.put("w%02d-k%04d" % (w, i), "params", {"w": w, "i": i})
        # Every writer also fights over one shared key: last write wins,
        # never an error, never a duplicate row.
        cache.put("contested", "params", {"w": w, "i": i})
    cache.close()
    """
)


class TestWriterStorm:
    def test_no_lost_no_duplicate_no_lock_escape(self, tmp_path):
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", STRESS_WRITER, SRC, str(tmp_path),
                 str(w), str(KEYS_PER_WRITER)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for w in range(N_WRITERS)
        ]
        for w, proc in enumerate(procs):
            _, err = proc.communicate(timeout=120)
            text = err.decode(errors="replace")
            assert proc.returncode == 0, f"writer {w} failed:\n{text}"
            assert "database is locked" not in text, (
                f"a lock escaped busy_timeout in writer {w}:\n{text}"
            )
        cache = ResultCache(tmp_path)
        # No lost, no duplicated: exactly one live row per distinct key.
        assert len(cache) == N_WRITERS * KEYS_PER_WRITER + 1
        assert cache.stats.corrupted == 0
        for w in range(N_WRITERS):
            for i in range(KEYS_PER_WRITER):
                assert cache.get(f"w{w:02d}-k{i:04d}", "params") == {
                    "w": w, "i": i,
                }, f"writer {w} lost record {i}"
        # The contested key holds some writer's final write, intact.
        final = cache.get("contested", "params")
        assert final is not None
        assert final["i"] == KEYS_PER_WRITER - 1
        assert cache._table.integrity() == "ok"


ENGINE_SHARD = textwrap.dedent(
    """
    import json, sys
    sys.path.insert(0, sys.argv[1])
    from repro.batch import BatchConfig, evaluate_corpus
    from repro.generators import generate_corpus
    corpus = generate_corpus(scale=0.1, tests_scale=0.1, max_size=15)
    shard = None
    if sys.argv[3] != "full":
        shard = (int(sys.argv[3]), int(sys.argv[4]))
    report = evaluate_corpus(
        corpus,
        BatchConfig(cache_dir=sys.argv[2], chase_steps=300, shard=shard),
    )
    assert report.complete
    print(json.dumps({
        "total": len(corpus),
        "computed": report.computed,
        "hits": report.hits,
        "deduplicated": report.deduplicated,
    }))
    """
)


def _run_engine(cache_dir, *shard) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    args = [str(s) for s in (shard or ("full",))]
    done = subprocess.run(
        [sys.executable, "-c", ENGINE_SHARD, SRC, str(cache_dir), *args],
        capture_output=True,
        env=env,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert "database is locked" not in done.stderr.decode(errors="replace")
    return json.loads(done.stdout)


class TestConcurrentSharding:
    def test_warm_rerun_matches_single_writer_baseline(self, tmp_path):
        n = 3
        shared = tmp_path / "shared"
        solo = tmp_path / "solo"
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", ENGINE_SHARD, SRC, str(shared),
                 str(i), str(n)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
            )
            for i in range(n)
        ]
        for i, proc in enumerate(procs):
            _, err = proc.communicate(timeout=600)
            text = err.decode(errors="replace")
            assert proc.returncode == 0, f"shard {i} failed:\n{text}"
            assert "database is locked" not in text
        # Single-writer baseline over the same corpus, separate dir.
        _run_engine(solo)
        warm_solo = _run_engine(solo)
        # The concurrently populated cache must warm a full rerun exactly
        # as well as the single-writer one: nothing recomputed, identical
        # hit/dedup split.
        warm_shared = _run_engine(shared)
        assert warm_shared["computed"] == 0
        assert warm_shared == warm_solo
