"""Crash injection for the result/artifact store (DESIGN.md §7).

The contract under test is the acknowledged-write guarantee of
``ResultCache.put`` / ``ArtifactStore.put``: once ``put`` returns, the
record survives a ``SIGKILL`` of the writer — a committed sqlite
transaction under WAL + ``synchronous=NORMAL``.  The harness runs real writer subprocesses that acknowledge
each durable write into a separately fsynced ack file, kills them with
``SIGKILL`` at an arbitrary instant, and then reopens the store in this
process: every acknowledged record must be readable, and the store must
not be corrupted.

The torn-file tests go below the process-crash model and damage the
files directly (a truncated ``-wal``, a truncated main database, a torn
tail on a legacy JSONL log): sqlite must either recover a clean
committed prefix or refuse the file with :class:`StoreCorruptionError`
pointing at the documented JSONL-restore route — never serve garbage.
"""

from __future__ import annotations

import json
import os
import pathlib
import sqlite3
import subprocess
import sys
import textwrap
import time

import pytest

from repro.batch import ArtifactStore, ResultCache
from repro.store import StoreCorruptionError, export_jsonl, import_jsonl

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

PAYLOAD = {"pad": "x" * 200}


# Writers acknowledge each put into an fsynced side file: a key listed
# there was *returned from put* before the kill, so it must survive.
RESULT_WRITER = textwrap.dedent(
    """
    import os, sys
    sys.path.insert(0, sys.argv[1])
    from repro.batch.cache import ResultCache
    cache_dir, ack_path = sys.argv[2:4]
    cache = ResultCache(cache_dir)
    ack = open(ack_path, "a", encoding="utf-8")
    i = 0
    while True:
        key = "k%06d" % i
        cache.put(key, "params", {"i": i, "pad": "x" * 200})
        ack.write(key + "\\n")
        ack.flush()
        os.fsync(ack.fileno())
        i += 1
    """
)

ARTIFACT_WRITER = textwrap.dedent(
    """
    import os, sys
    sys.path.insert(0, sys.argv[1])
    from repro.batch.artifacts import ArtifactStore
    cache_dir, ack_path = sys.argv[2:4]
    store = ArtifactStore(cache_dir)
    ack = open(ack_path, "a", encoding="utf-8")
    i = 0
    while True:
        key = "k%06d" % i
        store.put(key, [{"kind": "precedes", "r1": "c%d" % i, "r2": "d%d" % i,
                         "variant": "standard", "budget": 1,
                         "edge": bool(i % 2), "exact": True}])
        ack.write(key + "\\n")
        ack.flush()
        os.fsync(ack.fileno())
        i += 1
    """
)


def _kill_after_acks(script: str, tmp_path,
                     want: int = 25, timeout: float = 60.0) -> list[str]:
    """Run a writer subprocess, SIGKILL it once ``want`` writes are
    acknowledged, and return the acknowledged keys."""
    ack = tmp_path / "acked.txt"
    ack.touch()
    proc = subprocess.Popen(
        [sys.executable, "-c", script, SRC, str(tmp_path), str(ack)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + timeout
    try:
        while len(ack.read_text().splitlines()) < want:
            if proc.poll() is not None:
                raise AssertionError(
                    "writer died early: "
                    + proc.communicate()[1].decode(errors="replace")
                )
            if time.monotonic() > deadline:
                raise AssertionError("writer made no progress")
            time.sleep(0.005)
    finally:
        if proc.poll() is None:
            proc.kill()  # SIGKILL — no cleanup, no atexit, no close()
        proc.wait()
    # Only newline-terminated ack lines count: a torn final ack means the
    # put *was* durable but the acknowledgement never completed — fine to
    # under-count, never to over-count.
    text = ack.read_text()
    complete = text[: text.rfind("\n") + 1] if "\n" in text else ""
    return complete.splitlines()


class TestKilledWriter:
    def test_acknowledged_results_survive(self, tmp_path):
        acked = _kill_after_acks(RESULT_WRITER, tmp_path)
        assert len(acked) >= 25
        cache = ResultCache(tmp_path)
        for key in acked:
            i = int(key[1:])
            assert cache.get(key, "params") == {"i": i, "pad": "x" * 200}, (
                f"acknowledged record {key} lost after SIGKILL"
            )
        assert cache._table.integrity() == "ok"

    def test_acknowledged_artifacts_survive(self, tmp_path):
        acked = _kill_after_acks(ARTIFACT_WRITER, tmp_path)
        assert len(acked) >= 25
        store = ArtifactStore(tmp_path)
        for key in acked:
            i = int(key[1:])
            assert store.get(key) == [
                {"kind": "precedes", "r1": f"c{i}", "r2": f"d{i}",
                 "variant": "standard", "budget": 1,
                 "edge": bool(i % 2), "exact": True}
            ], f"acknowledged artifact batch {key} lost after SIGKILL"


# A writer that exits without closing: the WAL is never checkpointed, so
# every committed record lives only in ``store.sqlite-wal`` — the state a
# crashed machine reboots into.
WAL_WRITER = textwrap.dedent(
    """
    import os, sys
    sys.path.insert(0, sys.argv[1])
    from repro.batch.cache import ResultCache
    cache = ResultCache(sys.argv[2])
    for i in range(int(sys.argv[3])):
        cache.put("k%06d" % i, "params", {"i": i, "pad": "y" * 120})
    os._exit(0)
    """
)


class TestTornFiles:
    def test_truncated_wal_recovers_a_committed_prefix(self, tmp_path):
        subprocess.run(
            [sys.executable, "-c", WAL_WRITER, SRC, str(tmp_path), "120"],
            check=True,
        )
        wal = tmp_path / "store.sqlite-wal"
        assert wal.exists() and wal.stat().st_size > 0
        # Tear the log mid-frame (a torn sector write during power loss)
        # and drop the shared-memory index, as a reboot would.
        with wal.open("r+b") as fh:
            fh.truncate(wal.stat().st_size // 2 + 37)
        shm = tmp_path / "store.sqlite-shm"
        if shm.exists():
            shm.unlink()
        cache = ResultCache(tmp_path)
        assert cache._table.integrity() == "ok"
        n = cache.stats.loaded
        assert 0 < n < 120  # the torn tail was dropped, cleanly
        for i in range(n):
            assert cache.get(f"k{i:06d}", "params") == {
                "i": i, "pad": "y" * 120,
            }

    def test_truncated_main_db_is_refused_then_restorable(self, tmp_path):
        cache = ResultCache(tmp_path)
        store = ArtifactStore(tmp_path)
        for i in range(80):
            cache.put(f"k{i:06d}", "params", {"i": i, **PAYLOAD})
        store.put("k000000", [{"kind": "precedes", "r1": "a", "r2": "b",
                               "variant": "standard", "budget": 1,
                               "edge": True, "exact": True}])
        results_text, artifacts_text, _ = export_jsonl(cache, store)
        cache.close()
        store.close()
        db = tmp_path / "store.sqlite"
        with db.open("r+b") as fh:
            fh.truncate(db.stat().st_size // 2)
        # Damage to the main file is beyond WAL recovery: the open must
        # refuse loudly and point at the restore route, not serve junk.
        with pytest.raises(StoreCorruptionError, match="import-jsonl"):
            ResultCache(tmp_path)
        # The documented recovery: rebuild from the JSONL export.
        db.unlink()
        restored = ResultCache(tmp_path)
        restored_store = ArtifactStore(tmp_path)
        report = import_jsonl(
            restored, results_text, restored_store, artifacts_text
        )
        assert report.results == 80
        assert report.artifacts == 1
        for i in range(80):
            assert restored.get(f"k{i:06d}", "params") == {"i": i, **PAYLOAD}

    def test_torn_jsonl_tail_loses_only_the_unacknowledged_record(
        self, tmp_path
    ):
        # A legacy JSONL log whose writer crashed mid-write: the final
        # line stops mid-token, no newline.  Migration keeps the rest.
        cache = ResultCache(tmp_path / "src")
        for i in range(5):
            cache.put(f"k{i}", "params", {"i": i})
        results_text, _, _ = export_jsonl(cache)
        cache.close()
        (tmp_path / "results.jsonl").write_text(
            results_text + '{"schema": 1, "key": "torn", "par'
        )
        reopened = ResultCache(tmp_path)
        assert reopened.stats.corrupted == 1
        assert reopened.stats.loaded == 5
        for i in range(5):
            assert reopened.get(f"k{i}", "params") == {"i": i}


# An engine run killed mid-batch: the resume must reuse every record the
# dead run acknowledged.  PYTHONHASHSEED is pinned so both subprocesses
# generate the identical corpus.
ENGINE_RUN = textwrap.dedent(
    """
    import json, sys
    sys.path.insert(0, sys.argv[1])
    from repro.batch import BatchConfig, evaluate_corpus
    from repro.generators import generate_corpus
    corpus = generate_corpus(scale=0.1, tests_scale=0.1, max_size=15)
    report = evaluate_corpus(
        corpus,
        BatchConfig(cache_dir=sys.argv[2], chase_steps=300),
    )
    print(json.dumps({
        "total": len(corpus),
        "computed": report.computed,
        "hits": report.hits,
        "deduplicated": report.deduplicated,
        "complete": report.complete,
    }))
    """
)


def _stored_results(cache_dir: pathlib.Path) -> int:
    """Count stored result records without holding a cache open."""
    db = cache_dir / "store.sqlite"
    if not db.exists():
        return 0
    try:
        # repro-lint: disable=fork-safety -- crash-harness observer counts rows from the parent; never crosses a fork
        with sqlite3.connect(db, timeout=1.0) as conn:
            (n,) = conn.execute("SELECT COUNT(*) FROM results").fetchone()
            return n
    except sqlite3.Error:
        return 0  # table not created yet, or writer holds the lock


class TestKilledBatch:
    def test_resume_after_sigkill_mid_batch(self, tmp_path):
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        cmd = [sys.executable, "-c", ENGINE_RUN, SRC, str(tmp_path)]
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        deadline = time.monotonic() + 120.0
        try:
            while _stored_results(tmp_path) < 2:
                if proc.poll() is not None:
                    raise AssertionError(
                        "batch finished before the kill: "
                        + proc.communicate()[1].decode(errors="replace")
                    )
                if time.monotonic() > deadline:
                    raise AssertionError("batch made no progress")
                time.sleep(0.005)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        acked = _stored_results(tmp_path)
        assert acked >= 2
        # The resume: a fresh process over the same corpus and store.
        done = subprocess.run(cmd, capture_output=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        report = json.loads(done.stdout)
        assert report["complete"]
        assert report["hits"] >= 2, "acknowledged records were not reused"
        assert report["computed"] < report["total"]
        assert (
            report["computed"] + report["hits"] + report["deduplicated"]
            == report["total"]
        )
