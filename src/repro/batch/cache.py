"""The on-disk, content-addressed result cache of the batch engine.

One cache is one directory, persisted in the ``results`` table of its
embedded ``store.sqlite`` (:mod:`repro.store`; WAL,
``synchronous=NORMAL``, ``busy_timeout``; DESIGN.md §7).  It opens in
O(1), serves point lookups and the filter/sort/paginate query surface
from indexes, and tolerates concurrent writer processes.  A legacy JSONL
directory migrates itself on first open; JSONL stays the export/import
format (:mod:`repro.store.port`).

Every entry carries three envelope fields next to the payload:

* ``schema`` — :data:`SCHEMA_VERSION`; entries written under another
  version are *stale* and ignored (bumping the constant is the
  cache-wide invalidation switch — required whenever the record payload
  or the evaluation semantics behind it change);
* ``key`` — the program's canonical content fingerprint
  (:func:`repro.batch.fingerprint.canonical_fingerprint`);
* ``params`` — a fingerprint of every evaluation parameter that affects
  the result (mode, chase steps, budgets).  A hit requires key *and*
  params to match: re-running with a different budget never reuses a
  verdict obtained under the old one.

Writes are acknowledged durably: ``put`` returns only after the record
would survive a SIGKILL of the writer (a committed sqlite transaction).
Duplicate keys resolve last-write-wins.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass
from typing import Any

from ..store import QueryPage, ResultQuery, ResultTable

#: Version of the cache record schema *and* of the evaluation semantics
#: producing the payloads.  Any change to either must bump this.
SCHEMA_VERSION = 1


@dataclass
class CacheStats:
    """What happened while loading and serving one cache."""

    loaded: int = 0          # live entries available after load
    corrupted: int = 0       # legacy JSONL lines skipped as torn/corrupt
    stale_schema: int = 0    # entries under another SCHEMA_VERSION
    imported: int = 0        # legacy JSONL entries migrated on open
    hits: int = 0
    misses: int = 0
    params_misses: int = 0   # key present but evaluated under other params

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _envelope(key: str, params: str, record: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "key": key,
        "params": params,
        "record": record,
    }


class ResultCache:
    """One cache directory: the serving counters and params check in
    front of the directory's sqlite ``results`` table."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = pathlib.Path(directory)
        self._table = ResultTable(self.directory, SCHEMA_VERSION)
        self.stats = CacheStats(
            loaded=self._table.loaded,
            corrupted=self._table.corrupted,
            stale_schema=self._table.stale_schema,
            imported=self._table.imported,
        )

    @property
    def path(self) -> pathlib.Path:
        """The on-disk ``store.sqlite``."""
        return self._table.path

    @property
    def schema_version(self) -> int:
        return SCHEMA_VERSION

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return self._table.count()

    def __contains__(self, key: str) -> bool:
        return self._table.contains(key)

    def get(self, key: str, params: str) -> dict | None:
        """The cached payload for ``(key, params)``, or None (a miss)."""
        entry = self._table.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.get("params") != params:
            self.stats.misses += 1
            self.stats.params_misses += 1
            return None
        self.stats.hits += 1
        return entry["record"]

    def put(self, key: str, params: str, record: dict) -> None:
        """Store one record, durably, visible to ``get`` immediately.

        Durability is per record: when ``put`` returns, the record
        survives a SIGKILL of this process — this is what lets an
        interrupted batch run resume exactly where it stopped, and what
        the crash-injection suite (``tests/test_store_crash.py``) pins.
        """
        self._table.put(_envelope(key, params, record))

    def put_many(self, items: list[tuple[str, str, dict]]) -> None:
        """Store a batch of ``(key, params, record)`` durably at once.

        Record-for-record equivalent to looping ``put`` — same
        envelopes, same last-write-wins order — but the whole batch
        commits in one transaction.  This is what the batch engine's
        drain calls once per completion round instead of once per
        finished program.
        """
        self._table.put_many(
            [_envelope(key, params, record) for key, params, record in items]
        )

    def stats_snapshot(self) -> dict:
        """One JSON-ready view of serving counters *and* store state."""
        return {
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "params_misses": self.stats.params_misses,
            "hit_rate": self.stats.hit_rate,
            "loaded": self.stats.loaded,
            "corrupted": self.stats.corrupted,
            "stale_schema": self.stats.stale_schema,
            "imported": self.stats.imported,
            "entries": len(self),
            "store": self._table.stats(),
        }

    # -- the query surface ---------------------------------------------------

    def query(self, q: ResultQuery | None = None, **kwargs: Any) -> QueryPage:
        """Filter/sort/paginate stored verdicts (see repro.store.query)."""
        if q is None:
            q = ResultQuery(**kwargs)
        return self._table.query(q)

    def entries(self) -> list[tuple[int, dict]]:
        """Every live entry as ``(seq, envelope)`` in write order — the
        export interface (:mod:`repro.store.port`)."""
        return self._table.entries()

    def close(self) -> None:
        self._table.close()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ResultCache({str(self.directory)!r}, {len(self)} entries)"
