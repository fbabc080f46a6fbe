"""repro.store — the embedded result/artifact store behind ``repro.batch``.

One cache directory is one *store*: a single ``store.sqlite`` file in
WAL mode (``synchronous=NORMAL``, ``busy_timeout``) with an indexed
schema keyed by the canonical program fingerprint (DESIGN.md §7).  It
opens in O(1), serves point lookups and the query surface
(:mod:`repro.store.query` — filter / sort / keyset-paginate over stored
verdicts, compiled to SQL and pinned against the pure-python
:func:`query_rows` oracle) from indexes, and tolerates concurrent
writers from multiple processes (one writer at a time, readers never
blocked).  Connections are per-process: a handle inherited across
``fork`` lazily reopens in the child instead of sharing the parent's
connection (sharing is undefined behaviour in SQLite).

JSONL (``results.jsonl`` / ``artifacts.jsonl``) is the store's
export/import/recovery *format* (:mod:`repro.store.port`):
``repro batch export-jsonl`` / ``import-jsonl`` move a store through it,
and a legacy JSONL directory migrates itself into ``store.sqlite`` on
first open, read by the same parser as an import.
"""

from .port import PortReport, export_jsonl, import_jsonl
from .query import (
    QueryError,
    QueryPage,
    ResultQuery,
    decode_cursor,
    encode_cursor,
    index_row,
    query_rows,
    record_identity,
)
from .sqlite import (
    BUSY_TIMEOUT_MS,
    ArtifactTable,
    ResultTable,
    StoreCorruptionError,
    StoreError,
    connect,
)

__all__ = [
    "BUSY_TIMEOUT_MS",
    "ArtifactTable",
    "PortReport",
    "QueryError",
    "QueryPage",
    "ResultQuery",
    "ResultTable",
    "StoreCorruptionError",
    "StoreError",
    "connect",
    "decode_cursor",
    "encode_cursor",
    "export_jsonl",
    "import_jsonl",
    "index_row",
    "query_rows",
    "record_identity",
]
