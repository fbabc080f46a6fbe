"""The embedded SQLite store: one ``store.sqlite`` per cache directory.

Configuration follows the WAL recipe the ROADMAP names as the exemplar
(Paper-Scanner's ``sqlite_ext.py``): ``journal_mode=WAL`` so readers
never block the one writer, ``synchronous=NORMAL`` (durable against
process crashes — a committed transaction survives SIGKILL; the fsync
saved per commit is only at risk if the whole machine goes down between
checkpoints), ``busy_timeout`` so concurrent writers queue instead of
failing with ``database is locked``, ``foreign_keys=ON`` as a matter of
hygiene.

Fork-safety: SQLite connections must not be used across ``fork`` (the
batch engine's process pool forks workers while the parent holds the
store open).  Every table therefore reaches its connection through a
pid-guarded handle: a handle inherited by a forked child *abandons* the
parent's connection — without closing it, which would write to the
parent's WAL from the child — and lazily opens its own.

Schema (DESIGN.md §7): ``results`` holds one live row per
``(schema, key)`` — ``INSERT OR REPLACE`` gives last-write-wins, and
re-mints ``seq`` so a rewrite moves the row to the end of insertion
order — with the queryable projection (name, verdict, accepting
criteria, exhaustion, wall-clock) denormalised into indexed columns next
to the full JSON ``entry``.  ``artifacts`` holds one row per
``(schema, key, probe identity)``; ``INSERT OR IGNORE`` merges decisions
for one program instead of replacing them.  Rows written under another
schema version simply stop matching the ``schema = ?`` predicate every
read carries — the invalidation switch, without a rewrite.

A legacy JSONL directory migrates itself: when a table is empty for the
current schema version and the sibling ``results.jsonl`` /
``artifacts.jsonl`` exists, the file is read through the one JSONL
reader of :mod:`repro.store.port` and written in one transaction.  The
JSONL files are left untouched.
"""

from __future__ import annotations

import json
import os
import pathlib
import sqlite3
from contextlib import contextmanager
from typing import Iterator

from .port import PortReport, read_artifacts, read_results
from .query import (
    NULLABLE_SORT_FIELDS,
    QueryPage,
    ResultQuery,
    decode_cursor,
    encode_cursor,
    index_row,
    record_identity,
)

#: How long a writer waits for the database lock before giving up.  With
#: per-record transactions every wait is short; 30s is the Paper-Scanner
#: value and survives heavily oversubscribed stress runs.
BUSY_TIMEOUT_MS = 30_000

STORE_NAME = "store.sqlite"

# ``elapsed_ms`` is nullable: a record with no wall-clock measurement
# stores SQL NULL, matching the None the row projection now preserves
# (see repro.store.query.index_row).
_RESULTS_DDL = """
CREATE TABLE IF NOT EXISTS results (
    seq        INTEGER PRIMARY KEY AUTOINCREMENT,
    schema     INTEGER NOT NULL,
    key        TEXT    NOT NULL,
    params     TEXT    NOT NULL,
    name       TEXT    NOT NULL DEFAULT '',
    verdict    TEXT    NOT NULL DEFAULT '',
    accepted   TEXT    NOT NULL DEFAULT '',
    exhausted  TEXT,
    elapsed_ms REAL,
    entry      TEXT    NOT NULL,
    UNIQUE (schema, key)
)
"""

_RESULTS_INDEX_DDL = (
    "CREATE INDEX IF NOT EXISTS results_by_verdict "
    "    ON results (schema, verdict, seq)",
    "CREATE INDEX IF NOT EXISTS results_by_name "
    "    ON results (schema, name, seq)",
)

_DDL = (
    _RESULTS_DDL
    + ";\n"
    + ";\n".join(_RESULTS_INDEX_DDL)
    + """;
CREATE TABLE IF NOT EXISTS artifacts (
    schema   INTEGER NOT NULL,
    key      TEXT    NOT NULL,
    identity TEXT    NOT NULL,
    record   TEXT    NOT NULL,
    PRIMARY KEY (schema, key, identity)
);
"""
)


class StoreError(RuntimeError):
    """The embedded store cannot serve (misuse or environment trouble)."""


class StoreCorruptionError(StoreError):
    """The database file is damaged beyond SQLite's own recovery.

    WAL recovery handles torn writes by itself (the log has per-frame
    checksums; a torn tail is dropped cleanly on the next open).  This
    error means the *main* database file is broken — restore the
    directory from its JSONL export (``repro batch import-jsonl``).
    """


def connect(path: str | os.PathLike) -> sqlite3.Connection:
    """Open ``path`` with the store's pragma recipe applied.

    ``isolation_level=None`` puts the connection in autocommit mode:
    every statement is its own durable transaction unless an explicit
    ``BEGIN`` is issued — which is exactly the per-record durability the
    cache acknowledges to callers.
    """
    conn = sqlite3.connect(
        str(path), timeout=BUSY_TIMEOUT_MS / 1000.0, isolation_level=None
    )
    try:
        conn.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
        conn.execute("PRAGMA journal_mode = WAL")
        conn.execute("PRAGMA synchronous = NORMAL")
        conn.execute("PRAGMA foreign_keys = ON")
    except sqlite3.DatabaseError as exc:
        conn.close()
        raise StoreCorruptionError(
            f"{path} is not a usable SQLite store ({exc}); restore it "
            f"from a JSONL export (repro batch import-jsonl)"
        ) from exc
    return conn


class _Handle:
    """A pid-guarded lazy connection: never shared across ``fork``."""

    def __init__(self, path: pathlib.Path) -> None:
        self.path = path
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None

    def conn(self) -> sqlite3.Connection:
        pid = os.getpid()
        if self._conn is None or self._pid != pid:
            # An inherited connection is abandoned, not closed: closing
            # would have the child write to the parent's open WAL.
            self._conn = None
            self._conn = connect(self.path)
            self._pid = pid
        return self._conn

    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._pid = None


def _init_schema(handle: _Handle) -> None:
    try:
        conn = handle.conn()
        conn.executescript(_DDL)
        _relax_elapsed_ms(conn)
    except sqlite3.DatabaseError as exc:
        raise StoreCorruptionError(
            f"{handle.path} is not a usable SQLite store ({exc}); restore "
            f"it from a JSONL export (repro batch import-jsonl)"
        ) from exc


def _relax_elapsed_ms(conn: sqlite3.Connection) -> None:
    """Migrate legacy stores whose ``elapsed_ms`` was ``NOT NULL``.

    Earlier schema versions coerced a missing measurement to ``0.0`` and
    declared the column ``NOT NULL DEFAULT 0.0``; SQLite cannot drop a
    column constraint in place, so such tables are rebuilt once (rename,
    recreate, copy, drop) inside one transaction.  Existing ``0.0``
    values are kept verbatim — only *new* records distinguish "not
    measured" (NULL) from "measured as zero".
    """
    info = conn.execute("PRAGMA table_info(results)").fetchall()
    # PRAGMA table_info columns: cid, name, type, notnull, dflt_value, pk
    if not any(col[1] == "elapsed_ms" and col[3] for col in info):
        return
    with _transaction(conn):
        conn.execute("ALTER TABLE results RENAME TO results_legacy")
        conn.execute(_RESULTS_DDL)
        conn.execute("INSERT INTO results SELECT * FROM results_legacy")
        # Dropping the legacy table also drops the indexes that followed
        # it through the rename; recreate them on the rebuilt table.
        conn.execute("DROP TABLE results_legacy")
        for ddl in _RESULTS_INDEX_DDL:
            conn.execute(ddl)


@contextmanager
def _transaction(conn: sqlite3.Connection) -> Iterator[None]:
    """One ``BEGIN IMMEDIATE`` … ``COMMIT``; any failure rolls it all back."""
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield
        conn.execute("COMMIT")
    except BaseException:
        conn.execute("ROLLBACK")
        raise


def _like_escape(text: str) -> str:
    """Make ``text`` literal inside a ``LIKE ... ESCAPE '\\'`` pattern."""
    return (
        text.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")
    )


def _encode_accepted(accepted: list[str]) -> str:
    # Comma-fenced so a criterion filter is one indexable LIKE:
    # ",WA,SC," LIKE "%,WA,%".  Criterion names never contain commas.
    return "," + ",".join(accepted) + "," if accepted else ""


def _decode_accepted(text: str) -> list[str]:
    return [c for c in text.split(",") if c] if text else []


class _Table:
    """One table of a directory's ``store.sqlite``, behind its own handle."""

    def __init__(self, directory: str | os.PathLike, schema_version: int) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.schema_version = schema_version
        self.path = self.directory / STORE_NAME
        self._handle = _Handle(self.path)
        _init_schema(self._handle)

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "_Table":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ResultTable(_Table):
    """Result entries in the ``results`` table of ``store.sqlite``."""

    def __init__(self, directory: str | os.PathLike, schema_version: int) -> None:
        super().__init__(directory, schema_version)
        self.corrupted = 0
        self.imported = 0
        legacy = self.directory / "results.jsonl"
        if legacy.exists() and not self.count():
            report = PortReport()
            self.put_many(read_results(legacy.read_text(), schema_version, report))
            self.imported, self.corrupted = report.results, report.corrupted
        self.loaded = self.count()
        (self.stale_schema,) = self._handle.conn().execute(
            "SELECT COUNT(*) FROM results WHERE schema != ?",
            (self.schema_version,),
        ).fetchone()

    _INSERT_SQL = (
        "INSERT OR REPLACE INTO results "
        "(schema, key, params, name, verdict, accepted, exhausted, "
        " elapsed_ms, entry) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"
    )

    @staticmethod
    def _insert_row(entry: dict) -> tuple:
        """One entry as the parameter tuple of :data:`_INSERT_SQL`."""
        row = index_row(0, entry)
        return (
            entry.get("schema"),
            row["key"],
            row["params"],
            row["name"],
            row["verdict"],
            _encode_accepted(row["accepted"]),
            row["exhausted"],
            row["elapsed_ms"],
            json.dumps(entry, sort_keys=True, separators=(",", ":")),
        )

    def count(self) -> int:
        (n,) = self._handle.conn().execute(
            "SELECT COUNT(*) FROM results WHERE schema = ?",
            (self.schema_version,),
        ).fetchone()
        return n

    def contains(self, key: str) -> bool:
        return (
            self._handle.conn()
            .execute(
                "SELECT 1 FROM results WHERE schema = ? AND key = ?",
                (self.schema_version, key),
            )
            .fetchone()
            is not None
        )

    def get(self, key: str) -> dict | None:
        found = self._handle.conn().execute(
            "SELECT entry FROM results WHERE schema = ? AND key = ?",
            (self.schema_version, key),
        ).fetchone()
        return json.loads(found[0]) if found else None

    def put(self, entry: dict) -> None:
        self._handle.conn().execute(self._INSERT_SQL, self._insert_row(entry))

    def put_many(self, entries: list[dict]) -> None:
        """Store a batch of entries in ONE durable transaction.

        Equivalent to ``put`` in a loop record for record (same rows,
        same ``INSERT OR REPLACE`` last-write-wins, same seq order from
        the executemany's input order) — but the write amplification of
        per-record commits (one WAL sync each) collapses into a single
        transaction.  All-or-nothing: a failure mid-batch rolls every
        entry back.
        """
        if not entries:
            return
        conn = self._handle.conn()
        with _transaction(conn):
            conn.executemany(
                self._INSERT_SQL, [self._insert_row(e) for e in entries]
            )

    def stats(self) -> dict:
        """Observable store state for ``repro batch query --stats``."""
        conn = self._handle.conn()
        tables: dict[str, int] = {}
        for table in ("results", "artifacts"):
            (tables[table],) = conn.execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()
        sizes: dict[str, int] = {}
        for label, path in (
            ("file_bytes", self.path),
            ("wal_bytes", self.path.with_name(self.path.name + "-wal")),
        ):
            try:
                sizes[label] = path.stat().st_size
            except OSError:
                sizes[label] = 0
        return {
            "tables": tables,
            **sizes,
            "corrupted": self.corrupted,
            "stale_schema": self.stale_schema,
        }

    def entries(self) -> list[tuple[int, dict]]:
        """Every live entry as ``(seq, entry)``, in write order."""
        return [
            (seq, json.loads(text))
            for seq, text in self._handle.conn().execute(
                "SELECT seq, entry FROM results WHERE schema = ? "
                "ORDER BY seq",
                (self.schema_version,),
            )
        ]

    def rows(self) -> list[dict]:
        """Every live row's query projection — the input of the
        :func:`~repro.store.query.query_rows` oracle."""
        return [
            self._row(raw)
            for raw in self._handle.conn().execute(
                "SELECT seq, key, params, name, verdict, accepted, "
                "exhausted, elapsed_ms FROM results WHERE schema = ? "
                "ORDER BY seq",
                (self.schema_version,),
            )
        ]

    @staticmethod
    def _row(raw: tuple) -> dict:
        seq, key, params, name, verdict, accepted, exhausted, elapsed = raw
        return {
            "seq": seq,
            "key": key,
            "params": params,
            "name": name,
            "verdict": verdict,
            "accepted": _decode_accepted(accepted),
            "exhausted": exhausted,
            "elapsed_ms": elapsed,
        }

    def query(self, q: ResultQuery) -> QueryPage:
        """Compile ``q`` to one indexed SELECT (keyset pagination via a
        row-value comparison against the cursor)."""
        sort_field, descending = q.order()
        where = ["schema = ?"]
        args: list = [self.schema_version]
        if q.verdict is not None:
            where.append("verdict = ?")
            args.append(q.verdict)
        if q.criterion is not None:
            where.append("accepted LIKE ? ESCAPE '\\'")
            args.append(f"%,{_like_escape(q.criterion)},%")
        if q.exhausted is True:
            where.append("exhausted IS NOT NULL")
        elif q.exhausted is False:
            where.append("exhausted IS NULL")
        if q.key_prefix is not None:
            where.append("key LIKE ? ESCAPE '\\'")
            args.append(_like_escape(q.key_prefix) + "%")
        if q.cursor is not None:
            value, seq = decode_cursor(q.cursor, sort_field)
            op = "<" if descending else ">"
            if sort_field in NULLABLE_SORT_FIELDS:
                # A bare row-value comparison evaluates to NULL when the
                # sort value is NULL, silently dropping those rows from
                # the walk.  Spell out SQLite's native NULL ordering
                # (NULLs first ASC / last DESC) so the predicate agrees
                # with query_rows' sort_key on every row.
                f = sort_field
                if value is None:
                    if descending:
                        where.append(f"({f} IS NULL AND seq < ?)")
                    else:
                        where.append(
                            f"(({f} IS NULL AND seq > ?) OR {f} IS NOT NULL)"
                        )
                    args.append(seq)
                else:
                    if descending:
                        where.append(
                            f"(({f} IS NOT NULL AND ({f}, seq) {op} (?, ?)) "
                            f"OR {f} IS NULL)"
                        )
                    else:
                        where.append(
                            f"({f} IS NOT NULL AND ({f}, seq) {op} (?, ?))"
                        )
                    args.extend([value, seq])
            else:
                where.append(f"({sort_field}, seq) {op} (?, ?)")
                args.extend([value, seq])
        order = "DESC" if descending else "ASC"
        sql = (
            "SELECT seq, key, params, name, verdict, accepted, exhausted, "
            f"elapsed_ms FROM results WHERE {' AND '.join(where)} "
            f"ORDER BY {sort_field} {order}, seq {order} LIMIT ?"
        )
        args.append(q.limit + 1)
        raw = self._handle.conn().execute(sql, args).fetchall()
        page = [self._row(r) for r in raw[: q.limit]]
        next_cursor = None
        if len(raw) > q.limit:
            next_cursor = encode_cursor(page[-1], sort_field)
        return QueryPage(rows=page, next_cursor=next_cursor)

    def integrity(self) -> str:
        """SQLite's own verdict on the file ('ok' when sound)."""
        (verdict,) = self._handle.conn().execute(
            "PRAGMA quick_check"
        ).fetchone()
        return verdict


class ArtifactTable(_Table):
    """Decision records in the ``artifacts`` table of ``store.sqlite``:
    writes for one program key merge, deduplicated by probe."""

    def __init__(self, directory: str | os.PathLike, schema_version: int) -> None:
        super().__init__(directory, schema_version)
        self.imported = 0
        legacy = self.directory / "artifacts.jsonl"
        if legacy.exists() and not len(self):
            self.imported = self.put_many(
                read_artifacts(legacy.read_text(), schema_version, PortReport())
            )

    def __len__(self) -> int:
        """How many programs have stored decisions."""
        (n,) = self._handle.conn().execute(
            "SELECT COUNT(DISTINCT key) FROM artifacts WHERE schema = ?",
            (self.schema_version,),
        ).fetchone()
        return n

    def get(self, key: str) -> list[dict]:
        """Every stored decision record for the program ``key``."""
        return [
            json.loads(text)
            for (text,) in self._handle.conn().execute(
                "SELECT record FROM artifacts WHERE schema = ? AND key = ? "
                "ORDER BY identity",
                (self.schema_version, key),
            )
        ]

    def put(self, key: str, records: list[dict]) -> int:
        """Store the records not already present; returns how many were new."""
        return self.put_many([(key, records)])

    def put_many(self, items: list[tuple[str, list[dict]]]) -> int:
        """Store every ``(key, records)`` item in ONE durable transaction;
        returns how many records were new."""
        conn = self._handle.conn()
        with _transaction(conn):
            before = conn.total_changes
            conn.executemany(
                "INSERT OR IGNORE INTO artifacts (schema, key, identity, record) "
                "VALUES (?, ?, ?, ?)",
                [
                    (
                        self.schema_version,
                        key,
                        record_identity(record),
                        json.dumps(record, sort_keys=True, separators=(",", ":")),
                    )
                    for key, records in items
                    for record in records
                ],
            )
        return conn.total_changes - before

    def entries(self) -> Iterator[tuple[str, list[dict]]]:
        """Every program's merged records as ``(key, records)``."""
        current: str | None = None
        bucket: list[dict] = []
        for key, text in self._handle.conn().execute(
            "SELECT key, record FROM artifacts WHERE schema = ? "
            "ORDER BY key, identity",
            (self.schema_version,),
        ):
            if key != current:
                if current is not None:
                    yield current, bucket
                current, bucket = key, []
            bucket.append(json.loads(text))
        if current is not None:
            yield current, bucket

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({str(self.directory)!r}, "
            f"{len(self)} programs)"
        )
