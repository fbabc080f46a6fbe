"""The store's query surface: filter / sort / paginate stored verdicts.

This is the layer the future HTTP service will sit on, so its semantics
are specified independently of the SQL that serves them:

* **rows** are flat projections of stored result entries
  (:func:`index_row`): fingerprint ``key``, program ``name``, headline
  ``verdict``, accepting criteria, exhaustion dimension, wall-clock, and
  ``seq`` — the monotonically increasing write sequence that makes every
  sort a *total* order (ties broken by ``seq``);
* **filters** compose conjunctively: exact ``verdict``, ``criterion``
  membership in the accepting set, ``exhausted`` yes/no, fingerprint
  ``key_prefix``;
* **pagination is keyset, not offset**: the cursor names the last row
  seen as ``[sort_value, seq]``, and the next page is everything strictly
  after it in sort order.  Rows inserted *behind* an open cursor never
  shift, duplicate, or hide rows already emitted — the property the
  service needs to paginate a store that is being written to.

:func:`query_rows` is the pure-python reference implementation; the
sqlite store compiles the same query to SQL, and property tests pin the
two against each other (``tests/test_store_query.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Fields a query may sort on.  ``seq`` is insertion order; everything
#: else sorts by value with ``seq`` as the tie-breaker.
SORT_FIELDS = ("seq", "name", "verdict", "elapsed_ms", "key")


class QueryError(ValueError):
    """A malformed query: unknown sort field, bad cursor, bad limit.

    The CLI turns this into a usage error; an HTTP front end would turn
    it into a 400.
    """


@dataclass(frozen=True)
class ResultQuery:
    """One page's worth of question against the result store."""

    verdict: str | None = None      # exact headline verdict
    criterion: str | None = None    # accepted by this criterion
    exhausted: bool | None = None   # budget-exhausted records (or not)
    key_prefix: str | None = None   # fingerprint prefix (hex)
    sort: str = "seq"               # SORT_FIELDS member, "-" prefix = desc
    limit: int = 50
    cursor: str | None = None       # keyset cursor from a previous page

    def order(self) -> tuple[str, bool]:
        """The validated ``(sort_field, descending)`` pair."""
        descending = self.sort.startswith("-")
        sort_field = self.sort[1:] if descending else self.sort
        if sort_field not in SORT_FIELDS:
            raise QueryError(
                f"unknown sort field {sort_field!r}; known: {SORT_FIELDS}"
            )
        if self.limit < 1:
            raise QueryError(f"limit must be positive, got {self.limit}")
        return sort_field, descending


@dataclass
class QueryPage:
    """One page of rows plus the cursor to the next (None on the last)."""

    rows: list[dict] = field(default_factory=list)
    next_cursor: str | None = None


# -- rows ----------------------------------------------------------------------


def headline(record: dict) -> str:
    """The record's one-line verdict, mode-agnostic.

    Classify records carry a portfolio verdict verbatim; evaluate records
    (Table 2 measurements) are summarised the way the batch table renders
    them.
    """
    data = record.get("data") or {}
    if "verdict" in data:
        return str(data["verdict"])
    if "semi_acyclic" in data:
        sac = "SAC✓" if data["semi_acyclic"] else "SAC✗"
        chase = "chase halted" if data.get("chase_halted") else "no halt"
        return f"{sac}, {chase}"
    return ""


def index_row(seq: int, entry: dict) -> dict:
    """Project one stored cache entry onto the flat, queryable row.

    ``elapsed_ms`` is the one nullable sort field: a record that never
    measured wall-clock (e.g. imported from an external tool) keeps
    ``None`` rather than being coerced to a fake ``0.0`` — the results
    table stores it as SQL NULL and both query implementations order it NULLs-first
    ascending / NULLs-last descending (SQLite's native NULL ordering).
    """
    record = entry.get("record") or {}
    data = record.get("data") or {}
    exhausted = record.get("exhausted") or None
    elapsed = record.get("elapsed_ms")
    return {
        "seq": seq,
        "key": str(entry.get("key", "")),
        "params": str(entry.get("params", "")),
        "name": str(record.get("name", "")),
        "verdict": headline(record),
        "accepted": [str(c) for c in (data.get("accepted_by") or [])],
        "exhausted": exhausted.get("dimension") if exhausted else None,
        "elapsed_ms": None if elapsed is None else float(elapsed or 0.0),
    }


# -- artifact records ----------------------------------------------------------


def record_identity(record: dict) -> str:
    """The probe an artifact record answers (everything but the answer).

    The artifact table deduplicates by this identity (it is part of the
    primary key) and the codec in :mod:`repro.batch.artifacts` sorts by
    it for deterministic file content.
    """
    return json.dumps(
        {k: v for k, v in record.items() if k not in ("edge", "exact")},
        sort_keys=True,
    )


# -- cursors -------------------------------------------------------------------


def encode_cursor(row: dict, sort_field: str) -> str:
    """The keyset cursor pointing just past ``row``."""
    return json.dumps([row[sort_field], row["seq"]], separators=(",", ":"))


#: Sort fields whose row value (and therefore cursor value) may be NULL.
NULLABLE_SORT_FIELDS = frozenset({"elapsed_ms"})


def decode_cursor(cursor: str, sort_field: str) -> tuple[object, int]:
    """Inverse of :func:`encode_cursor`, validated."""
    try:
        value, seq = json.loads(cursor)
        seq = int(seq)
    except (ValueError, TypeError) as exc:
        raise QueryError(f"malformed cursor {cursor!r}") from exc
    if value is None and sort_field in NULLABLE_SORT_FIELDS:
        return None, seq
    expect = float if sort_field == "elapsed_ms" else (
        int if sort_field == "seq" else str
    )
    if expect is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, expect):
        raise QueryError(
            f"cursor {cursor!r} does not fit sort field {sort_field!r}"
        )
    return value, seq


def sort_key(row_value: object, seq: int) -> tuple:
    """The total-order key shared by both query implementations.

    NULL sorts first ascending / last descending — SQLite's native NULL
    ordering — and the leading is-not-null flag keeps a ``None`` from
    ever being compared against a real value.  ``seq`` breaks ties.
    """
    if row_value is None:
        return (False, 0, seq)
    return (True, row_value, seq)


# -- the reference implementation ---------------------------------------------


def matches(row: dict, q: ResultQuery) -> bool:
    """Does ``row`` pass every filter of ``q``?"""
    if q.verdict is not None and row["verdict"] != q.verdict:
        return False
    if q.criterion is not None and q.criterion not in row["accepted"]:
        return False
    if q.exhausted is not None and (row["exhausted"] is not None) != q.exhausted:
        return False
    if q.key_prefix is not None and not row["key"].startswith(q.key_prefix):
        return False
    return True


def query_rows(rows: list[dict], q: ResultQuery) -> QueryPage:
    """Execute ``q`` over in-memory rows — the SQL-independent oracle."""
    sort_field, descending = q.order()
    selected = [r for r in rows if matches(r, q)]
    selected.sort(
        key=lambda r: sort_key(r[sort_field], r["seq"]), reverse=descending
    )
    if q.cursor is not None:
        value, seq = decode_cursor(q.cursor, sort_field)
        mark = sort_key(value, seq)
        if descending:
            selected = [
                r for r in selected if sort_key(r[sort_field], r["seq"]) < mark
            ]
        else:
            selected = [
                r for r in selected if sort_key(r[sort_field], r["seq"]) > mark
            ]
    page = selected[: q.limit]
    next_cursor = None
    if len(selected) > q.limit:
        next_cursor = encode_cursor(page[-1], sort_field)
    return QueryPage(rows=page, next_cursor=next_cursor)
