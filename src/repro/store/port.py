"""The JSONL interchange format: export, import, and the one reader.

``results.jsonl`` + ``artifacts.jsonl`` are the store's portability
contract (DESIGN.md §7) — the format a store is backed up to, moved
between hosts in, and restored from:

* an **export** is a normalised snapshot — live entries only, one line
  per result key (last write wins has already been applied), artifact
  records merged and sorted by probe identity;
* an **import** replays a JSONL snapshot through the store's ordinary
  ``put_many`` path — entries under a different schema version and
  torn/corrupt lines are counted and skipped, while every intact line
  before *and after* the damage is kept.  Importing is idempotent
  (result puts are last-write-wins, artifact puts deduplicate by probe).

:func:`read_results` / :func:`read_artifacts` are the only JSONL parsers
of the store: ``import_jsonl`` and the legacy-directory self-migration
of :mod:`repro.store.sqlite` both read through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..io import iter_jsonl, jsonl_dumps


@dataclass
class PortReport:
    """What an import/export moved (and what it refused)."""

    results: int = 0
    artifacts: int = 0       # individual decision records
    programs: int = 0        # distinct programs those records belong to
    stale: int = 0           # lines under another schema version
    corrupted: int = 0       # torn or malformed lines

    @property
    def skipped(self) -> int:
        return self.stale + self.corrupted

    def summary(self) -> str:
        bits = [f"{self.results} result records"]
        if self.programs:
            bits.append(
                f"{self.artifacts} firing decisions "
                f"across {self.programs} programs"
            )
        if self.skipped:
            bits.append(f"{self.skipped} lines skipped (stale or corrupt)")
        return ", ".join(bits)


def read_results(text: str, schema_version: int, report: PortReport) -> list[dict]:
    """The result envelopes of a ``results.jsonl`` text, in file order.

    Duplicated keys are all returned: writing them in order is what makes
    the last write win.  Skipped lines are tallied on ``report``.
    """
    entries = []
    for _, entry in iter_jsonl(text):
        if entry is None:
            report.corrupted += 1
        elif entry.get("schema") != schema_version:
            report.stale += 1
        elif not isinstance(entry.get("key"), str) or not isinstance(
            entry.get("record"), dict
        ):
            report.corrupted += 1
        else:
            entries.append(
                {
                    "schema": schema_version,
                    "key": entry["key"],
                    "params": entry.get("params", ""),
                    "record": entry["record"],
                }
            )
    report.results += len(entries)
    return entries


def read_artifacts(
    text: str, schema_version: int, report: PortReport
) -> list[tuple[str, list[dict]]]:
    """The ``(key, records)`` lines of an ``artifacts.jsonl`` text.

    An append-only log may carry several lines per program; they merge
    on write (deduplicated by probe), so ``report.programs`` counts
    distinct keys, not lines.
    """
    lines = []
    for _, line in iter_jsonl(text):
        if line is None:
            report.corrupted += 1
        elif line.get("schema") != schema_version:
            report.stale += 1
        elif not isinstance(line.get("key"), str) or not isinstance(
            line.get("oracle"), list
        ):
            report.corrupted += 1
        else:
            lines.append((line["key"], line["oracle"]))
    report.programs += len({key for key, _ in lines})
    return lines


def export_jsonl(cache: Any, store: Any = None) -> tuple[str, str, PortReport]:
    """Render a store as ``(results_text, artifacts_text, report)``.

    ``cache`` is a :class:`~repro.batch.cache.ResultCache`; ``store``
    (optional) an :class:`~repro.batch.artifacts.ArtifactStore`.  Either
    text is ``""`` when there is nothing to export.
    """
    report = PortReport()
    result_lines = []
    for _, entry in cache.entries():
        result_lines.append(jsonl_dumps(entry))
        report.results += 1
    artifact_lines = []
    if store is not None:
        for key, records in store.entries():
            artifact_lines.append(
                jsonl_dumps(
                    {
                        "schema": store.schema_version,
                        "key": key,
                        "oracle": records,
                    }
                )
            )
            report.programs += 1
            report.artifacts += len(records)
    results_text = "\n".join(result_lines) + "\n" if result_lines else ""
    artifacts_text = "\n".join(artifact_lines) + "\n" if artifact_lines else ""
    return results_text, artifacts_text, report


def import_jsonl(
    cache: Any,
    results_text: str = "",
    store: Any = None,
    artifacts_text: str = "",
) -> PortReport:
    """Replay JSONL snapshots into a store, one transaction per table."""
    report = PortReport()
    entries = read_results(results_text, cache.schema_version, report)
    cache.put_many([(e["key"], e["params"], e["record"]) for e in entries])
    if store is not None:
        lines = read_artifacts(artifacts_text, store.schema_version, report)
        report.artifacts += store.put_many(lines)
    return report
