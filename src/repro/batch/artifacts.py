"""Persisted analysis artifacts: firing-edge decisions, keyed by the
program's canonical fingerprint.

The expensive artifact behind every criterion the portfolio runs is the
firing relation: each edge is decided by a witness-engine chase probe
(milliseconds to seconds), while every other context artifact (affected
positions, graphs over already-decided edges, SCCs) rebuilds from those
decisions in microseconds.  So the batch engine persists exactly the
decision layer: a classify worker seeds its
:class:`~repro.firing.relations.DecisionCache` from the store before
running and appends the fresh decisions afterwards — a warm corpus rerun
(even with changed evaluation parameters, which miss the result cache)
skips the chase probes entirely.

Decisions must survive the transformations the result cache's
content-addressed key absorbs (per-dependency variable renaming,
schema-wide predicate renaming, dependency reordering), so a dependency
is named not by its position in Σ but by its **canonical code**: the
colour-refined, variable-numbered encoding of
:mod:`repro.batch.fingerprint`, hashed.  Codes are sound transfer keys
only when they are **injective** over Σ: colour refinement is 1-WL, so
two genuinely different dependencies can share a code (e.g. the two
halves of a predicate-symmetric program), and conflating the pairs
``(d1, d1)`` and ``(d1, d2)`` would transfer a decision to a probe that
never made it — a wrong verdict, not a cold one.  Both the encoder and
the seeder therefore refuse non-injective programs outright; those
corpus outliers simply stay cold.  Only deterministic decisions ever
reach a :class:`DecisionCache`, so everything snapshotted from one is
safe to persist.

The store is the ``artifacts`` table of the same directory's
``store.sqlite`` as the result cache: one row per probe, ``INSERT OR
IGNORE`` merge semantics (later writes can only *add* decisions —
decisions are deterministic, so re-derived ones are equal).
"""

from __future__ import annotations

import os
from typing import Iterable

from ..firing.relations import DecisionCache
from ..firing.witness import FiringDecision
from ..model.dependencies import AnyDependency, DependencySet
from ..store import ArtifactTable, record_identity
from .fingerprint import (
    _alpha_unique,
    _dependency_code,
    predicate_colours,
    stable_hash,
)

#: Bump when the decision-record layout (or the semantics of the probes
#: behind it) changes: old lines become unreachable, which is the
#: invalidation we want.
ARTIFACT_SCHEMA = 1


def dependency_codes(sigma: DependencySet) -> dict[AnyDependency, str] | None:
    """Each dependency's renaming-invariant code within this program, or
    ``None`` when the codes do not name dependencies uniquely.

    Colours come from the alpha-deduplicated set so that twin programs
    differing only in duplicate spellings still agree on codes.  A code
    collision between *distinct* dependencies (alpha-duplicates, or the
    1-WL blind spot of colour refinement) makes ordered pairs ambiguous
    — ``(d1, d1)`` and ``(d1, d2)`` would serialise identically even
    though they are different probes — so such programs opt out of
    persistence entirely (see the module docstring).
    """
    deps = list(sigma)
    colours = predicate_colours(_alpha_unique(sigma))
    codes = {dep: stable_hash(_dependency_code(dep, colours)) for dep in deps}
    if len(set(codes.values())) != len(deps):
        return None
    return codes


def decisions_to_json(
    sigma: DependencySet,
    cache: DecisionCache,
    codes: dict[AnyDependency, str] | None = None,
) -> list[dict]:
    """Serialise the cache's decisions about Σ's own dependency pairs.

    Decisions about foreign dependencies (LS probes pairs of the adorned
    set Σα through the same cache) are skipped: they are not artifacts of
    Σ and would not round-trip through Σ's codes.  Witnesses are dropped
    — reuse needs only the verdict and its exactness.  Returns nothing
    when Σ's codes are ambiguous (see :func:`dependency_codes`); pass a
    precomputed ``codes`` map to skip re-canonicalising Σ.
    """
    code_of = dependency_codes(sigma) if codes is None else codes
    if code_of is None:
        return []
    records = []
    for key, decision in cache.snapshot().items():
        kind = key[0]
        if kind == "precedes":
            _, r1, r2, variant, budget = key
            fulls = None
        else:
            _, r1, r2, fulls, variant, budget = key
        if r1 not in code_of or r2 not in code_of:
            continue
        record = {
            "kind": kind,
            "r1": code_of[r1],
            "r2": code_of[r2],
            "variant": variant,
            "budget": budget,
            "edge": decision.edge,
            "exact": decision.exact,
        }
        if fulls is not None:
            if any(f not in code_of for f in fulls):
                continue
            record["fulls"] = sorted({code_of[f] for f in fulls})
        records.append(record)
    # Deterministic file content: order by the probe identity (already
    # canonical strings — no dependency is rendered for sorting), the
    # same identity the artifact table deduplicates by.
    records.sort(key=record_identity)
    return records


def seed_decisions(
    sigma: DependencySet,
    records: Iterable[dict],
    cache: DecisionCache,
    codes: dict[AnyDependency, str] | None = None,
) -> int:
    """Install stored decisions for Σ into ``cache``; returns how many.

    Records whose codes no longer resolve (the program changed, the
    schema moved on, or Σ's codes are ambiguous and were never safe to
    transfer) are silently skipped: the worst outcome of a stale or
    refused store is a cold probe, never a wrong verdict.  Pass a
    precomputed ``codes`` map to skip re-canonicalising Σ.
    """
    if codes is None:
        codes = dependency_codes(sigma)
    if codes is None:
        return 0
    by_code = {code: dep for dep, code in codes.items()}
    seeded = 0
    for record in records:
        r1 = by_code.get(record["r1"])
        r2 = by_code.get(record["r2"])
        if r1 is None or r2 is None:
            continue
        fulls = None
        if "fulls" in record:
            members = [by_code.get(c) for c in record["fulls"]]
            if any(m is None for m in members):
                continue
            fulls = frozenset(members)
        decision = FiringDecision(record["edge"], record["exact"], None)
        if fulls is None:
            key = (record["kind"], r1, r2, record["variant"], record["budget"])
        else:
            key = (
                record["kind"], r1, r2, fulls,
                record["variant"], record["budget"],
            )
        cache.seed(key, decision)
        seeded += 1
    return seeded


class ArtifactStore(ArtifactTable):
    """Per-program decision records in a cache directory's
    ``store.sqlite`` — the sqlite artifact table under
    :data:`ARTIFACT_SCHEMA`.

    Mirrors :class:`~repro.batch.cache.ResultCache`'s lifecycle (same
    directory, same store file) but merges rather than replaces: writes
    for the same program key accumulate decisions, deduplicated by probe.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        super().__init__(directory, ARTIFACT_SCHEMA)
