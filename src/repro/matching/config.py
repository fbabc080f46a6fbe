"""Matching backend selection.

Two interchangeable homomorphism-search backends exist:

* ``"columnar"`` (default) — compiled fixed-order join plans
  (:mod:`.plans`) executed as generated int loops over a
  :class:`~repro.model.columnar.ColumnarInstance`'s typed tid columns and
  row-id sets, with optional vectorised kernels (DESIGN.md §10–§11);
* ``"naive"`` — the retained reference: static atom order, full predicate
  extent scans read through the instance's public per-predicate
  snapshots, no interning anywhere on its path (:mod:`.naive`).

The backend selects a *matcher*, never a fact representation: chase entry
points build the same ``ColumnarInstance`` under both.  Only
:mod:`repro.matching` reads the setting: its entry points dispatch on it,
so no consumer branches on it (lint rule ``backend-dispatch``), and
:func:`using_backend` is the one way to pick it.

Both backends enumerate exactly the same *set* of homomorphisms (possibly
in a different order); the differential test suite holds them against
each other.  The backend is a :mod:`contextvars` variable so nested chase
runs (e.g. the explorer forking runners) compose correctly.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Iterator

BACKENDS = ("columnar", "naive")

_backend: ContextVar[str] = ContextVar("repro_matching_backend", default="columnar")


def get_backend() -> str:
    """The currently active matching backend name."""
    return _backend.get()


@contextlib.contextmanager
def using_backend(name: str) -> Iterator[None]:
    """Temporarily switch the matching backend (re-entrant)."""
    if name not in BACKENDS:
        raise ValueError(f"unknown matching backend {name!r}; known: {BACKENDS}")
    token = _backend.set(name)
    try:
        yield
    finally:
        _backend.reset(token)
