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
points build the same ``ColumnarInstance`` under both, and the few
consumers whose discovery differs (the chase runner, the Skolem
saturation, MSA) branch on :func:`get_backend`, not on the instance type.

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


def set_backend(name: str) -> None:
    """Set the matching backend for the *current context*.

    The setting lives in a :mod:`contextvars` variable: new threads (and
    contexts copied before the call) start from the ``"columnar"`` default
    and do not observe it.  Use :func:`using_backend` for scoped switches.
    """
    if name not in BACKENDS:
        raise ValueError(f"unknown matching backend {name!r}; known: {BACKENDS}")
    _backend.set(name)


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
