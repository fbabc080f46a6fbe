"""Delta-driven trigger matching.

The shared matching engine behind every chase consumer — see DESIGN.md,
"Indexed matching and semi-naive discovery".  Public surface:

* :func:`homomorphisms` — backend-dispatching homomorphism enumeration
  (``repro.homomorphism.finder`` delegates here);
* :func:`delta_homomorphisms` / :func:`body_atom_index` — semi-naive
  discovery over an instance's delta log;
* :func:`seed_mapping` — anchor a body atom onto a fact;
* :func:`get_backend` / :func:`set_backend` / :func:`using_backend` —
  switch between the ``columnar`` compiled plans (default) and the
  ``naive`` reference;
* :func:`warm_plans` — precompile the ``columnar`` backend's join plans
  for a dependency set's bodies at chase start.

Both backends run over the one fact store,
:class:`~repro.model.columnar.ColumnarInstance`, or over plain atom
collections; the backend choice never changes the instance type.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from ..model.terms import Term
from . import naive as _naive
from . import plans as _plans
from .config import BACKENDS, get_backend, set_backend, using_backend
from .engine import (
    Homomorphism,
    body_atom_index,
    delta_homomorphisms,
    match_atom,
    seed_mapping,
)
from .plans import delta_row_homomorphisms
from .plans import warm as _warm


def homomorphisms(
    source: Sequence[Atom],
    target: ColumnarInstance | Iterable[Atom],
    seed: Mapping[Term, Term] | None = None,
    frozen_nulls: bool = False,
    limit: int | None = None,
) -> Iterator[Homomorphism]:
    """Enumerate homomorphisms using the active matching backend."""
    if get_backend() == "naive":
        return _naive.match(source, target, seed, frozen_nulls, limit)
    # plans.match runs the int executor over instances and the plan
    # executor over atom collections.
    return _plans.match(source, target, seed, frozen_nulls, limit)


def warm_plans(
    bodies: Iterable[Sequence[Atom]],
    target: ColumnarInstance | Iterable[Atom],
    frozen_nulls: bool = False,
) -> int:
    """Precompile join plans for ``bodies`` under the ``columnar`` backend;
    a no-op (returning 0) under the ``naive`` reference, which runs no
    plans."""
    if get_backend() == "naive":
        return 0
    return _warm(bodies, target, frozen_nulls)


__all__ = [
    "BACKENDS",
    "Homomorphism",
    "body_atom_index",
    "delta_homomorphisms",
    "delta_row_homomorphisms",
    "get_backend",
    "homomorphisms",
    "match_atom",
    "seed_mapping",
    "set_backend",
    "using_backend",
    "warm_plans",
]
