"""Delta-driven trigger matching.

The shared matching engine behind every chase consumer — see DESIGN.md,
"Indexed matching and semi-naive discovery".  Public surface:

* :func:`homomorphisms` — backend-dispatching homomorphism enumeration
  (``repro.homomorphism.finder`` delegates here);
* :func:`delta_homomorphisms` / :func:`body_atom_index` — semi-naive
  discovery over an instance's delta log, backend-dispatching too;
* :class:`BoundPlan` — one plan bound for repeated runs (the chase
  runner's head test), answering under the active backend;
* :func:`seed_mapping` — anchor a body atom onto a fact;
* :func:`get_backend` / :func:`using_backend` — read or (scoped) switch
  between the ``columnar`` compiled plans (default) and the
  ``naive`` reference.  Only this package reads the switch.

Both backends run over the one fact store,
:class:`~repro.model.columnar.ColumnarInstance`: :func:`homomorphisms`
loads a plain fact collection into one before dispatching, so the
backend choice never changes the target type.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from ..model.terms import Term
from . import naive as _naive
from . import plans as _plans
from .config import BACKENDS, get_backend, using_backend
from .engine import (
    Homomorphism,
    body_atom_index,
    delta_homomorphisms,
    match_atom,
    seed_mapping,
)
from .plans import BoundPlan, lid_getter


def homomorphisms(
    source: Sequence[Atom],
    target: ColumnarInstance | Iterable[Atom],
    seed: Mapping[Term, Term] | None = None,
    frozen_nulls: bool = False,
    limit: int | None = None,
) -> Iterator[Homomorphism]:
    """Enumerate homomorphisms using the active matching backend.

    A ``target`` that is not an instance is loaded into a
    :class:`~repro.model.columnar.ColumnarInstance` once, here, for both
    backends; it must therefore be a collection of facts (a ``ValueError``
    names the first atom with a variable).
    """
    if not isinstance(target, ColumnarInstance):
        target = ColumnarInstance(target)
    if get_backend() == "naive":
        return _naive.match(source, target, seed, frozen_nulls, limit)
    return _plans.match(source, target, seed, frozen_nulls, limit)


__all__ = [
    "BACKENDS",
    "BoundPlan",
    "Homomorphism",
    "body_atom_index",
    "delta_homomorphisms",
    "get_backend",
    "homomorphisms",
    "lid_getter",
    "match_atom",
    "seed_mapping",
    "using_backend",
]
