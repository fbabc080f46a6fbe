"""Core computation.

A subset ``C`` of an instance ``J`` is a *core* of ``J`` if there is a
homomorphism from ``J`` to ``C`` but none from ``J`` to any proper subset of
``C`` (Section 2).  Cores are unique up to isomorphism.

The algorithm used here is iterated retraction: repeatedly look for a null
``η`` such that ``J`` maps homomorphically into the sub-instance of facts
not mentioning ``η`` (constants fixed, nulls flexible); replace ``J`` by
that homomorphic image and repeat.  When no null can be eliminated the
instance is its own core.  This is complete: a non-core instance always
admits a retraction eliminating at least one null (Fagin–Kolaitis–Popa,
"Data exchange: getting to the core").

Each retraction is applied *in place* in O(facts touched): the retraction
homomorphism only moves the facts mentioning a moved null, so rewriting
those through ``discard``/``add`` beats the full ``ColumnarInstance.apply``
rebuild the seed performed per round.  ``core(fresh=False)`` extends the
same economy to the caller: the input itself is consumed (the core chase
runs it under an :meth:`ColumnarInstance.savepoint` scope, so a blown budget
rolls back cleanly), while the default ``fresh=True`` keeps the
historical contract — the input is never modified and the result is
always a fresh instance.

Core computation is NP-hard in general; this implementation is exact, with a
configurable search budget so callers can treat blow-ups like timeouts.
"""

from __future__ import annotations

from typing import Iterable

from ..matching.engine import Homomorphism
from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from ..model.terms import Null
from .finder import find_homomorphisms


class CoreBudgetExceeded(Exception):
    """Raised when the retraction search exceeds its budget."""


class _BudgetedSearch:
    """Counts homomorphism attempts across rounds against one budget."""

    __slots__ = ("remaining",)

    def __init__(self, budget: int) -> None:
        self.remaining = budget

    def charge(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise CoreBudgetExceeded


def _retraction_source(facts: list[Atom]) -> list[Atom]:
    """The body every retraction of ``facts`` is searched with.

    A fact without nulls maps to itself and is in every target (victims
    are nulls), so only the facts with nulls constrain the retraction.
    Computed once per instance state and shared by all its victims."""
    return sorted(
        (f for f in facts if any(isinstance(t, Null) for t in f.args)), key=str
    )


def _find_retraction(
    facts: list[Atom], source: list[Atom], victim: Null, search: _BudgetedSearch
) -> Homomorphism | None:
    """A homomorphism retracting the instance holding ``facts`` into its
    victim-free part, or None; ``source`` is :func:`_retraction_source`
    of ``facts``."""
    target_facts = [f for f in facts if victim not in f.args]
    if len(target_facts) == len(facts):
        # The victim occurs in no fact (cannot happen with indexes in sync),
        # nothing to eliminate.
        return None
    search.charge(len(facts))
    for h in find_homomorphisms(source, target_facts, limit=1):
        return h
    return None


def _apply_retraction(instance: ColumnarInstance, h: Homomorphism) -> None:
    """Replace ``instance`` by its image under ``h`` **in place**.

    Only the facts mentioning a moved null change, so the cost is
    O(facts touched), not O(|I|).  ``h`` is a *simultaneous* substitution:
    every affected fact is discarded before any image is added, otherwise
    an image colliding with a not-yet-rewritten fact would be lost.
    """
    moved = [t for t, img in h.items() if isinstance(t, Null) and img is not t]
    affected: set[Atom] = set()
    for n in moved:
        affected |= instance.with_term(n)
    images = [f.apply(h) for f in affected]
    for f in affected:
        instance.discard(f)
    instance.add_all(images)


def core(
    instance: ColumnarInstance, budget: int = 2_000_000, fresh: bool = True
) -> ColumnarInstance:
    """Compute ``core(J)``.

    ``budget`` roughly caps the work done across retraction rounds;
    :class:`CoreBudgetExceeded` is raised when exhausted (callers treat this
    like a timeout).  With ``fresh`` (the default) the input is never
    modified and the result is a new instance; ``fresh=False`` consumes
    the input in place and returns it — the caller owns any transactional
    scope around it.
    """
    search = _BudgetedSearch(budget)
    current = instance
    progress = True
    while progress:
        progress = False
        facts = list(current)
        source = _retraction_source(facts)
        for victim in sorted(current.nulls(), key=lambda n: n.label):
            h = _find_retraction(facts, source, victim, search)
            if h is not None:
                if fresh and current is instance:
                    current = instance.copy()
                _apply_retraction(current, h)
                progress = True
                break
    if fresh and current is instance:
        return instance.copy()
    return current


def is_core(instance: ColumnarInstance, budget: int = 2_000_000) -> bool:
    """True iff the instance admits no proper retraction."""
    search = _BudgetedSearch(budget)
    facts = list(instance)
    source = _retraction_source(facts)
    for victim in sorted(instance.nulls(), key=lambda n: n.label):
        if _find_retraction(facts, source, victim, search) is not None:
            return False
    return True


def core_of_atoms(atoms: Iterable[Atom], budget: int = 2_000_000) -> ColumnarInstance:
    """Convenience wrapper for raw atom collections."""
    return core(ColumnarInstance(atoms), budget=budget)
