"""A deliberately dumb reference model of the fact store's contract.

``FactSetModel`` is a plain Python ``set`` of atoms plus a list delta log,
with savepoints kept as full copies.  It shares no code with
:class:`repro.model.columnar.ColumnarInstance` (no term ids, no columns,
no undo log), so the instance-contract suites hold the store against it:
every operation is mirrored on both and the observable state compared.

:func:`index_cell` reads one of the store's position-index cells back as
atoms, for the suites that pin how the index follows mutations.
"""

from __future__ import annotations

from typing import Iterable

from repro.model import Atom, ColumnarInstance
from repro.model.terms import Null, Term


def index_cell(
    inst: ColumnarInstance, pred: str, arity: int, pos: int, term: Term
) -> set[Atom]:
    """The live facts in one ``(predicate, position, term)`` index cell."""
    store = inst._stores.get((pred, arity))
    lid = inst._terms.local_of.get(term.tid)
    if store is None or lid is None:
        return set()
    terms = inst._terms.terms
    return {
        Atom(pred, tuple(terms[col[row]] for col in store.cols))
        for row in store.index[pos].get(lid, ())
        if store.live[row]
    }


class FactSetModel:
    """Facts as a set, the delta log as a list, savepoints as copies."""

    def __init__(self, facts: Iterable[Atom] = ()) -> None:
        self.facts: set[Atom] = set()
        self.log: list[Atom] = []
        self._saved: list[tuple[frozenset[Atom], int]] = []
        for f in facts:
            self.add(f)

    @property
    def tick(self) -> int:
        return len(self.log)

    def add(self, fact: Atom) -> bool:
        if fact in self.facts:
            return False
        self.facts.add(fact)
        self.log.append(fact)
        return True

    def discard(self, fact: Atom) -> bool:
        if fact not in self.facts:
            return False
        self.facts.discard(fact)
        return True

    def merge_terms(self, old: Null, new: Term) -> None:
        touched = [f for f in self.facts if old in f.args]
        for f in touched:
            self.discard(f)
        for f in touched:
            self.add(f.apply({old: new}))

    def savepoint(self) -> int:
        self._saved.append((frozenset(self.facts), len(self.log)))
        return len(self._saved) - 1

    def rollback(self, token: int) -> None:
        facts, tick = self._saved[token]
        del self._saved[token:]
        self.facts = set(facts)
        del self.log[tick:]

    def release(self, token: int) -> None:
        del self._saved[token:]

    def copy(self) -> "FactSetModel":
        """A fork: same facts, empty delta log, no savepoints."""
        out = FactSetModel()
        out.facts = set(self.facts)
        return out
