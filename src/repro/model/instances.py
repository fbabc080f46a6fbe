"""Instances and databases.

An *instance* is a set of facts (atoms over constants and labelled nulls);
a *database* is an instance containing only constants (Section 2).

:class:`Instance` maintains three indexes that the rest of the system
depends on for performance:

* a predicate index (``predicate → set of facts``) used by the homomorphism
  finder,
* a position index (``(predicate, position) → term id → set of facts``)
  used by the compiled plans' executor for non-columnar targets
  (:mod:`repro.matching.plans`) to intersect candidate buckets instead of
  scanning whole predicate extents.  Its cells are keyed by the interned
  term id (``term.tid``, a process-local small int — see
  :mod:`repro.model.terms`) rather than the term object, so the hot
  probe path hashes ints, and
* a term index (``term → set of facts containing it``) used by EGD chase
  steps, which must rewrite every fact mentioning the merged null.

It also keeps a monotone *delta log*: every successful :meth:`add` appends
the fact to an append-only list.  Consumers snapshot :attr:`tick` and later
call :meth:`added_since` to obtain exactly the facts added in between —
the semi-naive discovery protocol of the chase runner and of the Skolem
saturation loop (see DESIGN.md, "Indexed matching and semi-naive
discovery").  Facts rewritten by :meth:`merge_terms` re-enter the log
because the rewrite is a discard followed by an add.

The public accessors :meth:`with_predicate` and :meth:`with_term` return
*copies* of the internal buckets: callers may iterate them while the chase
mutates the instance without hitting "set changed size during iteration".
Internal hot paths (the matching backends) use the borrowing accessors
``_pred_bucket`` / ``_pos_bucket``, whose results are only valid until the
next mutation — a :meth:`rollback` counts as a mutation — and must never
be mutated by the caller.

**Transactions.**  Branching searches (the chase explorer, the witness
engine, core computation) need to try a step and undo it.  Instead of
paying ``copy()`` — O(|I|) per branch — they take a :meth:`savepoint`,
mutate freely, and :meth:`rollback`: every :meth:`add` and
:meth:`discard` performed while at least one savepoint is active appends
an inverse operation to an undo log, and rollback replays the inverses in
reverse, restoring the fact set, all three indexes *and* the delta-log
tick in O(changes since the savepoint).  Savepoints nest (DFS takes one
per branch); each token must be rolled back or :meth:`release`-d exactly
once, innermost first.  ``copy()`` remains the right tool for a fork that
must outlive its parent (and as the reference backend the differential
suite holds the undo log against).  See DESIGN.md §5.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .atoms import Atom
from .terms import Constant, GroundTerm, Null, Term, Variable

_EMPTY_SET: frozenset[Atom] = frozenset()

# Undo-log entry kinds (first element of each entry tuple).
_UNDO_ADD = 0      # (kind, fact, grown_slots) — undone by un-indexing the fact
_UNDO_DISCARD = 1  # (kind, fact)              — undone by re-indexing the fact


class Savepoint:
    """A point in an instance's undo log that :meth:`Instance.rollback`
    can restore.  Opaque; obtained from :meth:`Instance.savepoint`."""

    __slots__ = ("_undo_len", "_log_len", "_live")

    def __init__(self, undo_len: int, log_len: int) -> None:
        self._undo_len = undo_len
        self._log_len = log_len
        self._live = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self._live else "consumed"
        return f"Savepoint(undo={self._undo_len}, tick={self._log_len}, {state})"


class InconsistencyError(Exception):
    """Raised when an EGD step would equate two distinct constants.

    This is the ``J = ⊥`` case of Definition 1(2a): the chase sequence fails.
    """


class Instance:
    """A mutable set of facts with predicate, position and term indexes."""

    __slots__ = (
        "_facts", "_by_predicate", "_by_term", "_by_pos", "_log",
        "_undo", "_sp_stack",
    )

    def __init__(self, facts: Iterable[Atom] = ()) -> None:
        self._facts: set[Atom] = set()
        self._by_predicate: dict[str, set[Atom]] = {}
        self._by_term: dict[Term, set[Atom]] = {}
        # predicate → per-position list of (term id → facts with that term
        # at that position) buckets; keyed by ``term.tid`` so probes hash
        # small ints instead of term objects.
        self._by_pos: dict[str, list[dict[int, set[Atom]]]] = {}
        # Monotone delta log; see the module docstring.
        self._log: list[Atom] = []
        # Undo log: None unless at least one savepoint is active, so the
        # non-transactional hot path pays one None-check per mutation.
        self._undo: list[tuple] | None = None
        self._sp_stack: list[Savepoint] = []
        for f in facts:
            self.add(f)

    # -- index maintenance (shared by add/discard and the undo replay) -----

    def _index_insert(self, fact: Atom) -> int:
        """Enter ``fact`` into the fact set and all three indexes.

        Returns how many per-position slots the fact's predicate gained
        (> 0 only for a predicate never seen at this arity) — the undo log
        needs it to shrink ``_by_pos`` back exactly.
        """
        self._facts.add(fact)
        self._by_predicate.setdefault(fact.predicate, set()).add(fact)
        slots = self._by_pos.setdefault(fact.predicate, [])
        grown = len(fact.args) - len(slots)
        while len(slots) < len(fact.args):
            slots.append({})
        for i, t in enumerate(fact.args):
            self._by_term.setdefault(t, set()).add(fact)
            slots[i].setdefault(t.tid, set()).add(fact)
        return grown if grown > 0 else 0

    def _index_remove(self, fact: Atom) -> None:
        """Remove ``fact`` from the fact set and all three indexes,
        deleting buckets that become empty (slot lists are kept — their
        length is managed only by :meth:`_index_insert`/undo)."""
        self._facts.discard(fact)
        bucket = self._by_predicate.get(fact.predicate)
        if bucket is not None:
            bucket.discard(fact)
            if not bucket:
                del self._by_predicate[fact.predicate]
        for t in set(fact.args):
            tb = self._by_term.get(t)
            if tb is not None:
                tb.discard(fact)
                if not tb:
                    del self._by_term[t]
        slots = self._by_pos.get(fact.predicate)
        if slots is not None:
            for i, t in enumerate(fact.args):
                tid = t.tid
                cell = slots[i].get(tid)
                if cell is not None:
                    cell.discard(fact)
                    if not cell:
                        del slots[i][tid]

    # -- mutation ---------------------------------------------------------

    def add(self, fact: Atom) -> bool:
        """Add a fact; returns True if it was new."""
        if not fact.is_fact:
            raise ValueError(f"{fact} contains variables and is not a fact")
        if fact in self._facts:
            return False
        grown = self._index_insert(fact)
        self._log.append(fact)
        if self._undo is not None:
            self._undo.append((_UNDO_ADD, fact, grown))
        return True

    def add_all(self, facts: Iterable[Atom]) -> int:
        """Add many facts; returns how many were new."""
        return sum(1 for f in facts if self.add(f))

    def discard(self, fact: Atom) -> bool:
        """Remove a fact if present; returns True if it was there."""
        if fact not in self._facts:
            return False
        self._index_remove(fact)
        if self._undo is not None:
            self._undo.append((_UNDO_DISCARD, fact))
        return True

    def merge_terms(self, old: Null, new: GroundTerm) -> None:
        """Replace every occurrence of the null ``old`` by ``new`` in place.

        This is the effect of an EGD chase step's substitution γ = {old/new}.
        Rewritten facts re-enter the delta log (a merge can enable body
        matches with repeated variables, so they count as new facts for
        semi-naive discovery).
        """
        if old is new:
            return
        if not isinstance(old, Null):
            raise TypeError("only labelled nulls can be merged away")
        touched = list(self._by_term.get(old, ()))
        mapping = {old: new}
        for fact in touched:
            self.discard(fact)
            self.add(fact.apply(mapping))

    # -- savepoints ---------------------------------------------------------

    def savepoint(self) -> Savepoint:
        """Open a transaction scope: remember the current state cheaply.

        Until the returned token is consumed by :meth:`rollback` or
        :meth:`release`, every mutation is recorded in the undo log.
        Savepoints nest; tokens must be consumed innermost-first.
        """
        if self._undo is None:
            self._undo = []
        sp = Savepoint(len(self._undo), len(self._log))
        self._sp_stack.append(sp)
        return sp

    def rollback(self, sp: Savepoint) -> None:
        """Restore the exact state :meth:`savepoint` saw, in O(changes).

        Facts, all three indexes and the delta-log tick are restored;
        savepoints opened after ``sp`` (and ``sp`` itself) are consumed.
        Borrowed buckets (``_pred_bucket``/``_pos_bucket``) obtained since
        the savepoint are invalidated, like by any other mutation.
        """
        self._consume(sp)
        undo = self._undo
        assert undo is not None
        for entry in reversed(undo[sp._undo_len:]):
            if entry[0] == _UNDO_ADD:
                self._index_remove(entry[1])
                grown = entry[2]
                if grown:
                    # This add created those slots, and every fact that
                    # could occupy them was added later — hence already
                    # unwound above — so they are empty now.
                    slots = self._by_pos[entry[1].predicate]
                    del slots[-grown:]
                    if not slots:
                        del self._by_pos[entry[1].predicate]
            else:
                self._index_insert(entry[1])
        del undo[sp._undo_len:]
        del self._log[sp._log_len:]
        if not self._sp_stack:
            self._undo = None

    def release(self, sp: Savepoint) -> None:
        """Consume ``sp`` *keeping* the changes made since (commit).

        Inner savepoints still open are consumed too.  The recorded undo
        entries are retained while an outer savepoint remains active — its
        rollback still covers the released scope — and dropped otherwise.
        """
        self._consume(sp)
        if not self._sp_stack:
            self._undo = None

    def _consume(self, sp: Savepoint) -> None:
        if not sp._live or sp not in self._sp_stack:
            raise ValueError(
                "savepoint is not active on this instance (already rolled "
                "back, released, or taken from another instance)"
            )
        while self._sp_stack:
            top = self._sp_stack.pop()
            top._live = False
            if top is sp:
                return

    @property
    def in_transaction(self) -> bool:
        """True while at least one savepoint is active."""
        return bool(self._sp_stack)

    def compact_log(self) -> None:
        """Drop the delta log; the tick resets to 0.

        For long-lived instances whose consumers hold no outstanding tick
        snapshots (the core chase between rounds): without compaction the
        log would pin every fact ever added, including long-retracted
        ones.  Disallowed while a savepoint is active — rollback relies
        on log positions recorded at the savepoint.
        """
        if self._sp_stack:
            raise RuntimeError(
                "cannot compact the delta log inside a transaction"
            )
        self._log.clear()

    # -- delta log ---------------------------------------------------------

    @property
    def tick(self) -> int:
        """The current position of the delta log (monotonically increasing)."""
        return len(self._log)

    def added_since(self, tick: int) -> Sequence[Atom]:
        """The facts added after log position ``tick``, in add order.

        Facts that were added and later discarded (e.g. rewritten away by a
        subsequent merge) still appear; callers that only care about live
        facts should re-check membership.
        """
        return self._log[tick:]

    # -- queries ------------------------------------------------------------

    def __contains__(self, fact: object) -> bool:
        return fact in self._facts

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __eq__(self, other: object) -> bool:
        """Value equality: two instances are equal iff they hold the same
        facts.  Indexes, the delta log and tick positions are derived
        state and deliberately excluded — they record *how* an instance
        was built, not *what* it contains.  Comparison against a plain
        ``set``/``frozenset`` of atoms is supported for test ergonomics.
        """
        if isinstance(other, Instance):
            return self._facts == other._facts
        if isinstance(other, (set, frozenset)):
            return self._facts == other
        return NotImplemented

    def __hash__(self) -> int:
        """Instances are explicitly unhashable.

        With a value-based ``__eq__`` on a *mutable* container, any hash
        would be broken one way or the other: hashing the facts changes
        as the chase mutates the instance (corrupting any dict or set it
        sits in), while the silent default — ``object.__hash__``,
        identity-based — would violate the ``a == b ⇒ hash(a) == hash(b)``
        law and make equal instances land in different hash buckets.
        Raising here (rather than ``__hash__ = None``) gives callers the
        remedy: hash the immutable :meth:`frozen` snapshot instead.
        Regression-tested in ``tests/test_instances.py``.
        """
        raise TypeError("Instance is mutable and unhashable; use frozen()")

    def __repr__(self) -> str:
        return f"Instance({len(self)} facts)"

    def __str__(self) -> str:
        return "{" + ", ".join(sorted(str(f) for f in self._facts)) + "}"

    def facts(self) -> frozenset[Atom]:
        return frozenset(self._facts)

    def frozen(self) -> frozenset[Atom]:
        return frozenset(self._facts)

    def copy(self) -> "Instance":
        out = Instance()
        # Rebuild indexes by direct copying (faster than re-adding).  The
        # delta log starts empty: ticks are relative to each instance.
        # Savepoints do not transfer: the copy is its own transaction scope.
        out._facts = set(self._facts)
        out._by_predicate = {p: set(s) for p, s in self._by_predicate.items()}
        out._by_term = {t: set(s) for t, s in self._by_term.items()}
        out._by_pos = {
            pred: [{tid: set(s) for tid, s in cells.items()} for cells in slots]
            for pred, slots in self._by_pos.items()
        }
        return out

    def with_predicate(self, predicate: str) -> frozenset[Atom]:
        """All facts over ``predicate`` (a snapshot, safe to iterate while
        the instance mutates)."""
        bucket = self._by_predicate.get(predicate)
        return frozenset(bucket) if bucket else _EMPTY_SET

    def with_term(self, term: Term) -> frozenset[Atom]:
        """All facts mentioning ``term`` (a snapshot, safe to iterate while
        the instance mutates)."""
        bucket = self._by_term.get(term)
        return frozenset(bucket) if bucket else _EMPTY_SET

    # -- borrowing accessors (internal; see module docstring) ---------------

    def _pred_bucket(self, predicate: str) -> set[Atom] | frozenset[Atom]:
        """Live predicate bucket — read-only, valid until the next mutation."""
        return self._by_predicate.get(predicate, _EMPTY_SET)

    def _pos_bucket(
        self, predicate: str, index: int, term: Term
    ) -> set[Atom] | frozenset[Atom]:
        """Live ``(predicate, position, term)`` bucket — read-only, valid
        until the next mutation."""
        slots = self._by_pos.get(predicate)
        if slots is None or index >= len(slots):
            return _EMPTY_SET
        return slots[index].get(term.tid, _EMPTY_SET)

    def _pos_slots(self, predicate: str) -> list[dict[int, set[Atom]]] | None:
        """Live per-position bucket list for ``predicate`` (or None).

        Cells are keyed by term id (``term.tid``), not by term object."""
        return self._by_pos.get(predicate)

    def predicates(self) -> set[str]:
        return set(self._by_predicate)

    def domain(self) -> set[Term]:
        """``Dom``: all terms occurring in the instance."""
        return set(self._by_term)

    def nulls(self) -> set[Null]:
        return {t for t in self._by_term if isinstance(t, Null)}

    def constants(self) -> set[Constant]:
        return {t for t in self._by_term if isinstance(t, Constant)}

    @property
    def is_database(self) -> bool:
        """True iff only constants appear (the paper's notion of database)."""
        return not self.nulls()

    def null_free_part(self) -> "Instance":
        """``J↓``: the facts that contain no labelled nulls."""
        return Instance(f for f in self._facts if not f.nulls())

    def apply(self, mapping: Mapping[Term, Term]) -> "Instance":
        """A new instance with the mapping applied to every fact."""
        return Instance(f.apply(mapping) for f in self._facts)


def database(*facts: Atom) -> Instance:
    """Build a database, checking that no nulls appear."""
    inst = Instance(facts)
    if not inst.is_database:
        raise ValueError("databases may not contain labelled nulls")
    return inst


def instance_from_tuples(rows: Mapping[str, Iterable[tuple]]) -> Instance:
    """Build an instance from ``{"R": [(a, b), ...], ...}``.

    Python values become constants; :class:`Null` / :class:`Constant`
    instances are used as-is.  Example::

        instance_from_tuples({"N": [("a",)], "E": [("a", "b")]})
    """
    inst = Instance()
    for pred, tuples in rows.items():
        for row in tuples:
            args = [
                t if isinstance(t, (Constant, Null)) else Constant(t) for t in row
            ]
            if any(isinstance(t, Variable) for t in args):
                raise ValueError("facts may not contain variables")
            inst.add(Atom(pred, args))
    return inst
