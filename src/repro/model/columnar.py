"""The mutable fact store: facts as row indexes over typed tid columns.

:class:`ColumnarInstance` is the one mutable *instance* of the system
(DESIGN.md §1/§5/§10/§11): the chase, the critical instance behind
MFA/MSA, Adn∃'s Dµ(Σµ), core computation and every parser/loader build
it (``repro.Instance`` is the same class object).  It keeps **no
per-fact Python object at all**:

* each ``(predicate, arity)`` pair owns a :class:`_Store` — one flat
  ``array('q')`` of *local* term ids per argument position (the
  *columns*), a live-row bitmap (``bytearray``), and a per-position
  index mapping ``lid → array('q') of candidate rows``;
* a *fact* is a row index into those columns; membership and
  value-identity go through ``rowmap`` (live lid-tuple → row);
* the compiled join plans (:mod:`repro.matching.plans`) execute
  directly over the cells and columns — every probe, check and register
  write is an int operation (vectorised through :mod:`.kernels` above a
  pool-size threshold), and no ``Atom``/``Term`` object is touched on
  the hot path.  The ``naive`` matching oracle reads the public
  per-predicate snapshot (:meth:`ColumnarInstance.with_predicate`)
  instead.

**Local term ids.**  Terms are interned process-wide with stable
``tid``\\ s, but those are sparse; every instance *family* (an instance
plus everything forked from it by :meth:`copy`) shares one
:class:`_TermTable` mapping each term to a **dense** local id.  Columns,
cells and rowmap keys hold local ids, so boundary materialisation is one
list index (``terms[lid]``) instead of a dict probe, and the ids stay
small.  The table is monotone and append-only — forks share it without
copying, and a lid, once assigned, is stable for the family's lifetime.

**Row-id lifetime.**  Rows are append-only: ``add`` assigns the next row
id; ``discard`` only clears the live bit and drops the ``rowmap`` entry.
Index cells are append-only **tombstone** cells: a discarded row stays
in its cells (the executor and every cell consumer re-check the live
bitmap), which makes discard/undo O(arity) with no set surgery and keeps
each cell sorted ascending by construction.  Columns only shrink when a
transaction rollback pops rows added since the savepoint (undo replays
LIFO, so the popped row is always both the store's and each of its
cells' last).  Dead rows keep their column data, which is what lets
:meth:`added_since` materialise a rolled-over delta fact after the fact
died.  Tombstones are reclaimed at fork time: :meth:`copy` hands the
child a compacted rebuild of any store whose dead fraction crossed
``COMPACT_DEAD_FRACTION``.

**Copy-on-write forks.**  :meth:`copy` does **not** duplicate columns:
parent and child share the same frozen ``_Store`` objects, and both
sides drop their ownership marks, so the fork costs O(predicates) — plus
compaction for tombstone-heavy stores — instead of O(rows).  The first
mutation of a shared store (add, discard, merge, or a rollback that has
to pop/revive its rows) un-shares it with one C-level deep copy
(``array('q')`` columns copy as memcpy); stores the branch never writes
are never copied.  A sharer **never** mutates a shared buffer in place,
so a child fork can outlive, precede, or interleave with its parent's
savepoints and rollbacks.

**Boundary materialisation.**  ``Atom`` objects are built from the term
table only at the representation boundaries — iteration, rendering,
fingerprints/canonical keys, ``added_since``, witness extraction —
never inside plan execution.  Fingerprints and canonical keys therefore
stay tid-free exactly as DESIGN.md §9 demands.  The explorer's memo
path uses :meth:`memo_parts` instead: per-store cached splits of the
live rowmap keys into ground and null-mentioning rows, so memoising a
visited state materialises no ``Atom`` at all — the explorer decodes a
state's null rows only if another state lands in its memo bucket.

**Delta log.**  Every successful :meth:`~ColumnarInstance.add` appends a
``(storekey, row)`` handle to a monotone log.  Consumers snapshot
:attr:`~ColumnarInstance.tick` and later read exactly the rows added in
between — as handles (:meth:`~ColumnarInstance.added_rows_since`, the
zero-materialisation surface the ``columnar`` matcher consumes) or as
atoms (:meth:`~ColumnarInstance.added_since`, the boundary the ``naive``
oracle and the explorer read).  This is the semi-naive discovery
protocol of DESIGN.md §1.  Rows rewritten by
:meth:`~ColumnarInstance.merge_terms` re-enter the log, because the
rewrite is a discard followed by an add.

**Transactions.**  Branching searches (the chase explorer, the witness
engine, core computation) try a step and undo it: they take a
:meth:`~ColumnarInstance.savepoint`, mutate freely, and
:meth:`~ColumnarInstance.rollback`.  While at least one savepoint is
active every add and discard records its inverse in an undo log, and
rollback replays the inverses in reverse, restoring columns, bitmap,
index cells, rowmaps *and* the delta-log tick in O(changes since the
savepoint).  Savepoints nest; each token must be rolled back or
:meth:`~ColumnarInstance.release`-d exactly once, innermost first
(DESIGN.md §5).

The public accessors (:meth:`~ColumnarInstance.with_predicate`,
:meth:`~ColumnarInstance.with_term`) return frozenset *snapshots*, safe
to iterate while the instance mutates.  Value equality (``__eq__``)
compares fact sets, also against plain ``set``/``frozenset`` operands.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from .atoms import Atom
from .terms import Constant, GroundTerm, Null, Term

# Undo-log entry kinds (first element of each entry tuple).
_UNDO_ADD = 0      # (kind, skey, row, created_store)
_UNDO_DISCARD = 1  # (kind, skey, row)

#: A delta-log / undo-log store key: ``(predicate, arity)``.
StoreKey = tuple[str, int]

#: A delta-log row handle: ``(storekey, row id)``.
RowHandle = tuple[StoreKey, int]

#: :meth:`ColumnarInstance.copy` compacts a store's tombstones away when
#: at least this fraction of its rows is dead; lighter tombstone loads
#: ride along shared (re-checking a dead row costs one bitmap read).
COMPACT_DEAD_FRACTION = 0.25


class Savepoint:
    """A point in an instance's undo log that
    :meth:`ColumnarInstance.rollback` can restore.  Opaque; obtained from
    :meth:`ColumnarInstance.savepoint`."""

    __slots__ = ("_undo_len", "_log_len", "_live")

    def __init__(self, undo_len: int, log_len: int) -> None:
        self._undo_len = undo_len
        self._log_len = log_len
        self._live = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self._live else "consumed"
        return f"Savepoint(undo={self._undo_len}, tick={self._log_len}, {state})"


class _TermTable:
    """The family-shared dense term registry.

    ``local_of`` maps a process-global ``term.tid`` to the family's
    local id; ``terms[lid]`` is the interned term object (one list
    index per boundary materialisation); ``null_lids`` is the set of
    local ids naming labelled nulls (the memo path's ground/null split).
    All three are monotone append-only, which is what lets every fork of
    a family share the one table without copying or synchronising: a
    lid, once assigned, means the same term to every sharer forever.
    """

    __slots__ = ("local_of", "terms", "null_lids")

    def __init__(self) -> None:
        self.local_of: dict[int, int] = {}
        self.terms: list[Term] = []
        self.null_lids: set[int] = set()

    def register(self, term: Term) -> int:
        lid = self.local_of.get(term.tid)
        if lid is None:
            lid = len(self.terms)
            self.local_of[term.tid] = lid
            self.terms.append(term)
            if isinstance(term, Null):
                self.null_lids.add(lid)
        return lid


class _Store:
    """The columns of one ``(predicate, arity)`` pair.

    ``cols[pos][row]`` is the local term id at argument position ``pos``
    of row ``row`` (an ``array('q')`` — a typed flat buffer the kernels
    view zero-copy); ``index[pos][lid]`` is an append-only ``array('q')``
    of the rows holding that lid there, ascending, **including dead
    rows** (consumers filter through ``live``); ``rowmap`` maps each
    live row's full lid-tuple to its row id (doubling as the membership
    test and the probe-free scan — its keys *are* the column values, so
    full-extent enumeration never reads a column); ``live``/``nlive``
    track the bitmap, ``nrows`` the column length.  ``version`` bumps on
    every mutation and keys the :meth:`split_keys` memo cache.
    """

    __slots__ = (
        "arity", "cols", "rowmap", "index", "live",
        "nlive", "nrows", "version", "_split",
    )

    def __init__(self, arity: int) -> None:
        self.arity = arity
        self.cols: list[array] = [array("q") for _ in range(arity)]
        self.rowmap: dict[tuple[int, ...], int] = {}
        self.index: list[dict[int, array]] = [{} for _ in range(arity)]
        self.live = bytearray()
        self.nlive = 0
        self.nrows = 0
        self.version = 0
        self._split: tuple | None = None

    def row_key(self, row: int) -> tuple[int, ...]:
        return tuple(col[row] for col in self.cols)

    def copy(self) -> "_Store":
        """A deep, exclusively-owned duplicate (the un-share step of a
        copy-on-write fork).  Every copy is C-level: ``array('q')`` and
        ``bytearray`` duplicate as memcpy, dict/cell copies loop in C."""
        out = _Store.__new__(_Store)
        out.arity = self.arity
        out.cols = [array("q", col) for col in self.cols]
        out.rowmap = dict(self.rowmap)
        out.index = [
            {lid: array("q", cell) for lid, cell in cell_map.items()}
            for cell_map in self.index
        ]
        out.live = bytearray(self.live)
        out.nlive = self.nlive
        out.nrows = self.nrows
        out.version = 0
        out._split = None
        return out

    def compacted(self) -> "_Store":
        """A rebuilt store holding only the live rows, renumbered densely
        in row order.  Only safe for a fresh fork: row ids change, so the
        owner must have no undo entries or delta handles into this store."""
        out = _Store(self.arity)
        keep = [row for row in range(self.nrows) if self.live[row]]
        out.cols = [array("q", map(col.__getitem__, keep)) for col in self.cols]
        n = len(keep)
        out.live = bytearray(b"\x01" * n)
        out.nlive = n
        out.nrows = n
        rowmap = out.rowmap
        index = out.index
        cols = out.cols
        for new_row in range(n):
            key = tuple(col[new_row] for col in cols)
            rowmap[key] = new_row
            for pos, lid in enumerate(key):
                cell = index[pos].get(lid)
                if cell is None:
                    index[pos][lid] = array("q", (new_row,))
                else:
                    cell.append(new_row)
        return out

    def split_keys(self, null_lids: set[int]) -> tuple[frozenset, tuple, frozenset]:
        """The live rowmap keys split into (ground frozenset, null-row
        tuple, the null lids those null rows mention), cached per
        :attr:`version`.

        This is the explorer memo path's cached input: across sibling
        branch states only the stepped store's version moves, so the
        untouched stores answer from cache.  Monotone ``null_lids``
        growth cannot stale the cache — a row can only mention a null
        registered before the row was added, and adding the row bumped
        the version.
        """
        cached = self._split
        if cached is not None and cached[0] == self.version:
            return cached[1], cached[2], cached[3]
        ground = []
        with_nulls = []
        mentioned: frozenset = frozenset()
        if null_lids:
            isdisjoint = null_lids.isdisjoint
            for key in self.rowmap:
                if isdisjoint(key):
                    ground.append(key)
                else:
                    with_nulls.append(key)
            mentioned = frozenset(
                null_lids.intersection(chain.from_iterable(with_nulls))
            )
        else:
            ground = list(self.rowmap)
        result = (frozenset(ground), tuple(with_nulls), mentioned)
        self._split = (self.version, *result)
        return result


class ColumnarInstance:
    """A mutable set of facts stored as lid columns plus row-id indexes."""

    __slots__ = (
        "_stores", "_terms", "_owned", "_cow", "_log", "_undo", "_sp_stack", "_size",
    )

    def __init__(self, facts: Iterable[Atom] = ()) -> None:
        self._stores: dict[StoreKey, _Store] = {}
        self._terms = _TermTable()
        # Copy-on-write state: after a fork both sides set ``_cow`` and
        # clear ``_owned`` — a store not in ``_owned`` may be shared with
        # another instance and must be un-shared (deep-copied) before its
        # first mutation.  ``_owned`` is relative to the *latest* fork.
        self._owned: set[StoreKey] = set()
        self._cow = False
        # Monotone delta log of (storekey, row) handles.
        self._log: list[RowHandle] = []
        self._undo: list[tuple] | None = None
        self._sp_stack: list[Savepoint] = []
        # Live facts over every store, kept by each mutation so that
        # ``len`` is O(1).
        self._size = 0
        for f in facts:
            self.add(f)

    # -- copy-on-write ------------------------------------------------------

    def _writable(self, skey: StoreKey) -> _Store:
        """The store for ``skey``, un-shared if a fork may still see it."""
        store = self._stores[skey]
        if self._cow and skey not in self._owned:
            store = store.copy()
            self._stores[skey] = store
            self._owned.add(skey)
        return store

    # -- mutation ---------------------------------------------------------

    def add(self, fact: Atom) -> bool:
        """Add a fact; returns True if it was new."""
        if not fact.is_fact:
            raise ValueError(f"{fact} contains variables and is not a fact")
        register = self._terms.register
        return self._add_key(
            (fact.predicate, len(fact.args)),
            tuple(register(t) for t in fact.args),
        )

    def add_all(self, facts: Iterable[Atom]) -> int:
        """Add many facts; returns how many were new."""
        return sum(1 for f in facts if self.add(f))

    def _add_key(self, skey: StoreKey, key: tuple[int, ...]) -> bool:
        """Insert one row by its lid-tuple (terms already registered)."""
        store = self._stores.get(skey)
        created = False
        if store is None:
            store = _Store(skey[1])
            self._stores[skey] = store
            if self._cow:
                self._owned.add(skey)  # brand new: nobody else holds it
            created = True
        elif key in store.rowmap:
            return False
        else:
            store = self._writable(skey)
        row = store.nrows
        for col, cells, lid in zip(store.cols, store.index, key):
            col.append(lid)
            cell = cells.get(lid)
            if cell is None:
                cells[lid] = array("q", (row,))
            else:
                cell.append(row)
        store.rowmap[key] = row
        store.live.append(1)
        store.nrows = row + 1
        store.nlive += 1
        store.version += 1
        self._size += 1
        self._log.append((skey, row))
        if self._undo is not None:
            self._undo.append((_UNDO_ADD, skey, row, created))
        return True

    def discard(self, fact: Atom) -> bool:
        """Remove a fact if present; returns True if it was there."""
        skey = (fact.predicate, len(fact.args))
        store = self._stores.get(skey)
        if store is None:
            return False
        local_of = self._terms.local_of
        lids = []
        for t in fact.args:
            lid = local_of.get(t.tid)
            if lid is None:
                return False  # term never entered this family
            lids.append(lid)
        key = tuple(lids)
        if key not in store.rowmap:
            return False
        self._discard_key(skey, key)
        return True

    def _discard_key(self, skey: StoreKey, key: tuple[int, ...]) -> None:
        """Tombstone one live row: clear the bit, drop the rowmap entry.
        Index cells keep the row (consumers filter through ``live``)."""
        store = self._writable(skey)
        row = store.rowmap.pop(key)
        store.live[row] = 0
        store.nlive -= 1
        store.version += 1
        self._size -= 1
        if self._undo is not None:
            self._undo.append((_UNDO_DISCARD, skey, row))

    def merge_terms(self, old: Null, new: GroundTerm) -> None:
        """Replace every occurrence of the null ``old`` by ``new`` in place.

        This is the effect of an EGD chase step's substitution γ =
        {old/new}.  Each rewritten row is a discard followed by an add, so
        it re-enters the delta log (a merge can enable body matches with
        repeated variables, so rewritten facts count as new for
        semi-naive discovery).
        """
        if old is new:
            return
        if not isinstance(old, Null):
            raise TypeError("only labelled nulls can be merged away")
        olid = self._terms.local_of.get(old.tid)
        if olid is None:
            self._terms.register(new)
            return
        nlid = self._terms.register(new)
        touched: list[tuple[StoreKey, tuple[int, ...]]] = []
        for skey, store in self._stores.items():
            live = store.live
            rows: set[int] = set()
            for cell_map in store.index:
                cell = cell_map.get(olid)
                if cell:
                    rows.update(r for r in cell if live[r])
            for row in rows:
                touched.append((skey, store.row_key(row)))
        for skey, key in touched:
            self._discard_key(skey, key)
            self._add_key(
                skey, tuple(nlid if lid == olid else lid for lid in key)
            )

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

        Columns, bitmap, indexes, rowmaps *and* the delta-log tick are
        restored exactly: adds since the savepoint pop their rows (undo
        replays in reverse, so the popped row is always both the store's
        and each of its cells' last), discards re-mark theirs live.  A
        fork taken since the savepoint survives untouched: every store it
        shares is un-shared here before its rows are popped or revived.
        """
        self._consume(sp)
        undo = self._undo
        assert undo is not None
        stores = self._stores
        for entry in reversed(undo[sp._undo_len:]):
            kind, skey, row = entry[0], entry[1], entry[2]
            store = self._writable(skey)
            if kind == _UNDO_ADD:
                key = store.row_key(row)
                if store.live[row]:
                    del store.rowmap[key]
                    store.nlive -= 1
                    self._size -= 1
                for pos, lid in enumerate(key):
                    cell = store.index[pos][lid]
                    cell.pop()
                    if not cell:
                        del store.index[pos][lid]
                for col in store.cols:
                    col.pop()
                store.live.pop()
                store.nrows -= 1
                store.version += 1
                if entry[3]:
                    # This add created the store; everything added to it
                    # later was unwound first, so it is empty again.
                    del stores[skey]
                    self._owned.discard(skey)
            else:
                store.live[row] = 1
                store.nlive += 1
                self._size += 1
                store.rowmap[store.row_key(row)] = row
                store.version += 1
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
        log would pin every row ever added.  Disallowed while a savepoint
        is active — rollback relies on log positions recorded at the
        savepoint.
        """
        if self._sp_stack:
            raise RuntimeError(
                "cannot compact the delta log inside a transaction"
            )
        self._log.clear()

    @property
    def term_table(self) -> _TermTable:
        """The family's lid ↔ term table, shared by every fork: ``terms[lid]``
        is the term behind a local id, ``local_of[term.tid]`` the id of a
        term, ``register(term)`` assigns one.  Append-only, so registering
        a term never disturbs a fact.  Lid-level consumers (the chase
        runner's trigger rows) read ids through it; facts still change
        only through the mutators, which keep columns, indexes and the
        delta log in lockstep."""
        return self._terms

    # -- delta log ---------------------------------------------------------

    @property
    def tick(self) -> int:
        """The current position of the delta log (monotonically increasing)."""
        return len(self._log)

    def added_rows_since(self, tick: int) -> Sequence[RowHandle]:
        """The ``(storekey, row)`` handles added after log position
        ``tick``, in add order — the zero-materialisation delta surface
        the matcher consumes.  Handles of rows discarded in the meantime
        still appear; filter with :meth:`row_live`."""
        return self._log[tick:]

    def row_live(self, handle: RowHandle) -> bool:
        """Is the row behind a delta handle still live?"""
        skey, row = handle
        store = self._stores.get(skey)
        return store is not None and bool(store.live[row])

    def added_since(self, tick: int) -> Sequence[Atom]:
        """The facts added after log position ``tick``, materialised —
        the boundary the ``naive`` oracle and the explorer read; the
        ``columnar`` matcher consumes :meth:`added_rows_since`.
        Discarded facts still appear (dead rows keep their column data);
        callers re-check membership."""
        return [self._atom_at(*handle) for handle in self._log[tick:]]

    def _atom_at(self, skey: StoreKey, row: int) -> Atom:
        store = self._stores[skey]
        terms = self._terms.terms
        return Atom(skey[0], tuple(terms[col[row]] for col in store.cols))

    # -- queries ------------------------------------------------------------

    def __contains__(self, fact: object) -> bool:
        if not isinstance(fact, Atom) or not fact.is_fact:
            return False
        store = self._stores.get((fact.predicate, len(fact.args)))
        if store is None:
            return False
        local_of = self._terms.local_of
        lids = []
        for t in fact.args:
            lid = local_of.get(t.tid)
            if lid is None:
                return False
            lids.append(lid)
        return tuple(lids) in store.rowmap

    def __iter__(self) -> Iterator[Atom]:
        terms = self._terms.terms
        for (pred, _arity), store in self._stores.items():
            for key in store.rowmap:
                yield Atom(pred, tuple(terms[lid] for lid in key))

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other: object) -> bool:
        """Value equality on the fact *set*: two instances are equal iff
        they hold the same facts.  Derived state — indexes, dead rows,
        log and tick positions, sharing marks — records *how* an instance
        was built, not *what* it contains, and is excluded.  Within one
        fork family local ids are bijective with terms, so two related
        instances compare by raw rowmap keys; unrelated instances and
        plain ``set``/``frozenset`` operands compare through
        materialised atoms."""
        if isinstance(other, ColumnarInstance):
            if self._terms is other._terms:
                mine = {
                    k: s.rowmap.keys()
                    for k, s in self._stores.items() if s.nlive
                }
                theirs = {
                    k: s.rowmap.keys()
                    for k, s in other._stores.items() if s.nlive
                }
                return mine == theirs
            return self.facts() == other.facts()
        if isinstance(other, (set, frozenset)):
            return self.facts() == other
        return NotImplemented

    def __hash__(self) -> int:
        """Instances are explicitly unhashable.

        With a value-based ``__eq__`` on a *mutable* container, any hash
        would be broken one way or the other: hashing the facts changes
        as the chase mutates the instance (corrupting any dict or set it
        sits in), while the silent default — ``object.__hash__``,
        identity-based — would violate the ``a == b ⇒ hash(a) == hash(b)``
        law.  Raising here (rather than ``__hash__ = None``) gives callers
        the remedy: hash the immutable :meth:`frozen` snapshot instead.
        Regression-tested in ``tests/test_instances.py``.
        """
        raise TypeError(
            "ColumnarInstance is mutable and unhashable; use frozen()"
        )

    def __repr__(self) -> str:
        return f"ColumnarInstance({len(self)} facts)"

    def __str__(self) -> str:
        return "{" + ", ".join(sorted(str(f) for f in self)) + "}"

    def facts(self) -> frozenset[Atom]:
        return frozenset(self)

    def frozen(self) -> frozenset[Atom]:
        return frozenset(self)

    def copy(self) -> "ColumnarInstance":
        """An O(predicates + changes) copy-on-write fork.

        Parent and child share the term table and every store; both drop
        their ownership marks, so whichever side mutates a store first
        pays one deep store copy and the other side keeps the original.
        Stores whose dead-row fraction reached ``COMPACT_DEAD_FRACTION``
        are handed to the child as compacted rebuilds instead (the
        satellite fix for tombstone snowballing across long-lived
        forks): the child has no delta handles or undo entries yet, so
        renumbering its rows is safe, while the parent — which may be
        mid-transaction — keeps its row ids.

        The child's delta log starts empty (ticks are relative to each
        instance) and savepoints do not transfer: the fork is its own
        transaction scope.
        """
        out = ColumnarInstance()
        out._terms = self._terms
        child_stores: dict[StoreKey, _Store] = {}
        owned: set[StoreKey] = set()
        for skey, store in self._stores.items():
            dead = store.nrows - store.nlive
            if dead and dead >= COMPACT_DEAD_FRACTION * store.nrows:
                child_stores[skey] = store.compacted()
                owned.add(skey)
            else:
                child_stores[skey] = store
        out._stores = child_stores
        out._size = self._size
        out._owned = owned
        out._cow = True
        self._cow = True
        self._owned = set()
        return out

    def memo_parts(
        self,
    ) -> tuple[frozenset, int, tuple[tuple[StoreKey, tuple], ...], Sequence[Term]]:
        """The explorer memo's raw parts of this state, without building
        a single ``Atom``.

        Returns ``(ground_key, null_count, null_rows, terms)``:

        * ``ground_key`` — a frozenset of ``(storekey,
          frozenset-of-lid-tuples)`` pairs over the live null-free rows
          (the lid-tuples already exist as rowmap keys);
        * ``null_count`` — the number of distinct nulls the live rows
          mention;
        * ``null_rows`` — one ``(storekey, tuple-of-lid-tuples)`` pair per
          store holding null-mentioning rows;
        * ``terms`` — the family's lid → term table, which decodes a
          null row to its ``Atom`` later on: the table is append-only, so
          a lid decodes to the same term even after the row was rolled
          back.

        Every per-store piece comes from ``_Store.split_keys``' version
        cache, so sibling states share the tuples of every store their
        step did not touch.  Local ids are only meaningful within one
        fork family — two instances' parts compare correctly iff they
        share ``_terms``, which every state of one exploration does.
        Never persist these keys (§9).
        """
        null_lids = self._terms.null_lids
        ground = []
        null_rows = []
        mentioned = []
        for skey, store in self._stores.items():
            if not store.nlive:
                continue
            g, rows, lids = store.split_keys(null_lids)
            if g:
                ground.append((skey, g))
            if rows:
                null_rows.append((skey, rows))
                mentioned.append(lids)
        null_count = len(frozenset().union(*mentioned))
        return frozenset(ground), null_count, tuple(null_rows), self._terms.terms

    def with_predicate(self, predicate: str) -> frozenset[Atom]:
        """All facts over ``predicate`` (a snapshot, safe to iterate while
        the instance mutates)."""
        terms = self._terms.terms
        return frozenset(
            Atom(predicate, tuple(terms[lid] for lid in key))
            for (pred, _arity), store in self._stores.items()
            if pred == predicate
            for key in store.rowmap
        )

    def with_term(self, term: Term) -> frozenset[Atom]:
        """All facts mentioning ``term`` (a snapshot)."""
        lid = self._terms.local_of.get(term.tid)
        if lid is None:
            return frozenset()
        terms = self._terms.terms
        out = []
        for (pred, _arity), store in self._stores.items():
            live = store.live
            rows: set[int] = set()
            for cell_map in store.index:
                cell = cell_map.get(lid)
                if cell:
                    rows.update(r for r in cell if live[r])
            for row in rows:
                out.append(
                    Atom(pred, tuple(terms[t] for t in store.row_key(row)))
                )
        return frozenset(out)

    def predicates(self) -> set[str]:
        return {
            pred for (pred, _a), store in self._stores.items() if store.nlive
        }

    def _live_lids(self) -> set[int]:
        """Local ids occurring in live rows (via rowmap keys: live rows
        only by construction, no tombstone filtering needed)."""
        lids: set[int] = set()
        for store in self._stores.values():
            for key in store.rowmap:
                lids.update(key)
        return lids

    def domain(self) -> set[Term]:
        """``Dom``: all terms occurring in (live) facts."""
        terms = self._terms.terms
        return {terms[lid] for lid in self._live_lids()}

    def nulls(self) -> set[Null]:
        null_lids = self._terms.null_lids
        if not null_lids:
            return set()
        terms = self._terms.terms
        return {terms[lid] for lid in self._live_lids() & null_lids}

    def constants(self) -> set[Constant]:
        return {t for t in self.domain() if isinstance(t, Constant)}

    @property
    def is_database(self) -> bool:
        """True iff only constants appear (the paper's notion of database)."""
        return not self.nulls()

    def null_free_part(self) -> "ColumnarInstance":
        """``J↓``: the facts that contain no labelled nulls."""
        return ColumnarInstance(f for f in self if not f.nulls())

    def apply(self, mapping: Mapping[Term, Term]) -> "ColumnarInstance":
        """A new columnar instance with the mapping applied to every fact."""
        return ColumnarInstance(f.apply(mapping) for f in self)
