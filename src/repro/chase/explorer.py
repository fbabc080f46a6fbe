"""Bounded exhaustive exploration of the chase's nondeterminism.

``CTc∀`` and ``CTc∃`` membership is undecidable, but for the small witness
programs used in the Table 1 bench we can *empirically* classify a concrete
``(D, Σ)`` pair by exploring every chase sequence up to a depth bound:

* every explored path reaches a leaf (no applicable step, or ⊥) and no path
  was cut off → all sequences terminate (within the bound: conclusive,
  because chase states grow monotonically along a path only through the
  explored frontier);
* some leaf reached → a terminating sequence exists;
* otherwise nothing terminated within the bounds.

States reached by the standard chase are memoized up to null renaming,
lazily.  Each state gets a cheap *bucket signature* — its ground facts,
its number of distinct nulls and its null-fact count per predicate —
that isomorphic states always share.  A state landing in an empty
bucket is new and is kept as raw null rows; only when a second state
lands in the same bucket are both canonised and compared.  The
canonical form colour-refines the labelled nulls (1-WL over the
null facts, with int ranks as colours), then canonises exactly by
minimising over the colour-preserving relabelings when their number is at
most ``CLASS_PERMUTATION_CAP``; beyond that a deterministic
colour-then-first-occurrence relabeling is used, which may fail to merge
some highly symmetric isomorphic states — that costs time but never
soundness (any *bijective* relabeling scheme only ever identifies
genuinely isomorphic states).  Equal canonical forms imply equal
signatures, so the lazy memo hits exactly where an eager set of
canonical keys would.

The DFS visits branches transactionally: a branch takes a
``ColumnarInstance.savepoint``, applies its step in place, explores
below, and rolls back — O(|Δ|) per branch instead of an O(|I|)
``copy()``.  The DFS keeps its path on an explicit frame stack, so its
depth is not limited by the interpreter's recursion limit.  The oblivious and
semi-oblivious chase carry trigger-key state, so their exploration is a
plain bounded DFS over the same machinery.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Sequence

from ..budget import Budget
from ..homomorphism.finder import find_homomorphisms
from ..homomorphism.satisfaction import satisfies_tgd
from ..matching import body_atom_index, delta_homomorphisms
from ..matching.engine import match_atom
from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance, Savepoint
from ..model.dependencies import EGD, TGD, DependencySet
from ..model.terms import Null, NullFactory, Term
from .runner import _key_variables
from .step import Trigger, apply_step

#: Exact canonization minimises over the colour-preserving null
#: relabelings as long as their count (the product of the colour-class
#: factorials) stays within this cap — 8!, so a fully symmetric 8-null
#: state is still canonised exactly, while refinement usually splits the
#: classes down to a single relabeling long before the cap matters.
CLASS_PERMUTATION_CAP = 40_320

DISCOVERY_MODES = ("delta", "full")


class ExplorationVerdict(enum.Enum):
    """Summary of a bounded exhaustive chase exploration."""

    ALL_TERMINATING = "all sequences terminate"
    SOME_TERMINATING = "a terminating sequence exists; some paths were cut off"
    NONE_FOUND = "no terminating sequence found within bounds"
    EXHAUSTED = "state budget exhausted before any conclusion"


@dataclass
class ExplorationResult:
    """Verdict plus path/state counters of one exploration."""

    verdict: ExplorationVerdict
    terminating_paths: int
    failing_paths: int
    capped_paths: int
    explored_states: int

    @property
    def some_terminating(self) -> bool:
        return self.terminating_paths + self.failing_paths > 0

    @property
    def all_terminating(self) -> bool:
        return self.verdict is ExplorationVerdict.ALL_TERMINATING


class _Frame:
    """One state on the explorer's DFS path: its applicable triggers in
    visit order, the next one to branch on, and the savepoint of the
    branch currently explored below it."""

    __slots__ = ("instance", "fired", "depth", "triggers", "start", "next", "sp")

    def __init__(
        self,
        instance: ColumnarInstance,
        fired: frozenset,
        depth: int,
        triggers: list[Trigger],
        start: int,
    ) -> None:
        self.instance = instance
        self.fired = fired
        self.depth = depth
        self.triggers = triggers
        self.start = start  # first fresh-null label of every branch
        self.next = 0
        self.sp: Savepoint | None = None


def _null_colours(null_facts: list[Atom]) -> dict[Null, int]:
    """1-WL colours of the labelled nulls of a state's null facts.

    Seed colours rank each null's occurrence profile (which
    predicates/positions it fills); each refinement round re-colours a
    null with the rank of (its colour, the sorted encodings of its facts
    under the current colouring, its own positions marked) among that
    round's distinct signatures, until the number of classes stops
    changing.  Ranks are isomorphism-invariant, so any isomorphism
    between two states maps colour classes onto colour classes; a null
    alone in its class stays alone, so it skips the context build.
    Every fact mentioning a null is a null fact, so the null facts alone
    determine the colouring.
    """
    occurrences: dict[Null, list[Atom]] = {}
    for f in null_facts:
        for t in set(f.args):
            if isinstance(t, Null):
                occurrences.setdefault(t, []).append(f)
    colours = _ranks({
        n: tuple(sorted(
            (f.predicate, len(f.args), tuple(i for i, t in enumerate(f.args) if t is n))
            for f in facts
        ))
        for n, facts in occurrences.items()
    })
    classes = len(set(colours.values()))
    for _ in range(max(1, len(colours))):
        sizes: dict[int, int] = {}
        for c in colours.values():
            sizes[c] = sizes.get(c, 0) + 1
        signatures: dict[Null, tuple] = {}
        for n, c in colours.items():
            if sizes[c] == 1:
                signatures[n] = (c,)
                continue
            signatures[n] = (c, tuple(sorted(
                (f.predicate, *(
                    (0,) if t is n
                    else (1, colours[t]) if isinstance(t, Null)
                    else (2, str(t))
                    for t in f.args
                ))
                for f in occurrences[n]
            )))
        colours = _ranks(signatures)
        refined_classes = len(set(colours.values()))
        if refined_classes == classes:
            break
        classes = refined_classes
    return colours


def _ranks(signatures: dict[Null, tuple]) -> dict[Null, int]:
    """Each null's signature replaced by its rank among the distinct ones."""
    rank = {sig: r for r, sig in enumerate(sorted(set(signatures.values())))}
    return {n: rank[sig] for n, sig in signatures.items()}


def canonical_key(instance: Iterable[Atom]) -> tuple:
    """A hashable key identifying the instance up to null renaming.

    The key pairs the *ground* facts verbatim (isomorphisms fix
    constants, so two isomorphic states have literally equal ground
    parts — a frozenset of interned atoms, no per-fact encoding cost)
    with a canonical form of the null-mentioning facts.  Nulls are
    colour-refined first; the null part is exact (minimum over the
    colour-preserving relabelings) while their count stays within
    ``CLASS_PERMUTATION_CAP``, and a deterministic colour-ordered
    first-occurrence relabeling beyond.  Either way the relabeling is a
    bijection, so equal keys always mean isomorphic states; the key
    depends only on the fact *set*, never on iteration order, so an
    instance and a plain set of the same facts get the same key.

    The explorer's memo (:func:`_memo_key`) decides exactly as a set of
    these keys would, but computes the null part only on bucket
    collisions.
    """
    null_facts = []
    ground = []
    for f in instance:
        if any(isinstance(t, Null) for t in f.args):
            null_facts.append(f)
        else:
            ground.append(f)
    return (frozenset(ground), _null_part(null_facts))


#: A state's raw null part as the memo keeps it until a collision:
#: ``(null_rows, terms)`` — per-store rows of lid tuples plus the family
#: term table decoding them (``ColumnarInstance.memo_parts``).
_Pending = tuple[tuple[tuple[tuple[str, int], tuple], ...], Sequence[Term]]


def _memo_parts(instance: ColumnarInstance) -> tuple[tuple, _Pending]:
    """A state's bucket signature and its pending (undecoded) null part.

    The signature — (ground key, number of distinct nulls, null-row
    count per store) — is invariant under null renaming, so isomorphic
    states always share a bucket.
    """
    ground, null_count, null_rows, terms = instance.memo_parts()
    counts = frozenset((skey, len(r)) for skey, r in null_rows)
    return (ground, null_count, counts), (null_rows, terms)


def _decode(pending: _Pending) -> list[Atom]:
    """The null facts of a pending entry."""
    null_rows, terms = pending
    return [
        Atom(skey[0], tuple(terms[lid] for lid in row))
        for skey, rows in null_rows
        for row in rows
    ]


def _memo_key(instance: ColumnarInstance, memo: dict[tuple, _Pending | set]) -> bool:
    """Record a visited state in the memo; True iff an equal-key state
    was recorded before.

    ``memo`` maps bucket signatures (:func:`_memo_parts`) to either the
    one pending state that landed there, kept as raw null rows, or the
    set of canonical null parts of every state that did.  A state in an
    empty bucket is new and is not canonised; only a second state in the
    same bucket canonises both.  Equal canonical keys imply isomorphic
    states, which imply equal signatures, so every decision is the one
    an eager set of canonical keys would make; within a bucket the
    ground parts are equal, so only the null parts are compared.
    """
    signature, pending = _memo_parts(instance)
    entry = memo.get(signature)
    if entry is None:
        memo[signature] = pending
        return False
    if not isinstance(entry, set):
        entry = memo[signature] = {_null_part(_decode(entry))}
    key = _null_part(_decode(pending))
    if key in entry:
        return True
    entry.add(key)
    return False


def _null_part(null_facts: list[Atom]) -> tuple:
    """Canonical form of a state's null-mentioning facts (the second
    component of :func:`canonical_key`); ``()`` when there are none."""
    if not null_facts:
        return ()
    colours = _null_colours(null_facts)
    by_colour: dict[int, list[Null]] = {}
    for n in sorted(colours, key=lambda n: n.label):
        by_colour.setdefault(colours[n], []).append(n)
    ordered_classes = [by_colour[c] for c in sorted(by_colour)]

    total = 1
    for cls in ordered_classes:
        total *= factorial(len(cls))
        if total > CLASS_PERMUTATION_CAP:
            break
    if total <= CLASS_PERMUTATION_CAP:
        offsets = []
        base = 0
        for cls in ordered_classes:
            offsets.append(base)
            base += len(cls)
        best = None
        for perms in itertools.product(
            *(itertools.permutations(range(len(cls))) for cls in ordered_classes)
        ):
            relabel: dict[Null, int] = {}
            for cls, off, perm in zip(ordered_classes, offsets, perms):
                for n, j in zip(cls, perm):
                    relabel[n] = off + j
            key = tuple(sorted(_fact_key(f, relabel) for f in null_facts))
            if best is None or key < best:
                best = key
        assert best is not None
        return best

    # Fallback: order facts by colour-aware shape (ties broken by the
    # concrete fact key, keeping the sort content-determined), then label
    # nulls by colour rank and first occurrence within their class.
    offsets_by_colour: dict[int, int] = {}
    base = 0
    for c in sorted(by_colour):
        offsets_by_colour[c] = base
        base += len(by_colour[c])
    concrete = {n: n.label for n in colours}
    shaped = sorted(
        null_facts,
        key=lambda f: (_fact_shape(f, colours), _fact_key(f, concrete)),
    )
    next_in_class: dict[int, int] = {}
    relabel = {}
    for f in shaped:
        for t in f.args:
            if isinstance(t, Null) and t not in relabel:
                c = colours[t]
                sub = next_in_class.get(c, 0)
                next_in_class[c] = sub + 1
                relabel[t] = offsets_by_colour[c] + sub
    return tuple(sorted(_fact_key(f, relabel) for f in null_facts))


def _fact_shape(fact: Atom, colours: dict[Null, int]) -> tuple:
    """A null-label-blind sort key: nulls appear as their colours."""
    parts: list = [fact.predicate]
    for t in fact.args:
        if isinstance(t, Null):
            parts.append(("η", colours[t]))
        else:
            parts.append(("c", str(t)))
    return tuple(parts)


def _fact_key(fact: Atom, relabel: dict) -> tuple:
    parts: list = [fact.predicate]
    for t in fact.args:
        if isinstance(t, Null):
            parts.append(("η", relabel[t]))
        else:
            parts.append(("c", str(t)))
    return tuple(parts)


def explore_chase(
    database: ColumnarInstance,
    sigma: DependencySet,
    variant: str = "standard",
    max_depth: int = 20,
    max_states: int = 20_000,
    budget: Budget | None = None,
    discovery: str = "delta",
) -> ExplorationResult:
    """Explore every ``variant``-chase sequence of (database, sigma).

    ``budget`` (one step charged per visited state) adds wall-clock bounds
    and cancellation on top of the ``max_states`` cap; exhausting either
    counts as hitting the state budget for the verdict.

    Branches are visited transactionally: each step is applied in place
    under an undo-log savepoint and rolled back once the DFS returns to
    its parent — O(step) per branch.

    ``discovery`` selects how each state's applicable triggers are found:
    ``"delta"`` (default) carries the parent's candidate triggers down the
    DFS and joins only the step's delta-log facts against the dependency
    bodies (the semi-naive protocol of DESIGN.md §1, sound along a DFS
    path because chase states evolve monotonically and dead triggers stay
    dead), re-checking only variant applicability per state; ``"full"``
    re-enumerates every body homomorphism from scratch at every state —
    the seed behaviour, kept as the naive oracle.

    Both discovery modes produce identical results under either matching
    backend; the differential suite asserts it.  The input database is
    never modified.
    """
    if discovery not in DISCOVERY_MODES:
        raise ValueError(
            f"unknown discovery mode {discovery!r}; known: {DISCOVERY_MODES}"
        )
    budget = budget if budget is not None else Budget()
    key_vars = {d: _key_variables(d, variant) for d in sigma} if variant != "standard" else {}
    memo: dict[tuple, _Pending | set] = {}
    stats = {"terminating": 0, "failing": 0, "capped": 0, "states": 0}
    budget_hit = [False]
    semi_naive = discovery == "delta"
    body_index = body_atom_index((d, d.body) for d in sigma) if semi_naive else None
    head_preds = {
        d: frozenset(a.predicate for a in d.head)
        for d in sigma
        if isinstance(d, TGD)
    }

    # Triggers recur across sibling states, so their canonical sort string
    # and (semi-)oblivious key — both pure functions of the trigger value —
    # are cached for the whole exploration.
    sort_strings: dict[Trigger, str] = {}
    trigger_keys: dict[Trigger, tuple] = {}

    def sort_string(trigger: Trigger) -> str:
        s = sort_strings.get(trigger)
        if s is None:
            s = sort_strings[trigger] = str(trigger)
        return s

    def trigger_key(trigger: Trigger) -> tuple:
        k = trigger_keys.get(trigger)
        if k is None:
            k = trigger_keys[trigger] = trigger.key(key_vars[trigger.dependency])
        return k

    def applicable(
        instance: ColumnarInstance, trigger: Trigger, fired: frozenset
    ) -> bool:
        """The variant-specific applicability of one candidate trigger."""
        dep = trigger.dependency
        h = trigger.mapping()
        if isinstance(dep, EGD) and h[dep.lhs] is h[dep.rhs]:
            return False
        if variant == "standard":
            if isinstance(dep, TGD):
                return not satisfies_tgd(instance, dep, h)
            return True
        return trigger_key(trigger) not in fired

    def initial_candidates(instance: ColumnarInstance) -> list[tuple[Trigger, bool]]:
        """Full discovery over the root state: every body homomorphism.
        The flag marks a candidate as *clean* (see applicable_triggers);
        root candidates never are."""
        return [
            (Trigger.make(dep, h), False)
            for dep in sigma
            for h in find_homomorphisms(dep.body, instance, limit=None)
        ]

    def applicable_triggers(
        instance: ColumnarInstance,
        fired: frozenset,
        candidates: list[tuple[Trigger, bool]],
        delta: list[Atom],
    ) -> list[Trigger]:
        """Dedupe candidates, filter by applicability, canonical order.

        A *clean* candidate was applicable at the parent state and was not
        rewritten by the step's γ, so under the standard chase its
        applicability can only have flipped if the step's delta provides a
        new head extension: an EGD's distinct images stay distinct, and a
        TGD stays violated unless some delta fact unifies with one of its
        head atoms under the trigger's seed (any new extension must send a
        head atom onto a delta fact).  Those re-checks — the bulk of
        per-state work on branchy programs — are skipped exactly.
        """
        delta_preds = frozenset(f.predicate for f in delta)
        seen: set[Trigger] = set()
        out = []
        for t, clean in candidates:
            if t in seen:
                continue
            seen.add(t)
            if clean and variant == "standard":
                dep = t.dependency
                if isinstance(dep, EGD) or not (head_preds[dep] & delta_preds):
                    out.append(t)
                    continue
                h = t.mapping()
                if not any(
                    a.predicate == f.predicate
                    and match_atom(a, f, h, frozen_nulls=True) is not None
                    for f in delta
                    for a in dep.head
                ):
                    out.append(t)
                    continue
                if not satisfies_tgd(instance, dep, h):
                    out.append(t)
                continue
            if applicable(instance, t, fired):
                out.append(t)
        out.sort(key=sort_string)
        return out

    def charge_state() -> bool:
        """Charge one visited state; False (and ``budget_hit``) once the
        state cap or the budget is spent."""
        if stats["states"] >= max_states or not budget.charge():
            budget_hit[0] = True
            return False
        stats["states"] += 1
        return True

    def enter(
        instance: ColumnarInstance,
        fired: frozenset,
        depth: int,
        candidates: list[tuple[Trigger, bool]],
        delta: list[Atom],
    ) -> _Frame | None:
        """Visit one charged state: its branch frame, or None when the
        state is a memo hit, a leaf or cut off at ``max_depth``."""
        if variant == "standard" and _memo_key(instance, memo):
            return None
        triggers = applicable_triggers(instance, fired, candidates, delta)
        if not triggers:
            stats["terminating"] += 1
            return None
        if depth >= max_depth:
            stats["capped"] += 1
            return None
        # Fresh-null numbering is a function of the *parent* state: every
        # sibling branch starts from the same nulls (a branch's nulls are
        # rolled back before the next one begins), so the domain scan is
        # hoisted out of the branch loop.
        start = max((n.label for n in instance.nulls()), default=0) + 1
        return _Frame(instance, fired, depth, triggers, start)

    def child_state(frame: _Frame, trigger: Trigger) -> tuple | None:
        """Apply ``trigger`` to the frame's state in place, under
        ``frame.sp``: the child's ``enter`` arguments, or None when the
        step failed."""
        child, fired = frame.instance, frame.fired
        frame.sp = child.savepoint()
        tick = child.tick
        outcome = apply_step(child, trigger, NullFactory(start=frame.start))
        if outcome.failed:
            stats["failing"] += 1
            return None
        child_fired = fired
        if variant != "standard":
            new_key = trigger_key(trigger)
            if outcome.gamma is not None:
                old, new = outcome.gamma.old, outcome.gamma.new
                child_fired = frozenset(
                    (dep, tuple(new if t is old else t for t in images))
                    for dep, images in fired
                )
            child_fired = child_fired | {new_key}
        if semi_naive:
            # Carry the parent's (still-live, γ-rewritten) applicable
            # triggers and join only the delta facts against the
            # bodies; inapplicable triggers are dead along the whole
            # path (DESIGN.md §1) and rewritten facts re-enter the
            # delta log, so this reconstructs exactly the full
            # enumeration's candidate set.
            carried: list[tuple[Trigger, bool]]
            if outcome.gamma is not None:
                old, new = outcome.gamma.old, outcome.gamma.new
                carried = [
                    (t.rewrite(old, new), False)
                    if any(img is old for _, img in t.assignment)
                    else (t, True)
                    for t in frame.triggers
                ]
            else:
                carried = [(t, True) for t in frame.triggers]
            live = [f for f in child.added_since(tick) if f in child]
            carried.extend(
                (Trigger.make(dep, h), False)
                for dep, h in delta_homomorphisms(body_index, child, tick)
            )
            return child, child_fired, frame.depth + 1, carried, live
        return child, child_fired, frame.depth + 1, initial_candidates(child), []

    # Branches mutate the working instance in place, so the caller's
    # database is forked exactly once (a copy-on-write fork).
    root = database.copy()

    # Iterative DFS: the stack holds one frame per state on the current
    # path, each with its next branch and the savepoint of the branch
    # being explored below it, so depth is bounded by memory, not by the
    # interpreter's recursion limit.  A frame rolls its branch back when
    # the DFS returns to it — the savepoint → step → rollback pairing of
    # a recursive visit, in the same visit order.
    stack: list[_Frame] = []
    if charge_state():
        frame = enter(root, frozenset(), 0, initial_candidates(root), [])
        if frame is not None:
            stack.append(frame)
    while stack:
        frame = stack[-1]
        if frame.sp is not None:
            frame.instance.rollback(frame.sp)
            frame.sp = None
        if budget_hit[0] or frame.next == len(frame.triggers):
            stack.pop()
            continue
        trigger = frame.triggers[frame.next]
        frame.next += 1
        child_args = child_state(frame, trigger)
        if child_args is None or not charge_state():
            continue
        child_frame = enter(*child_args)
        if child_frame is not None:
            stack.append(child_frame)

    capped = stats["capped"]
    terminated = stats["terminating"] + stats["failing"]
    if budget_hit[0] and terminated == 0:
        verdict = ExplorationVerdict.EXHAUSTED
    elif capped == 0 and not budget_hit[0]:
        verdict = ExplorationVerdict.ALL_TERMINATING
    elif terminated > 0:
        verdict = ExplorationVerdict.SOME_TERMINATING
    else:
        verdict = ExplorationVerdict.NONE_FOUND
    return ExplorationResult(
        verdict=verdict,
        terminating_paths=stats["terminating"],
        failing_paths=stats["failing"],
        capped_paths=capped,
        explored_states=stats["states"],
    )
