"""Matching primitives shared by every backend, and semi-naive
(delta-driven) discovery.

This is the hot path shared by every chase consumer: the runner's trigger
discovery, the Skolem saturation loop behind MFA/MSA, the explorer's
per-state enumeration, dependency satisfaction, query answering and core
computation all reduce to "enumerate homomorphisms of a small atom set into
a growing instance".  The enumeration itself lives in the backends
(:mod:`.plans`, :mod:`.naive`); this module holds what they share:

* :func:`match_atom` / :func:`seed_mapping` — extend a partial mapping
  so one body atom lands on one fact;
* :func:`body_atom_index` / :func:`delta_homomorphisms` — semi-naive
  discovery over an instance's delta log, the one entry point every
  consumer calls.  It picks the backend's path itself: the ``columnar``
  row-handle join (:func:`repro.matching.plans.delta_row_homomorphisms`)
  or, under ``naive``, the materialised delta facts anchored one by one
  and completed by the reference matcher.

Semi-naive discovery (:func:`delta_homomorphisms`) enumerates exactly the
homomorphisms whose image uses at least one fact from a delta batch, by
seeding the search with each (atom, new fact) anchor.  A homomorphism with
``k`` image facts in the delta is produced up to ``k`` times (and repeated
body atoms can anchor it more than once); consumers dedupe — the chase
runner through its trigger-seen set, the saturation loop through the
instance membership check.

The compiled plans read the instance's live columns and index cells for
the duration of one enumeration; they are valid until the instance's
next mutation, and a :meth:`ColumnarInstance.rollback` counts as a
mutation (it pops and revives rows in place).  Transactional callers
therefore must not hold a live enumeration over an instance across a
savepoint scope that mutates it — materialise the homomorphism list
first, as the witness engine's defusal probes do (DESIGN.md §5).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from ..model.atoms import Atom, atoms_variables
from ..model.columnar import ColumnarInstance
from ..model.terms import Null, Term, Variable
from . import naive as _naive
from . import plans as _plans
from .config import _backend

Homomorphism = dict[Term, Term]


def match_atom(
    atom: Atom,
    fact: Atom,
    mapping: Homomorphism,
    frozen_nulls: bool,
) -> Homomorphism | None:
    """Try to extend ``mapping`` so that ``atom`` maps onto ``fact``.

    Returns the (new) extension dict or None.  The input mapping is not
    modified.
    """
    if atom.predicate != fact.predicate or atom.arity != fact.arity:
        return None
    added: Homomorphism = {}
    for s, t in zip(atom.args, fact.args):
        if isinstance(s, Variable) or (isinstance(s, Null) and not frozen_nulls):
            bound = mapping.get(s) or added.get(s)
            if bound is None:
                added[s] = t
            elif bound is not t:
                return None
        else:
            # Rigid: constants (and frozen nulls) must match exactly.
            if s is not t:
                return None
    return added


def seed_mapping(atom: Atom, fact: Atom) -> Homomorphism | None:
    """The partial mapping sending ``atom`` onto ``fact``, or None.

    Used to anchor semi-naive discovery: variables bind to the fact's terms
    (consistently across repeated variables), constants and nulls must
    match rigidly — i.e. a frozen-null match against an empty mapping.
    """
    return match_atom(atom, fact, {}, frozen_nulls=True)


# -- semi-naive discovery ---------------------------------------------------


class BodyAnchor:
    """One atom of one indexed body: a place semi-naive discovery anchors
    a new fact.

    ``variables`` pairs each of the atom's variables with the position of
    its first occurrence (in position order); ``repeats`` holds the
    ``(pos, first_pos)`` pairs of later occurrences, which must agree;
    ``rigid`` the ``(pos, term)`` pairs of constants and nulls, which must
    sit on the fact exactly; ``checked`` says whether either is non-empty.
    ``names`` lists the body's variables in name order (the layout of a
    lid row).  ``bound`` is the columnar backend's per-emit-mode plan
    binding, filled on first use by
    :func:`repro.matching.plans.delta_row_homomorphisms`.
    """

    __slots__ = (
        "key", "body", "atom", "arity", "variables", "repeats", "rigid",
        "checked", "names", "bound",
    )

    def __init__(self, key: object, body: Sequence[Atom], atom: Atom) -> None:
        self.key = key
        self.body = body
        self.atom = atom
        self.arity = atom.arity
        first: dict[Variable, int] = {}
        repeats: list[tuple[int, int]] = []
        rigid: list[tuple[int, Term]] = []
        for pos, s in enumerate(atom.args):
            if not isinstance(s, Variable):
                rigid.append((pos, s))
            elif s in first:
                repeats.append((pos, first[s]))
            else:
                first[s] = pos
        self.variables = tuple(first.items())
        self.repeats = tuple(repeats)
        self.rigid = tuple(rigid)
        self.checked = bool(repeats or rigid)
        self.names = tuple(sorted(atoms_variables(body), key=lambda v: v.name))
        self.bound: dict[bool, tuple] = {}


def body_atom_index(
    items: Iterable[tuple[object, Sequence[Atom]]],
) -> dict[str, list[BodyAnchor]]:
    """Index ``(key, body)`` pairs by body-atom predicate.

    Built once per dependency set; :func:`delta_homomorphisms` then joins
    each new fact only against the bodies that mention its predicate.
    """
    by_pred: dict[str, list[BodyAnchor]] = {}
    for key, body in items:
        for atom in body:
            by_pred.setdefault(atom.predicate, []).append(
                BodyAnchor(key, body, atom)
            )
    return by_pred


def delta_homomorphisms(
    by_pred: Mapping[str, list[BodyAnchor]],
    target: ColumnarInstance,
    since_tick: int,
    lid_rows: bool = False,
) -> Iterable[tuple[object, Homomorphism | tuple[int, ...]]]:
    """``(key, h)`` for every body homomorphism anchored at a live fact
    added to ``target`` after delta-log position ``since_tick``, under the
    active backend.

    Homomorphisms entirely within the pre-delta instance are *not*
    produced — the semi-naive contract; others may repeat (see the module
    docstring).  The delta is read by this call, before the stream is
    consumed.  With ``lid_rows`` each ``h`` is the lid row of the body's
    variables in name order (the chase runner's triggers).
    """
    if _backend.get() == "naive":
        facts = [f for f in target.added_since(since_tick) if f in target]
        if not facts:
            return ()
        return _anchored_naive(by_pred, target, facts, lid_rows)
    handles = [
        hd for hd in target.added_rows_since(since_tick) if target.row_live(hd)
    ]
    if not handles:
        return ()
    return _plans.delta_row_homomorphisms(by_pred, target, handles, lid_rows)


def _anchored_naive(
    by_pred: Mapping[str, list[BodyAnchor]],
    target: ColumnarInstance,
    facts: Iterable[Atom],
    lid_rows: bool,
) -> Iterator[tuple[object, Homomorphism | tuple[int, ...]]]:
    """The ``naive`` backend's discovery: each delta fact anchors every
    body atom it unifies with, and the reference matcher completes the
    body from that seed."""
    local_of = target.term_table.local_of
    for fact in facts:
        for anchor in by_pred.get(fact.predicate, ()):
            seed = seed_mapping(anchor.atom, fact)
            if seed is None:
                continue
            for h in _naive.match(anchor.body, target, seed):
                if lid_rows:
                    h = tuple([local_of[h[v].tid] for v in anchor.names])
                yield anchor.key, h
