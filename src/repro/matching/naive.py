"""The retained naive homomorphism-search reference.

This is the seed repository's original algorithm, kept verbatim in spirit:
atoms are ordered once up front (fewest candidate facts first), and the
candidates for an atom are the *entire* predicate extent of the target,
filtered one fact at a time.  It serves two purposes:

* the reference side of the differential test suite
  (``tests/test_matching_differential.py``), which asserts the compiled
  plans (:mod:`.plans`) enumerate exactly the same homomorphism sets —
  also for plain atom lists, which this module still reads directly while
  :func:`repro.matching.homomorphisms` loads them into an instance first —
  and drive the chase to identical results;
* the baseline side of the matching micro-benchmark
  (``benchmarks/test_bench_matching.py``).

Do not "improve" this module — its value is being dumb and obviously
correct.  In particular it deliberately stays on the *uninterned* path:
it never touches term ids (``Term.tid``), columns or index cells — it
reads an instance only through its public per-predicate snapshot
(``with_predicate``, fetched once per body predicate) and compares
terms by object identity, so it also serves as the reference the
interning and columnar machinery are held against.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Sequence

from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from ..model.terms import Constant, Null, Term, Variable

Homomorphism = dict[Term, Term]


def _is_flexible(term: Term, frozen_nulls: bool) -> bool:
    """Can this source term be (re)mapped?  Variables always; nulls unless
    frozen; constants never."""
    if isinstance(term, Variable):
        return True
    if isinstance(term, Null):
        return not frozen_nulls
    return False


def _match_atom(
    atom: Atom,
    fact: Atom,
    mapping: Homomorphism,
    frozen_nulls: bool,
) -> Homomorphism | None:
    """The seed's atom-onto-fact matcher, kept as a private verbatim copy
    so the reference shares *no* code with :mod:`.engine`: a defect in
    its ``match_atom`` cannot become common-mode and slip past the
    differential tests."""
    if atom.predicate != fact.predicate or atom.arity != fact.arity:
        return None
    added: Homomorphism = {}
    for s, t in zip(atom.args, fact.args):
        if _is_flexible(s, frozen_nulls):
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


def _snapshot_reader(
    target: ColumnarInstance | Iterable[Atom],
) -> Callable[[str], AbstractSet[Atom]]:
    """The per-predicate candidate source: the instance's public
    ``with_predicate`` snapshot, or a predicate grouping of a plain atom
    collection."""
    with_predicate = getattr(target, "with_predicate", None)
    if with_predicate is not None:
        return with_predicate
    by_pred: dict[str, set[Atom]] = {}
    for a in target:
        by_pred.setdefault(a.predicate, set()).add(a)
    return lambda predicate: by_pred.get(predicate, frozenset())


def match(
    source: Sequence[Atom],
    target: ColumnarInstance | Iterable[Atom],
    seed: Mapping[Term, Term] | None = None,
    frozen_nulls: bool = False,
    limit: int | None = None,
) -> Iterator[Homomorphism]:
    """Enumerate homomorphisms from ``source`` atoms into ``target``
    by exhaustive backtracking over full predicate extents."""
    read = _snapshot_reader(target)
    mapping: Homomorphism = dict(seed) if seed else {}

    # Constants in the source must not be seeded to something else.
    for k, v in list(mapping.items()):
        if isinstance(k, Constant) and k is not v:
            return

    atoms = list(source)
    if not atoms:
        yield dict(mapping)
        return

    # One snapshot per body predicate, taken once: the extents the whole
    # enumeration scans.
    extents = {a.predicate: read(a.predicate) for a in atoms}

    def candidate_count(atom: Atom) -> int:
        return len(extents[atom.predicate])

    # Static order: fewest candidates first; dynamic refinement happens via
    # the bound-variable filter inside the recursion.
    atoms.sort(key=candidate_count)

    def recurse(idx: int) -> Iterator[Homomorphism]:
        if idx == len(atoms):
            yield dict(mapping)
            return
        atom = atoms[idx]
        for fact in extents[atom.predicate]:
            added = _match_atom(atom, fact, mapping, frozen_nulls)
            if added is None:
                continue
            mapping.update(added)
            yield from recurse(idx + 1)
            for k in added:
                del mapping[k]

    count = 0
    for h in recurse(0):
        yield h
        count += 1
        if limit is not None and count >= limit:
            return
