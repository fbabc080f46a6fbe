"""Canonical content fingerprints for dependency sets.

The batch engine's result cache is *content addressed*: a program is
keyed not by its file name or its corpus position but by a fingerprint of
its structure, so renaming a predicate or a variable, or reordering the
dependencies, still hits the cache.  The fingerprint must therefore be

* **invariant** under variable renaming (per dependency), predicate
  renaming (a schema-wide bijection) and dependency reordering — the
  transformations under which every termination verdict is itself
  invariant (criteria only look at structure; the metamorphic suite in
  ``tests/test_metamorphic.py`` checks this verdict invariance on
  hundreds of seeded programs, which is what makes keying results by
  the fingerprint *sound*);
* **stable** across processes and Python versions (no builtin ``hash``,
  which is salted per process) — the cache is an on-disk artefact.

The construction follows the same idea as the adornment livelock
detector's state fingerprint (``AdornmentAlgorithm._state_fingerprint``):
replace every renameable symbol by a canonical stand-in computed from
structure alone, then hash the result.  Variables are easy — within one
dependency they are numbered by first occurrence.  Predicates span
dependencies, so they are canonicalised by **colour refinement** (1-WL
over the "occurs in" bipartite graph between predicates and
dependencies): every predicate starts with a colour derived from its
arity and occurrence counts, then is repeatedly re-coloured with the
multiset of (colour-encoded) dependencies it occurs in, until the colour
partition stabilises.  The final fingerprint hashes the *sorted set* of
colour-encoded dependencies — alpha-equivalent duplicates are collapsed
first (:func:`_alpha_unique`), so the key names the constraint set
rather than its spelling.

Like every WL-style scheme this is complete for the transformations
above (isomorphic programs always collide, by construction) and only
*almost* injective in the other direction: two non-isomorphic programs
whose predicates refine to identical colour partitions and whose
dependency encodings agree (e.g. two disjoint 3-cycles of copy rules vs
one 6-cycle) share a fingerprint.  DESIGN.md §4 discusses why this is an
acceptable trade for a result cache; no such pair arises in the
synthetic corpus, and the differential cache tests would catch one.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Iterable, Mapping, TypeVar

from ..model.atoms import Atom
from ..model.dependencies import EGD, TGD, AnyDependency, DependencySet
from ..model.terms import Constant, Variable

#: Bump when the fingerprint construction changes: old cache entries are
#: keyed by old fingerprints and silently become unreachable (which is
#: exactly the invalidation we want).
FINGERPRINT_VERSION = 1


def stable_hash(obj: object) -> str:
    """A process-stable hash of a JSON-serialisable structure.

    The first 16 hex digits of SHA-256 over the canonical JSON encoding:
    collision-safe far beyond any corpus size while keeping keys short.
    """
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# -- per-dependency encoding ---------------------------------------------------


def _term_code(term: object, var_ids: dict[int, int]) -> list:
    if isinstance(term, Variable):
        # ``var_ids`` is keyed by the interned term id (an int, cheap to
        # hash) rather than the Variable object; the *values* are still
        # first-occurrence ordinals, so the emitted code — and hence the
        # persisted fingerprint — is identical to the object-keyed
        # construction and independent of tid allocation order.
        tid = term.tid
        num = var_ids.get(tid)
        if num is None:
            num = var_ids[tid] = len(var_ids)
        return ["v", num]
    if isinstance(term, Constant):
        # Constants are *not* renameable: two programs differing only in
        # a constant are different programs (criteria may treat repeated
        # constants specially), so the value enters verbatim.
        return ["c", repr(term.value)]
    raise TypeError(f"unexpected term in a dependency: {term!r}")


def _atom_code(atom: Atom, colours: dict[str, str], var_ids: dict[int, int]) -> list:
    return [colours[atom.predicate], [_term_code(t, var_ids) for t in atom.args]]


def _dependency_code(dep: AnyDependency, colours: dict[str, str]) -> list:
    """One dependency with predicates replaced by colours and variables
    canonically numbered by first occurrence (body before head).

    Atom order within body/head is kept: it is part of dependency
    identity (``TGD.__eq__`` compares tuples) and is untouched by the
    renaming/reordering transformations the fingerprint must absorb.
    """
    var_ids: dict[int, int] = {}
    body = [_atom_code(a, colours, var_ids) for a in dep.body]
    if isinstance(dep, TGD):
        head = [_atom_code(a, colours, var_ids) for a in dep.head]
        ex = [var_ids[v.tid] for v in dep.existential]
        return ["tgd", body, head, ex]
    assert isinstance(dep, EGD)
    return ["egd", body, var_ids[dep.lhs.tid], var_ids[dep.rhs.tid]]


# -- alpha-deduplication ---------------------------------------------------------


def _alpha_unique(sigma: DependencySet) -> list[AnyDependency]:
    """Σ with alpha-equivalent duplicates collapsed.

    ``DependencySet`` dedupes *syntactic* duplicates; two dependencies
    differing only in variable names (``P(x) → ∃z P(z)`` twice, spelled
    with different variables) still count twice there, yet state the same
    constraint.  The fingerprint keys the constraint set, not its
    spelling, so duplicates are dropped before any occurrence counting —
    otherwise a renaming that happens to collapse two spellings would
    change the key.
    """
    identity = {p: p for p in sigma.predicates()}
    seen: set[str] = set()
    out: list[AnyDependency] = []
    for dep in sigma:
        code = json.dumps(_dependency_code(dep, identity), sort_keys=True)
        if code not in seen:
            seen.add(code)
            out.append(dep)
    return out


# -- predicate colour refinement -----------------------------------------------


def _initial_colours(sigma: Iterable[AnyDependency]) -> dict[str, str]:
    """Seed colours from renaming-invariant local statistics."""
    stats: dict[str, list[int]] = {}

    def touch(pred: str, arity: int, slot: int) -> None:
        s = stats.setdefault(pred, [arity, 0, 0, 0, 0])
        s[slot] += 1

    for dep in sigma:
        for a in dep.body:
            touch(a.predicate, a.arity, 2 if isinstance(dep, EGD) else 1)
        if isinstance(dep, TGD):
            ex = set(dep.existential)
            for a in dep.head:
                carries_null = any(t in ex for t in a.args)
                touch(a.predicate, a.arity, 4 if carries_null else 3)
    return {p: stable_hash(["init", s]) for p, s in stats.items()}


_K = TypeVar("_K")


def colour_refine(
    initial: Mapping[_K, str],
    contexts: Callable[[dict[_K, str]], Mapping[_K, object]],
) -> dict[_K, str]:
    """Generic 1-WL colour refinement, run until the partition stabilises.

    ``initial`` maps each item to a seed colour string; ``contexts`` is a
    callable that, given the current colouring, returns a dict mapping
    every item to a JSON-encodable (and already canonically ordered)
    context.  Each round recolours ``item ← stable_hash([colour,
    context])``; refinement stops when a round no longer splits the
    colour partition (at most |items| rounds, usually two or three).

    :func:`predicate_colours` runs it to refine *predicate* colours over
    the occurs-in structure of a dependency set; the colours are hashed
    because fingerprints are persisted.  (The chase explorer's
    in-process canonical key refines null colours with its own int-rank
    loop instead — see ``repro.chase.explorer._null_colours``.)
    """
    colours = dict(initial)
    classes = len(set(colours.values()))
    for _ in range(max(1, len(colours))):
        ctx = contexts(colours)
        refined = {k: stable_hash([colours[k], ctx[k]]) for k in colours}
        refined_classes = len(set(refined.values()))
        colours = refined
        if refined_classes == classes:
            break
        classes = refined_classes
    return colours


def _predicate_contexts(
    sigma: Iterable[AnyDependency], colours: dict[str, str]
) -> dict[str, list]:
    """One round's contexts: the multiset of (role, dependency) occurrences."""
    contexts: dict[str, list] = {p: [] for p in colours}
    for dep in sigma:
        code = _dependency_code(dep, colours)
        atoms: tuple[Atom, ...] = dep.body
        role = ["b"] * len(dep.body)
        if isinstance(dep, TGD):
            atoms = atoms + dep.head
            role += ["h"] * len(dep.head)
        for r, a in zip(role, atoms):
            contexts[a.predicate].append([r, code])
    for ctx in contexts.values():
        ctx.sort(key=lambda c: json.dumps(c, sort_keys=True))
    return contexts


def predicate_colours(sigma: Iterable[AnyDependency]) -> dict[str, str]:
    """The stable colouring: refinement run until the partition stops
    splitting (at most |predicates| rounds, usually two or three)."""
    deps = list(sigma)
    return colour_refine(
        _initial_colours(deps), lambda colours: _predicate_contexts(deps, colours)
    )


# -- the fingerprint -----------------------------------------------------------


def canonical_fingerprint(sigma: DependencySet | Iterable[AnyDependency]) -> str:
    """The content-addressed cache key of a program.

    Invariant under per-dependency variable renaming, schema-wide
    predicate renaming and dependency reordering — including renamings
    that collapse alpha-equivalent duplicates (see :func:`_alpha_unique`)
    — and stable across processes.  Labels are ignored (they are
    presentation, not content).
    """
    if not isinstance(sigma, DependencySet):
        sigma = DependencySet(sigma)
    deps = _alpha_unique(sigma)
    colours = predicate_colours(deps)
    codes = sorted(
        json.dumps(_dependency_code(d, colours), sort_keys=True) for d in deps
    )
    return stable_hash([FINGERPRINT_VERSION, codes])
