"""Dependency satisfaction and violation enumeration.

``K ⊨ r`` in the standard first-order sense:

* TGD ``ϕ → ∃z ψ``: every homomorphism from the body into K extends to a
  homomorphism of body ∧ head into K;
* EGD ``ϕ → x1 = x2``: every homomorphism h from the body into K has
  ``h(x1) = h(x2)``.

The firing relations additionally need *instantiated* satisfaction
``K ⊨ h(r)`` for a fixed homomorphism h (Section 5): the dependency with its
body already instantiated by h.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from ..model.dependencies import EGD, TGD, AnyDependency, DependencySet
from ..model.terms import Term
from .finder import Homomorphism, find_homomorphism, find_homomorphisms


def satisfies_tgd(
    instance: ColumnarInstance, tgd: TGD, body_hom: Mapping[Term, Term]
) -> bool:
    """Does ``body_hom`` (a body→instance homomorphism) extend to the head?"""
    return (
        find_homomorphism(tgd.head, instance, seed=dict(body_hom), frozen_nulls=True)
        is not None
    )


def violations(
    instance: ColumnarInstance,
    dep: AnyDependency,
    limit: int | None = None,
) -> Iterator[Homomorphism]:
    """Enumerate violating homomorphisms of ``dep`` in ``instance``.

    For a TGD: body homomorphisms with no head extension.  For an EGD: body
    homomorphisms with distinct images of the two equality variables.

    Nulls never occur in dependencies, so the source contains only variables
    and constants; the target instance's nulls are plain values.
    """
    count = 0
    if isinstance(dep, TGD):
        for h in find_homomorphisms(dep.body, instance, limit=None):
            if not satisfies_tgd(instance, dep, h):
                yield h
                count += 1
                if limit is not None and count >= limit:
                    return
    else:
        for h in find_homomorphisms(dep.body, instance, limit=None):
            if h[dep.lhs] is not h[dep.rhs]:
                yield h
                count += 1
                if limit is not None and count >= limit:
                    return


def satisfies(instance: ColumnarInstance, dep: AnyDependency) -> bool:
    """``K ⊨ r``."""
    for _ in violations(instance, dep, limit=1):
        return False
    return True


def satisfies_all(instance: ColumnarInstance, sigma: DependencySet) -> bool:
    """``K ⊨ Σ``."""
    return all(satisfies(instance, d) for d in sigma)


def satisfies_instantiated(
    instance: ColumnarInstance,
    dep: AnyDependency,
    h: Mapping[Term, Term],
) -> bool:
    """``K ⊨ h(r)``: satisfaction of the dependency instantiated by ``h``.

    ``h`` must be defined on all body variables of ``dep``; its image terms
    are constants/nulls.  For a TGD, ``K ⊨ h(r)`` iff ``h(Body) ⊄ K`` or the
    (instantiated) head has an extension in ``K``.  For an EGD, iff
    ``h(Body) ⊄ K`` or ``h(x1) = h(x2)``.
    """
    inst_body = [a.apply(h) for a in dep.body]
    if not all(a in instance for a in inst_body):
        return True
    if isinstance(dep, EGD):
        return h[dep.lhs] is h[dep.rhs]
    # TGD: look for an extension of h to the head; universal variables are
    # already instantiated by h, existential ones are free.
    seed = {v: h[v] for v in dep.frontier()}
    return (
        find_homomorphism(dep.head, instance, seed=seed, frozen_nulls=True) is not None
    )


def violating_dependencies(
    instance: ColumnarInstance, sigma: DependencySet
) -> list[AnyDependency]:
    """The dependencies of Σ not satisfied by the instance."""
    return [d for d in sigma if not satisfies(instance, d)]


def is_model(
    instance: ColumnarInstance, db: ColumnarInstance, sigma: DependencySet
) -> bool:
    """Is ``instance`` a model of (D, Σ): finite, contains D, satisfies Σ?"""
    if not all(f in instance for f in db):
        return False
    return satisfies_all(instance, sigma)


def head_instantiation(
    tgd: TGD, h: Mapping[Term, Term], fresh: "Iterator[Term] | None" = None
) -> list[Atom]:
    """``h'(ψ(x, z))``: the head with universals instantiated by ``h`` and a
    caller-supplied stream of fresh terms for the existentials.

    Used by chase steps and by the firing-relation witness engine.
    """
    mapping: dict[Term, Term] = {v: h[v] for v in tgd.frontier()}
    if tgd.existential:
        if fresh is None:
            raise ValueError("existential TGD needs fresh terms")
        for z in tgd.existential:
            mapping[z] = next(fresh)
    return [a.apply(mapping) for a in tgd.head]
