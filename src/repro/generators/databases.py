"""Seed databases for chasing generated ontologies.

The paper chases each ontology (for the Table 2(c) ground truth) over a
database; for synthetic ontologies we seed every concept and role with a
couple of constants — a small "critical-ish" database that exercises each
dependency without blowing up the chase.
"""

from __future__ import annotations

import random

from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from ..model.dependencies import DependencySet
from ..model.terms import Constant


def seed_database(
    sigma: DependencySet,
    constants_per_predicate: int = 1,
    seed: int = 7,
) -> ColumnarInstance:
    """One fact per predicate over a tiny constant pool.

    Unary predicates get ``P(c0)``; binary predicates ``R(c0, c1)``; higher
    arities cycle through the pool.  Deterministic given the seed.
    """
    rng = random.Random(seed)
    pool = [Constant(f"a{i}") for i in range(max(2, constants_per_predicate + 1))]
    db = ColumnarInstance()
    for pred, arity in sorted(sigma.predicates().items()):
        for k in range(constants_per_predicate):
            args = [pool[(k + i) % len(pool)] for i in range(arity)]
            if arity == 0:
                db.add(Atom(pred, ()))
                break
            db.add(Atom(pred, args))
        if rng.random() < 0:  # placeholder for future randomised variants
            pass
    return db


def sparse_database(
    sigma: DependencySet, fraction: float = 0.3, seed: int = 7
) -> ColumnarInstance:
    """Facts for a random subset of predicates — closer to real ABoxes,
    where most schema predicates have no instances."""
    rng = random.Random(seed)
    pool = [Constant("a0"), Constant("a1")]
    db = ColumnarInstance()
    preds = sorted(sigma.predicates().items())
    for pred, arity in preds:
        if rng.random() > fraction:
            continue
        args = [pool[i % len(pool)] for i in range(arity)]
        db.add(Atom(pred, args))
    if len(db) == 0 and preds:
        pred, arity = preds[0]
        db.add(Atom(pred, [pool[i % len(pool)] for i in range(arity)]))
    return db
