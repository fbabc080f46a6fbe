"""The core chase (Deutsch–Nash–Remmel, "The chase revisited").

A core chase step on an instance ``K``:

1. apply **all** standard chase steps ``K --(r,h,γ)--> K'`` in parallel and
   take ``J = ∪ K'`` (each TGD step uses its own fresh nulls; each EGD step
   contributes ``Kγ``; a failing EGD step fails the whole sequence);
2. the step's result is ``J' = core(J)``.

The parallel application removes the standard chase's nondeterminism, and
the core chase is *complete* for universal models: whenever ``(D, Σ)`` has a
universal model, the core chase terminates and produces one (Section 2).
"""

from __future__ import annotations

from ..homomorphism.cores import CoreBudgetExceeded, core
from ..homomorphism.satisfaction import violations
from ..model.columnar import ColumnarInstance
from ..model.dependencies import EGD, TGD, DependencySet
from ..model.terms import NullFactory, Term
from .result import ChaseResult, ChaseStatus
from .step import Trigger, egd_substitution


def core_chase_step(
    instance: ColumnarInstance, sigma: DependencySet, nulls: NullFactory
) -> ColumnarInstance | None:
    """One core chase step; returns the resulting instance, or None on ⊥.

    The union ``J = ∪ K'`` is built by savepoint-scoped adds on the input
    itself and the core retraction then consumes it in place
    (``core(fresh=False)``), so a round costs O(changes) in state
    management instead of the seed's two full rebuilds (the union copy
    plus ``core``'s internal copy).  On ⊥ — and on a blown core budget —
    the savepoint rolls back and the caller's instance is untouched;
    otherwise the returned instance *is* the input, advanced by one round.
    """
    # Materialise the round's triggers first: the union mutates the
    # instance the violation generators would otherwise be reading.
    pending = [(dep, h) for dep in sigma for h in violations(instance, dep)]
    if not pending:
        return instance
    base = list(instance)  # each EGD contributes Kγ for the pre-union K
    sp = instance.savepoint()
    try:
        for dep, h in pending:
            if isinstance(dep, TGD):
                mapping: dict[Term, Term] = {v: h[v] for v in dep.body_variables()}
                for z in dep.existential:
                    mapping[z] = nulls.fresh()
                for atom in dep.head:
                    instance.add(atom.apply(mapping))
            else:
                gamma = egd_substitution(dep, h)
                if gamma is None:
                    instance.rollback(sp)
                    return None  # two distinct constants: J = ⊥
                instance.add_all(
                    f.apply({gamma.old: gamma.new}) for f in base
                )
        result = core(instance, fresh=False)
    except CoreBudgetExceeded:
        instance.rollback(sp)
        raise
    instance.release(sp)
    return result


def core_chase(
    database: ColumnarInstance,
    sigma: DependencySet,
    max_rounds: int = 1_000,
) -> ChaseResult:
    """Run the core chase of ``database`` with ``sigma``.

    Returns SUCCESS with the (unique up to isomorphism) universal model,
    FAILURE on ⊥, or EXCEEDED after ``max_rounds`` core chase steps.
    """
    current = database.copy()
    nulls = NullFactory(
        start=max((n.label for n in current.nulls()), default=0) + 1
    )
    for _ in range(max_rounds):
        if not any(True for d in sigma for _ in violations(current, d, limit=1)):
            return ChaseResult(ChaseStatus.SUCCESS, current, [], "core")
        nxt = core_chase_step(current, sigma, nulls)
        if nxt is None:
            return ChaseResult(ChaseStatus.FAILURE, None, [], "core")
        current = nxt
        # The same instance is threaded through every round; nothing reads
        # its ticks across rounds, so drop the log instead of letting it
        # pin every union fact and retraction image ever added.
        current.compact_log()
    return ChaseResult(ChaseStatus.EXCEEDED, current, [], "core")
