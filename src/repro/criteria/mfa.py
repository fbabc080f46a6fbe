"""Model-faithful acyclicity (MFA) and model-summarising acyclicity (MSA)
(Grau, Horrocks, Krötzsch, Kupke, Magka, Motik, Wang — "Acyclicity notions
for existential rules").

Both are *semi-dynamic*: they run the Skolem (semi-oblivious) chase on the
critical instance and raise an alarm on evidence of cyclic computation.

* **MFA** runs the chase with real Skolem terms and alarms when a *cyclic*
  term ``f(t)`` (``f`` occurring inside ``t``) is derived.  Without an
  alarm the chase saturates (term depth is bounded by the number of
  distinct functions), so the test is decidable.
* **MSA** summarises the Skolem terms — one constant ``c_f`` per function
  symbol — so the chase always saturates, and tracks which functions
  contribute to which: firing a rule that builds an ``f``-value from
  images containing ``c_g`` records ``g ⇒ f``.  The alarm is a cycle in
  the (transitively closed) contribution relation.  MSA ⊆ MFA.

Per the paper's Section 4 both are defined for TGDs only; EGD sets are
lifted through the substitution-free simulation.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from ..budget import Budget, coerce_budget
from ..chase.skolem import (
    SkolemTerm,
    critical_instance,
    saturate,
    skolemise,
)
from ..homomorphism.finder import find_homomorphisms
from ..matching import (
    body_atom_index,
    delta_homomorphisms,
    delta_row_homomorphisms,
    get_backend,
)
from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from ..model.dependencies import DependencySet
from ..model.terms import Constant, Term
from .base import Guarantee, TerminationCriterion, register


def is_mfa(
    sigma: DependencySet,
    max_facts: int = 100_000,
    max_rounds: int = 500,
    budget: Budget | None = None,
    rules: Sequence | None = None,
    base: ColumnarInstance | None = None,
) -> tuple[bool, bool]:
    """(accepted, exact) — exact is False when budgets cut the run short.

    ``rules``/``base`` let a caller holding the shared analysis context
    reuse the memoized Skolemisation and critical instance (``base`` is
    mutated by the saturation — pass a copy you own).
    """
    if sigma.egds:
        raise ValueError("MFA is defined for TGDs only; simulate EGDs first")
    budget = coerce_budget(budget)  # links the ambient analysis budget
    if rules is None:
        rules = skolemise(sigma, variant="semi_oblivious")
    if base is None:
        base = critical_instance(sigma)
    result = saturate(
        base, rules, stop_on_cyclic=True, max_facts=max_facts,
        max_rounds=max_rounds, budget=budget,
    )
    if result.alarmed:
        return False, True
    if result.saturated:
        return True, True
    return False, False  # budget exceeded: reject, flagged approximate


def is_msa(
    sigma: DependencySet,
    max_rounds: int = 2_000,
    budget: Budget | None = None,
    rules: Sequence | None = None,
    base: ColumnarInstance | None = None,
) -> tuple[bool, bool]:
    """(accepted, exact) — MSA via the summarised Skolem chase.

    ``rules``/``base`` as in :func:`is_mfa`.
    """
    if sigma.egds:
        raise ValueError("MSA is defined for TGDs only; simulate EGDs first")
    budget = coerce_budget(budget)
    if rules is None:
        rules = skolemise(sigma, variant="semi_oblivious")
    instance = base if base is not None else critical_instance(sigma)
    summary_const = {
        functor: Constant(f"@{functor}")
        for rule in rules
        for _, functor, _ in rule.functors
    }
    contributes = nx.DiGraph()
    contributes.add_nodes_from(summary_const)
    inverse = {c: f for f, c in summary_const.items()}

    # Semi-naive rounds: after the first full enumeration, only join facts
    # added in the previous round (the delta log) against rule bodies.  A
    # homomorphism entirely within older rounds already recorded its
    # contribution edges and head facts when it was first enumerated.
    body_index = body_atom_index((rule, rule.source.body) for rule in rules)
    naive = get_backend() == "naive"
    tick = instance.tick
    first_round = True
    for _ in range(max_rounds):
        if first_round:
            homs = (
                (rule, h)
                for rule in rules
                for h in find_homomorphisms(rule.source.body, instance, limit=None)
            )
            first_round = False
        elif naive:
            homs = delta_homomorphisms(
                body_index, instance, instance.added_since(tick)
            )
        else:
            # MSA only ever adds facts, so every logged row is live.
            homs = delta_row_homomorphisms(
                body_index, instance, instance.added_rows_since(tick)
            )
        new_facts: list[Atom] = []
        for rule, h in homs:
            if not budget.charge():
                return False, False  # budget exhausted mid-round
            mapping: dict[Term, Term] = {
                v: h[v] for v in rule.source.body_variables()
            }
            used = {
                inverse[t]
                for t in mapping.values()
                if isinstance(t, Constant) and t in inverse
            }
            for z, functor, arg_vars in rule.functors:
                mapping[z] = summary_const[functor]
                for g in used:
                    contributes.add_edge(g, functor)
            for atom in rule.source.head:
                fact = atom.apply(mapping)
                if fact not in instance:
                    new_facts.append(fact)
        tick = instance.tick
        if instance.add_all(new_facts) == 0:
            break
    else:
        return False, False  # did not converge within budget

    try:
        nx.find_cycle(contributes)
        return False, True
    except nx.NetworkXNoCycle:
        return True, True


@register
class MFA(TerminationCriterion):
    """Model-faithful acyclicity over the critical instance."""

    name = "MFA"
    guarantee = Guarantee.CT_ALL

    def _accepts(self, sigma: DependencySet, ctx) -> tuple[bool, bool, dict]:
        simulated = bool(sigma.egds)
        accepted, exact = is_mfa(
            ctx.simulated(),
            rules=ctx.skolem_rules(),
            base=ctx.critical_instance(),
        )
        return accepted, exact, {"simulated": simulated}


@register
class MSA(TerminationCriterion):
    """Model-summarising acyclicity (coarser, always-terminating check)."""

    name = "MSA"
    guarantee = Guarantee.CT_ALL

    def _accepts(self, sigma: DependencySet, ctx) -> tuple[bool, bool, dict]:
        simulated = bool(sigma.egds)
        accepted, exact = is_msa(
            ctx.simulated(),
            rules=ctx.skolem_rules(),
            base=ctx.critical_instance(),
        )
        return accepted, exact, {"simulated": simulated}
