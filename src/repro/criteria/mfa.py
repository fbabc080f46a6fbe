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

The criterion classes are the one implementation: both run
:func:`repro.chase.skolem.saturate` over the Skolem rules and critical
instance of the analysis context (MSA with summarised rules), and
:func:`is_mfa` / :func:`is_msa` run the classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from ..budget import coerce_budget
from ..chase.skolem import saturate
from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from ..model.dependencies import TGD, DependencySet
from ..model.terms import Constant, Term
from .base import Guarantee, TerminationCriterion, register, verdict

#: Saturation caps.  A run cut short by a cap (or a budget) is rejected
#: and flagged approximate; the summarised MSA chase always saturates in
#: principle, so only its rounds are capped.
MFA_MAX_FACTS = 100_000
MFA_MAX_ROUNDS = 500
MSA_MAX_ROUNDS = 2_000


def is_mfa(sigma: DependencySet) -> tuple[bool, bool]:
    """(accepted, exact) for a TGD-only set — exact is False when the
    caps or a budget cut the run short."""
    return verdict("MFA", sigma, tgd_only=True)


def is_msa(sigma: DependencySet) -> tuple[bool, bool]:
    """(accepted, exact) for a TGD-only set — MSA via the summarised
    Skolem chase."""
    return verdict("MSA", sigma, tgd_only=True)


def _mfa(rules: tuple, base: ColumnarInstance) -> tuple[bool, bool]:
    """Saturate ``base`` with the Skolem ``rules``; alarm on a cyclic
    term."""
    result = saturate(
        base, rules, stop_on_cyclic=True, max_facts=MFA_MAX_FACTS,
        max_rounds=MFA_MAX_ROUNDS,
        budget=coerce_budget(None),  # links the ambient analysis budget
    )
    if result.alarmed:
        return False, True
    if result.saturated:
        return True, True
    return False, False  # budget exceeded: reject, flagged approximate


@dataclass
class _SummarisedRule:
    """A Skolem rule under MSA's summary: every ``f``-term is the constant
    ``c_f``, and each firing that builds an ``f``-value from images
    holding ``c_g`` records ``g ⇒ f`` in ``contributes``."""

    source: TGD
    functors: tuple  # (existential variable, functor f, c_f) triples
    inverse: dict  # c_f → f
    contributes: nx.DiGraph

    def head_facts(self, h: dict) -> list[Atom]:
        mapping: dict[Term, Term] = {v: h[v] for v in self.source.body_variables()}
        used = {self.inverse[t] for t in mapping.values() if t in self.inverse}
        for z, functor, const in self.functors:
            mapping[z] = const
            for g in used:
                self.contributes.add_edge(g, functor)
        return [a.apply(mapping) for a in self.source.head]


def _msa(rules: tuple, base: ColumnarInstance) -> tuple[bool, bool]:
    """Saturate ``base`` with the summarised Skolem ``rules``; alarm on a
    cycle of the contribution relation."""
    summary_const = {
        functor: Constant(f"@{functor}")
        for rule in rules
        for _, functor, _ in rule.functors
    }
    inverse = {c: f for f, c in summary_const.items()}
    contributes = nx.DiGraph()
    contributes.add_nodes_from(summary_const)
    summarised = [
        _SummarisedRule(
            r.source,
            tuple((z, f, summary_const[f]) for z, f, _ in r.functors),
            inverse,
            contributes,
        )
        for r in rules
    ]
    result = saturate(
        base, summarised,
        stop_on_cyclic=False, max_facts=None, max_rounds=MSA_MAX_ROUNDS,
        budget=coerce_budget(None),  # links the ambient analysis budget
    )
    if not result.saturated:
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
        simulated = ctx.simulated() is not sigma
        accepted, exact = _mfa(ctx.skolem_rules(), ctx.critical_instance())
        return accepted, exact, {"simulated": simulated}


@register
class MSA(TerminationCriterion):
    """Model-summarising acyclicity (coarser, always-terminating check)."""

    name = "MSA"
    guarantee = Guarantee.CT_ALL

    def _accepts(self, sigma: DependencySet, ctx) -> tuple[bool, bool, dict]:
        simulated = ctx.simulated() is not sigma
        accepted, exact = _msa(ctx.skolem_rules(), ctx.critical_instance())
        return accepted, exact, {"simulated": simulated}
