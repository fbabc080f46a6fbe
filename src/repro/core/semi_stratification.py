"""Semi-stratification (paper Section 5, Definitions 2–3).

Σ is *semi-stratified* (S-Str) iff every strongly connected component of
the firing graph ``Gf(Σ)`` is weakly acyclic.  The firing graph refines
the chase graph: an edge into an existentially quantified dependency is
dropped when some full dependency can "defuse" the trigger first
(Definition 2's fourth condition) — this is how the EGD ``r3`` of
Example 1 and the symmetric rule ``r3`` of Example 11 break the cycles
that stratification cannot.

Guarantees (Theorem 3): for every semi-stratified Σ and every database D
there is a terminating standard chase sequence, of length polynomial in
``|D|`` — i.e. S-Str ⊆ CTstd∃.  Str ⊊ S-Str and S-Str is incomparable
with SC, AC and MFA (Theorem 5).

The criterion class is the one implementation: it reads Gf(Σ) and its
SCCs off the analysis context, and :func:`is_semi_stratified` runs it.
"""

from __future__ import annotations

import networkx as nx

from ..criteria.base import Guarantee, TerminationCriterion, register, verdict
from ..criteria.weak_acyclicity import is_weakly_acyclic
from ..model.dependencies import DependencySet


def _is_cyclic_component(graph: nx.DiGraph, scc: set) -> bool:
    """Does the SCC actually contain a cycle (size > 1, or a self-loop)?

    Cycle-free dependencies are exempt from the weak-acyclicity check, as
    in stratification's "every cycle" phrasing — otherwise a single
    existential dependency nothing can fire would already disqualify Σ
    and S-Str would not even contain Str (contradicting Theorem 5.1).
    """
    if len(scc) > 1:
        return True
    node = next(iter(scc))
    return graph.has_edge(node, node)


def semi_stratification_components(
    sigma: DependencySet,
) -> list[tuple[DependencySet, bool, bool]]:
    """The SCCs of Gf(Σ) as (component, contains-cycle, weakly-acyclic)."""
    from ..analysis.context import AnalysisContext

    ctx = AnalysisContext(sigma)
    graph, _ = ctx.firing_graph()
    out = []
    for scc in ctx.firing_sccs():
        component = sigma.restricted_to(scc)
        cyclic = _is_cyclic_component(graph, scc)
        out.append((component, cyclic, is_weakly_acyclic(component)))
    return out


def is_semi_stratified(sigma: DependencySet) -> bool:
    """Definition 3 (cycle-containing components must be weakly acyclic)."""
    return verdict("S-Str", sigma)[0]


@register
class SemiStratification(TerminationCriterion):
    """S-Str: every SCC of the firing graph is weakly acyclic."""

    name = "S-Str"
    guarantee = Guarantee.CT_EXISTS

    def _accepts(self, sigma: DependencySet, ctx) -> tuple[bool, bool, dict]:
        graph, oracle_exact = ctx.firing_graph()
        bad = 0
        components = 0
        for scc in ctx.firing_sccs():
            components += 1
            if not _is_cyclic_component(graph, scc):
                continue
            if not is_weakly_acyclic(sigma.restricted_to(scc)):
                bad += 1
        details = {
            "firing_graph_edges": graph.number_of_edges(),
            "components": components,
            "non_wa_components": bad,
        }
        return bad == 0, oracle_exact, details
