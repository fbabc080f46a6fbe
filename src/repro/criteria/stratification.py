"""Stratification (Deutsch–Nash–Remmel) and c-stratification (Meier).

Stratification decomposes Σ along the chase graph G(Σ) (edges are the
``≺`` firing relation) and requires every **cycle** to be weakly acyclic:
Σ ∈ Str iff for every cycle ``C`` of G(Σ), the set of dependencies on
``C`` is WA.  As shown in [31] (and recalled in the paper's Section 3),
Str guarantees only that *some* standard chase sequence terminates
(CTstd∃), not all.

C-stratification uses the *oblivious* chase step in the firing relation,
which restores the CTstd∀ guarantee.

Cycle enumeration is exponential in the worst case; past
``MAX_SIMPLE_CYCLES`` we fall back to the SCC-level check (every SCC weakly
acyclic), which is a stronger condition — still a sound sufficient
criterion, flagged as approximate in the result.

The criterion classes are the one implementation: they read the chase
graph off the analysis context, and :func:`is_stratified` /
:func:`is_c_stratified` run them.
"""

from __future__ import annotations

from itertools import islice

import networkx as nx

from ..model.dependencies import DependencySet
from .base import Guarantee, TerminationCriterion, register, verdict
from .weak_acyclicity import is_weakly_acyclic

MAX_SIMPLE_CYCLES = 10_000


def _cycles_weakly_acyclic(
    sigma: DependencySet, graph: nx.DiGraph
) -> tuple[bool, bool]:
    """(all cycles WA, exact).  Falls back to SCC check past the cap."""
    cycles = list(islice(nx.simple_cycles(graph), MAX_SIMPLE_CYCLES + 1))
    if len(cycles) <= MAX_SIMPLE_CYCLES:
        for cycle in cycles:
            if not is_weakly_acyclic(sigma.restricted_to(cycle)):
                return False, True
        return True, True
    for scc in nx.strongly_connected_components(graph):
        component = sigma.restricted_to(scc)
        if len(scc) > 1 or graph.has_edge(next(iter(scc)), next(iter(scc))):
            if not is_weakly_acyclic(component):
                return False, False
    return True, False


def is_stratified(sigma: DependencySet) -> bool:
    """Str: every cycle of G(Σ) is weakly acyclic."""
    return verdict("Str", sigma)[0]


def is_c_stratified(sigma: DependencySet) -> bool:
    """CStr: Str over the oblivious-step chase graph."""
    return verdict("CStr", sigma)[0]


@register
class Stratification(TerminationCriterion):
    """Str: every cycle of the chase graph is weakly acyclic."""

    name = "Str"
    guarantee = Guarantee.CT_EXISTS
    step_variant = "standard"

    def _accepts(self, sigma: DependencySet, ctx) -> tuple[bool, bool, dict]:
        graph, oracle_exact = ctx.chase_graph(self.step_variant)
        ok, exact = _cycles_weakly_acyclic(sigma, graph)
        exact = exact and oracle_exact
        return ok, exact, {"chase_graph_edges": graph.number_of_edges()}


@register
class CStratification(Stratification):
    """CStr: stratification over the oblivious-step chase graph."""

    name = "CStr"
    guarantee = Guarantee.CT_ALL
    step_variant = "oblivious"
