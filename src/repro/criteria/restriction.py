"""Safe restriction (SR) and inductive restriction (IR)
(Meier, Schmidt, Lausen — "On chase termination beyond stratification").

Both extend c-stratification by replacing the weak-acyclicity check on the
cyclic parts with the *safety* check, and (for IR) by applying the
decomposition recursively.

Implementation note.  The original definitions work with *restriction
systems* — annotated graphs tracking which positions can pass nulls
between dependencies.  We implement the criteria as documented
approximations on top of our exact firing machinery:

* the precedence graph is the oblivious-step chase graph (as in CStr),
  restricted to edges that can actually propagate a labelled null — the
  firing dependency must be existential, or share an affected position
  with the fired dependency's body;
* **SR**: every cycle's dependency set must be *safe* (instead of weakly
  acyclic);
* **IR**: SCCs are decomposed recursively: a failing component is split
  into the sub-graphs induced by its simple cycles and re-checked, which
  captures the "inductive" part of [32] on the shapes arising here.

CStr ⊆ SR ⊆ IR holds by construction (safety subsumes weak acyclicity and
recursion only accepts more).  Both guarantee CTstd∀.

The criterion classes are the one implementation: both read the
restriction graph off the analysis context (IR's recursion rebuilds it
only for the smaller components it decomposes into), and
:func:`is_safely_restricted` / :func:`is_inductively_restricted` run them.
"""

from __future__ import annotations

from itertools import islice

import networkx as nx

from ..firing.graphs import oblivious_chase_graph
from ..firing.relations import FiringOracle
from ..model.dependencies import AnyDependency, DependencySet
from .base import Guarantee, TerminationCriterion, register, verdict
from .safety import affected_positions, is_safe

MAX_SIMPLE_CYCLES = 2_000
MAX_RECURSION = 4


def null_propagating_subgraph(
    sigma: DependencySet, graph: nx.DiGraph, affected=None
) -> nx.DiGraph:
    """Keep only edges along which a labelled null can travel.

    ``affected`` lets a caller that already holds the affected positions
    (the shared analysis context) skip recomputing them.
    """
    if affected is None:
        affected = affected_positions(sigma)
    out = nx.DiGraph()
    out.add_nodes_from(graph.nodes())
    for r1, r2 in graph.edges():
        if _can_pass_null(r1, r2, affected):
            out.add_edge(r1, r2)
    return out


def _can_pass_null(r1: AnyDependency, r2: AnyDependency, affected) -> bool:
    if r1.is_existential:
        return True
    # A full dependency can move an existing null onward only if its body
    # can hold one, i.e. it touches an affected position.
    r1_positions = {
        p for x in r1.body_variables() for p in r1.body_positions_of(x)
    }
    r2_positions = {
        p for x in r2.body_variables() for p in r2.body_positions_of(x)
    }
    return bool(r1_positions & affected) or bool(r2_positions & affected)


def _cycles_safe(sigma: DependencySet, graph: nx.DiGraph) -> tuple[bool, bool]:
    cycles = list(islice(nx.simple_cycles(graph), MAX_SIMPLE_CYCLES + 1))
    if len(cycles) > MAX_SIMPLE_CYCLES:
        # Fall back to per-SCC safety (stronger, still sound).
        for scc in nx.strongly_connected_components(graph):
            if len(scc) > 1 or graph.has_edge(next(iter(scc)), next(iter(scc))):
                if not is_safe(sigma.restricted_to(scc)):
                    return False, False
        return True, False
    for cycle in cycles:
        if not is_safe(sigma.restricted_to(cycle)):
            return False, True
    return True, True


def _ir_component(
    sigma: DependencySet, graph: nx.DiGraph, depth: int, decisions
) -> tuple[bool, bool]:
    ok, exact = _cycles_safe(sigma, graph)
    if ok or depth >= MAX_RECURSION:
        return ok, exact
    # Decompose: re-run on each cyclic SCC's induced sub-structure with
    # the precedence graph recomputed on the smaller dependency set (fewer
    # dependencies ⇒ fewer firing edges ⇒ possibly safe components).
    # ``decisions`` (the context's firing-decision cache) flows down: a
    # component's pairs are pairs of Σ, so the top-level probes answer the
    # recursion's questions for free.
    for scc in nx.strongly_connected_components(graph):
        if len(scc) == 1 and not graph.has_edge(next(iter(scc)), next(iter(scc))):
            continue
        component = sigma.restricted_to(scc)
        if len(component) == len(sigma):
            return False, exact  # no progress possible
        sub_oracle = FiringOracle(
            component, step_variant="oblivious", decisions=decisions
        )
        sub_graph = null_propagating_subgraph(
            component, oblivious_chase_graph(component, oracle=sub_oracle)
        )
        ok, sub_exact = _ir_component(component, sub_graph, depth + 1, decisions)
        exact = exact and not sub_oracle.ever_inexact
        exact = exact and sub_exact
        if not ok:
            return False, exact
    return True, exact


def is_safely_restricted(sigma: DependencySet) -> tuple[bool, bool]:
    """(accepted, exact) for SR; ``exact`` also reflects the firing
    oracle, so an edge decided on a blown witness budget flags it."""
    return verdict("SR", sigma)


def is_inductively_restricted(sigma: DependencySet) -> tuple[bool, bool]:
    """(accepted, exact) for IR (oracle inexactness included, as in SR)."""
    return verdict("IR", sigma)


@register
class SafeRestriction(TerminationCriterion):
    """SR: c-stratification with safety on the cyclic parts."""

    name = "SR"
    guarantee = Guarantee.CT_ALL

    def _accepts(self, sigma: DependencySet, ctx) -> tuple[bool, bool, dict]:
        graph, oracle_exact = ctx.restriction_graph()
        accepted, exact = _cycles_safe(sigma, graph)
        return accepted, exact and oracle_exact, {}


@register
class InductiveRestriction(TerminationCriterion):
    """IR: SR with recursive component decomposition."""

    name = "IR"
    guarantee = Guarantee.CT_ALL

    def _accepts(self, sigma: DependencySet, ctx) -> tuple[bool, bool, dict]:
        graph, oracle_exact = ctx.restriction_graph()
        accepted, exact = _ir_component(sigma, graph, 0, ctx.decisions)
        return accepted, exact and oracle_exact, {}
