"""The chase graph G(Σ) and the firing graph Gf(Σ) (paper Section 5).

* ``G(Σ)`` has an edge (r1, r2) iff ``r1 ≺ r2``  — used by stratification;
* ``Gf(Σ)`` has an edge (r1, r2) iff ``r1 < r2`` — used by
  semi-stratification (Definition 2); its edges are a subset of G(Σ)'s
  because the firing relation adds the full-dependency defusal condition
  for existentially quantified targets.

Figure 1 of the paper shows both graphs for Σ11; the Figure 1 bench and
tests pin those edge sets.

Neither graph walks all |Σ|² pairs: candidate pairs come from an index
of body predicates, so the oracle only sees pairs that pass
:func:`~repro.firing.witness.may_fire` (a TGD r1 reaches the r2 whose
body mentions a predicate of its head; an EGD r1 reaches every r2).
Pairs come out r1-major in Σ order, so edges are inserted in the same
order an all-pairs loop would insert them.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx

from ..model.dependencies import TGD, AnyDependency, DependencySet
from .relations import FiringOracle


def _candidate_pairs(
    sigma: DependencySet, oracle: FiringOracle
) -> list[tuple[AnyDependency, AnyDependency]]:
    """The pairs (r1, r2) of Σ with ``may_fire(r1, r2)``, r1-major, both
    in Σ order.  The pairs left out are reported to ``oracle`` as
    prefiltered."""
    deps = list(sigma)
    by_body_pred: dict[str, list[int]] = {}
    for j, r2 in enumerate(deps):
        for pred in {a.predicate for a in r2.body}:
            by_body_pred.setdefault(pred, []).append(j)
    every = range(len(deps))
    pairs = []
    for r1 in deps:
        if isinstance(r1, TGD):
            targets: Iterable[int] = sorted(
                {j for a in r1.head for j in by_body_pred.get(a.predicate, ())}
            )
        else:
            targets = every
        pairs.extend((r1, deps[j]) for j in targets)
    oracle.note_prefiltered(len(deps) ** 2 - len(pairs))
    return pairs


def chase_graph(
    sigma: DependencySet, oracle: FiringOracle | None = None
) -> nx.DiGraph:
    """Build G(Σ)."""
    oracle = oracle or FiringOracle(sigma)
    g = nx.DiGraph()
    g.add_nodes_from(sigma)
    for r1, r2 in _candidate_pairs(sigma, oracle):
        if oracle.precedes(r1, r2):
            g.add_edge(r1, r2)
    return g


def firing_graph(
    sigma: DependencySet, oracle: FiringOracle | None = None
) -> nx.DiGraph:
    """Build Gf(Σ)."""
    oracle = oracle or FiringOracle(sigma)
    fulls = tuple(d for d in sigma if d.is_full)
    g = nx.DiGraph()
    g.add_nodes_from(sigma)
    for r1, r2 in _candidate_pairs(sigma, oracle):
        if oracle.fires(r1, r2, fulls=fulls):
            g.add_edge(r1, r2)
    return g


def oblivious_chase_graph(
    sigma: DependencySet, oracle: FiringOracle | None = None
) -> nx.DiGraph:
    """The chase graph computed with oblivious chase steps (used by
    c-stratification).  Pass (and keep) an ``oracle`` to observe whether
    any edge decision was inexact (``oracle.ever_inexact``)."""
    if oracle is None:
        oracle = FiringOracle(sigma, step_variant="oblivious")
    return chase_graph(sigma, oracle)


def edge_labels(graph: nx.DiGraph) -> set[tuple[str, str]]:
    """Edges as (label, label) pairs — convenient for tests and display."""
    return {
        (u.label or str(u), v.label or str(v)) for u, v in graph.edges()
    }


def render_graph(graph: nx.DiGraph, title: str) -> str:
    """A small ASCII rendering used by the Figure 1 bench."""
    lines = [title, "-" * len(title)]
    for node in sorted(graph.nodes(), key=lambda d: d.label or str(d)):
        name = node.label or str(node)
        succs = sorted(
            (s.label or str(s)) for s in graph.successors(node)
        )
        arrow = " -> " + ", ".join(succs) if succs else "   (no outgoing edges)"
        lines.append(f"  {name}{arrow}")
    return "\n".join(lines)


def to_dot(graph: nx.DiGraph, name: str = "G") -> str:
    """Render a chase/firing graph as Graphviz DOT."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for node in sorted(graph.nodes(), key=lambda d: d.label or str(d)):
        label = node.label or str(node)
        shape = "ellipse" if node.is_existential else "box"
        lines.append(f'  "{label}" [shape={shape}];')
    for u, v in sorted(
        graph.edges(), key=lambda e: (e[0].label or "", e[1].label or "")
    ):
        lines.append(f'  "{u.label or u}" -> "{v.label or v}";')
    lines.append("}")
    return "\n".join(lines)
