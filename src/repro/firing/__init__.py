"""Firing relations (≺ and <), chase graph, and firing graph."""

from .graphs import (
    chase_graph,
    edge_labels,
    firing_graph,
    oblivious_chase_graph,
    render_graph,
)
from .relations import DecisionCache, FiringOracle
from .witness import (
    DEFAULT_BUDGET,
    FiringDecision,
    Witness,
    WitnessEngine,
    decide_fires,
    decide_precedes,
)

__all__ = [
    "chase_graph",
    "edge_labels",
    "firing_graph",
    "oblivious_chase_graph",
    "render_graph",
    "DecisionCache",
    "FiringOracle",
    "DEFAULT_BUDGET",
    "FiringDecision",
    "Witness",
    "WitnessEngine",
    "decide_fires",
    "decide_precedes",
]
