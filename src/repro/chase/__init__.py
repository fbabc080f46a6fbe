"""Chase engine: standard / oblivious / semi-oblivious / core chase,
sequence exploration, and Skolemisation."""

from .core_chase import core_chase, core_chase_step
from .explorer import (
    DISCOVERY_MODES,
    ExplorationResult,
    ExplorationVerdict,
    canonical_key,
    explore_chase,
)
from .provenance import Derivation, ProvenanceIndex, explain
from .result import ChaseResult, ChaseStatus
from .runner import ChaseRunner, run_chase
from .skolem import (
    SaturationResult,
    SkolemisedTGD,
    SkolemTerm,
    critical_instance,
    saturate,
    skolemise,
)
from .step import StepOutcome, Substitution, Trigger, apply_step, egd_substitution
from .strategies import (
    NAMED_STRATEGIES,
    Strategy,
    egd_first,
    existential_first,
    fifo,
    full_first,
    lifo,
    random_strategy,
    resolve_strategy,
)

__all__ = [
    "core_chase",
    "core_chase_step",
    "DISCOVERY_MODES",
    "ExplorationResult",
    "ExplorationVerdict",
    "canonical_key",
    "explore_chase",
    "Derivation",
    "ProvenanceIndex",
    "explain",
    "ChaseResult",
    "ChaseStatus",
    "ChaseRunner",
    "run_chase",
    "SaturationResult",
    "SkolemisedTGD",
    "SkolemTerm",
    "critical_instance",
    "saturate",
    "skolemise",
    "StepOutcome",
    "Substitution",
    "Trigger",
    "apply_step",
    "egd_substitution",
    "NAMED_STRATEGIES",
    "Strategy",
    "egd_first",
    "existential_first",
    "fifo",
    "full_first",
    "lifo",
    "random_strategy",
    "resolve_strategy",
]
