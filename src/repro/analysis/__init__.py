"""Analysis facade: criterion portfolio, corpus evaluation, Table 1 checks."""

from .classify import (
    BACKENDS,
    DEFAULT_ORDER,
    HIERARCHY_IMPLIES,
    ClassificationReport,
    ClassifyConfig,
    classify,
)
from .context import AnalysisContext
from .evaluation import (
    HALT_STRATEGIES,
    ClassSummary,
    OntologyEvaluation,
    chase_ground_truth,
    render_table2,
    summarise,
)
from .hierarchy import ClaimCheck, check_claim, render_table1, verify_cases

__all__ = [
    "AnalysisContext",
    "BACKENDS",
    "DEFAULT_ORDER",
    "HIERARCHY_IMPLIES",
    "ClassificationReport",
    "ClassifyConfig",
    "classify",
    "HALT_STRATEGIES",
    "ClassSummary",
    "OntologyEvaluation",
    "chase_ground_truth",
    "render_table2",
    "summarise",
    "ClaimCheck",
    "check_claim",
    "render_table1",
    "verify_cases",
]
