"""Chase run results."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..budget import BudgetExhausted
from ..model.columnar import ColumnarInstance
from .step import StepOutcome


class ChaseStatus(enum.Enum):
    """Outcome of a chase run.

    * ``SUCCESS``  — terminating and successful: no further step applies,
      the result is an instance (for the standard chase, a canonical
      universal model of (D, Σ)).
    * ``FAILURE``  — terminating but failing: an EGD step equated two
      distinct constants (``J = ⊥``).  A failing sequence is *finite*,
      hence still "terminating" in the paper's sense.
    * ``EXCEEDED`` — the step/time budget ran out before the sequence
      finished; nothing can be concluded about termination.
    """

    SUCCESS = "success"
    FAILURE = "failure"
    EXCEEDED = "exceeded"


@dataclass
class ChaseResult:
    """The outcome of running one chase sequence."""

    status: ChaseStatus
    instance: ColumnarInstance | None
    steps: list[StepOutcome] = field(default_factory=list)
    variant: str = "standard"
    #: Which budget dimension stopped an EXCEEDED run (None for the plain
    #: step cap, and always None for terminating runs).
    exhausted: BudgetExhausted | None = None

    @property
    def terminated(self) -> bool:
        """Finite sequence (successful or failing)."""
        return self.status in (ChaseStatus.SUCCESS, ChaseStatus.FAILURE)

    @property
    def successful(self) -> bool:
        return self.status is ChaseStatus.SUCCESS

    @property
    def failed(self) -> bool:
        return self.status is ChaseStatus.FAILURE

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        size = len(self.instance) if self.instance is not None else 0
        return (
            f"ChaseResult({self.variant}, {self.status.value}, "
            f"{self.step_count} steps, {size} facts)"
        )
