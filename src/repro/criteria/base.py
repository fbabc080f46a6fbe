"""Common interface for chase termination criteria.

Every criterion is a *decidable sufficient condition*: acceptance implies
membership in a termination class; rejection says nothing.  The interface
records which class is guaranteed:

* ``CT_ALL``    — all standard chase sequences terminate (CTstd∀);
* ``CT_EXISTS`` — at least one standard chase sequence terminates (CTstd∃).

Criteria defined for TGDs only (SwA, MFA, MSA, AC per the paper's
Section 4) lift to TGD+EGD sets through the substitution-free simulation;
the lifting is applied by the concrete classes via
``simulate_if_needed``.

Criteria do not build their analysis artifacts (affected positions,
chase/firing graphs, adornment rewritings, Skolemisations) themselves:
they consult the :class:`~repro.analysis.context.AnalysisContext` passed
to :meth:`TerminationCriterion.check`.  When no context is given, the
check creates a private one — memoization then degenerates to the scope
of that single check; the classification portfolio passes one shared
context so every artifact is computed once per program.

Each criterion class is the one implementation of its test: the
module-level ``is_*`` predicates are :func:`verdict` calls.
"""

from __future__ import annotations

import enum
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..budget import Budget, BudgetExhausted, budget_scope
from ..model.dependencies import DependencySet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (analysis → criteria)
    from ..analysis.context import AnalysisContext


class Guarantee(enum.Enum):
    """Which termination class a criterion's acceptance guarantees."""

    CT_ALL = "all standard chase sequences terminate"
    CT_EXISTS = "some standard chase sequence terminates"


@dataclass
class CriterionResult:
    """Outcome of running one termination criterion.

    ``exact=False`` flags any approximation — internal enumeration caps
    as well as budget exhaustion.  ``exhausted`` is set precisely when a
    resource budget cut the run short, recording the blown dimension; a
    rejection with ``exhausted`` set says nothing about Σ and the
    portfolio surfaces it (exit code 2) rather than presenting it as a
    trusted rejection.
    """

    criterion: str
    accepted: bool
    guarantee: Guarantee
    exact: bool = True
    elapsed_ms: float = 0.0
    details: dict = field(default_factory=dict)
    exhausted: BudgetExhausted | None = None

    @property
    def skipped(self) -> bool:
        """True when the portfolio never ran (or cut short) this criterion
        because the overall verdict was already decided."""
        return bool(self.details.get("short_circuited"))

    def __bool__(self) -> bool:
        return self.accepted

    def __str__(self) -> str:
        verdict = "accepted" if self.accepted else "rejected"
        approx = "" if self.exact else " (approximate)"
        budget = f" (budget: {self.exhausted})" if self.exhausted else ""
        return f"{self.criterion}: {verdict}{approx}{budget} [{self.elapsed_ms:.1f} ms]"


class TerminationCriterion(ABC):
    """Base class; concrete criteria implement :meth:`_accepts`."""

    #: Short name used in the registry and reports ("WA", "SC", ...).
    name: str = "?"
    #: Which termination class acceptance guarantees.
    guarantee: Guarantee = Guarantee.CT_ALL

    def check(
        self,
        sigma: DependencySet,
        budget: Budget | None = None,
        context: "AnalysisContext | None" = None,
    ) -> CriterionResult:
        """Run the criterion, optionally under a resource budget.

        The budget is installed as the ambient budget for the call, so
        every bounded consumer underneath (firing oracles, the adornment
        algorithm, Skolem saturation) links its local budgets to it.  A
        blown budget surfaces as ``exact=False`` plus ``exhausted`` —
        never as an exception.

        ``context`` is the shared artifact store of the enclosing
        portfolio run; without one a private context is created, so a
        standalone check memoizes only within itself.
        """
        if context is None:
            from ..analysis.context import AnalysisContext

            context = AnalysisContext(sigma)
        elif context.sigma is not sigma:
            raise ValueError(
                "context was built for a different dependency set"
            )
        start = time.perf_counter()
        if budget is None:
            # Leave any enclosing ambient scope in force — installing
            # None here would disconnect nested analyses from it.
            accepted, exact, details = self._accepts(sigma, context)
        else:
            with budget_scope(budget):
                accepted, exact, details = self._accepts(sigma, context)
        elapsed = (time.perf_counter() - start) * 1000.0
        exhausted = budget.exhausted if budget is not None else None
        return CriterionResult(
            criterion=self.name,
            accepted=accepted,
            guarantee=self.guarantee,
            exact=exact and exhausted is None,
            elapsed_ms=elapsed,
            details=details,
            exhausted=exhausted,
        )

    def accepts(self, sigma: DependencySet) -> bool:
        """Convenience: just the boolean verdict."""
        return self.check(sigma).accepted

    @abstractmethod
    def _accepts(
        self, sigma: DependencySet, ctx: "AnalysisContext"
    ) -> tuple[bool, bool, dict]:
        """Return (accepted, exact, details), reading artifacts off ``ctx``."""


_REGISTRY: dict[str, type[TerminationCriterion]] = {}


def register(cls: type[TerminationCriterion]) -> type[TerminationCriterion]:
    """Class decorator adding the criterion to the global registry."""
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate criterion name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def registry() -> dict[str, type[TerminationCriterion]]:
    """Name → criterion class for every registered criterion."""
    return dict(_REGISTRY)


def get_criterion(name: str) -> TerminationCriterion:
    """Instantiate a registered criterion by name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown criterion {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def verdict(
    name: str, sigma: DependencySet, tgd_only: bool = False
) -> tuple[bool, bool]:
    """``(accepted, exact)`` of the registered criterion ``name`` on Σ —
    the body of every module-level ``is_*`` predicate.

    ``tgd_only`` keeps the plain-predicate contract of the criteria the
    paper defines for TGDs only: EGD input is refused rather than lifted
    through the simulation (which the criterion class does).
    """
    if tgd_only and sigma.egds:
        raise ValueError(f"{name} is defined for TGDs only; simulate EGDs first")
    result = get_criterion(name).check(sigma)
    return result.accepted, result.exact
