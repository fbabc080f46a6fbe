"""Adn∃-C: combining the adornment algorithm with other criteria
(paper Section 6, Theorems 10 and 11).

Σ ∈ Adn∃-C iff ``Adn∃(Σ)[1]`` — the adorned set Σµ — is recognised by
criterion C.  Theorem 10: Σ ∈ Adn∃-C implies Σ ∈ CTstd∃ (even when C is a
CTstd∀ criterion: the adorned set's termination transfers only to the
existence of a terminating sequence of Σ).  Theorem 11: C ⊊ Adn∃-C for
every criterion C — preprocessing with Adn∃ strictly enlarges what C
recognises, because the adorned set has the same or weaker structural
properties than Σ.
"""

from __future__ import annotations

from ..criteria.base import (
    CriterionResult,
    Guarantee,
    TerminationCriterion,
    get_criterion,
)
from ..model.dependencies import DependencySet


class AdnCombined(TerminationCriterion):
    """The criterion Adn∃-C for a given inner criterion C."""

    guarantee = Guarantee.CT_EXISTS

    def __init__(self, inner: TerminationCriterion | str) -> None:
        if isinstance(inner, str):
            inner = get_criterion(inner)
        self.inner = inner
        self.name = f"Adn-{inner.name}"

    def _accepts(self, sigma: DependencySet, ctx) -> tuple[bool, bool, dict]:
        result = ctx.adn_result()
        details: dict = {
            "size_adorned": result.stats["size_adorned"],
            "adn_exact": result.exact,
        }
        if not result.exact:
            # Σµ is a truncation (budget/livelock stop): C accepting the
            # truncated set proves nothing about Σ — reject, approximate.
            return False, False, details
        from ..analysis.context import AnalysisContext

        inner_result = self.inner.check(
            result.adorned,
            context=AnalysisContext(result.adorned, ctx.decisions),
        )
        details["inner"] = inner_result.criterion
        details["inner_accepted"] = inner_result.accepted
        return inner_result.accepted, inner_result.exact, details


def adn_combined_check(
    sigma: DependencySet, criterion: TerminationCriterion | str
) -> CriterionResult:
    """One-shot Adn∃-C check."""
    return AdnCombined(criterion).check(sigma)
