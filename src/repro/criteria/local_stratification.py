"""Local stratification (LS) — Greco, Spezzano, Trubitsyna,
"Stratification criteria and rewriting techniques for checking chase
termination" (paper Section 3).

LS combines the two ideas its authors developed separately: rewrite the
TGDs with bound/free adornments (splitting predicates by how nulls flow),
then apply a stratification-style analysis to the *adorned* set.  It
extends both SwA and IR (the paper recalls SwA ⊊ LS and IR ⊊ LS), but
still neglects EGDs — which is exactly the gap Adn∃ fills.

Implementation: the AC adornment rewriting (TGD-only mode of Algorithm 1,
without the EGD execution and fireability filter) produces the adorned
set Σα; Σα is accepted if the CStr criterion accepts it.  EGD inputs are
lifted through the substitution-free simulation, per the paper's
convention for TGD-only criteria.  Documented approximation of [26]'s
definition; the tests pin LS ⊇ {SwA-recognised, IR-recognised} on the
witness families.

The criterion class is the one implementation: it reads the rewriting off
the analysis context, and :func:`is_locally_stratified` runs it.
"""

from __future__ import annotations

from ..model.dependencies import DependencySet
from .base import Guarantee, TerminationCriterion, get_criterion, register, verdict


def is_locally_stratified(sigma: DependencySet) -> tuple[bool, bool]:
    """(accepted, exact) for a TGD-only set."""
    return verdict("LS", sigma, tgd_only=True)


@register
class LocalStratification(TerminationCriterion):
    """LS: c-stratification of the adornment-rewritten TGDs."""

    name = "LS"
    guarantee = Guarantee.CT_ALL

    def _accepts(self, sigma: DependencySet, ctx) -> tuple[bool, bool, dict]:
        details: dict = {}
        if ctx.simulated() is not sigma:
            details["simulated"] = True
        rewriting = ctx.ac_rewriting()
        if rewriting.acyclic:
            # No cyclic adornment at all: already terminating per AC.
            return True, rewriting.exact, details
        if not rewriting.exact:
            # The rewriting was truncated (budget/livelock): Σα is
            # incomplete and c-stratifying a truncation proves nothing.
            return False, False, details
        # The adorned dependencies (bridges excluded — they are artifacts
        # of the rewriting, not part of the analysed program).
        adorned = DependencySet(
            rec.dep for rec in rewriting.records if not rec.is_bridge
        )
        from ..analysis.context import AnalysisContext

        cstr = get_criterion("CStr").check(
            adorned, context=AnalysisContext(adorned, ctx.decisions)
        )
        return cstr.accepted, cstr.exact, details
