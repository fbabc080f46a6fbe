"""The AC (acyclicity) criterion of the rewriting approaches
(Greco–Spezzano / Greco–Spezzano–Trubitsyna; paper Section 3).

AC adorns the TGDs with bound/free symbols — the same machinery as Adn∃
but without the EGD execution, without the fireability filter, and with
label-nesting Ω edges that do not require a firing chain — and accepts
when no cyclic adornment arises.  It is defined for TGDs only; EGD sets
are lifted through the substitution-free simulation (the convention the
paper applies to every TGD-only criterion).

Theorem 9: AC ⊊ SAC.
"""

from __future__ import annotations

from ..model.dependencies import DependencySet
from .base import Guarantee, TerminationCriterion, register, verdict


def is_acyclic_rewriting(sigma: DependencySet) -> tuple[bool, bool]:
    """(accepted, exact) of the AC rewriting on a TGD-only set."""
    return verdict("AC", sigma, tgd_only=True)


@register
class Acyclicity(TerminationCriterion):
    """AC: adornment rewriting without EGD analysis."""

    name = "AC"
    guarantee = Guarantee.CT_ALL

    def _accepts(self, sigma: DependencySet, ctx) -> tuple[bool, bool, dict]:
        details: dict = {}
        if sigma.egds:
            details["simulated"] = True
        result = ctx.ac_rewriting()
        return result.acyclic, result.exact, details
