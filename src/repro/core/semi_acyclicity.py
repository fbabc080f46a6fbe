"""Semi-acyclicity (paper Definition 4).

Σ is *semi-acyclic* (SAC) iff ``Adn∃(Σ)[2]`` is true — the adornment
algorithm completes without detecting a cyclic adorned head.

Guarantees (Theorem 8): every semi-acyclic Σ admits, for every database D,
a terminating standard chase sequence of length polynomial in ``|D|``
(SAC ⊆ CTstd∃).  Expressivity (Theorem 9): S-Str ⊊ SAC and AC ⊊ SAC.
"""

from __future__ import annotations

from ..criteria.base import Guarantee, TerminationCriterion, register, verdict
from ..model.dependencies import DependencySet


def is_semi_acyclic(sigma: DependencySet) -> bool:
    """Definition 4: the boolean returned by Adn∃."""
    return verdict("SAC", sigma)[0]


@register
class SemiAcyclicity(TerminationCriterion):
    """SAC: Adn∃ detects no cyclic adornment."""

    name = "SAC"
    guarantee = Guarantee.CT_EXISTS

    def _accepts(self, sigma: DependencySet, ctx) -> tuple[bool, bool, dict]:
        result = ctx.adn_result()
        details = dict(result.stats)
        details["adorned_ratio"] = (
            result.stats["size_adorned"] / max(1, len(sigma))
        )
        return result.acyclic, result.exact, details
