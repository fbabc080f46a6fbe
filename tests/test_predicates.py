"""Every public ``is_*`` predicate answers what its criterion class answers.

The predicates are the library's plain-function surface; the classes are
what the classification portfolio runs.  Both must give the same verdict
(and, where the predicate returns ``(accepted, exact)``, the same
exactness) on the paper's dependency sets and on random draws.  The
TGD-only predicates are compared on TGD-only draws and must refuse EGD
input with a ``ValueError``.
"""

from __future__ import annotations

import pytest

from repro.core import is_semi_acyclic, is_semi_stratified
from repro.criteria import (
    get_criterion,
    is_acyclic_rewriting,
    is_c_stratified,
    is_inductively_restricted,
    is_locally_stratified,
    is_mfa,
    is_msa,
    is_safe,
    is_safely_restricted,
    is_stratified,
    is_super_weakly_acyclic,
    is_weakly_acyclic,
)
from repro.data import all_paper_sets, sigma_1
from repro.generators import random_dependency_set

SEEDS = range(20)

#: criterion name -> (predicate, returns (accepted, exact), TGD-only)
PREDICATES = {
    "WA": (is_weakly_acyclic, False, False),
    "SC": (is_safe, False, False),
    "SwA": (is_super_weakly_acyclic, False, True),
    "AC": (is_acyclic_rewriting, True, True),
    "LS": (is_locally_stratified, True, True),
    "MFA": (is_mfa, True, True),
    "MSA": (is_msa, True, True),
    "Str": (is_stratified, False, False),
    "CStr": (is_c_stratified, False, False),
    "SR": (is_safely_restricted, True, False),
    "IR": (is_inductively_restricted, True, False),
    "S-Str": (is_semi_stratified, False, False),
    "SAC": (is_semi_acyclic, False, False),
}


def _inputs(tgd_only: bool) -> list[tuple[str, object]]:
    egd_fraction = 0.0 if tgd_only else 0.3
    cases = [
        (name, sigma)
        for name, sigma in all_paper_sets().items()
        if not (tgd_only and sigma.egds)
    ]
    cases += [
        (f"seed={seed}", random_dependency_set(
            seed, n_deps=4, egd_fraction=egd_fraction))
        for seed in SEEDS
    ]
    return cases


@pytest.mark.parametrize("name", sorted(PREDICATES))
def test_predicate_agrees_with_criterion(name):
    predicate, returns_pair, tgd_only = PREDICATES[name]
    criterion = get_criterion(name)
    for label, sigma in _inputs(tgd_only):
        result = criterion.check(sigma)
        expected = (
            (result.accepted, result.exact) if returns_pair else result.accepted
        )
        assert predicate(sigma) == expected, f"{name} on {label}"


@pytest.mark.parametrize(
    "name", sorted(n for n, (_, _, tgd_only) in PREDICATES.items() if tgd_only)
)
def test_tgd_only_predicates_refuse_egds(name):
    predicate = PREDICATES[name][0]
    with pytest.raises(ValueError):
        predicate(sigma_1())
