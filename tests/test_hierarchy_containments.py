"""Property suite for the paper's criterion containment hierarchy.

Every edge of :data:`repro.analysis.classify.HIERARCHY_IMPLIES` (WA ⇒
SC/Str/CStr, SC ⇒ SR, CStr ⇒ SR, SR ⇒ IR, AC ⇒ LS, MSA ⇒ MFA) is checked
empirically on random programs, the paper's dependency sets and corpus
programs: whenever the implying criterion accepts *exactly*, the implied
criterion must accept.  This is the oracle that keeps the portfolio's
hierarchy-aware scheduling honest — the scheduler fills in exactly these
implications without running the implied criteria, so a violation here
would mean a fabricated verdict there.
"""

from __future__ import annotations

import pytest

from repro.analysis import classify
from repro.analysis.classify import HIERARCHY_IMPLIES, IMPLIES_CLOSURE
from repro.data import all_paper_sets
from repro.generators import generate_corpus, random_dependency_set

RANDOM_SEEDS = range(0, 60)


def _assert_containments(sigma, label):
    report = classify(sigma)  # full portfolio, no budgets: exact verdicts
    results = report.results
    for source, implied in HIERARCHY_IMPLIES.items():
        src = results[source]
        if not (src.accepted and src.exact):
            continue
        for target in implied:
            tgt = results[target]
            assert tgt.accepted, (
                f"{label}: {source} accepted (exactly) but {target} "
                f"rejected — containment {source} ⊆ {target} violated"
            )
    return report


class TestContainments:
    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_random_programs(self, seed):
        sigma = random_dependency_set(seed, n_deps=3, egd_fraction=0.3)
        _assert_containments(sigma, f"seed {seed}")

    def test_paper_sets(self):
        for name, sigma in all_paper_sets().items():
            _assert_containments(sigma, name)

    def test_corpus_programs(self):
        corpus = generate_corpus(scale=0.02, tests_scale=0.04, max_size=12)
        for ont in corpus[:10]:
            _assert_containments(ont.sigma, ont.name)


class TestClosure:
    def test_closure_is_transitive_and_irreflexive(self):
        for name, reachable in IMPLIES_CLOSURE.items():
            assert name not in reachable
            for mid in reachable:
                for far in IMPLIES_CLOSURE.get(mid, ()):
                    assert far in reachable, f"{name} ⇒ {mid} ⇒ {far} not closed"

    def test_wa_reaches_the_restriction_chain(self):
        assert {"SC", "SR", "IR", "Str", "CStr"} <= set(IMPLIES_CLOSURE["WA"])


class TestHierarchyScheduling:
    """Scheduling must only ever *fill in* what the full run would say."""

    @pytest.mark.parametrize("seed", [0, 2, 3, 7, 9, 36, 43])
    def test_hierarchy_run_matches_full_run(self, seed):
        sigma = random_dependency_set(seed, n_deps=3, egd_fraction=0.3)
        full = classify(sigma)
        scheduled = classify(sigma, hierarchy=True)
        assert [(n, r.accepted) for n, r in scheduled.results.items()] == [
            (n, r.accepted) for n, r in full.results.items()
        ]

    def test_implied_results_are_marked(self):
        from repro.data import sigma_3

        report = classify(sigma_3(), hierarchy=True)  # WA accepts Σ3
        assert report.results["WA"].accepted
        implied = [
            n for n, r in report.results.items() if "implied_by" in r.details
        ]
        assert "SC" in implied and "IR" in implied
        assert report.details["implied"] == len(implied)
        for name in implied:
            assert report.results[name].accepted
            assert report.results[name].elapsed_ms == 0.0

    def test_refutation_direction(self):
        # A program where IR rejects exactly: everything implying IR
        # (WA, SC, CStr, SR) must reject too, and a portfolio running IR
        # first fills them in as refuted.
        from repro.data import sigma_10

        full = classify(sigma_10())
        assert not full.results["IR"].accepted and full.results["IR"].exact
        scheduled = classify(
            sigma_10(), criteria=["IR", "WA", "SC", "SR"], hierarchy=True
        )
        for name in ("WA", "SC", "SR"):
            assert not scheduled.results[name].accepted
            assert scheduled.results[name].details.get("refuted_by") == "IR"
