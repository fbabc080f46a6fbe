"""Analysis facade tests: classify(), evaluation pipeline, hierarchy checks."""

import pytest

from repro.analysis import (
    ClassificationReport,
    ClassifyConfig,
    chase_ground_truth,
    classify,
    render_table1,
    render_table2,
    summarise,
    verify_cases,
)
from repro.batch import BatchConfig, evaluate_corpus
from repro.criteria.base import Guarantee
from repro.data import sigma_1, sigma_3, sigma_10, witness_cases
from repro.firing import DecisionCache
from repro.generators import generate_corpus, random_dependency_set


class TestClassify:
    def test_full_portfolio(self):
        report = classify(sigma_1())
        assert isinstance(report, ClassificationReport)
        assert set(report.results) >= {"WA", "SC", "S-Str", "SAC"}
        assert report.guarantees_exists
        assert not report.guarantees_all  # only CT∃ criteria accept Σ1

    def test_guarantees_all_when_ct_all_criterion_accepts(self):
        report = classify(sigma_3())
        assert report.guarantees_all

    def test_nothing_applies(self):
        report = classify(sigma_10())
        assert not report.guarantees_exists
        assert report.accepted_by == []

    def test_selected_criteria(self):
        report = classify(sigma_1(), criteria=["WA", "SAC"])
        assert list(report.results) == ["WA", "SAC"]

    def test_stop_on_first(self):
        report = classify(sigma_3(), stop_on_first=True)
        assert len(report.results) == 1  # WA accepts immediately

    def test_render(self):
        text = str(classify(sigma_1(), criteria=["WA", "SAC"]))
        assert "SAC" in text and "⇒" in text

    def test_isolated_backend_refuses_a_decision_cache(self):
        with pytest.raises(ValueError, match="isolated"):
            classify(sigma_1(), backend="isolated", decisions=DecisionCache())


class TestParallelPortfolio:
    """The budgets/short-circuit portfolio added in PR 2."""

    def test_short_circuit_preserves_headline(self):
        for seed in range(8):
            sigma = random_dependency_set(seed, n_deps=3, egd_fraction=0.3)
            full = classify(sigma)
            sc = classify(sigma, short_circuit=True)
            assert sc.verdict == full.verdict, seed

    def test_short_circuited_criteria_are_marked_not_exhausted(self):
        report = classify(sigma_3(), short_circuit=True)
        skipped = [r for r in report.results.values() if r.skipped]
        assert skipped  # WA accepts CT∀ immediately; the rest are spared
        assert not report.any_exhausted
        assert "short-circuited" in str(report)

    def test_budget_exhaustion_is_flagged(self):
        sigma = random_dependency_set(1, n_deps=3, egd_fraction=0.3)
        report = classify(sigma, budget_steps=20)
        assert report.any_exhausted
        blown = [r for r in report.results.values() if r.exhausted is not None]
        assert blown
        assert all(not r.exact for r in blown)

    def test_config_object(self):
        config = ClassifyConfig(criteria=["WA", "SC"])
        report = classify(sigma_3(), config=config)
        assert list(report.results) == ["WA", "SC"]

    def test_one_thread_only(self):
        # ``jobs=1`` is accepted for compatibility; criteria always run
        # on the calling thread.
        assert classify(sigma_3(), criteria=["WA"], jobs=1).guarantees_all
        with pytest.raises(ValueError, match="repro batch --jobs"):
            classify(sigma_3(), jobs=2)


class TestEvaluationPipeline:
    def setup_method(self):
        self.corpus = generate_corpus(scale=0.03, tests_scale=0.05)

    def test_evaluation_fields(self):
        (ev,) = evaluate_corpus(
            self.corpus[:1], BatchConfig(chase_steps=600)
        ).evaluations()
        assert ev.size == len(self.corpus[0].sigma)
        assert ev.adorned_size >= ev.size  # bridges guarantee growth
        assert ev.ratio >= 1.0

    def test_summarise_and_render(self):
        evs = evaluate_corpus(
            self.corpus[:4], BatchConfig(chase_steps=400)
        ).evaluations()
        summaries = summarise(evs)
        assert sum(s.tests for s in summaries.values()) == 4
        table = render_table2(summaries)
        assert "A+NT" in table and "FN" in table

    def test_chase_ground_truth_consistency(self):
        halted, strategy = chase_ground_truth(sigma_1(), max_steps=200)
        assert halted and strategy == "full_first"
        # Σ10 over the seed database FAILS immediately (the EGD equates two
        # distinct seed constants) — a failing sequence is finite, so it
        # counts as halted, exactly like the paper's 24h-timeout criterion.
        halted, _ = chase_ground_truth(sigma_10(), max_steps=200)
        assert halted

    def test_chase_ground_truth_divergence(self):
        from repro.model import parse_dependencies

        diverging = parse_dependencies(
            """
            r1: A(x) -> exists y. R(x, y) & B(y)
            r2: B(x) -> A(x)
            """
        )
        halted, strategy = chase_ground_truth(diverging, max_steps=300)
        assert not halted and strategy is None


class TestHierarchyFacade:
    def test_render_table1(self):
        checks = verify_cases(witness_cases()[:1])
        text = render_table1(checks)
        assert "Table 1" in text
        assert "sigma_1" in text
