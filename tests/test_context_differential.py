"""Differential suite for the shared analysis substrate (DESIGN.md §6).

The acceptance bar of the refactor: for every program, the portfolio's
two artifact-sharing backends — ``shared`` (one memoized
:class:`~repro.analysis.context.AnalysisContext` across criteria) and
``isolated`` (no sharing at all: the recompute oracle) — must produce
**byte-identical** reports modulo timings.  Plus
unit coverage for the context itself: memoization, single-flight
thread-safety, and the determinism gate that keeps budget-truncated
artifacts out of the store.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis import AnalysisContext, classify
from repro.analysis.classify import BACKENDS
from repro.budget import Budget, budget_scope
from repro.data import all_paper_sets
from repro.firing.relations import DecisionCache
from repro.generators import generate_corpus, random_dependency_set

#: Random-program family shared with the metamorphic suite.
RANDOM_SEEDS = range(0, 40)


def _comparable(report):
    """Everything in a report except wall-clock timings."""
    return [
        (
            name,
            r.accepted,
            r.exact,
            r.guarantee,
            r.exhausted,
            {k: v for k, v in r.details.items() if k != "elapsed_ms"},
        )
        for name, r in report.results.items()
    ]


class TestBackendsAgree:
    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_random_programs(self, seed):
        sigma = random_dependency_set(seed, n_deps=3, egd_fraction=0.3)
        reports = {b: classify(sigma, backend=b) for b in BACKENDS}
        reference = _comparable(reports["isolated"])
        for backend in BACKENDS:
            assert _comparable(reports[backend]) == reference, (
                f"backend {backend!r} diverged from the reference on "
                f"seed {seed}"
            )

    def test_paper_sets(self):
        for name, sigma in all_paper_sets().items():
            reports = {b: classify(sigma, backend=b) for b in BACKENDS}
            reference = _comparable(reports["isolated"])
            for backend in BACKENDS:
                assert _comparable(reports[backend]) == reference, (
                    f"backend {backend!r} diverged on {name}"
                )

    def test_corpus_programs(self):
        corpus = generate_corpus(scale=0.02, tests_scale=0.04, max_size=12)
        for ont in corpus[:12]:
            shared = classify(ont.sigma, backend="shared")
            isolated = classify(ont.sigma, backend="isolated")
            assert _comparable(shared) == _comparable(isolated), ont.name

    @pytest.mark.parametrize("seed", [0, 5, 36, 43])
    def test_parallel_shared_context_agrees(self, seed):
        # One context shared by four worker threads must not change a
        # single verdict relative to the sequential isolated oracle.
        sigma = random_dependency_set(seed, n_deps=3, egd_fraction=0.3)
        sequential = classify(sigma, backend="isolated")
        parallel = classify(sigma, jobs=4, backend="shared")
        assert _comparable(parallel) == _comparable(sequential)


class TestAnalysisContext:
    def test_artifacts_are_memoized(self):
        sigma = random_dependency_set(3, n_deps=3)
        ctx = AnalysisContext(sigma)
        assert ctx.affected_positions() is ctx.affected_positions()
        assert ctx.dependency_graph() is ctx.dependency_graph()
        assert ctx.chase_graph("oblivious")[0] is ctx.chase_graph("oblivious")[0]
        stats = ctx.stats()["artifacts"]
        assert stats["hits"] == 3 and stats["misses"] == 3

    def test_variants_are_distinct_artifacts(self):
        sigma = random_dependency_set(3, n_deps=3)
        ctx = AnalysisContext(sigma)
        standard, _ = ctx.chase_graph("standard")
        oblivious, _ = ctx.chase_graph("oblivious")
        assert standard is not oblivious

    def test_critical_instance_returns_fresh_copies(self):
        # MFA/MSA mutate their instance in place; the memoized template
        # must never leak.
        sigma = random_dependency_set(7, n_deps=3, egd_fraction=0.0)
        ctx = AnalysisContext(sigma)
        first = ctx.critical_instance()
        second = ctx.critical_instance()
        assert first is not second
        assert first.facts() == second.facts()

    def test_context_rejects_foreign_sigma(self):
        from repro.criteria import WeakAcyclicity

        ctx = AnalysisContext(random_dependency_set(1, n_deps=3))
        with pytest.raises(ValueError):
            WeakAcyclicity().check(random_dependency_set(2, n_deps=3), context=ctx)

    def test_blown_budget_vetoes_memoization(self):
        sigma = random_dependency_set(11, n_deps=4, egd_fraction=0.3)
        ctx = AnalysisContext(sigma)
        budget = Budget(max_steps=1)
        budget.charge(2)  # blow it immediately
        with budget_scope(budget):
            ctx.affected_positions()
        assert ctx.stats()["artifacts"]["entries"] == 0
        assert ctx.uncached_builds == 1
        # A clean rebuild afterwards does enter the store.
        ctx.affected_positions()
        assert ctx.stats()["artifacts"]["entries"] == 1

    def test_single_flight_builds_once_under_contention(self):
        sigma = random_dependency_set(5, n_deps=3)
        ctx = AnalysisContext(sigma)
        builds = []
        gate = threading.Event()
        original = ctx._get

        def slow_get(key, build, deterministic=None):
            def counted():
                gate.wait(5)
                builds.append(key)
                return build()

            return original(key, counted, deterministic)

        ctx._get = slow_get
        threads = [
            threading.Thread(target=ctx.affected_positions) for _ in range(8)
        ]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join()
        assert builds == [("affected",)]
        assert ctx.stats()["artifacts"]["hits"] == 7


class TestDecisionCache:
    def test_single_flight_probe_runs_once(self):
        cache = DecisionCache()
        calls = []
        barrier = threading.Barrier(4)
        results = []

        def compute():
            calls.append(1)
            return ("decision", True)

        def worker():
            barrier.wait()
            results.append(cache.decide(("edge",), compute))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert results == ["decision"] * 4
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 3

    def test_non_deterministic_decision_not_cached(self):
        cache = DecisionCache()
        assert cache.decide(("e",), lambda: ("truncated", False)) == "truncated"
        assert len(cache) == 0
        assert cache.decide(("e",), lambda: ("clean", True)) == "clean"
        assert len(cache) == 1

    def test_seed_does_not_overwrite(self):
        cache = DecisionCache()
        cache.seed(("e",), "first")
        cache.seed(("e",), "second")
        assert cache.decide(("e",), lambda: ("computed", True)) == "first"
        assert cache.stats()["preloaded"] == 1
