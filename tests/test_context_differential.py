"""Differential suite for the shared analysis substrate (DESIGN.md §6).

The acceptance bar of the refactor: for every program, the portfolio's
two artifact-sharing backends — ``shared`` (one memoized
:class:`~repro.analysis.context.AnalysisContext` across criteria) and
``isolated`` (no sharing at all: the recompute oracle) — must produce
**byte-identical** reports modulo timings.  Step-budgeted runs are
pinned too: their per-criterion outcome does not move with the hash seed
or with short-circuiting.  Plus unit coverage for the context itself:
memoization and the determinism gate that keeps budget-truncated
artifacts out of the store.

Run as a script, the module prints the step-budgeted matrix as JSON
(the child process of the hash-seed check).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis import AnalysisContext, classify
from repro.analysis.classify import BACKENDS
from repro.budget import Budget, budget_scope
from repro.data import all_paper_sets
from repro.firing.relations import DecisionCache
from repro.generators import generate_corpus, random_dependency_set

#: Random-program family shared with the metamorphic suite.
RANDOM_SEEDS = range(0, 40)

#: Per-criterion step budgets of the pinned matrix: 50 blows nearly every
#: semantic criterion early, 2000 lets some of them finish.
PINNED_STEPS = (50, 2000)
PINNED_SEEDS = range(0, 30)


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


def _pinned(report) -> dict:
    """Per criterion that ran: accepted, exact, and where its budget blew."""
    return {
        name: [
            r.accepted,
            r.exact,
            r.exhausted and r.exhausted.dimension,
            r.exhausted and r.exhausted.spent,
        ]
        for name, r in report.results.items()
        if not r.skipped
    }


def _pinned_matrix(short_circuit: bool = False) -> dict:
    """``"steps/seed"`` -> :func:`_pinned` over the step-budgeted matrix."""
    return {
        f"{steps}/{seed}": _pinned(
            classify(
                random_dependency_set(seed, n_deps=3, egd_fraction=0.3),
                budget_steps=steps,
                short_circuit=short_circuit,
            )
        )
        for steps in PINNED_STEPS
        for seed in PINNED_SEEDS
    }


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


class TestStepBudgetedRunsArePinned:
    """A step budget counts work, not time, so a step-budgeted classify
    is reproducible.  (Without a budget, shared vs isolated is pinned by
    :class:`TestBackendsAgree`; with one, the shared context's hits save
    steps, so the two backends legitimately spend differently.)"""

    def test_identical_across_hash_seeds(self):
        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, __file__], capture_output=True, text=True,
                env=env, timeout=600, check=True,
            )
            outputs.append(json.loads(proc.stdout))
        in_process = json.loads(json.dumps(_pinned_matrix()))
        assert outputs[0] == outputs[1] == in_process

    def test_short_circuit_does_not_move_what_runs(self):
        full = _pinned_matrix()
        exhausted = [v for runs in full.values() for v in runs.values() if v[2]]
        assert len(exhausted) > 100  # the budgets really bite
        spared = _pinned_matrix(short_circuit=True)
        compared = 0
        for key, runs in spared.items():
            for name, outcome in runs.items():
                assert outcome == full[key][name], (key, name)
                compared += 1
        assert compared >= len(PINNED_STEPS) * len(PINNED_SEEDS)


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

    def test_second_request_is_a_hit_and_builds_once(self):
        sigma = random_dependency_set(5, n_deps=3)
        ctx = AnalysisContext(sigma)
        builds = []
        original = ctx._get

        def counting_get(key, build, deterministic=None):
            def counted():
                builds.append(key)
                return build()

            return original(key, counted, deterministic)

        ctx._get = counting_get
        first = ctx.affected_positions()
        assert ctx.affected_positions() is first
        assert builds == [("affected",)]
        stats = ctx.stats()["artifacts"]
        assert stats["misses"] == 1 and stats["hits"] == 1


class TestDecisionCache:
    def test_second_decide_is_a_hit_and_probes_once(self):
        cache = DecisionCache()
        calls = []

        def compute():
            calls.append(1)
            return ("decision", True)

        results = [cache.decide(("edge",), compute) for _ in range(4)]
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


if __name__ == "__main__":
    print(json.dumps(_pinned_matrix(), sort_keys=True))
