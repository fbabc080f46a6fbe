"""The ``≺`` memo keyed by pair shape (``FiringOracle.precedes``).

An oracle decides ``r1 ≺ r2`` once per :func:`pair_shape` — the pair up
to an injective renaming of predicates — and answers every other pair of
that shape from the same decision.  These tests check, on the adorned
sets LS stratifies, on the Table 1 witnesses and on random programs,
that every memoised edge equals a fresh per-pair decision; that an
oracle builds one witness engine per distinct shape; and that the shape
keeps each part of a dependency the decision depends on.
"""

from __future__ import annotations

import pytest

from repro.core.adornment import ac_rewriting
from repro.data.witnesses import witness_cases
from repro.firing import relations
from repro.firing.graphs import _candidate_pairs, chase_graph
from repro.firing.relations import DecisionCache, FiringOracle, pair_shape
from repro.firing.witness import WitnessEngine, decide_precedes
from repro.generators.corpus import generate_corpus
from repro.generators.random_deps import random_dependency_set
from repro.model import DependencySet, parse_dependencies
from repro.simulation.substitution_free import substitution_free_simulation

CLASSIFY_CORPUS = {
    "seed": 20160396, "scale": 0.06, "tests_scale": 0.05, "max_size": 30,
}
CLASSIFY_PROGRAMS = (
    "E1-10/G1-10#1",
    "E1-10/G1-10#2",
    "E1-10/G11-100#1",
    "E11-100/G1-10#1",
    "E101-1000/G1-10#3",
)


def adorned_set(sigma: DependencySet) -> DependencySet:
    """Σα as LS c-stratifies it: the AC rewriting without its bridges."""
    simulated = substitution_free_simulation(sigma) if sigma.egds else sigma
    rewriting = ac_rewriting(simulated)
    return DependencySet(r.dep for r in rewriting.records if not r.is_bridge)


@pytest.fixture(scope="module")
def classify_adorned() -> dict[str, DependencySet]:
    corpus = {o.name: o for o in generate_corpus(**CLASSIFY_CORPUS)}
    return {name: adorned_set(corpus[name].sigma) for name in CLASSIFY_PROGRAMS}


def assert_memo_matches_per_pair(sigma: DependencySet, variant: str) -> int:
    """Every memoised edge equals a fresh per-pair decision; returns the
    number of pairs answered from a shape twin."""
    oracle = FiringOracle(sigma, step_variant=variant)
    pairs = _candidate_pairs(sigma, oracle)
    for r1, r2 in pairs:
        want = decide_precedes(r1, r2, variant, oracle.budget)
        assert oracle.precedes(r1, r2) == want.edge, (str(r1), str(r2))
    return len(pairs) - len(oracle._precedes_cache)


class TestMemoEqualsPerPairDecision:
    def test_adorned_sets_of_the_classify_programs(self, classify_adorned):
        twins = 0
        for sigma in classify_adorned.values():
            twins += assert_memo_matches_per_pair(sigma, "oblivious")
        # Σα is where shape twins come from: one source dependency is
        # adorned many ways.
        assert twins > 0

    @pytest.mark.parametrize("variant", ["standard", "oblivious"])
    def test_table1_witnesses(self, variant):
        for case in witness_cases():
            assert_memo_matches_per_pair(case.sigma, variant)
            assert_memo_matches_per_pair(adorned_set(case.sigma), variant)

    def test_random_programs(self):
        for seed in range(40):
            sigma = random_dependency_set(seed, n_deps=5, n_predicates=3)
            assert_memo_matches_per_pair(sigma, "standard")


def test_one_engine_per_distinct_shape(classify_adorned, monkeypatch):
    built = []
    original = WitnessEngine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[:2])
        original(self, *args, **kwargs)

    monkeypatch.setattr(WitnessEngine, "__init__", counting_init)
    for sigma in classify_adorned.values():
        built.clear()
        oracle = FiringOracle(sigma, step_variant="oblivious")
        pairs = _candidate_pairs(sigma, oracle)
        chase_graph(sigma, oracle)
        shapes = {pair_shape(r1, r2) for r1, r2 in pairs}
        assert len(built) == len(shapes)
        assert {pair_shape(r1, r2) for r1, r2 in built} == shapes


def test_shared_cache_counts_shape_hits(classify_adorned):
    sigma = classify_adorned["E101-1000/G1-10#3"]
    pairs = _candidate_pairs(sigma, FiringOracle(sigma))
    cache = DecisionCache()
    chase_graph(
        sigma, FiringOracle(sigma, step_variant="oblivious", decisions=cache)
    )
    stats = cache.stats()
    shapes = {pair_shape(r1, r2) for r1, r2 in pairs}
    # The first pair of each shape reaches the shared cache; the rest are
    # shape hits.
    assert stats["misses"] == len(shapes) == len(cache)
    assert stats["shape_hits"] == len(pairs) - len(shapes) > 0
    assert stats["prefiltered"] == len(sigma) ** 2 - len(pairs)


class TestShapeKeepsWhatTheDecisionReads:
    def _shape(self, text: str) -> tuple:
        r1, r2 = parse_dependencies(text)
        return pair_shape(r1, r2)

    def test_predicate_renaming_is_invisible(self):
        a = self._shape("A(x) -> B(x, y)\nB(x, y) -> C(y)")
        b = self._shape("P(x) -> Q(x, y)\nQ(x, y) -> R(y)")
        assert a == b

    def test_labels_are_invisible(self):
        a = self._shape("r1: A(x) -> B(x)\nr2: B(x) -> C(x)")
        b = self._shape("s1: A(x) -> B(x)\ns2: B(x) -> C(x)")
        assert a == b

    def test_renaming_must_be_injective(self):
        a = self._shape("A(x) -> B(x)\nB(x) -> C(x)")
        b = self._shape("A(x) -> B(x)\nB(x) -> A(x)")
        assert a != b

    def test_variables_are_kept(self):
        a = self._shape("A(x) -> B(x)\nB(x) -> C(x)")
        b = self._shape("A(x) -> B(x)\nB(z) -> C(z)")
        assert a != b

    def test_constants_are_kept(self):
        a = self._shape('A(x) -> B(x, "c")\nB(x, "c") -> C(x)')
        b = self._shape('A(x) -> B(x, "c")\nB(x, "d") -> C(x)')
        assert a != b

    def test_existential_order_is_kept(self):
        r2 = parse_dependencies("B(u, v) -> C(u)")[0]
        a = parse_dependencies("A(x) -> exists y, z. B(y, z)")[0]
        b = parse_dependencies("A(x) -> exists z, y. B(y, z)")[0]
        assert a == b  # Dependency.__eq__ ignores the order ...
        assert a.existential != b.existential
        assert pair_shape(a, r2) != pair_shape(b, r2)  # ... the shape does not

    def test_egd_sides_are_kept(self):
        a = self._shape("E(x, y) -> x = y\nE(x, y) -> C(x)")
        b = self._shape("E(x, y) -> y = x\nE(x, y) -> C(x)")
        assert a != b

    def test_dependency_kind_is_kept(self):
        a = self._shape("A(x, y) -> x = y\nA(x, y) -> C(x)")
        b = self._shape("A(x, y) -> A(x, x)\nA(x, y) -> C(x)")
        assert a != b

    def test_pairs_differing_in_a_constant_get_their_own_decision(self):
        # Same shape but for the constant: r1 ≺ r2 holds, r1 ≺ r3 cannot
        # (r1 only produces B-facts carrying "c").  A memo that ignored
        # constants would answer r1 ≺ r3 from r1 ≺ r2.
        sigma = parse_dependencies(
            'r1: A(x) -> B(x, "c")\n'
            'r2: B(x, "c") -> C(x)\n'
            'r3: B(x, "d") -> C(x)\n'
        )
        r1, r2, r3 = sigma
        oracle = FiringOracle(sigma)
        assert oracle.precedes(r1, r2)
        assert not oracle.precedes(r1, r3)
        assert not decide_precedes(r1, r3).edge

    def test_twin_pair_answered_without_an_engine(self, monkeypatch):
        sigma = parse_dependencies(
            "r1: A(x) -> B(x)\nr2: B(x) -> C(x)\n"
            "r3: P(x) -> Q(x)\nr4: Q(x) -> R(x)\n"
        )
        r1, r2, r3, r4 = sigma
        oracle = FiringOracle(sigma)
        assert oracle.precedes(r1, r2)
        monkeypatch.setattr(relations, "WitnessEngine", None)
        assert oracle.precedes(r3, r4)
