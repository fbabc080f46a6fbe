"""Corpus generator tests: determinism, class structure, character truth."""

from repro.chase import ChaseStatus, run_chase
from repro.core import is_semi_acyclic
from repro.generators import (
    TABLE2A_CLASSES,
    corpus_by_class,
    generate_corpus,
    random_dependency_set,
    resolve_scale,
    seed_database,
    sparse_database,
)
from repro.model import to_text


class TestCorpusStructure:
    def test_class_counts_match_table2a(self):
        corpus = generate_corpus(scale=0.03)
        groups = corpus_by_class(corpus)
        for cls in TABLE2A_CLASSES:
            assert len(groups[cls["name"]]) == cls["tests"], cls["name"]
        assert len(corpus) == 178

    def test_deterministic(self):
        c1 = generate_corpus(scale=0.03)
        c2 = generate_corpus(scale=0.03)
        assert [to_text(o.sigma) for o in c1[:20]] == [
            to_text(o.sigma) for o in c2[:20]
        ]

    def test_every_ontology_has_existential_and_egd_or_small(self):
        corpus = generate_corpus(scale=0.03)
        for o in corpus[:50]:
            assert len(o.sigma) >= 3
            assert o.sigma.existential or o.character == "mirror"

    def test_max_size_cap(self):
        corpus = generate_corpus(scale=0.06, max_size=40)
        assert all(len(o.sigma) <= 45 for o in corpus)

    def test_scale_resolution(self):
        assert resolve_scale("paper") == 1.0
        assert resolve_scale(0.5) == 0.5
        import pytest

        with pytest.raises(ValueError):
            resolve_scale(3.0)

    def test_tests_scale_must_be_finite_and_positive(self):
        import pytest

        for bad in (-1, 0, 0.0, float("nan"), float("inf"), "abc"):
            with pytest.raises(ValueError):
                generate_corpus(scale=0.03, tests_scale=bad)
        # A tiny positive scale still draws one program per class.
        corpus = generate_corpus(scale=0.03, tests_scale=1e-9)
        assert len(corpus) == len(TABLE2A_CLASSES)


class TestCharacterGroundTruth:
    """The cycle motifs must actually produce their termination character
    (spot-checked on the first instance of each character)."""

    def _first(self, corpus, character):
        for o in corpus:
            if o.character == character:
                return o
        return None

    def setup_method(self):
        self.corpus = generate_corpus(scale=0.03, tests_scale=0.4)

    def test_acyclic_terminates_and_recognised(self):
        o = self._first(self.corpus, "acyclic")
        assert o is not None
        run = run_chase(seed_database(o.sigma), o.sigma, strategy="full_first",
                        max_steps=2_000)
        assert run.terminated
        assert is_semi_acyclic(o.sigma)

    def test_unguarded_diverges_and_rejected(self):
        o = self._first(self.corpus, "unguarded")
        assert o is not None
        run = run_chase(seed_database(o.sigma), o.sigma, strategy="full_first",
                        max_steps=800)
        assert run.status is ChaseStatus.EXCEEDED
        assert not is_semi_acyclic(o.sigma)

    def test_egd_rescued_terminates_and_recognised(self):
        o = self._first(self.corpus, "egd_rescued")
        assert o is not None
        run = run_chase(seed_database(o.sigma), o.sigma, strategy="full_first",
                        max_steps=2_000)
        assert run.terminated
        assert is_semi_acyclic(o.sigma)


class TestDatabases:
    def test_seed_database_covers_predicates(self):
        sigma = random_dependency_set(3, n_deps=5)
        db = seed_database(sigma)
        assert db.predicates() == set(sigma.predicates())
        assert db.is_database

    def test_sparse_database_nonempty(self):
        sigma = random_dependency_set(3, n_deps=5)
        db = sparse_database(sigma)
        assert len(db) >= 1
        assert db.predicates() <= set(sigma.predicates())


class TestRandomDeps:
    def test_reproducible(self):
        assert to_text(random_dependency_set(9)) == to_text(random_dependency_set(9))

    def test_requested_count_best_effort(self):
        sigma = random_dependency_set(5, n_deps=6)
        assert 1 <= len(sigma) <= 6

    def test_valid_dependencies(self):
        for seed in range(20):
            sigma = random_dependency_set(seed)
            sigma.predicates()  # arity consistency check
