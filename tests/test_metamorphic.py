"""Metamorphic properties: verdicts and fingerprints are invariant under
predicate/variable renaming and dependency reordering.

This is the soundness argument of the batch engine's content-addressed
cache (DESIGN.md §4) split into its two halves:

* the canonical fingerprint does not distinguish a program from its
  isomorphs — so a renamed/reordered twin *hits* the cache;
* no criterion distinguishes them either — so the verdict it is served
  is the verdict it would have computed.

Both halves run over seeded random programs: the fingerprint half over
hundreds (it is pure hashing, microseconds each), the verdict half over a
broad sweep of the cheap static criteria plus a budgeted sample of the
expensive semantic ones (where a bug would matter most — these are the
verdicts worth caching).
"""

from __future__ import annotations

import random

import pytest

from repro.batch import canonical_fingerprint
from repro.criteria import get_criterion
from repro.generators import (
    generate_corpus,
    random_dependency_set,
    random_isomorph,
    rename_predicates,
    rename_variables,
    reorder_dependencies,
)
from repro.model import parse_dependencies

#: The metamorphic population: enough seeds that structural corner cases
#: (EGD-only sets, single-dependency sets, repeated atoms) all occur.
N_PROGRAMS = 250

TRANSFORMS = {
    "rename_predicates": rename_predicates,
    "rename_variables": rename_variables,
    "reorder_dependencies": reorder_dependencies,
}


def programs():
    return [
        (seed, random_dependency_set(seed, n_deps=4, n_predicates=3))
        for seed in range(N_PROGRAMS)
    ]


class TestFingerprintInvariance:
    """Isomorphic programs must collide; the population must not."""

    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    def test_single_transform(self, name):
        rng = random.Random(20160396)
        transform = TRANSFORMS[name]
        for seed, sigma in programs():
            assert canonical_fingerprint(transform(sigma, rng)) == \
                canonical_fingerprint(sigma), f"seed {seed} under {name}"

    def test_composed_transforms(self):
        for seed, sigma in programs():
            twin = random_isomorph(sigma, seed=seed + 1)
            assert canonical_fingerprint(twin) == canonical_fingerprint(sigma)

    def test_population_is_distinguished(self):
        """No two structurally different seeded programs share a key.

        Colour refinement cannot distinguish *every* non-isomorphic pair
        in theory (DESIGN.md §4), but it must distinguish everything this
        generator can produce — a collision here would mean wrong cached
        verdicts in practice, not hypothetically.
        """
        by_fp: dict[str, object] = {}
        duplicates = 0
        for _, sigma in programs():
            fp = canonical_fingerprint(sigma)
            if fp in by_fp:
                # Only acceptable if the programs are literally equal up
                # to labels (the generator does repeat itself).
                assert by_fp[fp] == sigma, "fingerprint collision"
                duplicates += 1
            by_fp[fp] = sigma
        # The generator repeats small programs occasionally; a flood of
        # duplicates would make this test vacuous.
        assert len(by_fp) > N_PROGRAMS * 0.9

    def test_content_changes_key(self):
        sigma = parse_dependencies(
            "r1: N(x) -> exists y. E(x, y)\n"
            "r2: E(x, y) -> N(y)\n"
        )
        grown = parse_dependencies(
            "r1: N(x) -> exists y. E(x, y)\n"
            "r2: E(x, y) -> N(y)\n"
            "r3: E(x, y) -> x = y\n"
        )
        assert canonical_fingerprint(sigma) != canonical_fingerprint(grown)

    def test_labels_are_presentation_not_content(self):
        a = parse_dependencies("r1: N(x) -> exists y. E(x, y)")
        b = parse_dependencies("zz: N(x) -> exists y. E(x, y)")
        assert canonical_fingerprint(a) == canonical_fingerprint(b)

    def test_stable_across_runs(self):
        """Pinned keys: the fingerprint is an on-disk cache key, so it
        must not drift run-to-run or process-to-process.  If this test
        fails after an intentional fingerprint change, bump
        FINGERPRINT_VERSION and re-pin."""
        sigma = parse_dependencies(
            "r1: N(x) -> exists y. E(x, y)\n"
            "r2: E(x, y) -> N(y)\n"
            "r3: E(x, y) -> x = y\n"
        )
        assert canonical_fingerprint(sigma) == "2807ce94cd39e738"


class TestFingerprintIgnoresTermIds:
    """Term interning (``Term.tid``, DESIGN.md §9) is process-local
    machinery: the persisted fingerprint must be a pure function of
    structure, independent of the order in which this process happened
    to allocate term ids."""

    def test_first_occurrence_numbering_not_tid_order(self):
        from repro.model.terms import Variable

        p1 = parse_dependencies("r: P(x1, x2) -> exists z1. Q(x2, z1)")
        # Pre-allocate the twin's variables in *reverse* occurrence
        # order (references held so the weak interner keeps the tids):
        # w3 gets the smallest tid but occurs last, so any leak of tid
        # order into variable numbering would flip the encoding.
        held = [Variable(n) for n in ("w3", "w2", "w1")]
        p2 = parse_dependencies("r: P(w1, w2) -> exists w3. Q(w2, w3)")
        assert canonical_fingerprint(p1) == canonical_fingerprint(p2)
        del held

    def test_fingerprint_survives_tid_counter_churn(self):
        from repro.model.terms import Null

        rng = random.Random(99)
        for seed, sigma in programs()[:50]:
            before = canonical_fingerprint(sigma)
            # Burn a stretch of the global tid counter, then re-take the
            # fingerprint of a renamed twin built from brand-new terms.
            churn = [Null(500_000 + seed * 100 + i) for i in range(60)]
            twin = random_isomorph(sigma, seed=seed + 7)
            assert canonical_fingerprint(twin) == before, f"seed {seed}"
            del churn


class TestVerdictInvariance:
    """Criteria must not distinguish a program from its isomorphs."""

    #: Static criteria: cheap enough for the full population.
    STATIC = ["WA", "SC", "SwA"]
    #: Semantic criteria: witness engine / adornment saturation behind
    #: them, so they run on a budgeted sample.
    SEMANTIC = ["LS", "SAC", "S-Str"]
    SEMANTIC_SEEDS = range(0, 60, 3)

    @pytest.mark.parametrize("name", STATIC)
    def test_static_criteria(self, name):
        criterion = get_criterion(name)
        for seed, sigma in programs():
            twin = random_isomorph(sigma, seed=seed + 7)
            assert criterion.accepts(sigma) == criterion.accepts(twin), (
                f"{name} distinguishes seed {seed} from its isomorph"
            )

    @pytest.mark.parametrize("name", SEMANTIC)
    def test_semantic_criteria(self, name):
        criterion = get_criterion(name)
        for seed in self.SEMANTIC_SEEDS:
            sigma = random_dependency_set(seed, n_deps=4, n_predicates=3)
            twin = random_isomorph(sigma, seed=seed + 7)
            a = criterion.check(sigma)
            b = criterion.check(twin)
            assert a.accepted == b.accepted, (
                f"{name} distinguishes seed {seed} from its isomorph"
            )
            # Exactness must agree too: an approximation triggered by
            # symbol *names* would poison cached records.
            assert a.exact == b.exact, (name, seed)

    def test_adn_exists_ignores_dependency_order(self):
        """Adn∃ on the Table 2 draw the ``table2_batch`` benchmark
        evaluates, in listing order and under six reorderings: the
        verdict, its exactness and the adorned size must agree, because
        the result cache serves one ordering's verdict to all of them.
        Before fresh adornment symbols were fixed to exceed every live
        symbol, ``E101-1000/G1-10#4`` came out acyclic under
        ``random.Random(4)`` only."""
        from repro.core.adornment import adn_exists

        corpus = generate_corpus(
            seed=20160396, scale=0.06, tests_scale=0.1, max_size=20
        )
        assert len(corpus) == 19
        for ont in corpus:
            orderings = [ont.sigma] + [
                reorder_dependencies(ont.sigma, random.Random(seed))
                for seed in range(6)
            ]
            outcomes = set()
            for sigma in orderings:
                result = adn_exists(sigma)
                outcomes.add(
                    (result.acyclic, result.exact, result.stats["size_adorned"])
                )
            assert len(outcomes) == 1, (ont.name, outcomes)

    def test_corpus_ontologies(self):
        """The real workload: corpus ontologies survive the transforms."""
        corpus = generate_corpus(scale=0.03, tests_scale=0.05, max_size=15)
        sac = get_criterion("SAC")
        for ont in corpus:
            twin = random_isomorph(ont.sigma, seed=ont.seed)
            assert canonical_fingerprint(twin) == canonical_fingerprint(ont.sigma)
            assert sac.accepts(ont.sigma) == sac.accepts(twin), ont.name
