"""Chase sequence explorer tests (bounded exhaustive nondeterminism)."""

from repro.chase import ExplorationVerdict, canonical_key, explore_chase
from repro.model import Atom, Constant, Instance, Null, parse_dependencies, parse_facts

a, b = Constant("a"), Constant("b")


class TestCanonicalKey:
    def test_isomorphic_instances_same_key(self):
        i1 = Instance([Atom("E", (a, Null(1))), Atom("E", (Null(1), Null(2)))])
        i2 = Instance([Atom("E", (a, Null(7))), Atom("E", (Null(7), Null(5)))])
        assert canonical_key(i1) == canonical_key(i2)

    def test_non_isomorphic_distinct(self):
        i1 = Instance([Atom("E", (a, Null(1)))])
        i2 = Instance([Atom("E", (Null(1), a))])
        assert canonical_key(i1) != canonical_key(i2)

    def test_ground_instances(self):
        i1 = parse_facts('E("a","b")')
        i2 = parse_facts('E("a","b")')
        assert canonical_key(i1) == canonical_key(i2)

    def test_many_nulls_fallback(self):
        # Past the permutation cap the greedy relabeling still produces a
        # deterministic key.
        facts = [Atom("E", (Null(i), Null(i + 1))) for i in range(1, 10)]
        assert canonical_key(Instance(facts)) == canonical_key(Instance(facts))


class TestExploration:
    def test_sigma1_some_terminating(self):
        sigma = parse_dependencies(
            """
            r1: N(x) -> exists y. E(x, y)
            r2: E(x, y) -> N(y)
            r3: E(x, y) -> x = y
            """
        )
        db = parse_facts('N("a")')
        result = explore_chase(db, sigma, max_depth=8, max_states=5_000)
        assert result.verdict is ExplorationVerdict.SOME_TERMINATING
        assert result.terminating_paths >= 1
        assert result.capped_paths >= 1  # the r1/r2 alternation

    def test_all_terminating(self):
        sigma = parse_dependencies("r: A(x) -> B(x)")
        db = parse_facts('A("a")')
        result = explore_chase(db, sigma, max_depth=5)
        assert result.verdict is ExplorationVerdict.ALL_TERMINATING

    def test_none_found(self):
        # Σ10: no terminating standard sequence exists (Example 10).
        sigma = parse_dependencies(
            """
            r1: N(x) -> exists y, z. E(x, y, z)
            r2: E(x, y, y) -> N(y)
            r3: E(x, y, z) -> y = z
            """
        )
        db = parse_facts('N("a")')
        result = explore_chase(db, sigma, max_depth=9, max_states=8_000)
        assert result.verdict is ExplorationVerdict.NONE_FOUND
        assert result.terminating_paths == 0

    def test_failing_paths_count_as_terminating(self):
        sigma = parse_dependencies("r: E(x, y) -> x = y")
        db = parse_facts('E("a", "b")')
        result = explore_chase(db, sigma, max_depth=3)
        assert result.failing_paths == 1
        assert result.some_terminating

    def test_oblivious_exploration(self):
        # Σ6 under the oblivious chase has no terminating sequence.
        sigma = parse_dependencies("r: E(x, y) -> exists z. E(x, z)")
        db = parse_facts('E("a", "b")')
        result = explore_chase(
            db, sigma, variant="oblivious", max_depth=6, max_states=2_000
        )
        assert result.terminating_paths == 0

    def test_semi_oblivious_exploration(self):
        sigma = parse_dependencies("r: E(x, y) -> exists z. E(x, z)")
        db = parse_facts('E("a", "b")')
        result = explore_chase(
            db, sigma, variant="semi_oblivious", max_depth=6, max_states=2_000
        )
        assert result.verdict is ExplorationVerdict.ALL_TERMINATING


class TestCanonicalKeyColourRefinement:
    """The colour-refined canonical key (DESIGN.md §5 / ISSUE 4 satellite):
    isomorphic states beyond the old 6-null permutation cap must merge."""

    @staticmethod
    def _cycle(labels):
        """E-facts forming a directed cycle over ``Null(l)`` for l in labels."""
        return [
            Atom("E", (Null(labels[i]), Null(labels[(i + 1) % len(labels)])))
            for i in range(len(labels))
        ]

    @staticmethod
    def _legacy_greedy_key(facts_in_order):
        """The seed's >cap fallback: facts sorted by null-blind shape (a
        tie for every fact here — the explicit input order stands in for
        the set-iteration order the seed depended on), nulls relabeled by
        first occurrence."""
        relabel = {}
        for f in facts_in_order:
            for t in f.args:
                if isinstance(t, Null) and t not in relabel:
                    relabel[t] = len(relabel)
        key = []
        for f in facts_in_order:
            key.append(
                (f.predicate,)
                + tuple(
                    ("η", relabel[t]) if isinstance(t, Null) else ("c", str(t))
                    for t in f.args
                )
            )
        return tuple(sorted(key))

    def test_legacy_fallback_is_order_sensitive(self):
        # Eight nulls — past the old PERMUTATION_CAP — in a single cycle.
        # Walking the cycle vs interleaving opposite edges are two
        # set-iteration orders of the *same* instance, yet the legacy
        # first-occurrence relabeling keys them differently: the very
        # failure mode that made isomorphic states fail to merge.
        facts = self._cycle([1, 2, 3, 4, 5, 6, 7, 8])
        walk = facts
        interleaved = [facts[0], facts[4], facts[1], facts[5], facts[2], facts[6], facts[3], facts[7]]
        assert self._legacy_greedy_key(walk) != self._legacy_greedy_key(interleaved)

    def test_isomorphic_eight_null_states_merge(self):
        # The same 8-cycle under a scrambled null labelling: the legacy
        # relabeling (above) could key these apart; the colour-refined
        # canonical key must not.
        i1 = Instance(self._cycle([1, 2, 3, 4, 5, 6, 7, 8]))
        i2 = Instance(self._cycle([31, 17, 25, 12, 40, 23, 9, 38]))
        assert canonical_key(i1) == canonical_key(i2)

    def test_isomorphic_states_with_anchors_merge(self):
        # An asymmetric 9-null structure (anchored chain + spokes): colour
        # refinement separates every null, so the key is exact with a
        # single relabeling.
        def build(perm):
            n = [None] + [Null(p) for p in perm]
            facts = [Atom("S", (a, n[1]))]
            facts += [Atom("E", (n[i], n[i + 1])) for i in range(1, 9)]
            facts += [Atom("M", (n[3],)), Atom("M", (n[7],))]
            return Instance(facts)

        i1 = build(range(1, 10))
        i2 = build([14, 3, 77, 20, 5, 61, 8, 42, 19])
        assert canonical_key(i1) == canonical_key(i2)

    def test_wl_hard_pair_stays_distinct(self):
        # C8 vs C4 ⊎ C4: colour refinement alone cannot tell these apart
        # (the classic 1-WL-hard pair) — soundness must come from the key
        # being the *whole* relabeled fact set, not the colours.
        c8 = Instance(self._cycle([1, 2, 3, 4, 5, 6, 7, 8]))
        c44 = Instance(self._cycle([1, 2, 3, 4]) + self._cycle([5, 6, 7, 8]))
        assert canonical_key(c8) != canonical_key(c44)


class TestSnapshotBackendDifferential:
    """Savepoint-backed DFS vs copy-backed DFS: byte-identical results."""

    def _assert_identical(self, db, sigma, variant, **kw):
        before = db.facts()
        r_sp = explore_chase(db, sigma, variant=variant, snapshots="savepoint", **kw)
        r_cp = explore_chase(db, sigma, variant=variant, snapshots="copy", **kw)
        assert r_sp == r_cp
        assert db.facts() == before  # neither backend mutates the input
        return r_sp

    def test_differential_on_witness_cases(self):
        from repro.data.witnesses import witness_cases

        for case in witness_cases():
            for variant in ("standard", "oblivious", "semi_oblivious"):
                self._assert_identical(
                    case.database, case.sigma, variant,
                    max_depth=6, max_states=400,
                )

    def test_differential_on_random_programs(self):
        from repro.generators.random_deps import random_dependency_set
        from repro.generators.databases import seed_database

        for seed in range(12):
            sigma = random_dependency_set(seed)
            db = seed_database(sigma)
            for variant in ("standard", "oblivious", "semi_oblivious"):
                self._assert_identical(
                    db, sigma, variant, max_depth=4, max_states=250,
                )

    def test_unknown_backend_rejected(self):
        import pytest

        sigma = parse_dependencies("r: A(x) -> B(x)")
        with pytest.raises(ValueError):
            explore_chase(parse_facts('A("a")'), sigma, snapshots="fork")


DEEP = "r1: N(x) -> exists y. E(x, y)\nr2: E(x, y) -> N(y)"


def _grown(db, copies):
    """The database pattern replicated over fresh constants."""
    return Instance(
        Atom(f.predicate, tuple(Constant(f"{t.value}@{k}") for t in f.args))
        for k in range(copies)
        for f in db
    )


class _Replay:
    """Test-only reference around the explorer's lazy memo: records, per
    visited state, the memo's decision, the decision an eager set of
    ``canonical_key``s makes, how many states already sat in the state's
    bucket, and how often the canonicaliser ran."""

    def __init__(self, monkeypatch):
        from repro.chase import explorer

        self.lazy, self.eager, self.occupancy, self.calls = [], [], [], []
        keys, buckets = set(), {}
        real_memo_key, real_null_part = explorer._memo_key, explorer._null_part
        count = [0]

        def counting_null_part(null_facts):
            count[0] += 1
            return real_null_part(null_facts)

        def reference(instance, memo):
            signature = explorer._memo_parts(instance)[0]
            before = count[0]
            hit = real_memo_key(instance, memo)
            self.calls.append(count[0] - before)
            self.occupancy.append(buckets.get(signature, 0))
            buckets[signature] = buckets.get(signature, 0) + 1
            key = canonical_key(instance)
            self.lazy.append(hit)
            self.eager.append(key in keys)
            keys.add(key)
            return hit

        monkeypatch.setattr(explorer, "_null_part", counting_null_part)
        monkeypatch.setattr(explorer, "_memo_key", reference)


class TestLazyMemo:
    """The bucketed memo decides exactly like an eager set of canonical
    keys, and canonises only states whose bucket was already occupied."""

    def _equivalent(self, monkeypatch, db, sigma, **kw):
        from repro.matching import using_backend

        for backend in ("columnar", "indexed"):  # lid rows / Atom rows
            with monkeypatch.context() as m, using_backend(backend):
                replay = _Replay(m)
                explore_chase(db, sigma, **kw)
            assert replay.lazy == replay.eager
        return replay

    def test_equivalent_on_witness_cases(self, monkeypatch):
        from repro.data.witnesses import witness_cases

        hits = 0
        for case in witness_cases():
            for variant in ("standard", "oblivious", "semi_oblivious"):
                replay = self._equivalent(
                    monkeypatch, case.database, case.sigma,
                    variant=variant, max_depth=7, max_states=600,
                )
                hits += sum(replay.lazy)
        assert hits > 0  # the memo actually merged states

    def test_equivalent_on_random_programs(self, monkeypatch):
        from repro.generators.databases import seed_database
        from repro.generators.random_deps import random_dependency_set

        for seed in range(25):
            sigma = random_dependency_set(seed)
            self._equivalent(
                monkeypatch, seed_database(sigma), sigma,
                max_depth=5, max_states=300,
            )

    def test_deep_chain_never_canonises(self, monkeypatch):
        from repro.chase import explorer

        # One chase path: every state opens its own bucket.
        calls = []
        monkeypatch.setattr(explorer, "_null_part", lambda facts: calls.append(1))
        result = explore_chase(
            parse_facts('N("a")'), parse_dependencies(DEEP),
            max_depth=1000, max_states=300,
        )
        assert result.explored_states == 300
        assert not calls

    def test_grown_sigma1_canonises_only_on_collisions(self, monkeypatch):
        from repro.data.witnesses import witness_cases

        case = next(c for c in witness_cases() if c.name == "sigma_1")
        replay = _Replay(monkeypatch)
        explore_chase(
            _grown(case.database, 20), case.sigma, max_depth=4, max_states=200
        )
        # An empty bucket costs nothing; the first collision canonises the
        # pending state and the newcomer; later ones only the newcomer.
        expected = [0 if n == 0 else 2 if n == 1 else 1 for n in replay.occupancy]
        assert replay.calls == expected
        assert 0 < sum(replay.calls) < len(replay.calls)

    def test_wl_hard_pair_shares_a_bucket_but_stays_distinct(self, monkeypatch):
        from repro.chase import explorer

        cycle = TestCanonicalKeyColourRefinement._cycle
        c8 = Instance(cycle([1, 2, 3, 4, 5, 6, 7, 8]))
        c44 = Instance(cycle([1, 2, 3, 4]) + cycle([5, 6, 7, 8]))
        c8_renamed = Instance(cycle([31, 17, 25, 12, 40, 23, 9, 38]))
        assert explorer._memo_parts(c8)[0] == explorer._memo_parts(c44)[0]

        calls = []
        real = explorer._null_part
        monkeypatch.setattr(
            explorer, "_null_part", lambda facts: calls.append(1) or real(facts)
        )
        memo: dict = {}
        assert explorer._memo_key(c8, memo) is False and not calls
        assert explorer._memo_key(c44, memo) is False and len(calls) == 2
        assert explorer._memo_key(c8_renamed, memo) is True and len(calls) == 3


class TestIterativeDFS:
    def test_deep_program_past_the_recursion_limit(self):
        import sys

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # CPython's default
        try:
            result = explore_chase(
                parse_facts('N("a")'), parse_dependencies(DEEP),
                max_depth=3000, max_states=2500,
            )
        finally:
            sys.setrecursionlimit(limit)
        assert result.verdict is ExplorationVerdict.EXHAUSTED
        assert result.explored_states == 2500

    def test_cli_deep_explore_exits_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        p = tmp_path / "deep.deps"
        p.write_text(DEEP + "\n")
        code = main([
            "explore", str(p), "--data", 'N("a")',
            "--max-depth", "3000", "--max-states", "2500",
        ])
        assert code == 1
        assert "states explored:    2500" in capsys.readouterr().out


# -- renaming invariance of the bucket signature and the canonical key --------

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_SHAPES = (("E", 2), ("N", 1), ("R", 3))

#: Terms are constants a/b or nulls 1..6: at most 6! colour-preserving
#: relabelings, so the canonical key stays in its exact regime (beyond
#: ``CLASS_PERMUTATION_CAP`` it is deterministic but label-dependent).
_terms = st.one_of(st.sampled_from([a, b]), st.integers(1, 6).map(Null))
_facts = st.sampled_from(_SHAPES).flatmap(
    lambda shape: st.tuples(*[_terms] * shape[1]).map(
        lambda args: Atom(shape[0], args)
    )
)
_states = st.lists(_facts, min_size=1, max_size=10)


def _renamed(facts, labels):
    relabel = {Null(i): Null(label) for i, label in zip(range(1, 7), labels)}
    return [Atom(f.predicate, tuple(relabel.get(t, t) for t in f.args)) for f in facts]


_renamings = st.permutations(range(101, 107)) | st.permutations([9, 40, 2, 77, 5, 13])


class TestRenamingInvariance:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_states, _renamings)
    def test_signature_and_key_survive_null_renaming(self, facts, labels):
        from repro.chase import explorer
        from repro.model.columnar import ColumnarInstance

        renamed = _renamed(facts, labels)
        i1, i2 = Instance(facts), Instance(renamed)
        assert explorer._memo_parts(i1)[0] == explorer._memo_parts(i2)[0]
        assert canonical_key(i1) == canonical_key(i2)
        # Lid-row signatures compare within one fork family.
        root = ColumnarInstance()
        c1, c2 = root.copy(), root.copy()
        c1.add_all(facts)
        c2.add_all(renamed)
        assert explorer._memo_parts(c1)[0] == explorer._memo_parts(c2)[0]
        memo: dict = {}
        assert explorer._memo_key(c1, memo) is False
        assert explorer._memo_key(c2, memo) is True

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_states)
    # A chain off a constant: seed profiles tie the inner nulls, and only
    # refinement rounds separate them by their distance from the anchor.
    @example([Atom("E", (a, Null(1)))] + [
        Atom("E", (Null(i), Null(i + 1))) for i in range(1, 5)
    ])
    def test_rank_refinement_matches_hashed_refinement(self, facts):
        """Int ranks split the nulls exactly like the hashed 1-WL loop
        (``batch.fingerprint.colour_refine``) the explorer used before."""
        from repro.batch.fingerprint import colour_refine, stable_hash
        from repro.chase import explorer

        instance = Instance(facts)
        nulls = instance.nulls()
        initial = {
            n: stable_hash(["init", sorted(
                [f.predicate, len(f.args), [i for i, t in enumerate(f.args) if t is n]]
                for f in instance.with_term(n)
            )])
            for n in nulls
        }

        def contexts(colours):
            return {
                n: sorted(
                    [f.predicate] + [
                        ["s"] if t is n
                        else ["n", colours[t]] if isinstance(t, Null)
                        else ["c", str(t)]
                        for t in f.args
                    ]
                    for f in instance.with_term(n)
                )
                for n in colours
            }

        def partition(colours):
            classes = {}
            for n, c in colours.items():
                classes.setdefault(c, set()).add(n)
            return sorted(sorted(x.label for x in cls) for cls in classes.values())

        null_facts = [f for f in facts if f.nulls()]
        assert partition(explorer._null_colours(null_facts)) == partition(
            colour_refine(initial, contexts)
        )
