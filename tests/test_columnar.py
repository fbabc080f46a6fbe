"""ColumnarInstance contract tests (DESIGN.md §10).

The columnar fact store must honour the full ``Instance`` contract:
value-equality, add/discard/merge_terms, the savepoint/rollback/release
undo log in O(changes), the delta log with both the ``Atom`` boundary
(``added_since``) and the zero-materialisation row-handle surface
(``added_rows_since``/``row_live``).  The randomized sections mirror
every operation on a plain ``Instance`` and compare observable state
after each step — the same differential style the transactional suite
uses for savepoints.

The metamorphic half extends the tid-churn suite: canonical keys stay
tid-free (burning the interned-term counter between builds changes
nothing), and savepoint/rollback round-trips restore columns, bitmap,
index, rowmap *and* tick exactly under counter churn.

The ISSUE 10 sections cover the typed-buffer rebuild (DESIGN.md §11):
copy-on-write forks (children share segments until first write, never
mutate the parent's, survive the parent's rollback), threshold
compaction on fork, random nested-savepoint/fork scripts held against
the list-backed ``Instance`` reference, and the vectorised kernels —
pure-Python vs numpy on random inputs, and the generated vector branch
vs the inline scalar loop through the same compiled plans.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.chase import canonical_key
from repro.model import Atom, ColumnarInstance, Constant, Instance, Null
from repro.model import kernels

a, b, c = Constant("a"), Constant("b"), Constant("c")


def sample_facts():
    return [
        Atom("E", (a, b)),
        Atom("E", (b, Null(901))),
        Atom("E", (Null(901), Null(902))),
        Atom("G", (a,)),
        Atom("T", (a, b, c)),
    ]


def random_fact(rng, pool):
    pred, ar = rng.choice([("E", 2), ("G", 1), ("T", 3)])
    return Atom(pred, tuple(rng.choice(pool) for _ in range(ar)))


class TestBasicContract:
    def test_construction_and_queries(self):
        facts = sample_facts()
        col = ColumnarInstance(facts)
        ref = Instance(facts)
        assert len(col) == len(ref)
        assert set(col) == set(ref)
        assert col.facts() == ref.facts()
        assert col.frozen() == ref.frozen()
        for f in facts:
            assert f in col
        assert Atom("E", (b, a)) not in col
        assert col.predicates() == ref.predicates()
        assert col.domain() == ref.domain()
        assert col.nulls() == ref.nulls()
        assert col.constants() == ref.constants()
        assert col.is_database == ref.is_database
        assert col.with_predicate("E") == ref.with_predicate("E")
        assert col.with_predicate("missing") == frozenset()
        assert col.with_term(Null(901)) == ref.with_term(Null(901))
        assert col.with_term(a) == ref.with_term(a)

    def test_add_discard_return_values(self):
        col = ColumnarInstance()
        f = Atom("E", (a, b))
        assert col.add(f) is True
        assert col.add(f) is False
        assert col.discard(f) is True
        assert col.discard(f) is False
        assert len(col) == 0
        assert col.add(f) is True  # re-add after discard gets a fresh row
        assert f in col

    def test_add_rejects_non_facts(self):
        from repro.model import Variable

        with pytest.raises(ValueError):
            ColumnarInstance().add(Atom("E", (a, Variable("x"))))

    def test_equality_across_representations(self):
        facts = sample_facts()
        col = ColumnarInstance(facts)
        ref = Instance(facts)
        assert col == ColumnarInstance(facts)
        assert col == ref
        assert ref == col  # reflected through NotImplemented
        assert col == set(facts)
        assert col == frozenset(facts)
        col2 = ColumnarInstance(facts)
        col2.discard(facts[0])
        assert col != col2
        assert col != "not an instance"

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(ColumnarInstance())

    def test_copy_is_independent(self):
        col = ColumnarInstance(sample_facts())
        dup = col.copy()
        assert dup == col
        assert dup.tick == 0  # the copy's delta log starts empty
        dup.add(Atom("G", (b,)))
        col.discard(Atom("G", (a,)))
        assert Atom("G", (b,)) not in col
        assert Atom("G", (a,)) in dup

    def test_apply_and_null_free_part(self):
        facts = sample_facts()
        col = ColumnarInstance(facts)
        ref = Instance(facts)
        mapping = {Null(901): a, Null(902): Null(903)}
        assert col.apply(mapping) == ref.apply(mapping)
        assert isinstance(col.apply(mapping), ColumnarInstance)
        assert col.null_free_part() == ref.null_free_part()
        assert isinstance(col.null_free_part(), ColumnarInstance)

    def test_merge_terms_differential(self):
        for seed in range(40):
            rng = random.Random(seed)
            pool = [a, b, c, Null(910), Null(911), Null(912)]
            facts = [random_fact(rng, pool) for _ in range(12)]
            col = ColumnarInstance(facts)
            ref = Instance(facts)
            for old in (Null(910), Null(911)):
                new = rng.choice([t for t in pool if t is not old])
                col.merge_terms(old, new)
                ref.merge_terms(old, new)
                assert col == ref, f"seed={seed} {old}->{new}"
                assert col.domain() == ref.domain()

    def test_merge_terms_rejects_constants(self):
        with pytest.raises(TypeError):
            ColumnarInstance([Atom("E", (a, b))]).merge_terms(a, b)


class TestDeltaLog:
    def test_added_since_materialises_log_order(self):
        col = ColumnarInstance()
        facts = sample_facts()
        t0 = col.tick
        for f in facts:
            col.add(f)
        assert list(col.added_since(t0)) == facts
        t1 = col.tick
        col.add(Atom("G", (b,)))
        assert list(col.added_since(t1)) == [Atom("G", (b,))]
        assert list(col.added_since(col.tick)) == []

    def test_row_handles_and_liveness(self):
        col = ColumnarInstance()
        t0 = col.tick
        col.add(Atom("E", (a, b)))
        col.add(Atom("E", (b, c)))
        handles = col.added_rows_since(t0)
        assert len(handles) == 2
        assert all(col.row_live(h) for h in handles)
        col.discard(Atom("E", (a, b)))
        assert not col.row_live(handles[0])
        assert col.row_live(handles[1])
        # The dead row still materialises through the Atom boundary
        # (rolled-over deltas stay readable), matching Instance.
        assert list(col.added_since(t0)) == [Atom("E", (a, b)), Atom("E", (b, c))]

    def test_rows_rewritten_by_merge_reenter_the_log(self):
        n = Null(920)
        col = ColumnarInstance([Atom("E", (a, n)), Atom("E", (n, b))])
        t = col.tick
        col.merge_terms(n, c)
        fresh = [h for h in col.added_rows_since(t) if col.row_live(h)]
        assert len(fresh) == 2
        assert col == Instance([Atom("E", (a, c)), Atom("E", (c, b))])

    def test_compact_log_resets_tick(self):
        col = ColumnarInstance(sample_facts())
        assert col.tick == len(sample_facts())
        col.compact_log()
        assert col.tick == 0
        sp = col.savepoint()
        with pytest.raises(RuntimeError):
            col.compact_log()
        col.release(sp)


def snapshot(col):
    """The full internal state of a columnar instance, deep-copied."""
    return {
        skey: (
            [list(cl) for cl in st.cols],
            dict(st.rowmap),
            [{tid: set(rows) for tid, rows in cell.items()} for cell in st.index],
            bytes(st.live),
            st.nlive,
            st.nrows,
        )
        for skey, st in col._stores.items()
    }, col.tick


class TestSavepoints:
    def test_rollback_restores_exact_state(self):
        col = ColumnarInstance(sample_facts())
        before = snapshot(col)
        sp = col.savepoint()
        col.add(Atom("E", (c, c)))
        col.add(Atom("H", (a, a)))  # creates a store
        col.discard(Atom("G", (a,)))
        col.discard(Atom("E", (a, b)))
        col.add(Atom("E", (a, b)))  # re-add after discard
        col.merge_terms(Null(901), c)
        col.rollback(sp)
        assert snapshot(col) == before
        assert ("H", 2) not in col._stores  # created store removed again

    def test_rollback_differential_random_ops(self):
        for seed in range(30):
            rng = random.Random(seed)
            pool = [a, b, c, Null(930), Null(931)]
            base = [random_fact(rng, pool) for _ in range(10)]
            col = ColumnarInstance(base)
            ref = Instance(base)
            sp_c, sp_r = col.savepoint(), ref.savepoint()
            for _ in range(25):
                op = rng.random()
                f = random_fact(rng, pool)
                if op < 0.55:
                    assert col.add(f) == ref.add(f)
                elif op < 0.9:
                    assert col.discard(f) == ref.discard(f)
                else:
                    live_nulls = sorted(col.nulls(), key=lambda n: n.label)
                    if live_nulls:
                        old = rng.choice(live_nulls)
                        new = rng.choice([t for t in pool if t is not old])
                        col.merge_terms(old, new)
                        ref.merge_terms(old, new)
                assert col == ref, f"seed={seed} mid-transaction"
            col.rollback(sp_c)
            ref.rollback(sp_r)
            assert col == ref, f"seed={seed} after rollback"
            assert col == Instance(base), f"seed={seed}"
            assert col.tick == ref.tick, f"seed={seed}"

    def test_nested_savepoints(self):
        col = ColumnarInstance([Atom("E", (a, b))])
        sp1 = col.savepoint()
        col.add(Atom("E", (b, c)))
        sp2 = col.savepoint()
        col.add(Atom("E", (c, a)))
        col.rollback(sp2)
        assert col == Instance([Atom("E", (a, b)), Atom("E", (b, c))])
        assert col.in_transaction
        col.rollback(sp1)
        assert col == Instance([Atom("E", (a, b))])
        assert not col.in_transaction

    def test_release_keeps_changes(self):
        col = ColumnarInstance([Atom("E", (a, b))])
        sp = col.savepoint()
        col.add(Atom("E", (b, c)))
        col.release(sp)
        assert not col.in_transaction
        assert Atom("E", (b, c)) in col

    def test_rollback_through_inner_savepoint(self):
        col = ColumnarInstance()
        sp1 = col.savepoint()
        col.add(Atom("E", (a, b)))
        col.savepoint()  # inner, never consumed explicitly
        col.add(Atom("E", (b, c)))
        col.rollback(sp1)
        assert len(col) == 0
        assert not col.in_transaction

    def test_stale_savepoint_rejected(self):
        col = ColumnarInstance()
        sp = col.savepoint()
        col.rollback(sp)
        with pytest.raises(ValueError):
            col.rollback(sp)
        with pytest.raises(ValueError):
            col.release(sp)
        other = ColumnarInstance()
        with pytest.raises(ValueError):
            other.rollback(other.savepoint() and sp)


class TestMetamorphicTidChurn:
    """§9/§10: interned term ids never leak into canonical state, and the
    undo log restores the columnar representation exactly no matter how
    far the process-global tid counter has advanced in between."""

    def test_canonical_key_tid_free_on_columnar(self):
        for seed in range(20):
            rng = random.Random(seed)
            pool = [a, b, Null(940 + seed), Null(970 + seed)]
            facts = [random_fact(rng, pool) for _ in range(8)]
            before = canonical_key(ColumnarInstance(facts))
            assert before == canonical_key(Instance(facts))
            # Burn the tid counter, then rebuild with brand-new nulls:
            # the key is a function of structure, not of interned ids.
            churn = [Null(600_000 + seed * 100 + i) for i in range(60)]
            assert churn
            relabel = {
                Null(940 + seed): Null(700_000 + seed),
                Null(970 + seed): Null(800_000 + seed),
            }
            twin = ColumnarInstance(f.apply(relabel) for f in facts)
            assert canonical_key(twin) == before, f"seed={seed}"

    def test_savepoint_roundtrip_exact_under_churn(self):
        for seed in range(10):
            rng = random.Random(seed)
            pool = [a, b, c, Null(950), Null(951)]
            col = ColumnarInstance(random_fact(rng, pool) for _ in range(10))
            before = snapshot(col)
            sp = col.savepoint()
            # Advance the global counter mid-transaction; fresh terms
            # entering and leaving must not disturb restored state.
            fresh = [Null(900_000 + seed * 100 + i) for i in range(40)]
            for n in fresh[:5]:
                col.add(Atom("E", (a, n)))
            col.merge_terms(fresh[0], b)
            for f in [random_fact(rng, pool) for _ in range(6)]:
                col.add(f)
                col.discard(f)
            col.rollback(sp)
            assert snapshot(col) == before, f"seed={seed}"


class TestMemoParts:
    """The explorer memo's raw parts: no Atom is built, and the lid rows
    a state left behind still decode after that state is rolled back."""

    def test_parts_describe_the_fact_set(self):
        for seed in range(20):
            rng = random.Random(seed)
            pool = [a, b, Null(960), Null(961), Null(962)]
            col = ColumnarInstance(random_fact(rng, pool) for _ in range(12))
            ground_key, null_count, null_rows, terms = col.memo_parts()

            def decode(parts):
                return [
                    Atom(skey[0], tuple(terms[lid] for lid in row))
                    for skey, rows in parts
                    for row in rows
                ]

            ground = set(decode(ground_key))
            null_facts = decode(null_rows)
            assert ground == {f for f in col if not f.nulls()}
            assert sorted(map(str, null_facts)) == sorted(
                str(f) for f in col if f.nulls()
            )
            assert null_count == len(col.nulls())

    def test_rows_decode_after_rollback(self):
        col = ColumnarInstance(sample_facts())
        sp = col.savepoint()
        added = [Atom("E", (Null(902), Null(990))), Atom("G", (Null(990),))]
        col.add_all(added)
        _g, null_count, null_rows, terms = col.memo_parts()
        col.rollback(sp)
        col.add(Atom("G", (Null(991),)))  # reuses the rolled-back rows
        decoded = {
            Atom(skey[0], tuple(terms[lid] for lid in row))
            for skey, rows in null_rows
            for row in rows
        }
        assert null_count == 3
        assert decoded == {f for f in sample_facts() + added if f.nulls()}


class TestCowForks:
    """§11: ``copy()`` is a copy-on-write fork — segments are shared
    until a side's first write, and neither side can ever observe the
    other's mutations."""

    def test_child_mutations_never_touch_parent(self):
        facts = sample_facts()
        col = ColumnarInstance(facts)
        before = snapshot(col)
        child = col.copy()
        child.add(Atom("E", (c, c)))
        child.add(Atom("H", (a, a)))
        child.discard(facts[0])
        child.merge_terms(Null(901), c)
        assert snapshot(col) == before
        assert col == Instance(facts)

    def test_parent_mutations_never_touch_child(self):
        facts = sample_facts()
        col = ColumnarInstance(facts)
        child = col.copy()
        before = snapshot(child)
        col.add(Atom("E", (c, c)))
        col.discard(facts[0])
        col.merge_terms(Null(901), c)
        assert snapshot(child) == before
        assert child == Instance(facts)

    def test_fork_shares_segments_until_first_write(self):
        col = ColumnarInstance(sample_facts())  # no dead rows: no compaction
        child = col.copy()
        for skey, st in col._stores.items():
            assert child._stores[skey] is st  # shared, not copied
        g_orig = col._stores[("G", 1)]
        child.add(Atom("E", (c, a)))
        assert child._stores[("E", 2)] is not col._stores[("E", 2)]
        assert child._stores[("G", 1)] is g_orig  # untouched: still shared
        col.add(Atom("G", (b,)))
        assert col._stores[("G", 1)] is not g_orig  # parent un-shares too
        assert child._stores[("G", 1)] is g_orig

    def test_fork_mid_transaction_survives_parent_rollback(self):
        # The witness engine forks inside active savepoints and rolls the
        # parent back afterwards; the child must keep the pre-rollback
        # state and stay fully usable as its own transaction scope.
        col = ColumnarInstance([Atom("E", (a, b))])
        sp = col.savepoint()
        col.add(Atom("E", (b, c)))
        child = col.copy()
        col.rollback(sp)
        assert col == Instance([Atom("E", (a, b))])
        assert child == Instance([Atom("E", (a, b)), Atom("E", (b, c))])
        csp = child.savepoint()
        child.add(Atom("E", (c, a)))
        child.rollback(csp)
        assert child == Instance([Atom("E", (a, b)), Atom("E", (b, c))])

    def test_eager_copy_matches_cow_fork(self):
        facts = sample_facts()
        col = ColumnarInstance(facts)
        eager = col.copy(cow=False)
        assert eager == col == col.copy()
        for skey, st in col._stores.items():
            assert eager._stores[skey] is not st  # detached up front
        eager.add(Atom("E", (c, c)))
        col.discard(facts[0])
        assert Atom("E", (c, c)) not in col
        assert facts[0] in eager

    def test_copy_compacts_dead_rows(self):
        col = ColumnarInstance()
        for i in range(20):
            col.add(Atom("G", (Constant(f"g{i}"),)))
        for i in range(10):
            col.discard(Atom("G", (Constant(f"g{i}"),)))
        st = col._stores[("G", 1)]
        assert (st.nrows, st.nlive) == (20, 10)
        child = col.copy()
        cst = child._stores[("G", 1)]
        assert (cst.nrows, cst.nlive) == (10, 10)  # tombstones dropped
        assert st.nrows == 20  # the parent keeps its row ids
        assert child == col
        # Below the dead-fraction threshold the store is shared verbatim.
        col2 = ColumnarInstance(Atom("G", (Constant(f"h{i}"),)) for i in range(20))
        col2.discard(Atom("G", (Constant("h0"),)))
        assert col2.copy()._stores[("G", 1)] is col2._stores[("G", 1)]


class TestRandomScriptsWithForks:
    def test_nested_savepoint_fork_scripts_differential(self):
        """Random scripts of add/discard/merge, nested savepoint push /
        rollback / release, and mid-script COW forks (mutated on the
        side, then dropped), held step-for-step against ``Instance``."""
        for seed in range(12):
            rng = random.Random(1000 + seed)
            pool = [a, b, c, Null(960), Null(961), Null(962)]
            base = [random_fact(rng, pool) for _ in range(8)]
            col, ref = ColumnarInstance(base), Instance(base)
            stack = []
            for step in range(120):
                r = rng.random()
                f = random_fact(rng, pool)
                if r < 0.40:
                    assert col.add(f) == ref.add(f)
                elif r < 0.62:
                    assert col.discard(f) == ref.discard(f)
                elif r < 0.70:
                    live = sorted(col.nulls(), key=lambda n: n.label)
                    if live:
                        old = rng.choice(live)
                        new = rng.choice([t for t in pool if t is not old])
                        col.merge_terms(old, new)
                        ref.merge_terms(old, new)
                elif r < 0.80:
                    stack.append((col.savepoint(), ref.savepoint()))
                elif r < 0.88:
                    if stack:
                        sc, sr = stack.pop()
                        col.rollback(sc)
                        ref.rollback(sr)
                elif r < 0.94:
                    if stack:
                        sc, sr = stack.pop()
                        col.release(sc)
                        ref.release(sr)
                else:
                    # Fork both sides (possibly mid-transaction), mutate
                    # only the children, compare, drop them.
                    cc, cr = col.copy(), ref.copy()
                    for g in [random_fact(rng, pool) for _ in range(4)]:
                        assert cc.add(g) == cr.add(g)
                    assert cc.discard(f) == cr.discard(f)
                    assert cc == cr, f"seed={seed} step={step} fork"
                assert col == ref, f"seed={seed} step={step}"
            while stack:
                sc, sr = stack.pop()
                col.rollback(sc)
                ref.rollback(sr)
            assert col == ref, f"seed={seed} unwound"
            assert col.tick == ref.tick, f"seed={seed}"


def random_kernel_case(rng):
    """A random (pool, live, eqs, pairs) kernel input over 3 columns."""
    nrows = rng.randrange(1, 120)
    ncols = 3
    cols = [
        array("q", (rng.randrange(0, 6) for _ in range(nrows)))
        for _ in range(ncols)
    ]
    live = bytearray(rng.randrange(0, 2) for _ in range(nrows))
    pool = array("q", (rng.randrange(0, nrows) for _ in range(rng.randrange(0, 90))))
    eqs = tuple(
        (cols[i], None if rng.random() < 0.05 else rng.randrange(0, 6))
        for i in range(rng.randrange(0, ncols))
    )
    pairs = tuple(
        (cols[i], cols[j])
        for i, j in [rng.sample(range(ncols), 2)]
        if rng.random() < 0.5
    )
    return pool, live, eqs, pairs


class TestKernels:
    def test_selection_invariants(self):
        assert kernels.filter_rows in (
            kernels.filter_rows_python,
            kernels.filter_rows_numpy,
        )
        assert kernels.VECTORISED == (kernels._np is not None)
        assert isinstance(kernels.describe(), str)

    def test_python_numpy_kernels_differential(self):
        if kernels._np is None:
            pytest.skip("numpy not installed")
        for seed in range(80):
            case = random_kernel_case(random.Random(seed))
            assert kernels.filter_rows_python(*case) == kernels.filter_rows_numpy(
                *case
            ), f"seed={seed}"

    def test_generated_vector_branch_matches_scalar_path(self, monkeypatch):
        """The same compiled plan, run once through the inline scalar
        loop and once through the vectorised branch (forced on with the
        portable kernel, so this holds with or without numpy), must
        enumerate identical homomorphisms — and the branch must actually
        run."""
        from repro.matching import plans
        from repro.model import Variable

        rng = random.Random(7)
        pool = [a, b, c] + [Constant(f"k{i}") for i in range(5)]
        facts = [random_fact(rng, pool) for _ in range(400)]
        col = ColumnarInstance(facts)
        x, y = Variable("x"), Variable("y")
        bodies = [
            [Atom("E", (a, x))],                      # rigid probe at step 0
            [Atom("E", (x, x))],                      # within-atom pair check
            [Atom("T", (x, y, b)), Atom("E", (y, x))],
            [Atom("G", (x,)), Atom("E", (x, y))],
        ]

        def enumerate_all():
            return [
                {frozenset(m.items()) for m in plans.match(body, col, limit=None)}
                for body in bodies
            ]

        plans.clear_cache()
        scalar = enumerate_all()

        calls = 0

        def counting_filter(pool, live, eqs, pairs):
            nonlocal calls
            calls += 1
            return kernels.filter_rows_python(pool, live, eqs, pairs)

        monkeypatch.setattr(kernels, "VECTORISED", True)
        monkeypatch.setattr(kernels, "MIN_VECTOR_ROWS", 1)
        monkeypatch.setattr(kernels, "filter_rows", counting_filter)
        plans.clear_cache()  # regenerate with the vector branch emitted
        try:
            vectorised = enumerate_all()
        finally:
            plans.clear_cache()  # drop branch-forced code for later tests
        assert vectorised == scalar
        assert calls > 0  # the vector branch really executed
