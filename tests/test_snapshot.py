"""Transactional instances: the savepoint/rollback undo-log protocol.

The heart of this suite is a property-based differential check: random
scripts of ``add``/``discard``/``merge_terms`` interleaved with *nested*
savepoints run against one instance, and every rollback must restore the
exact state recorded when the savepoint was taken — the fact set, every
store's columns, live bitmap, rowmap and index cells, the delta-log tick
and the ``added_since`` tail (DESIGN.md §5).
"""

from __future__ import annotations

import random

import pytest

from fact_model import index_cell
from repro.model import Atom, Instance
from repro.model.terms import Constant, Null

a, b, c = Constant("a"), Constant("b"), Constant("c")
PREDS = (("P", 1), ("Q", 2), ("R", 3))


def _terms_pool():
    return [a, b, c] + [Null(i) for i in range(1, 9)]


def random_fact(rng: random.Random) -> Atom:
    pred, arity = rng.choice(PREDS)
    pool = _terms_pool()
    return Atom(pred, tuple(rng.choice(pool) for _ in range(arity)))


def state(inst: Instance) -> tuple:
    """The full observable and internal state: the fact set, every
    store's columns, rowmap, index cells, live bitmap and counts, and the
    delta log (as row handles and as materialised atoms)."""
    stores = {
        skey: (
            [list(col) for col in st.cols],
            dict(st.rowmap),
            [{lid: list(rows) for lid, rows in cells.items()} for cells in st.index],
            bytes(st.live),
            st.nlive,
            st.nrows,
        )
        for skey, st in inst._stores.items()
    }
    return (
        inst.frozen(),
        stores,
        inst.tick,
        list(inst.added_rows_since(0)),
        list(inst.added_since(0)),
    )


class TestSavepointProtocol:
    def test_rollback_restores_add_and_merge(self):
        inst = Instance([Atom("Q", (a, Null(1)))])
        before = state(inst)
        sp = inst.savepoint()
        inst.add(Atom("P", (b,)))
        inst.merge_terms(Null(1), b)
        inst.discard(Atom("Q", (a, b)))
        inst.rollback(sp)
        assert state(inst) == before
        assert not inst.in_transaction

    def test_new_predicate_slots_shrink_back(self):
        inst = Instance()
        before = state(inst)
        sp = inst.savepoint()
        inst.add(Atom("R", (a, b, c)))
        inst.rollback(sp)
        assert state(inst) == before
        assert inst._stores == {}

    def test_nested_rollback_innermost_first(self):
        inst = Instance([Atom("P", (a,))])
        outer = state(inst)
        sp1 = inst.savepoint()
        inst.add(Atom("P", (b,)))
        mid = state(inst)
        sp2 = inst.savepoint()
        inst.add(Atom("P", (c,)))
        inst.rollback(sp2)
        assert state(inst) == mid
        inst.rollback(sp1)
        assert state(inst) == outer

    def test_rollback_to_outer_consumes_inner(self):
        inst = Instance()
        sp1 = inst.savepoint()
        sp2 = inst.savepoint()
        inst.add(Atom("P", (a,)))
        inst.rollback(sp1)
        assert len(inst) == 0 and not inst.in_transaction
        with pytest.raises(ValueError):
            inst.rollback(sp2)

    def test_release_keeps_changes(self):
        inst = Instance()
        sp = inst.savepoint()
        inst.add(Atom("P", (a,)))
        inst.release(sp)
        assert Atom("P", (a,)) in inst
        assert inst._undo is None  # fast path restored

    def test_release_inside_outer_rollback_still_undone(self):
        inst = Instance()
        sp1 = inst.savepoint()
        sp2 = inst.savepoint()
        inst.add(Atom("P", (a,)))
        inst.release(sp2)  # commit into the outer scope...
        inst.rollback(sp1)  # ...which then rolls the whole thing back
        assert len(inst) == 0

    def test_consumed_token_rejected(self):
        inst = Instance()
        sp = inst.savepoint()
        inst.rollback(sp)
        for op in (inst.rollback, inst.release):
            with pytest.raises(ValueError):
                op(sp)

    def test_foreign_token_rejected(self):
        inst, other = Instance(), Instance()
        sp = other.savepoint()
        with pytest.raises(ValueError):
            inst.rollback(sp)

    def test_copy_does_not_inherit_transaction(self):
        inst = Instance()
        inst.savepoint()
        inst.add(Atom("P", (a,)))
        forked = inst.copy()
        assert not forked.in_transaction
        assert forked._undo is None

    def test_merge_terms_relogging_survives_rollback(self):
        # merge_terms is a discard followed by an add; both re-enter the
        # delta log and both must unwind.
        inst = Instance(
            [
                Atom("Q", (Null(1), Null(2))),  # rewrites to a new fact
                Atom("Q", (Null(1), b)),        # collapses into Q(a, b)
                Atom("Q", (a, b)),
            ]
        )
        before, tick = state(inst), inst.tick
        sp = inst.savepoint()
        inst.merge_terms(Null(1), a)
        assert len(inst) == 2
        # Only the genuinely new rewrite re-enters the delta log; the
        # collapse into the pre-existing Q(a, b) does not.
        assert list(inst.added_since(tick)) == [Atom("Q", (a, Null(2)))]
        inst.rollback(sp)
        assert state(inst) == before


class TestSavepointProperty:
    """Random mutation scripts with nested savepoints vs recorded states."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_script(self, seed):
        rng = random.Random(seed)
        inst = Instance(random_fact(rng) for _ in range(rng.randint(0, 12)))
        # Stack of (savepoint, state recorded when it was taken).
        stack = []
        for _ in range(rng.randint(20, 120)):
            roll = rng.random()
            if roll < 0.12:
                stack.append((inst.savepoint(), state(inst)))
            elif roll < 0.22 and stack:
                sp, before = stack.pop()
                if rng.random() < 0.5:
                    inst.rollback(sp)
                    assert state(inst) == before
                else:
                    inst.release(sp)
            elif roll < 0.60:
                inst.add(random_fact(rng))
            elif roll < 0.80:
                live = list(inst)
                if live:
                    inst.discard(rng.choice(live))
            else:
                nulls = sorted(inst.nulls(), key=lambda n: n.label)
                if nulls:
                    old = rng.choice(nulls)
                    new = rng.choice([t for t in _terms_pool() if t is not old])
                    inst.merge_terms(old, new)
        while stack:
            sp, before = stack.pop()
            inst.rollback(sp)
            assert state(inst) == before
        assert not inst.in_transaction
        assert inst._undo is None

    @pytest.mark.parametrize("seed", range(10))
    def test_added_since_matches_copy_taken_at_savepoint(self, seed):
        """After a rollback, a consumer that snapshotted the tick at the
        savepoint sees exactly the same delta as before the savepoint
        (i.e. nothing) — the semi-naive discovery contract."""
        rng = random.Random(1000 + seed)
        inst = Instance(random_fact(rng) for _ in range(8))
        tick = inst.tick
        sp = inst.savepoint()
        for _ in range(25):
            op = rng.random()
            if op < 0.6:
                inst.add(random_fact(rng))
            elif op < 0.8:
                live = list(inst)
                if live:
                    inst.discard(rng.choice(live))
            else:
                nulls = sorted(inst.nulls(), key=lambda n: n.label)
                if nulls:
                    old = rng.choice(nulls)
                    new = rng.choice([t for t in _terms_pool() if t is not old])
                    inst.merge_terms(old, new)
        inst.rollback(sp)
        assert list(inst.added_since(tick)) == []


class TestBorrowingAccessorsAcrossRollback:
    def test_buckets_reflect_rolled_back_state(self):
        """The compiled plans' index cells, re-read after a rollback, see
        exactly the pre-savepoint rows."""
        inst = Instance([Atom("Q", (a, b)), Atom("Q", (a, c))])
        before_pred = inst.with_predicate("Q")
        before_pos = index_cell(inst, "Q", 2, 0, a)
        sp = inst.savepoint()
        inst.add(Atom("Q", (a, a)))
        inst.discard(Atom("Q", (a, b)))
        inst.rollback(sp)
        assert inst.with_predicate("Q") == before_pred
        assert index_cell(inst, "Q", 2, 0, a) == before_pos
        assert index_cell(inst, "Q", 2, 1, a) == set()

    def test_pos_slots_for_rolled_back_predicate_disappear(self):
        inst = Instance()
        sp = inst.savepoint()
        inst.add(Atom("R", (a, b, c)))
        assert ("R", 3) in inst._stores
        inst.rollback(sp)
        assert ("R", 3) not in inst._stores


class TestInternedIndexes:
    """The position index is keyed by the family-local ids of interned
    terms (DESIGN.md §9/§10); the keys must track the terms exactly and
    the undo log must restore them regardless of how the global tid
    counter moves."""

    def test_position_index_is_keyed_by_term_ids(self):
        inst = Instance([Atom("Q", (a, b)), Atom("Q", (a, c))])
        lid = inst._terms.local_of
        cells = inst._stores[("Q", 2)].index
        assert set(cells[0]) == {lid[a.tid]}
        assert set(cells[1]) == {lid[b.tid], lid[c.tid]}

    @pytest.mark.parametrize("seed", range(10))
    def test_rollback_is_immune_to_tid_counter_churn(self, seed):
        """Interleave throwaway term allocations (each minting a fresh
        tid) with the mutation script: the tid-keyed indexes must still
        restore exactly — rollback depends on term identity, never on
        the counter's position."""
        rng = random.Random(2000 + seed)
        inst = Instance(random_fact(rng) for _ in range(6))
        before = state(inst)
        sp = inst.savepoint()
        churn = []  # hold references so the weak interner keeps the tids
        for i in range(40):
            churn.append(Null(100_000 + seed * 1000 + i))
            op = rng.random()
            if op < 0.6:
                inst.add(random_fact(rng))
            elif op < 0.8:
                live = list(inst)
                if live:
                    inst.discard(rng.choice(live))
            else:
                nulls = sorted(inst.nulls(), key=lambda n: n.label)
                if nulls:
                    old = rng.choice(nulls)
                    new = rng.choice([t for t in _terms_pool() if t is not old])
                    inst.merge_terms(old, new)
        inst.rollback(sp)
        assert state(inst) == before

    @pytest.mark.parametrize("seed", range(10))
    def test_probe_agrees_with_uninterned_scan_after_rollback(self, seed):
        """The tid-keyed probe answers exactly what an uninterned scan
        over the fact set answers, before and after a rollback."""
        rng = random.Random(3000 + seed)
        inst = Instance(random_fact(rng) for _ in range(10))
        sp = inst.savepoint()
        for _ in range(15):
            inst.add(random_fact(rng))
        inst.rollback(sp)
        for pred, arity in PREDS:
            for i in range(arity):
                for t in _terms_pool():
                    scan = {
                        f for f in inst
                        if f.predicate == pred
                        and len(f.args) > i and f.args[i] is t
                    }
                    assert index_cell(inst, pred, arity, i, t) == scan


class TestCoreInPlace:
    def test_core_fresh_never_mutates_input(self):
        from repro.homomorphism import core

        inst = Instance([Atom("Q", (a, Null(1))), Atom("Q", (a, b))])
        before = inst.facts()
        result = core(inst)
        assert inst.facts() == before
        assert result is not inst
        assert result.facts() == {Atom("Q", (a, b))}

    def test_core_consuming_mutates_under_savepoint(self):
        from repro.homomorphism import core

        inst = Instance([Atom("Q", (a, Null(1))), Atom("Q", (a, b))])
        before = state(inst)
        sp = inst.savepoint()
        result = core(inst, fresh=False)
        assert result is inst
        assert inst.facts() == {Atom("Q", (a, b))}
        inst.rollback(sp)
        assert state(inst) == before


class TestCoreChaseTransactional:
    def test_failure_leaves_input_untouched(self):
        from repro.chase.core_chase import core_chase_step
        from repro.model import parse_dependencies, parse_facts
        from repro.model.terms import NullFactory

        sigma = parse_dependencies("r: Q(x, y) -> x = y")
        db = parse_facts('Q("a", "b")')
        before = state(db)
        assert core_chase_step(db, sigma, NullFactory(start=1)) is None
        assert state(db) == before

    def test_step_advances_in_place(self):
        from repro.chase.core_chase import core_chase_step
        from repro.model import parse_dependencies, parse_facts
        from repro.model.terms import NullFactory

        sigma = parse_dependencies("r: N(x) -> exists y. E(x, y)")
        db = parse_facts('N("a")')
        out = core_chase_step(db, sigma, NullFactory(start=1))
        assert out is db  # consumed in place, committed
        assert not db.in_transaction
        assert len(db) == 2


class TestCompactLog:
    def test_clears_log_outside_transaction(self):
        inst = Instance([Atom("P", (a,)), Atom("P", (b,))])
        assert inst.tick == 2
        inst.compact_log()
        assert inst.tick == 0 and list(inst.added_since(0)) == []
        assert len(inst) == 2  # facts and indexes untouched

    def test_rejected_inside_transaction(self):
        inst = Instance()
        sp = inst.savepoint()
        with pytest.raises(RuntimeError):
            inst.compact_log()
        inst.rollback(sp)
        inst.compact_log()  # fine once the scope is closed

    def test_core_chase_does_not_accumulate_log(self):
        from repro.chase import core_chase
        from repro.model import parse_dependencies, parse_facts

        sigma = parse_dependencies(
            """
            r1: N(x) -> exists y. E(x, y)
            r2: E(x, y) -> N(y)
            r3: E(x, y) -> x = y
            """
        )
        result = core_chase(parse_facts('N("a")'), sigma, max_rounds=20)
        assert result.instance is not None
        # Rounds compact the threaded instance's log: it holds at most the
        # final round's additions, not every intermediate ever added.
        assert result.instance.tick == 0
