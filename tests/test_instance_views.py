"""Regression tests for Instance's public accessors, indexes and delta log.

The seed returned the *live* internal sets from ``with_predicate`` /
``with_term``; a caller iterating one of them while the chase mutated the
instance hit "set changed size during iteration" (or silently saw a moving
target).  They now return snapshots.  The position index (the compiled
plans' index cells) and the delta log are covered here too.
"""

import pytest

from fact_model import index_cell
from repro.model import Instance
from repro.model.atoms import Atom
from repro.model.terms import Constant, Null

a, b, c = Constant("a"), Constant("b"), Constant("c")


def fresh_instance():
    return Instance([Atom("E", (a, b)), Atom("E", (b, c)), Atom("N", (a,))])


class TestSnapshotViews:
    def test_with_predicate_safe_to_iterate_while_mutating(self):
        inst = fresh_instance()
        seen = 0
        for i, fact in enumerate(inst.with_predicate("E")):
            # The seed raised RuntimeError("set changed size ...") here.
            inst.add(Atom("E", (c, Constant(f"x{i}"))))
            seen += 1
        assert seen == 2
        assert len(inst.with_predicate("E")) == 4

    def test_with_term_safe_to_iterate_while_mutating(self):
        inst = fresh_instance()
        for fact in inst.with_term(b):
            inst.discard(fact)
        assert inst.with_term(b) == frozenset()

    def test_views_are_snapshots_not_live(self):
        inst = fresh_instance()
        before = inst.with_predicate("E")
        inst.add(Atom("E", (c, a)))
        assert len(before) == 2  # unchanged: a copy, not the internal set
        assert len(inst.with_predicate("E")) == 3

    def test_views_are_not_mutable_aliases(self):
        inst = fresh_instance()
        view = inst.with_predicate("N")
        with pytest.raises(AttributeError):
            view.add(Atom("N", (b,)))  # frozenset: no mutators
        assert inst.with_predicate("N") == {Atom("N", (a,))}

    def test_empty_buckets(self):
        inst = fresh_instance()
        assert inst.with_predicate("missing") == frozenset()
        assert inst.with_term(Constant("zzz")) == frozenset()


class TestPositionIndex:
    def test_buckets_follow_adds_and_discards(self):
        inst = fresh_instance()
        assert index_cell(inst, "E", 2, 0, a) == {Atom("E", (a, b))}
        assert index_cell(inst, "E", 2, 1, c) == {Atom("E", (b, c))}
        inst.discard(Atom("E", (a, b)))
        assert not index_cell(inst, "E", 2, 0, a)
        inst.add(Atom("E", (a, c)))
        assert index_cell(inst, "E", 2, 1, c) == {Atom("E", (b, c)), Atom("E", (a, c))}

    def test_buckets_follow_merges(self):
        inst = Instance([Atom("E", (a, Null(1)))])
        inst.merge_terms(Null(1), a)
        assert index_cell(inst, "E", 2, 1, Null(1)) == frozenset()
        assert index_cell(inst, "E", 2, 1, a) == {Atom("E", (a, a))}

    def test_repeated_term_positions(self):
        inst = Instance([Atom("E", (a, a))])
        assert index_cell(inst, "E", 2, 0, a) == {Atom("E", (a, a))}
        assert index_cell(inst, "E", 2, 1, a) == {Atom("E", (a, a))}
        inst.discard(Atom("E", (a, a)))
        assert not index_cell(inst, "E", 2, 0, a)
        assert not index_cell(inst, "E", 2, 1, a)


class TestDeltaLog:
    def test_adds_enter_the_log_in_order(self):
        inst = Instance()
        t0 = inst.tick
        inst.add(Atom("N", (a,)))
        inst.add(Atom("N", (b,)))
        inst.add(Atom("N", (a,)))  # duplicate: not logged
        assert list(inst.added_since(t0)) == [Atom("N", (a,)), Atom("N", (b,))]
        assert inst.tick == t0 + 2

    def test_ticks_are_consumable_incrementally(self):
        inst = Instance()
        inst.add(Atom("N", (a,)))
        t1 = inst.tick
        inst.add(Atom("N", (b,)))
        assert list(inst.added_since(t1)) == [Atom("N", (b,))]
        assert list(inst.added_since(inst.tick)) == []

    def test_merge_rewrites_reenter_the_log(self):
        inst = Instance([Atom("E", (a, Null(1))), Atom("N", (Null(1),))])
        t = inst.tick
        inst.merge_terms(Null(1), a)
        assert set(inst.added_since(t)) == {Atom("E", (a, a)), Atom("N", (a,))}

    def test_merge_collisions_are_not_logged(self):
        # The rewrite target already exists: nothing new was added, so
        # nothing enters the log (semi-naive discovery needs no re-match).
        inst = Instance([Atom("N", (Null(1),)), Atom("N", (a,))])
        t = inst.tick
        inst.merge_terms(Null(1), a)
        assert list(inst.added_since(t)) == []
        assert inst.facts() == {Atom("N", (a,))}

    def test_copy_resets_the_log(self):
        inst = fresh_instance()
        cp = inst.copy()
        assert cp.tick == 0
        assert cp.facts() == inst.facts()
        cp.add(Atom("N", (c,)))
        assert list(cp.added_since(0)) == [Atom("N", (c,))]
        assert Atom("N", (c,)) not in inst
