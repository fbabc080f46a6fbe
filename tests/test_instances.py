"""Unit tests for instances: indexes, merging, database checks."""

import pytest

from repro.model import Atom, Constant, Instance, Null, Variable, database, instance_from_tuples

a, b, c = Constant("a"), Constant("b"), Constant("c")
n1, n2 = Null(1), Null(2)


def E(s, t):
    return Atom("E", (s, t))


class TestBasics:
    def test_add_and_contains(self):
        inst = Instance([E(a, b)])
        assert E(a, b) in inst
        assert E(b, a) not in inst
        assert len(inst) == 1

    def test_add_returns_newness(self):
        inst = Instance()
        assert inst.add(E(a, b)) is True
        assert inst.add(E(a, b)) is False

    def test_variables_rejected(self):
        with pytest.raises(ValueError):
            Instance([Atom("E", (a, Variable("x")))])

    def test_discard(self):
        inst = Instance([E(a, b), E(b, c)])
        assert inst.discard(E(a, b))
        assert not inst.discard(E(a, b))
        assert len(inst) == 1
        assert inst.with_predicate("E") == {E(b, c)}

    def test_copy_independent(self):
        inst = Instance([E(a, b)])
        cp = inst.copy()
        cp.add(E(b, c))
        assert len(inst) == 1 and len(cp) == 2
        # Indexes must be deep-copied too.
        assert inst.with_term(b) == {E(a, b)}


class TestEqualityAndHashContract:
    """The reconciled __eq__/__hash__ contract (see Instance.__hash__):
    equality is value-based over the facts, hashing is explicitly
    forbidden, and frozen() is the hashable stand-in."""

    def test_eq_is_value_based(self):
        # Different construction orders, different delta logs — equal.
        i = Instance([E(a, b), E(b, c)])
        j = Instance([E(b, c)])
        j.add(E(a, b))
        assert i == j
        j.discard(E(b, c))
        assert i != j

    def test_eq_against_plain_sets_both_ways(self):
        i = Instance([E(a, b)])
        assert i == {E(a, b)}
        assert {E(a, b)} == i  # reflected through set's NotImplemented
        assert i != {E(b, a)}

    def test_eq_ignores_derived_state(self):
        i = Instance([E(a, b)])
        j = i.copy()  # copy() drops the delta log entirely
        assert i.tick == 1 and j.tick == 0
        assert i == j

    def test_hash_raises_not_identity(self):
        """Regression: the silent alternative to raising would be the
        identity-based object.__hash__, which breaks a == b ⇒ hash(a) ==
        hash(b) for equal-but-distinct instances.  Pin the TypeError and
        that equal instances really would have collided under identity."""
        i = Instance([E(a, b)])
        j = Instance([E(a, b)])
        assert i == j and i is not j  # identity hashing would split them
        for victim in (i, j):
            with pytest.raises(TypeError, match="unhashable"):
                hash(victim)
        with pytest.raises(TypeError):
            {i: 1}
        with pytest.raises(TypeError):
            {i} | {j}

    def test_frozen_is_the_hashable_view(self):
        i = Instance([E(a, b)])
        j = Instance([E(a, b)])
        assert hash(i.frozen()) == hash(j.frozen())
        assert {i.frozen(): "cached"}[j.frozen()] == "cached"
        # And it is a snapshot: later mutation does not leak into it.
        snap = i.frozen()
        i.add(E(b, c))
        assert E(b, c) not in snap


class TestIndexes:
    def test_predicate_index(self):
        inst = Instance([E(a, b), Atom("N", (a,))])
        assert inst.with_predicate("E") == {E(a, b)}
        assert inst.with_predicate("missing") == set()

    def test_term_index(self):
        inst = Instance([E(a, b), E(b, c)])
        assert inst.with_term(b) == {E(a, b), E(b, c)}
        assert inst.with_term(Constant("zzz")) == set()

    def test_index_updated_on_discard(self):
        inst = Instance([E(a, b)])
        inst.discard(E(a, b))
        assert inst.with_term(a) == set()
        assert inst.predicates() == set()


class TestMerge:
    def test_merge_rewrites_all_facts(self):
        inst = Instance([E(a, n1), E(n1, n2), Atom("N", (n1,))])
        inst.merge_terms(n1, a)
        assert inst.facts() == {E(a, a), E(a, n2), Atom("N", (a,))}

    def test_merge_collapses_duplicates(self):
        inst = Instance([E(a, n1), E(a, a)])
        inst.merge_terms(n1, a)
        assert len(inst) == 1

    def test_merge_null_into_null(self):
        inst = Instance([E(n1, n2)])
        inst.merge_terms(n1, n2)
        assert inst.facts() == {E(n2, n2)}

    def test_merge_constant_rejected(self):
        inst = Instance([E(a, b)])
        with pytest.raises(TypeError):
            inst.merge_terms(a, b)


class TestDomain:
    def test_domain_and_kinds(self):
        inst = Instance([E(a, n1)])
        assert inst.domain() == {a, n1}
        assert inst.nulls() == {n1}
        assert inst.constants() == {a}

    def test_is_database(self):
        assert Instance([E(a, b)]).is_database
        assert not Instance([E(a, n1)]).is_database

    def test_database_constructor_rejects_nulls(self):
        with pytest.raises(ValueError):
            database(E(a, n1))

    def test_null_free_part(self):
        inst = Instance([E(a, b), E(a, n1)])
        assert inst.null_free_part().facts() == {E(a, b)}


class TestConstruction:
    def test_instance_from_tuples(self):
        inst = instance_from_tuples({"N": [("a",)], "E": [("a", "b")]})
        assert Atom("N", (a,)) in inst
        assert E(a, b) in inst

    def test_instance_from_tuples_with_terms(self):
        inst = instance_from_tuples({"E": [(a, n1)]})
        assert E(a, n1) in inst

    def test_apply(self):
        inst = Instance([E(a, n1)])
        out = inst.apply({n1: b})
        assert out.facts() == {E(a, b)}
        assert inst.facts() == {E(a, n1)}  # original untouched


class TestOneFactStore:
    """Every construction site builds the one mutable fact store, and the
    public ``Instance`` name is that class, under both matching backends."""

    def test_public_name_is_the_columnar_class(self):
        import repro
        import repro.model
        from repro.model.columnar import ColumnarInstance

        assert repro.Instance is ColumnarInstance
        assert repro.model.Instance is ColumnarInstance

    @pytest.mark.parametrize("backend", ["columnar", "naive"])
    def test_construction_sites_return_the_columnar_class(self, backend):
        from repro import io
        from repro.chase import critical_instance, run_chase
        from repro.matching import using_backend
        from repro.model import parse_dependencies, parse_facts
        from repro.model.columnar import ColumnarInstance

        sigma = parse_dependencies(
            "r1: N(x) -> exists y. E(x, y)\nr2: E(x, y) -> x = y"
        )
        with using_backend(backend):
            db = parse_facts('N("a")')
            loaded = io.loads(io.dumps(db))
            critical = critical_instance(sigma)
            result = run_chase(db, sigma, max_steps=20)
        for inst in (db, loaded, critical, result.instance):
            assert type(inst) is ColumnarInstance
        assert result.instance == parse_facts('N("a") E("a", "a")')
