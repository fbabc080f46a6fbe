"""Unit tests for the homomorphism finder and satisfaction checks."""

import pytest

from repro.homomorphism import (
    find_homomorphism,
    find_homomorphisms,
    has_homomorphism,
    homomorphically_equivalent,
    instance_maps_into,
    satisfies,
    satisfies_all,
    satisfies_instantiated,
    violations,
)
from repro.matching import using_backend
from repro.model import (
    Atom,
    Constant,
    Instance,
    Null,
    Variable,
    parse_dependencies,
    parse_dependency,
    parse_facts,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c = Constant("a"), Constant("b"), Constant("c")
n1, n2 = Null(1), Null(2)


def E(s, t):
    return Atom("E", (s, t))


class TestFinder:
    def test_single_atom(self):
        h = find_homomorphism([E(x, y)], Instance([E(a, b)]))
        assert h == {x: a, y: b}

    def test_constants_fixed(self):
        assert not has_homomorphism([E(a, y)], Instance([E(b, c)]))
        assert has_homomorphism([E(a, y)], Instance([E(a, c)]))

    def test_join(self):
        target = Instance([E(a, b), E(b, c)])
        h = find_homomorphism([E(x, y), E(y, z)], target)
        assert h == {x: a, y: b, z: c}

    def test_repeated_variable(self):
        assert not has_homomorphism([E(x, x)], Instance([E(a, b)]))
        assert has_homomorphism([E(x, x)], Instance([E(a, a)]))

    def test_enumeration_count(self):
        target = Instance([E(a, b), E(a, c)])
        homs = list(find_homomorphisms([E(x, y)], target, limit=None))
        assert len(homs) == 2

    def test_limit(self):
        target = Instance([E(a, b), E(a, c)])
        assert len(list(find_homomorphisms([E(x, y)], target, limit=1))) == 1

    def test_seed_extension(self):
        target = Instance([E(a, b), E(c, b)])
        homs = list(find_homomorphisms([E(x, y)], target, seed={x: c}, limit=None))
        assert homs == [{x: c, y: b}]

    def test_source_nulls_flexible_by_default(self):
        # Nulls in the source behave like variables (universal-model hom).
        assert has_homomorphism([E(a, n1)], Instance([E(a, b)]))

    def test_frozen_nulls(self):
        assert not has_homomorphism(
            [E(a, n1)], Instance([E(a, b)]), frozen_nulls=True
        )
        assert has_homomorphism(
            [E(a, n1)], Instance([E(a, n1)]), frozen_nulls=True
        )

    def test_empty_source(self):
        assert find_homomorphism([], Instance([E(a, b)])) == {}

    @pytest.mark.parametrize("backend", ["columnar", "naive"])
    def test_target_must_be_facts(self, backend):
        # Targets are sets of facts: a plain atom list is loaded into an
        # instance, which rejects an atom with a variable.
        with using_backend(backend):
            assert find_homomorphism([E(x, y)], [E(a, b)]) == {x: a, y: b}
            with pytest.raises(ValueError, match="is not a fact"):
                find_homomorphism([E(x, y)], [E(z, Variable("w"))])

    def test_target_as_plain_list(self):
        assert has_homomorphism([E(x, y)], [E(a, b)])


class TestInstanceHomomorphisms:
    def test_example3_universal_model(self):
        # J1 of Example 3 maps into J2 via η1→d, η2→a.
        j1 = parse_facts('P("a","b") Q("c","d") E("a", _1) E(_2, "d")')
        j2 = parse_facts('P("a","b") Q("c","d") E("a", "d")')
        h = instance_maps_into(j1, j2)
        assert h is not None
        assert h[Null(1)] is Constant("d")
        assert h[Null(2)] is Constant("a")
        # But J2 does not map back into J1... actually it does here? No:
        # E(a,d) has no preimage atom with both constants in J1.
        assert instance_maps_into(j2, j1) is None
        assert not homomorphically_equivalent(j1, j2)

    def test_insertion_order_does_not_affect_validity(self):
        # instance_maps_into sorts its source atoms with a structural key
        # (it used to stringify every atom per call); whatever the
        # insertion order, the result must be a valid homomorphism and
        # the same mapping every time.
        import random

        from repro.homomorphism import homomorphic_image

        facts = parse_facts(
            'P("a","b") P("b","c") Q("c","d") E("a", _1) E(_2, "d") '
            'E(_1, _2) R(1) R(2) S(_3, "a", 1)'
        )
        target = parse_facts(
            'P("a","b") P("b","c") Q("c","d") E("a","d") E("d","a") '
            'E("d","d") R(1) R(2) S("d", "a", 1)'
        )
        reference = None
        atoms = list(facts)
        for seed in range(6):
            random.Random(seed).shuffle(atoms)
            shuffled = Instance(atoms)
            h = instance_maps_into(shuffled, target)
            assert h is not None
            assert set(homomorphic_image(shuffled, h)) <= set(target)
            if reference is None:
                reference = h
            else:
                assert h == reference

    def test_structural_key_handles_mixed_constant_types(self):
        # int and str constants in the same position must not raise on
        # comparison inside the sort.
        mixed = parse_facts('R(1) R("one") R(2) R("two")')
        assert instance_maps_into(mixed, mixed) is not None


class TestSatisfaction:
    def setup_method(self):
        self.sigma = parse_dependencies(
            """
            r1: N(x) -> exists y. E(x, y)
            r2: E(x, y) -> N(y)
            r3: E(x, y) -> x = y
            """
        )

    def test_satisfied_database(self):
        inst = parse_facts('N("a") E("a", "a")')
        assert satisfies_all(inst, self.sigma)

    def test_tgd_violation(self):
        inst = parse_facts('N("a")')
        r1 = self.sigma[0]
        v = list(violations(inst, r1))
        assert len(v) == 1 and v[0][Variable("x")] is a

    def test_tgd_satisfied_by_witness(self):
        inst = parse_facts('N("a") E("a", "b")')
        assert satisfies(inst, self.sigma[0])
        # but r2 now violated: N(b) missing
        assert not satisfies(inst, self.sigma[1])

    def test_egd_violation(self):
        inst = parse_facts('E("a", "b")')
        assert not satisfies(inst, self.sigma[2])

    def test_egd_satisfied_when_equal(self):
        inst = parse_facts('E("a", "a")')
        assert satisfies(inst, self.sigma[2])

    def test_violations_limit(self):
        inst = parse_facts('E("a","b") E("b","c")')
        assert len(list(violations(inst, self.sigma[1], limit=1))) == 1


class TestInstantiatedSatisfaction:
    def test_vacuous_when_body_absent(self):
        r = parse_dependency("N(x) -> exists y. E(x, y)")
        inst = parse_facts('E("a", "b")')
        assert satisfies_instantiated(inst, r, {x: a})

    def test_violated_instantiation(self):
        r = parse_dependency("N(x) -> exists y. E(x, y)")
        inst = parse_facts('N("a")')
        assert not satisfies_instantiated(inst, r, {x: a})

    def test_satisfied_instantiation(self):
        r = parse_dependency("N(x) -> exists y. E(x, y)")
        inst = parse_facts('N("a") E("a", "b")')
        assert satisfies_instantiated(inst, r, {x: a})

    def test_egd_instantiated(self):
        r = parse_dependency("E(x, y) -> x = y")
        inst = parse_facts('E("a", "b")')
        assert not satisfies_instantiated(inst, r, {x: a, y: b})
        # Body not in the instance: vacuously satisfied.
        assert satisfies_instantiated(inst, r, {x: b, y: c})
