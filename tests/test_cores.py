"""Unit tests for core computation."""

import pytest

from repro.chase import ChaseStatus, core_chase
from repro.homomorphism import (
    CoreBudgetExceeded,
    core,
    homomorphically_equivalent,
    instance_maps_into,
    is_core,
)
from repro.matching import using_backend
from repro.model import (
    Atom,
    Constant,
    Instance,
    Null,
    parse_dependencies,
    parse_facts,
)

a, b = Constant("a"), Constant("b")
n1, n2, n3 = Null(1), Null(2), Null(3)


def E(s, t):
    return Atom("E", (s, t))


class TestCore:
    def test_database_is_its_own_core(self):
        inst = parse_facts('E("a", "b") E("b", "a")')
        assert core(inst).facts() == inst.facts()
        assert is_core(inst)

    def test_redundant_null_collapses(self):
        # E(a, n1) is subsumed by E(a, b).
        inst = Instance([E(a, b), E(a, n1)])
        assert core(inst).facts() == {E(a, b)}

    def test_chain_collapse(self):
        # E(a, n1), E(a, n2): one of the two nulls suffices.
        inst = Instance([E(a, n1), E(a, n2)])
        result = core(inst)
        assert len(result) == 1

    def test_non_redundant_nulls_kept(self):
        # Example 3's universal model J1 is a core: the two E-atoms are not
        # mutually subsumable (different constant sides).
        j1 = parse_facts('P("a","b") Q("c","d") E("a", _1) E(_2, "d")')
        assert core(j1).facts() == j1.facts()
        assert is_core(j1)

    def test_triangle_vs_loop(self):
        # A 2-cycle of nulls with a self-loop: collapses onto the loop.
        inst = Instance([E(n1, n2), E(n2, n1), E(n3, n3)])
        result = core(inst)
        assert result.facts() == {E(n3, n3)}

    def test_idempotent(self):
        inst = Instance([E(a, b), E(a, n1), E(n1, n2)])
        first = core(inst)
        assert core(first).facts() == first.facts()

    def test_budget_exceeded(self):
        inst = Instance([E(a, n1), E(a, b)])
        with pytest.raises(CoreBudgetExceeded):
            core(inst, budget=0)

    def test_core_preserves_constants(self):
        inst = Instance([E(a, n1), E(b, n1)])
        result = core(inst)
        # Both constant-anchored atoms must survive (n1 is shared and
        # needed by both).
        assert E(a, n1) in result or len(result) == 2
        assert len(result) == 2


class TestLongInstances:
    """Instances with more than 20 facts with nulls: the retraction body
    then outgrows one generated function (CPython caps static nesting at
    20 blocks), and both backends must still agree with the naive one."""

    @staticmethod
    def null_path(length, start=a):
        """E(start, _1), E(_1, _2), …: a core, since it cannot fold into
        any shorter path from ``start``."""
        nodes = [start] + [Null(100 + i) for i in range(length)]
        return [E(nodes[i], nodes[i + 1]) for i in range(length)]

    @staticmethod
    def const_path(length):
        nodes = [a] + [Constant(f"c{i}") for i in range(length)]
        return [E(nodes[i], nodes[i + 1]) for i in range(length)]

    @pytest.mark.parametrize("backend", ["columnar", "naive"])
    def test_redundant_nulls_collapse(self, backend):
        ground = self.const_path(26)
        nodes = [a] + [Constant(f"c{i}") for i in range(26)]
        redundant = [E(nodes[i], Null(200 + i)) for i in range(0, 26, 3)]
        redundant += self.null_path(6)  # folds onto the constant path
        inst = Instance(ground + redundant)
        assert len(inst) > 25
        with using_backend(backend):
            assert not is_core(inst)
            result = core(inst)
            assert result.facts() == set(ground)
            assert is_core(result)

    @pytest.mark.parametrize("backend", ["columnar", "naive"])
    def test_long_null_path_is_a_core(self, backend):
        inst = Instance(self.null_path(30) + [E(b, Null(300))])
        with using_backend(backend):
            assert is_core(inst)
            assert core(inst).facts() == inst.facts()

    def test_core_chase_past_twenty_facts(self):
        sigma = parse_dependencies(
            """
            r1: N(x) -> exists y. E(x, y)
            r2: E(x, y) -> N(y)
            """
        )
        chain = parse_dependencies("r: E(x, y) -> exists z. E(y, z)")
        chain_db = Instance(self.const_path(24))
        results = {}
        for backend in ("columnar", "naive"):
            with using_backend(backend):
                results[backend] = (
                    core_chase(parse_facts('N("a")'), sigma, max_rounds=30),
                    core_chase(chain_db, chain, max_rounds=6),
                )
        for got, want in zip(results["columnar"], results["naive"]):
            assert got.status is want.status is ChaseStatus.EXCEEDED
            assert len(got.instance) > 20
            assert got.instance.facts() == want.instance.facts()
        # The chain's redundant null successors were retracted each round:
        # only the null path hanging off the last constant survives.
        grown = results["columnar"][1].instance
        assert len(grown) == 24 + 6
        assert is_core(grown)

    @pytest.mark.parametrize("backend", ["columnar", "naive"])
    def test_instance_maps_into(self, backend):
        nulls = Instance(self.null_path(25))
        consts = Instance(self.const_path(27))
        short = Instance(self.null_path(24, start=b) + self.const_path(1))
        with using_backend(backend):
            h = instance_maps_into(nulls, consts)
            assert h is not None
            assert {f.apply(h) for f in nulls} <= consts.facts()
            assert instance_maps_into(consts, nulls) is None
            assert instance_maps_into(nulls, short) is None
            assert homomorphically_equivalent(nulls, Instance(self.null_path(25)))
