"""Unit tests for the firing-relation witness engine internals."""

from repro.firing.witness import (
    DEFAULT_BUDGET,
    WitnessEngine,
    iter_partitions,
)
from repro.matching import BACKENDS, using_backend
from repro.matching import naive
from repro.model import parse_dependency
from repro.model.dependencies import EGD, TGD
from repro.model.terms import Null


class TestPartitions:
    def test_identity_first(self):
        parts = list(iter_partitions([1, 2, 3]))
        assert parts[0] == [[1], [2], [3]]

    def test_counts_are_bell_numbers(self):
        # Bell numbers: B(1)=1, B(2)=2, B(3)=5, B(4)=15.
        for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15)]:
            assert len(list(iter_partitions(list(range(n))))) == bell

    def test_limit_returns_identity_only(self):
        parts = list(iter_partitions(list(range(10)), limit_vars=4))
        assert len(parts) == 1

    def test_empty(self):
        assert list(iter_partitions([])) == [[]]


class TestWitnessShapes:
    def test_witness_carries_instances(self):
        r1 = parse_dependency("r1: N(x) -> exists y. E(x, y)")
        r2 = parse_dependency("r2: E(x, y) -> N(y)")
        decision = WitnessEngine(r1, r2).precedes()
        assert decision.edge and decision.exact
        w = decision.witness
        assert w is not None
        # h2's instantiated body sits in J but not fully in K.
        inst_body = [a.apply(w.h2) for a in w.r2.rename_variables("2").body]
        assert all(a in w.J for a in inst_body)
        assert not all(a in w.K for a in inst_body)

    def test_budget_exhaustion_is_conservative(self):
        r1 = parse_dependency("r1: A(x) & B(y) -> exists z. R(x, y, z)")
        r2 = parse_dependency("r2: R(x, y, z) & R(y, x, w) -> A(w)")
        decision = WitnessEngine(r1, r2, budget=5).precedes()
        # With a tiny budget the engine must answer True/inexact, never a
        # confident False.
        assert decision.edge and not decision.exact

    def test_self_loop_renaming(self):
        # Self-pairs must not leak shared variable bindings.
        r = parse_dependency("r: E(x, y) & E(y, z) -> E(x, z)")
        assert WitnessEngine(r, r).precedes().edge

    def test_egd_cannot_fire_via_failing_step(self):
        # An EGD whose only violations equate two constants yields ⊥, and
        # a failing step cannot witness an edge.  With nulls available the
        # engine freezes with nulls, so this EGD still fires things — the
        # check here is that the engine stays exact on a tiny budget-free
        # case rather than crashing.
        egd = parse_dependency("e: P(x, y) -> x = y")
        r = parse_dependency("r: P(x, x) -> Q(x)")
        decision = WitnessEngine(egd, r).fires()
        assert decision.edge  # merge P(a,η)→P(a,a) enables the body

    def test_full_target_skips_defusal(self):
        r1 = parse_dependency("r1: N(x) -> exists y. E(x, y)")
        full = parse_dependency("r2: E(x, y) -> N(y)")
        # Even with defusing candidates around, a full target keeps the
        # edge (condition (iv) applies only to existential targets).
        fulls = [full, parse_dependency("r3: E(x, y) -> E(y, x)")]
        assert WitnessEngine(r1, full, fulls).fires().edge

    def test_oblivious_variant_relaxes_applicability(self):
        r = parse_dependency("r: E(x, y) -> exists z. E(x, z)")
        assert not WitnessEngine(r, r, step_variant="standard").precedes().edge
        assert WitnessEngine(r, r, step_variant="oblivious").precedes().edge


class TestDefusalSemantics:
    def test_vacuous_defusal(self):
        """Example 11's core: the defusing step's result need not contain
        the trigger at all."""
        r1 = parse_dependency("r1: N(x) -> exists y. E(x, y)")
        r2 = parse_dependency("r2: E(x, y) -> N(y)")
        r3 = parse_dependency("r3: E(x, y) -> E(y, x)")
        assert WitnessEngine(r2, r1, []).fires().edge  # without the defuser
        assert not WitnessEngine(r2, r1, [r2, r3]).fires().edge

    def test_saturation_neutralises_full_tgd_defusers(self):
        # An unrelated full TGD can always be pre-satisfied in K, so it
        # must NOT defuse on its own.
        r2 = parse_dependency("r2: P(x) & E(x, y) -> N(y)")
        r1 = parse_dependency("r1: N(x) -> exists y. E(x, y)")
        unrelated = parse_dependency("r3: P(x) -> Q(x)")
        assert WitnessEngine(r2, r1, [r2, unrelated]).fires().edge

    def test_egd_defuser_kills(self):
        # Σ1's analysis: the EGD always applies to the witness's E-atom.
        r2 = parse_dependency("r2: E(x, y) -> N(y)")
        r1 = parse_dependency("r1: N(x) -> exists y. E(x, y)")
        egd = parse_dependency("r3: E(x, y) -> x = y")
        assert not WitnessEngine(r2, r1, [r2, egd]).fires().edge


class TestWitnessReplay:
    """Every witness the engine returns satisfies the firing relation's
    definition, re-checked here with the naive matcher over plain fact
    sets: ``K --(r1, h1)--> J`` is a chase step (ii), ``h2(Body(r2))`` is
    new in ``J`` (i, by newness) and ``J`` violates ``h2(r2)`` (iii).  A
    ``<`` witness for an existential ``r2`` also has no defuser (iv).
    Decisions run under both matching backends (compiled plans and the
    naive matcher); the witness instances are ``ColumnarInstance``s
    either way and are replayed as frozensets of their facts.
    """

    @staticmethod
    def _satisfied(facts, r2, h2):
        """``facts ⊨ h2(r2)``, vacuously when ``h2(Body(r2)) ⊄ facts``."""
        if not {a.apply(h2) for a in r2.body} <= facts:
            return True
        if isinstance(r2, EGD):
            return h2[r2.lhs] is h2[r2.rhs]
        seed = {v: h2[v] for v in r2.frontier()}
        return bool(list(naive.match(
            r2.head, facts, seed=seed, frozen_nulls=True, limit=1
        )))

    @classmethod
    def _replay_defusal(cls, w, fulls):
        """(iv): no full dependency has a standard chase step on ``K``
        whose result satisfies ``h2(r2)``.  An EGD step's substitution
        direction is taken per homomorphism: the witness survives it if
        some realisable direction leaves ``h2(r2)`` violated, and a step
        equating two constants fails, which defuses (Example 11)."""
        r2 = w.r2.rename_variables("2")
        K = frozenset(w.K)
        for r3 in fulls:
            for h3 in naive.match(r3.body, K, limit=None):
                if isinstance(r3, TGD):
                    head = {a.apply(h3) for a in r3.head}
                    if head <= K:
                        continue  # not applicable
                    assert not cls._satisfied(K | head, r2, w.h2), (r3, h3)
                    continue
                t1, t2 = h3[r3.lhs], h3[r3.rhs]
                if t1 is t2:
                    continue
                results = [
                    frozenset(a.apply({old: new}) for a in K)
                    for old, new in ((t1, t2), (t2, t1))
                    if isinstance(old, Null)
                ]
                assert any(
                    not cls._satisfied(J2, r2, w.h2) for J2 in results
                ), (r3, h3)

    @staticmethod
    def _replay(decision, variant):
        w = decision.witness
        assert w is not None
        r1 = w.r1.rename_variables("1")
        r2 = w.r2.rename_variables("2")
        K, J = frozenset(w.K), frozenset(w.J)
        h1, h2 = w.h1, w.h2
        assert {a.apply(h1) for a in r1.body} <= K
        body2 = {a.apply(h2) for a in r2.body}
        assert body2 <= J and not body2 <= K
        if isinstance(r1, EGD):
            t1, t2 = h1[r1.lhs], h1[r1.rhs]
            assert t1 is not t2
            assert isinstance(t1, Null) or isinstance(t2, Null)
            merged = [
                frozenset(a.apply({old: new}) for a in K)
                for old, new in ((t1, t2), (t2, t1))
                if isinstance(old, Null)
            ]
            assert J in merged
        else:
            if variant == "standard":
                seed = {v: h1[v] for v in r1.frontier()}
                assert not list(naive.match(
                    r1.head, K, seed=seed, frozen_nulls=True, limit=1
                ))
            # J adds exactly one instantiation of r1's head to K, with
            # nulls for the existentials.  (Those nulls are not always
            # fresh for K: a free atom of h2(Body(r2)) may reuse one —
            # an over-approximation of edges, the sound direction.)
            assert any(
                J == K | {a.apply(g) for a in r1.head}
                and all(isinstance(g[z], Null) for z in r1.existential)
                for g in naive.match(
                    r1.head, J, seed=dict(h1), frozen_nulls=True, limit=None
                )
            )
        if isinstance(r2, EGD):
            assert h2[r2.lhs] is not h2[r2.rhs]
        elif variant != "oblivious":
            seed = {v: h2[v] for v in r2.frontier()}
            assert not list(naive.match(
                r2.head, J, seed=seed, frozen_nulls=True, limit=1
            ))

    def test_replay_on_random_programs(self):
        from repro.generators.random_deps import random_dependency_set

        witnesses = 0
        for backend in BACKENDS:
            with using_backend(backend):
                for seed in range(25):
                    sigma = list(random_dependency_set(seed))
                    fulls = [d for d in sigma if d.is_full]
                    for r1 in sigma[:3]:
                        for r2 in sigma[:3]:
                            for variant in ("standard", "oblivious"):
                                d = WitnessEngine(
                                    r1, r2, tuple(fulls), variant, 50_000
                                ).fires()
                                if d.witness is not None:
                                    self._replay(d, variant)
                                    witnesses += 1
        assert witnesses > 100

    def test_defusal_replay_on_random_programs(self):
        # Conditions (i)-(iii) and (iv) of every standard ``<`` witness
        # with an existential r2, over every pair of the first 60 random
        # programs (an EGD r1's J must stay Kγ through the defusal
        # saturation).
        from repro.generators.random_deps import random_dependency_set

        checked = 0
        for backend in BACKENDS:
            with using_backend(backend):
                for seed in range(60):
                    sigma = list(random_dependency_set(seed))
                    fulls = [d for d in sigma if d.is_full]
                    for r1 in sigma:
                        for r2 in sigma:
                            if not r2.is_existential:
                                continue
                            d = WitnessEngine(
                                r1, r2, tuple(fulls), "standard", 50_000
                            ).fires()
                            if d.witness is not None:
                                self._replay(d, "standard")
                                self._replay_defusal(d.witness, fulls)
                                checked += 1
        assert checked > 100

    def test_defusal_saturation_witness_replays(self):
        # A pair whose witness only survives after the full-TGD defuser is
        # saturated away — exercises the savepoint-scoped defuser probes.
        r1 = parse_dependency("r1: A(x) -> exists z. B(x, z)")
        r2 = parse_dependency("r2: B(x, y) -> exists w. C(y, w)")
        full = parse_dependency("r3: B(x, y) -> D(y)")
        for backend in BACKENDS:
            with using_backend(backend):
                decision = WitnessEngine(r1, r2, (full,)).fires()
                assert decision.edge and decision.exact
                self._replay(decision, "standard")
                self._replay_defusal(decision.witness, (full,))

    def test_exhausted_budget_is_inexact_under_both_backends(self):
        # A tiny budget exhausts mid-search: the engine stops and reports
        # the inexact over-approximation.
        r1 = parse_dependency("r1: E(x, y) & E(y, z) -> exists w. E(z, w)")
        r2 = parse_dependency("r2: E(x, y) & E(y, x) -> exists v. E(x, v)")
        for backend in BACKENDS:
            with using_backend(backend):
                decision = WitnessEngine(r1, r2, (), "standard", 40).fires()
                assert decision.edge and not decision.exact
