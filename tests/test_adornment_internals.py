"""White-box tests for Adn∃ internals: coherent bodies, HeadAdn, θ
matching, Ω(AD) cyclicity, and the EGD chase step over Dµ."""

import gc
import weakref

from repro.core.adornment import (
    BOUND,
    AdornedRecord,
    AdornmentAlgorithm,
    AdornmentDefinition,
    ac_rewriting,
    adn_exists,
    encode_predicate,
)
from repro.data import sigma_1
from repro.firing import DecisionCache
from repro.generators.corpus import generate_corpus
from repro.model import TGD, Atom, Variable, parse_dependencies
from repro.simulation.substitution_free import substitution_free_simulation

x, y = Variable("x"), Variable("y")


def fresh_algo(text=None):
    sigma = sigma_1() if text is None else parse_dependencies(text)
    algo = AdornmentAlgorithm(sigma)
    algo._init_bridges()
    return algo


class TestNextSymbol:
    def test_fresh_symbol_exceeds_every_live_symbol(self):
        # The largest symbol sits in an earlier record than the last one
        # carrying a free symbol: a fresh symbol must still exceed it.
        algo = fresh_algo(
            """
            r1: N(x) -> exists y. E(x, y)
            r2: E(x, y) -> N(y)
            """
        )
        r1, r2 = algo.sigma
        big = TGD(
            [Atom(encode_predicate("N", (BOUND,)), [x])],
            [Atom(encode_predicate("E", (BOUND, 5)), [x, y])],
            label="r1",
        )
        small = TGD(
            [Atom(encode_predicate("E", (BOUND, 1)), [x, y])],
            [Atom(encode_predicate("N", (1,)), [y])],
            label="r2",
        )
        algo._add_record(AdornedRecord(big, r1))
        algo._add_record(AdornedRecord(small, r2))
        assert algo._next_symbol([]) == 6
        pending = [AdornmentDefinition(7, r1, r1.existential[0], (BOUND,))]
        assert algo._next_symbol(pending) == 8
        algo.definitions = [AdornmentDefinition(2, r1, r1.existential[0], (9,))]
        assert algo._next_symbol([]) == 10

    def test_symbols_defined_by_one_skolem_function_each(self):
        # Before the fix, AC on this corpus program minted f2 three times,
        # for r3, r4 and r6: a reused number merges what θ never merged.
        corpus = generate_corpus(seed=7, scale=0.06, tests_scale=0.05, max_size=25)
        sigma = next(o for o in corpus if o.name == "E101-1000/G1-10#3").sigma
        simulated = substitution_free_simulation(sigma) if sigma.egds else sigma
        for result in (adn_exists(sigma), ac_rewriting(simulated)):
            functions: dict[int, set] = {}
            for d in result.definitions:
                functions.setdefault(d.symbol, set()).add((d.rule, d.z))
            assert all(len(f) == 1 for f in functions.values()), functions


class TestCoherentBodies:
    def test_all_b_first(self):
        algo = fresh_algo()
        r2 = algo.sigma[1]  # E(x, y) -> N(y)
        bodies = list(algo._coherent_bodies(r2, algo._adorned_predicates()))
        assert bodies, "the bridge's E^bb must be available"
        first_body, binding = bodies[0]
        assert first_body[0] == encode_predicate("E", (BOUND, BOUND))
        assert binding == {x: BOUND, y: BOUND}

    def test_incoherent_rejected(self):
        # Body P(x) & Q(x) with P^b and Q^f1 available only: no coherent
        # mixed version exists for the shared variable x.
        algo = fresh_algo(
            """
            r1: S(x) -> exists y. Q(y)
            r2: P(x) & Q(x) -> T(x)
            """
        )
        # Manually give the pool a Q^f1 (as the algorithm would after
        # adorning r1) and check r2's coherent bodies never mix b/f1 on x.
        algo.run()
        pool = algo._adorned_predicates()
        r2 = algo.sigma[1]
        for body, binding in algo._coherent_bodies(r2, pool):
            symbols = {binding[v] for v in (x,) if v in binding}
            assert len(symbols) <= 1

    def test_constants_require_bound(self):
        algo = fresh_algo('r1: P(x) -> Q(x)\nr2: Q("c") -> T("c")')
        pool = algo._adorned_predicates()
        r2 = algo.sigma[1]
        for body, _ in algo._coherent_bodies(r2, pool):
            # The constant position must be adorned b.
            assert body[0].endswith("b")

    def test_a_finished_run_is_freed_without_the_cyclic_collector(self):
        # The algorithm's oracles hold the caller's decision cache, so a
        # reference cycle through the algorithm would keep every decision
        # (witness instances included) alive after the run.
        gc.collect()
        gc.disable()
        try:
            algo = AdornmentAlgorithm(sigma_1(), decisions=DecisionCache())
            algo.run()
            ref = weakref.ref(algo)
            del algo
            assert ref() is None
        finally:
            gc.enable()


class TestHeadAdorn:
    def test_existential_gets_fresh_symbol(self):
        algo = fresh_algo()
        r1 = algo.sigma[0]
        defs: list[AdornmentDefinition] = []
        head = algo._head_adorn(r1, {x: BOUND}, defs)
        assert head is not None
        assert head[0].predicate == encode_predicate("E", (BOUND, 1))
        assert len(defs) == 1 and defs[0].symbol == 1
        assert defs[0].args == (BOUND,)

    def test_existing_definition_reused(self):
        algo = fresh_algo()
        r1 = algo.sigma[0]
        defs: list[AdornmentDefinition] = []
        algo._head_adorn(r1, {x: BOUND}, defs)
        algo.definitions.extend(defs)
        again: list[AdornmentDefinition] = []
        head = algo._head_adorn(r1, {x: BOUND}, again)
        assert not again  # reused f1, no new definition
        assert head[0].predicate == encode_predicate("E", (BOUND, 1))

    def test_egd_head_unchanged(self):
        algo = fresh_algo()
        r3 = algo.sigma[2]
        assert algo._head_adorn(r3, {x: BOUND, y: BOUND}, []) is None


class TestThetaMatching:
    def test_match_maps_free_to_free(self):
        algo = fresh_algo()
        theta = algo._match_adornments(
            [(BOUND, 3)], [(BOUND, 1)]
        )
        assert theta == {3: 1}

    def test_mismatch_on_bound(self):
        algo = fresh_algo()
        assert algo._match_adornments([(BOUND, 3)], [(3, BOUND)]) is None

    def test_inconsistent_mapping(self):
        algo = fresh_algo()
        assert algo._match_adornments([(3, 3)], [(1, 2)]) is None

    def test_identity_is_empty_theta(self):
        algo = fresh_algo()
        assert algo._match_adornments([(1, 2)], [(1, 2)]) == {}


class TestOmegaCyclicity:
    def _algo_with_defs(self, defs):
        algo = fresh_algo(
            """
            r1: N(x) -> exists y. E(x, y)
            r2: E(x, y) -> N(y)
            """
        )
        r1 = algo.sigma[0]
        algo.definitions = [
            AdornmentDefinition(sym, r1, r1.existential[0], args)
            for sym, args in defs
        ]
        return algo

    def test_mutual_nesting_is_cyclic(self):
        # f1 = f(f2), f2 = f(f1): a two-cycle with one label.
        algo = self._algo_with_defs([(1, (2,)), (2, (1,))])
        assert algo._is_cyclic_symbol(1)
        assert algo._is_cyclic_symbol(2)

    def test_linear_nesting_not_cyclic(self):
        # f2 = f(f1), f1 = f(b): a path uses the label f^r1_y twice!
        # (f2 → f1 exists only if f1 is defined; the walk f2→f1 has ONE
        # edge; cyclicity needs two same-labelled edges on one walk.)
        algo = self._algo_with_defs([(1, (BOUND,)), (2, (1,))])
        assert not algo._is_cyclic_symbol(2)

    def test_self_nesting_cyclic(self):
        algo = self._algo_with_defs([(1, (1,))])
        assert algo._is_cyclic_symbol(1)

    def test_chain_condition_gates_edges(self):
        # Same definitions, but a Σ where r1 cannot re-fire itself through
        # full dependencies: no Ω edges at all.
        sigma = parse_dependencies(
            """
            r1: N(x) -> exists y. E(x, y)
            r2: P(x) -> P(x)
            """
        )
        algo = AdornmentAlgorithm(sigma)
        algo._init_bridges()
        r1 = sigma[0]
        algo.definitions = [
            AdornmentDefinition(1, r1, r1.existential[0], (2,)),
            AdornmentDefinition(2, r1, r1.existential[0], (1,)),
        ]
        assert not algo._omega_edges()
        assert not algo._is_cyclic_symbol(1)


class TestDMuChaseStep:
    def test_tau_direction_free_to_bound(self):
        algo = fresh_algo()
        result = algo.run()
        # Example 12: the f1/b merge ran, leaving no definitions.
        assert result.definitions == []
        assert result.acyclic
