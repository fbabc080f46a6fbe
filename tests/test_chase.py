"""Chase engine tests: steps, variants, strategies, failure.

The ground truth comes from the paper's Examples 1, 4, 5, 6 and 7.
"""

import pytest

from repro.chase import (
    ChaseStatus,
    Trigger,
    apply_step,
    core_chase,
    egd_substitution,
    run_chase,
)
from repro.homomorphism import is_model, satisfies_all
from repro.model import (
    Atom,
    Constant,
    Instance,
    Null,
    NullFactory,
    Variable,
    parse_dependencies,
    parse_dependency,
    parse_facts,
)

x, y = Variable("x"), Variable("y")
a, b = Constant("a"), Constant("b")


@pytest.fixture
def sigma1():
    return parse_dependencies(
        """
        r1: N(x) -> exists y. E(x, y)
        r2: E(x, y) -> N(y)
        r3: E(x, y) -> x = y
        """
    )


class TestChaseStep:
    def test_tgd_step_adds_fresh_null(self):
        r1 = parse_dependency("N(x) -> exists y. E(x, y)")
        inst = parse_facts('N("a")')
        trigger = Trigger.make(r1, {x: a})
        outcome = apply_step(inst, trigger, NullFactory(start=1))
        assert outcome.added == [Atom("E", (a, Null(1)))]
        assert outcome.created_nulls == [Null(1)]
        assert outcome.gamma is None

    def test_egd_step_merges(self):
        r3 = parse_dependency("E(x, y) -> x = y")
        inst = Instance([Atom("E", (a, Null(1)))])
        trigger = Trigger.make(r3, {x: a, y: Null(1)})
        outcome = apply_step(inst, trigger, NullFactory())
        assert outcome.gamma is not None
        assert outcome.gamma.old is Null(1) and outcome.gamma.new is a
        assert inst.facts() == {Atom("E", (a, a))}

    def test_egd_step_fails_on_two_constants(self):
        r3 = parse_dependency("E(x, y) -> x = y")
        inst = parse_facts('E("a", "b")')
        trigger = Trigger.make(r3, {x: a, y: b})
        outcome = apply_step(inst, trigger, NullFactory())
        assert outcome.failed

    def test_egd_substitution_direction(self):
        # Definition 1: the null side is replaced; if x1 is a null it goes.
        r3 = parse_dependency("E(x, y) -> x = y")
        s = egd_substitution(r3, {x: Null(1), y: Null(2)})
        assert s.old is Null(1) and s.new is Null(2)
        s = egd_substitution(r3, {x: a, y: Null(2)})
        assert s.old is Null(2) and s.new is a


class TestStandardChase:
    def test_example1_terminating_sequence(self, sigma1):
        db = parse_facts('N("a")')
        result = run_chase(db, sigma1, strategy="full_first", max_steps=50)
        assert result.status is ChaseStatus.SUCCESS
        assert result.instance.facts() == parse_facts('N("a") E("a","a")').facts()
        # 2 steps: r1 then r3, exactly the sequence of Example 5.
        assert result.step_count == 2

    def test_example1_nonterminating_strategy(self, sigma1):
        db = parse_facts('N("a")')
        result = run_chase(
            db, sigma1, strategy="existential_first", max_steps=60
        )
        assert result.status is ChaseStatus.EXCEEDED

    def test_result_is_model(self, sigma1):
        db = parse_facts('N("a")')
        result = run_chase(db, sigma1, strategy="full_first")
        assert is_model(result.instance, db, sigma1)

    def test_satisfied_database_empty_sequence(self):
        # Example 6: the only standard chase sequence of Σ6 is empty.
        sigma6 = parse_dependencies("r: E(x, y) -> exists z. E(x, z)")
        db = parse_facts('E("a", "b")')
        result = run_chase(db, sigma6, max_steps=10)
        assert result.status is ChaseStatus.SUCCESS
        assert result.step_count == 0

    def test_chase_halting_exactly_at_the_cap_succeeds(self):
        # One step fires and nothing is applicable after it: the step cap
        # of 1 is reached, but the sequence has terminated.
        sigma = parse_dependencies("r: P(x) -> Q(x)")
        db = parse_facts('P("a")')
        result = run_chase(db, sigma, max_steps=1)
        assert result.status is ChaseStatus.SUCCESS
        assert result.step_count == 1
        assert Atom("Q", (a,)) in result.instance
        # One step short of the halt, the cap still bites.
        capped = run_chase(parse_facts('P("a") P("b")'), sigma, max_steps=1)
        assert capped.status is ChaseStatus.EXCEEDED
        assert capped.step_count == 1

    def test_satisfied_database_with_zero_cap_succeeds(self):
        sigma6 = parse_dependencies("r: E(x, y) -> exists z. E(x, z)")
        db = parse_facts('E("a", "b")')
        result = run_chase(db, sigma6, max_steps=0)
        assert result.status is ChaseStatus.SUCCESS
        assert result.step_count == 0

    def test_failing_chase(self):
        sigma = parse_dependencies("r: E(x, y) -> x = y")
        db = parse_facts('E("a", "b")')
        result = run_chase(db, sigma)
        assert result.status is ChaseStatus.FAILURE
        assert result.failed and result.terminated and not result.successful

    def test_input_not_modified(self, sigma1):
        db = parse_facts('N("a")')
        run_chase(db, sigma1, strategy="full_first")
        assert db.facts() == parse_facts('N("a")').facts()

    def test_merge_enables_repeated_variable_body(self):
        # After merging E(a,η)→E(a,a), the body E(x,x) matches: the runner
        # must treat rewritten facts as new for trigger discovery.
        sigma = parse_dependencies(
            """
            r1: P(x) -> exists y. E(x, y)
            r2: E(x, y) -> x = y
            r3: E(x, x) -> Q(x)
            """
        )
        db = parse_facts('P("a")')
        result = run_chase(db, sigma, strategy="fifo", max_steps=50)
        assert result.status is ChaseStatus.SUCCESS
        assert Atom("Q", (a,)) in result.instance


class TestObliviousAndSemiOblivious:
    def test_example6_semi_oblivious_terminates(self):
        sigma6 = parse_dependencies("r: E(x, y) -> exists z. E(x, z)")
        db = parse_facts('E("a", "b")')
        result = run_chase(db, sigma6, variant="semi_oblivious", max_steps=50)
        assert result.status is ChaseStatus.SUCCESS
        # Exactly one step: the trigger key is x=a; the new fact E(a, η)
        # has the same frontier key.
        assert result.step_count == 1
        assert len(result.instance) == 2

    def test_example6_oblivious_diverges(self):
        sigma6 = parse_dependencies("r: E(x, y) -> exists z. E(x, z)")
        db = parse_facts('E("a", "b")')
        result = run_chase(db, sigma6, variant="oblivious", max_steps=30)
        assert result.status is ChaseStatus.EXCEEDED

    def test_oblivious_fires_satisfied_triggers(self):
        sigma = parse_dependencies("r: E(x, y) -> exists z. E(y, z)")
        db = parse_facts('E("a", "b") E("b", "c")')
        std = run_chase(db, sigma, max_steps=100)
        # standard: only b-with-no-successor... E(b,c) gives b a successor;
        # only c lacks one initially.
        sobl = run_chase(db, sigma, variant="semi_oblivious", max_steps=100)
        assert sobl.step_count > std.step_count or sobl.status is ChaseStatus.EXCEEDED

    def test_oblivious_key_composition_with_egd(self, sigma1):
        # Σ1 under the oblivious chase: enforcing r3 merges η1 into a, and
        # the already-fired r1 trigger (x=a) must not fire again after the
        # merge (the γ-composition of Section 2's definition).
        db = parse_facts('N("a")')
        result = run_chase(db, sigma1, variant="oblivious",
                           strategy="full_first", max_steps=50)
        assert result.status is ChaseStatus.SUCCESS
        assert result.instance.facts() == parse_facts('N("a") E("a","a")').facts()


class TestCoreChase:
    def test_example7_empty_sequence(self):
        sigma6 = parse_dependencies("r: E(x, y) -> exists z. E(x, z)")
        db = parse_facts('E("a", "b")')
        result = core_chase(db, sigma6, max_rounds=5)
        assert result.successful
        assert result.instance.facts() == db.facts()

    def test_core_chase_computes_universal_model(self, sigma1):
        db = parse_facts('N("a")')
        result = core_chase(db, sigma1, max_rounds=10)
        assert result.successful
        assert satisfies_all(result.instance, sigma1)
        assert result.instance.facts() == parse_facts('N("a") E("a","a")').facts()

    def test_core_chase_failure(self):
        sigma = parse_dependencies("r: E(x, y) -> x = y")
        db = parse_facts('E("a", "b")')
        result = core_chase(db, sigma)
        assert result.failed

    def test_core_chase_divergence_capped(self):
        sigma10 = parse_dependencies(
            """
            r1: N(x) -> exists y, z. E(x, y, z)
            r2: E(x, y, y) -> N(y)
            r3: E(x, y, z) -> y = z
            """
        )
        db = parse_facts('N("a")')
        result = core_chase(db, sigma10, max_rounds=6)
        assert result.status is ChaseStatus.EXCEEDED
