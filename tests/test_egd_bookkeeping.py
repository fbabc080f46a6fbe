"""EGD-merge bookkeeping: trigger-key rewriting under (chained) merges.

The (semi-)oblivious chase compares triggers through the paper's composed
substitutions ``h_i(x) = h_j(x)γ_j···γ_{i-1}``: every EGD merge γ must
rewrite the recorded fired keys, the pending pool, and — via the delta
log — re-expose rewritten facts to discovery (a merge can enable a
repeated-variable body match such as ``E(x,x)``).
"""

import pytest

from repro.chase import ChaseStatus, run_chase
from repro.chase.runner import ChaseRunner
from repro.chase.step import Substitution
from repro.model import Atom, Constant, Null, parse_dependencies, parse_facts

a, b = Constant("a"), Constant("b")


class TestFiredKeyRewriting:
    @pytest.mark.parametrize("variant", ["oblivious", "semi_oblivious"])
    def test_single_merge_rewrites_fired_keys(self, variant):
        # r1 fires on x=a creating η; the functional EGD merges η into b.
        # The recorded r1 key must survive the merge unchanged (it mentions
        # only a) and the r2 key must be rewritten to mention b, so neither
        # refires: the chase terminates.
        sigma = parse_dependencies(
            """
            r1: P(x) -> exists y. R(x, y)
            r2: R(x, y), R(x, z) -> y = z
            """
        )
        db = parse_facts('P("a") R("a", "b")')
        result = run_chase(db, sigma, variant=variant, strategy="full_first",
                           max_steps=40)
        assert result.status is ChaseStatus.SUCCESS
        assert result.instance.facts() == db.facts()

    @pytest.mark.parametrize("variant", ["oblivious", "semi_oblivious"])
    def test_chained_merges_compose(self, variant):
        # Two existential triggers create η1 and η2; the key EGD first
        # merges η1 into η2 (null-to-null), then a second merge sends η2 to
        # the constant b: keys recorded against η1 must end up at b through
        # the *composition* γ1γ2, not at the dangling η1 or η2.
        sigma = parse_dependencies(
            """
            r1: P(x) -> exists y. R(x, y)
            r2: Q(x) -> exists y. R(x, y)
            r3: R(x, y), R(x, z) -> y = z
            """
        )
        db = parse_facts('P("a") Q("a") R("a", "b")')
        result = run_chase(db, sigma, variant=variant, strategy="lifo",
                           max_steps=60)
        assert result.status is ChaseStatus.SUCCESS
        assert result.instance.facts() == db.facts()

    def test_apply_gamma_rewrites_keys_directly(self):
        # Unit-level: chained γ1 = {η1/η2}, γ2 = {η2/b} over a recorded
        # key, which the runner keeps as (dependency index, key lids).
        sigma = parse_dependencies("r1: P(x) -> exists y. R(x, y)")
        runner = ChaseRunner(parse_facts('P("a")'), sigma, "oblivious")
        lid = runner.instance.term_table.register
        runner._fired_keys = {(0, (lid(a), lid(Null(1))))}
        runner._apply_gamma(Substitution(Null(1), Null(2)))
        assert runner._fired_keys == {(0, (lid(a), lid(Null(2))))}
        runner._apply_gamma(Substitution(Null(2), b))
        assert runner._fired_keys == {(0, (lid(a), lid(b)))}

    def test_apply_gamma_rewrites_pending_triggers(self):
        sigma = parse_dependencies("r1: R(x, y) -> N(y)")
        runner = ChaseRunner(parse_facts('R("a", "b")'), sigma, "oblivious")
        x, y = (v for v in sorted(sigma[0].body_variables(), key=lambda v: v.name))
        lid = runner.instance.term_table.register
        # A pending row binds (x, y) — name order — to (a, η5).
        runner._push_batch([(0, (lid(a), lid(Null(5))))])
        assert runner._seen == {p.row for p in runner._pending}
        runner._apply_gamma(Substitution(Null(5), b))
        (trigger,) = runner._pending
        assert trigger.row == (0, (lid(a), lid(b)))
        assert trigger.trigger().mapping() == {x: a, y: b}
        assert runner._seen == {trigger.row}


class TestMergeEnablesRepeatedVariableBody:
    @pytest.mark.parametrize("variant", ["standard", "oblivious", "semi_oblivious"])
    def test_merge_unlocks_exx_body(self, variant):
        # E(a,η) collapses to E(a,a) under the reflexivising EGD; only then
        # does the body E(x,x) match.  The rewritten fact must re-enter
        # discovery through the delta log.
        sigma = parse_dependencies(
            """
            r1: P(x) -> exists y. E(x, y)
            r2: E(x, y) -> x = y
            r3: E(x, x) -> Q(x)
            """
        )
        db = parse_facts('P("a")')
        result = run_chase(db, sigma, variant=variant, strategy="fifo",
                           max_steps=50)
        assert result.status is ChaseStatus.SUCCESS
        assert Atom("Q", (a,)) in result.instance

    @pytest.mark.parametrize("variant", ["oblivious", "semi_oblivious"])
    def test_chained_merge_unlocks_exx_then_key_survives(self, variant):
        # The merge-enabled Q(a) feeds another existential rule whose
        # trigger key must be recorded post-merge and survive verbatim.
        sigma = parse_dependencies(
            """
            r1: P(x) -> exists y. E(x, y)
            r2: E(x, y) -> x = y
            r3: E(x, x) -> Q(x)
            r4: Q(x) -> exists y. S(x, y)
            r5: S(x, y) -> x = y
            """
        )
        db = parse_facts('P("a")')
        result = run_chase(db, sigma, variant=variant, strategy="fifo",
                           max_steps=80)
        assert result.status is ChaseStatus.SUCCESS
        assert Atom("S", (a, a)) in result.instance
        assert result.instance.is_database  # every null merged away

    def test_exx_match_counts_one_step_per_variant_key(self):
        # Semi-oblivious keys r3 on its frontier {x}: the E(a,a) match may
        # fire only once even though discovery re-finds it after the merge.
        sigma = parse_dependencies(
            """
            r1: P(x) -> exists y. E(x, y)
            r2: E(x, y) -> x = y
            r3: E(x, x) -> Q(x)
            """
        )
        db = parse_facts('P("a")')
        result = run_chase(db, sigma, variant="semi_oblivious",
                           strategy="fifo", max_steps=50)
        fired_r3 = [s for s in result.steps
                    if s.trigger.dependency.label == "r3"]
        assert len(fired_r3) == 1
