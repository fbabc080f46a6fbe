"""Differential tests: the columnar backend vs the naive reference.

The compiled join plans (``repro.matching.plans``) — executing as
generated int loops over a ``ColumnarInstance`` (the columnar backend),
also when ``repro.matching.homomorphisms`` loads a plain fact list into
one — must be *observationally identical* to the naive reference
(``repro.matching.naive``):

* the plans enumerate exactly the same homomorphism sets as the
  reference run over the plain fact list (order may differ), and so
  does the reference itself when it reads the instance's snapshots;
* a chase run driven by the columnar backend produces the identical
  ``ChaseResult`` — status, step count, and final instance — as one
  driven by the naive backend, for all variants and all strategies,
  because the runner pushes each discovery batch in a canonical order;
* the semi-naive saturation loop derives exactly what the seed's naive
  full-re-enumeration fixpoint derived, round for round;
* the runner's semi-naive discovery invariant holds: at drain time a full
  re-sweep (the seed's old exhaustiveness guarantee, now demoted to a debug
  oracle) finds no applicable trigger.

Programs come from ``generators.random_deps`` (unstructured stressors) and
``generators.corpus`` (ontology-shaped); the random-program tests cover
well over 200 seeds.
"""

from __future__ import annotations

import random

import pytest

from repro.chase.runner import ChaseRunner, run_chase
from repro.chase.skolem import SkolemTerm, critical_instance, saturate, skolemise
from repro.generators.corpus import generate_corpus
from repro.generators.databases import seed_database
from repro.generators.random_deps import random_dependency_set
from repro.matching import naive as naive_engine
from repro.matching import plans as plan_engine
from repro.matching import homomorphisms, seed_mapping, using_backend
from repro.model.atoms import Atom
from repro.model.columnar import ColumnarInstance
from repro.model.terms import Constant, Null, Variable

VARIANTS = ("standard", "oblivious", "semi_oblivious")


def random_instance(seed, sigma, n_facts=14, n_consts=4, n_nulls=2):
    """A reproducible random instance over Σ's schema."""
    rng = random.Random(seed)
    pool = [Constant(f"c{i}") for i in range(n_consts)]
    pool += [Null(900 + i) for i in range(n_nulls)]
    preds = sorted(sigma.predicates().items())
    inst = ColumnarInstance()
    for _ in range(n_facts):
        if not preds:
            break
        p, ar = rng.choice(preds)
        inst.add(Atom(p, [rng.choice(pool) for _ in range(ar)]))
    return inst


def chase_under(backend, *args, **kwargs):
    """``run_chase`` with ``backend`` as the active matching backend."""
    with using_backend(backend):
        return run_chase(*args, **kwargs)


def hom_key(h):
    """Order-insensitive identity of one homomorphism."""
    return frozenset((repr(k), repr(v)) for k, v in h.items())


def hom_set(matcher, body, target, **kw):
    return {hom_key(h) for h in matcher.match(body, target, limit=None, **kw)}


def dispatched_hom_set(body, facts, **kw):
    """The columnar backend over a plain fact list, which the dispatcher
    loads into an instance before the plans run."""
    with using_backend("columnar"):
        return {hom_key(h) for h in homomorphisms(body, facts, limit=None, **kw)}


def assert_same_hom_sets(body, inst, context, **kw):
    """Naive over the plain fact list is the reference; naive over the
    instance, plans over the instance and plans over the atom list must
    all enumerate exactly its homomorphism set."""
    facts = sorted(inst, key=str)
    want = hom_set(naive_engine, body, facts, **kw)
    assert hom_set(naive_engine, body, inst, **kw) == want, f"{context} (naive)"
    assert hom_set(plan_engine, body, inst, **kw) == want, f"{context} (columnar)"
    assert dispatched_hom_set(body, facts, **kw) == want, f"{context} (atoms)"


def assert_same_result(r1, r2, context=""):
    assert r1.status is r2.status, context
    assert r1.step_count == r2.step_count, context
    assert (r1.instance is None) == (r2.instance is None), context
    if r1.instance is not None:
        # Both backends chase over the one fact store.
        assert isinstance(r1.instance, ColumnarInstance), context
        assert isinstance(r2.instance, ColumnarInstance), context
        assert r1.instance.facts() == r2.instance.facts(), context


# -- homomorphism-set equality ----------------------------------------------


def test_homomorphism_sets_identical_on_random_programs():
    """≥200 seeded random programs: identical enumeration, body by body."""
    for seed in range(220):
        sigma = random_dependency_set(seed, n_deps=6)
        inst = random_instance(seed * 7 + 1, sigma)
        for dep in sigma:
            assert_same_hom_sets(dep.body, inst, f"seed={seed} dep={dep}")


def test_homomorphism_sets_identical_with_seeds_and_frozen_nulls():
    for seed in range(60):
        sigma = random_dependency_set(seed, n_deps=5)
        inst = random_instance(seed * 11 + 5, sigma, n_nulls=3)
        for dep in sigma:
            # Anchor the first body atom onto every compatible fact, the way
            # semi-naive discovery does, and compare extension sets.
            atom = dep.body[0]
            for fact in inst.with_predicate(atom.predicate):
                partial = seed_mapping(atom, fact)
                if partial is None:
                    continue
                for frozen in (False, True):
                    assert_same_hom_sets(
                        dep.body, inst,
                        f"seed={seed} dep={dep} fact={fact} frozen={frozen}",
                        seed=partial, frozen_nulls=frozen,
                    )


def test_homomorphism_sets_identical_on_corpus_bodies():
    corpus = generate_corpus(tests_scale=0.03)
    assert corpus
    for ont in corpus:
        db = seed_database(ont.sigma)
        for dep in list(ont.sigma)[:15]:
            assert_same_hom_sets(dep.body, db, f"{ont.name} dep={dep}")


def test_non_instance_targets_and_empty_sources():
    """Plain atom collections are loaded into an instance by the
    dispatcher — one predicate at two arities included; empty sources
    yield exactly the seed mapping."""
    a, b = Constant("a"), Constant("b")
    x, y = Variable("x"), Variable("y")
    facts = [
        Atom("E", (a, b)), Atom("E", (b, a)), Atom("E", (b,)),
        Atom("N", (a,)),
    ]
    sigma = random_dependency_set(3, n_deps=4)
    bodies = [dep.body for dep in sigma] + [
        [Atom("E", (x, y))],
        [Atom("E", (x,))],
        [Atom("E", (x, y)), Atom("E", (y,))],
    ]
    for body in bodies:
        want = hom_set(naive_engine, body, facts)
        assert dispatched_hom_set(body, facts) == want, body
    assert len(hom_set(naive_engine, [Atom("E", (x,))], facts)) == 1
    assert list(naive_engine.match([], facts, seed={a: a})) == [{a: a}]
    for backend in ("columnar", "naive"):
        with using_backend(backend):
            assert list(homomorphisms([], facts, seed={a: a})) == [{a: a}]


def test_long_bodies_chain_generated_functions():
    """Bodies longer than one generated function may nest (12 steps)
    continue in chained inner generators: path bodies of 12-42 atoms,
    with a repeated atom, a constant and a side atom, enumerate the naive
    set unseeded, seeded and with frozen nulls.  (The bodies stay in path
    order, which keeps the unordered naive reference fast; the plans
    reorder them anyway.)"""
    consts = [Constant(f"c{i}") for i in range(46)]
    nulls = [Null(950 + i) for i in range(6)]
    inst = ColumnarInstance()
    for i in range(45):
        inst.add(Atom("E", (consts[i], consts[i + 1])))
        if i % 2 == 0:
            inst.add(Atom("N", (consts[i],)))
    for i, n in enumerate(nulls):
        inst.add(Atom("E", (consts[7 * i], n)))
        inst.add(Atom("E", (n, nulls[(i + 1) % len(nulls)])))
        inst.add(Atom("N", (n,)))
    inst.add(Atom("E", (consts[30], consts[30])))
    for length in (10, 11, 22, 23, 40):  # bodies of 12, 13, 24, 25, 42 atoms
        xs = [Variable(f"x{i}") for i in range(length + 1)]
        body = [Atom("E", (xs[i], xs[i + 1])) for i in range(length)]
        body.append(Atom("N", (xs[0],)))
        body.append(Atom("E", (xs[length // 2], xs[length // 2 + 1])))
        assert_same_hom_sets(body, inst, f"length={length}")
        with_const = [a.apply({xs[3]: consts[5]}) for a in body]
        assert_same_hom_sets(with_const, inst, f"length={length} const")
        for frozen in (False, True):
            for start in (consts[0], consts[14], nulls[0]):
                assert_same_hom_sets(
                    body, inst, f"length={length} seed={start} frozen={frozen}",
                    seed={xs[0]: start}, frozen_nulls=frozen,
                )
    # Seeded at a hub with 70 out-edges, the first pool is large enough
    # for the vectorised arm (numpy kernels) of an unchained body; a
    # chained body scans it with the scalar loop.
    hub = Constant("hub")
    for i in range(70):
        inst.add(Atom("E", (hub, Constant(f"h{i}"))))
        inst.add(Atom("E", (Constant(f"h{i}"), consts[i % 30])))
    for length in (12, 14):
        path = [Atom("E", (xs[i], xs[i + 1])) for i in range(length)]
        assert_same_hom_sets(path, inst, f"hub {length}", seed={xs[0]: hub})


def test_codegen_leaves_no_reference_cycles():
    """Compiling a plan frees its code emitters by reference counting:
    with the cyclic collector off, nothing of ``_codegen_columnar`` is
    left for it to find."""
    import gc
    import types

    x, y, z = Variable("x"), Variable("y"), Variable("z")
    body = [Atom("GcProbe", (x, y)), Atom("GcProbe", (y, z))]
    inst = ColumnarInstance([Atom("GcProbe", (Constant("a"), Constant("b")))])

    def from_codegen(obj) -> bool:
        if isinstance(obj, types.CellType):
            try:
                obj = obj.cell_contents
            except ValueError:  # an emptied cell
                return False
        return isinstance(obj, types.FunctionType) and obj.__qualname__.startswith(
            "_codegen_columnar."
        )

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        plan_engine.clear_cache()
        assert list(plan_engine.match(body, inst)) == []
        gc.collect()
        leaked = [o for o in gc.garbage if from_codegen(o)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not leaked


# -- chase differential -------------------------------------------------------


def test_chase_differential_on_random_programs():
    """≥200 seeded random programs × all variants × two strategies, each
    run under the ambient backend ``using_backend`` selects."""
    for seed in range(200):
        sigma = random_dependency_set(seed, n_deps=6)
        db = random_instance(seed * 13 + 3, sigma, n_facts=8, n_nulls=0)
        for variant in VARIANTS:
            for strategy in ("fifo", "full_first"):
                r_nai = chase_under(
                    "naive", db, sigma, variant=variant, strategy=strategy,
                    max_steps=50,
                )
                r_col = chase_under(
                    "columnar", db, sigma, variant=variant, strategy=strategy,
                    max_steps=50,
                )
                assert_same_result(
                    r_col, r_nai, f"seed={seed} {variant}/{strategy}"
                )


def smallest_images_first(triggers):
    """A user strategy over ``.assignment``: the pending trigger whose
    rendered images sort first (ties: the oldest)."""
    return min(
        range(len(triggers)),
        key=lambda i: [str(t) for _, t in triggers[i].assignment],
    )


def test_chase_differential_all_strategies():
    """The canonical batch order makes every strategy backend-agnostic."""
    for seed in range(25):
        sigma = random_dependency_set(seed, n_deps=6)
        db = random_instance(seed * 17 + 9, sigma, n_facts=8, n_nulls=0)
        for variant in VARIANTS:
            for strategy in ("fifo", "lifo", "full_first", "egd_first",
                             "existential_first", smallest_images_first):
                r_nai = chase_under(
                    "naive", db, sigma, variant=variant, strategy=strategy,
                    max_steps=40,
                )
                r_col = chase_under(
                    "columnar", db, sigma, variant=variant, strategy=strategy,
                    max_steps=40,
                )
                assert_same_result(
                    r_col, r_nai, f"seed={seed} {variant}/{strategy}"
                )


def test_chase_differential_on_corpus():
    corpus = generate_corpus(tests_scale=0.03)
    assert corpus
    for ont in corpus:
        db = seed_database(ont.sigma)
        for variant in VARIANTS:
            r_nai = chase_under(
                "naive", db, ont.sigma, variant=variant, strategy="full_first",
                max_steps=150,
            )
            r_col = chase_under(
                "columnar", db, ont.sigma, variant=variant, strategy="full_first",
                max_steps=150,
            )
            assert_same_result(r_col, r_nai, f"{ont.name} {variant}")


def test_semi_naive_discovery_is_exhaustive():
    """The debug oracle re-runs the seed's full drain-time sweep and
    asserts semi-naive discovery missed nothing, on every terminating run."""
    for seed in range(40):
        sigma = random_dependency_set(seed, n_deps=5)
        db = random_instance(seed * 3 + 11, sigma, n_facts=8, n_nulls=0)
        for variant in VARIANTS:
            ChaseRunner(
                db, sigma, variant, "fifo", max_steps=80,
                check_exhaustive=True,
            ).run()


# -- saturation differential --------------------------------------------------


def reference_naive_saturate(database, rules, max_facts, max_rounds):
    """The seed's saturation loop: full re-enumeration every round, via the
    naive matcher.  Returns (facts, saturated, alarmed, rounds)."""
    instance = database.copy()
    rules = list(rules)
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        new_facts = []
        for rule in rules:
            for h in naive_engine.match(rule.source.body, instance, limit=None):
                for fact in rule.head_facts(h):
                    if fact in instance:
                        continue
                    for t in fact.args:
                        if isinstance(t, SkolemTerm) and t.is_cyclic:
                            return instance.facts(), False, True, rounds
                    new_facts.append(fact)
        if instance.add_all(new_facts) == 0:
            return instance.facts(), True, False, rounds
        if len(instance) > max_facts:
            return instance.facts(), False, False, rounds
    return instance.facts(), False, False, rounds


def test_saturation_differential_on_random_programs():
    checked = 0
    for seed in range(120):
        sigma = random_dependency_set(seed, n_deps=6, egd_fraction=0.0)
        if sigma.egds or not len(sigma.tgds):
            continue
        rules = skolemise(sigma, "semi_oblivious")
        base = critical_instance(sigma)
        result = saturate(base, rules, max_facts=2_000, max_rounds=30)
        ref = reference_naive_saturate(base, rules, max_facts=2_000, max_rounds=30)
        got = (result.instance.facts(), result.saturated, result.alarmed,
               result.rounds)
        assert got == ref, f"seed={seed}"
        checked += 1
    assert checked >= 80  # the generator rarely emits empty TGD sets


def reference_naive_msa(sigma, max_rounds=2_000):
    """The seed's MSA loop: full re-enumeration every round via the naive
    matcher, same summary constants and contribution-edge recording.
    Returns (accepted, exact) exactly like ``is_msa``."""
    import networkx as nx

    from repro.chase.skolem import critical_instance, skolemise
    from repro.model.terms import Constant

    rules = skolemise(sigma, "semi_oblivious")
    instance = critical_instance(sigma)
    summary_const = {
        functor: Constant(f"@{functor}")
        for rule in rules
        for _, functor, _ in rule.functors
    }
    contributes = nx.DiGraph()
    contributes.add_nodes_from(summary_const)
    inverse = {c: f for f, c in summary_const.items()}
    for _ in range(max_rounds):
        new_facts = []
        for rule in rules:
            for h in naive_engine.match(rule.source.body, instance, limit=None):
                mapping = {v: h[v] for v in rule.source.body_variables()}
                used = {
                    inverse[t]
                    for t in mapping.values()
                    if isinstance(t, Constant) and t in inverse
                }
                for z, functor, _ in rule.functors:
                    mapping[z] = summary_const[functor]
                    for g in used:
                        contributes.add_edge(g, functor)
                for atom in rule.source.head:
                    fact = atom.apply(mapping)
                    if fact not in instance:
                        new_facts.append(fact)
        if instance.add_all(new_facts) == 0:
            break
    else:
        return False, False
    try:
        nx.find_cycle(contributes)
        return False, True
    except nx.NetworkXNoCycle:
        return True, True


def test_msa_differential_on_random_programs():
    """The semi-naive MSA loop (delta rounds + compiled plans) must agree
    with the seed's full-re-enumeration naive loop, program for program —
    the contribution edges recorded from delta homomorphisms alone must
    produce the same cyclicity verdict."""
    from repro.criteria.mfa import is_msa

    checked = 0
    for seed in range(120):
        sigma = random_dependency_set(seed, n_deps=6, egd_fraction=0.0)
        if sigma.egds or not len(sigma.tgds):
            continue
        assert is_msa(sigma) == reference_naive_msa(sigma), f"seed={seed}"
        checked += 1
    assert checked >= 80


def test_saturation_differential_oblivious_variant():
    for seed in range(40):
        sigma = random_dependency_set(seed, n_deps=5, egd_fraction=0.0)
        if sigma.egds or not len(sigma.tgds):
            continue
        rules = skolemise(sigma, "oblivious")
        base = critical_instance(sigma)
        result = saturate(base, rules, max_facts=1_500, max_rounds=25)
        ref = reference_naive_saturate(base, rules, max_facts=1_500, max_rounds=25)
        assert (result.instance.facts(), result.saturated, result.alarmed,
                result.rounds) == ref, f"seed={seed}"


# -- columnar backend ---------------------------------------------------------


def test_columnar_saturation_differential():
    """Saturation under the columnar backend (columnar working instance,
    row-handle delta rounds) agrees with the naive full-re-enumeration
    reference round for round."""
    checked = 0
    for seed in range(60):
        sigma = random_dependency_set(seed, n_deps=6, egd_fraction=0.0)
        if sigma.egds or not len(sigma.tgds):
            continue
        rules = skolemise(sigma, "semi_oblivious")
        base = critical_instance(sigma)
        with using_backend("columnar"):
            result = saturate(base, rules, max_facts=2_000, max_rounds=30)
        assert isinstance(result.instance, ColumnarInstance)
        ref = reference_naive_saturate(base, rules, max_facts=2_000, max_rounds=30)
        got = (result.instance.facts(), result.saturated, result.alarmed,
               result.rounds)
        assert got == ref, f"seed={seed}"
        checked += 1
    assert checked >= 40


def test_columnar_ambient_backend_chase():
    """A ``ChaseRunner`` built inside ``using_backend("columnar")`` works
    over a columnar instance and takes the naive backend's decisions."""
    for seed in range(30):
        sigma = random_dependency_set(seed, n_deps=6)
        db = random_instance(seed * 13 + 3, sigma, n_facts=8, n_nulls=0)
        for variant in VARIANTS:
            r_nai = chase_under(
                "naive", db, sigma, variant=variant, strategy="fifo",
                max_steps=50,
            )
            with using_backend("columnar"):
                runner = ChaseRunner(db, sigma, variant, "fifo", max_steps=50)
                assert isinstance(runner.instance, ColumnarInstance)
                r_col = runner.run()
            assert_same_result(r_col, r_nai, f"seed={seed} {variant} (columnar)")


def test_columnar_chase_exhaustive_oracle():
    """The drain-time exhaustiveness oracle holds under columnar
    semi-naive discovery (row handles seed exactly the full sweep)."""
    for seed in range(20):
        sigma = random_dependency_set(seed, n_deps=5)
        db = random_instance(seed * 3 + 11, sigma, n_facts=8, n_nulls=0)
        for variant in VARIANTS:
            with using_backend("columnar"):
                ChaseRunner(
                    db, sigma, variant, "fifo", max_steps=80,
                    check_exhaustive=True,
                ).run()
