"""The sequential chase runner: standard, oblivious, and semi-oblivious.

The runner owns a working instance and a pool of *pending* candidate
triggers.  Discovery is **semi-naive**: the instance's delta log feeds each
newly added (or merge-rewritten) fact into the matching backend, which
joins it only against bodies mentioning its predicate.  There is no
"full sweep on drain" any more; DESIGN.md ("Indexed matching and semi-naive
discovery") states and proves the invariant that replaces it:

* every body homomorphism into the current instance was discovered either
  by the initial full discovery or when the *latest-added* fact of its
  image entered the delta log — facts removed by an EGD merge contain the
  merged-away null and can never reappear, so "latest-added" is well
  defined;
* a trigger that fails its applicability check is dead **permanently** for
  every variant (a satisfied TGD trigger stays satisfied under both fact
  additions and EGD merges; an EGD trigger with equal images stays equal;
  a fired oblivious key stays fired), so pruning at pop time is sound;
* EGD merges rewrite the instance, every pending trigger, and every
  recorded (semi-)oblivious trigger key — implementing the paper's
  ``h_i(x) = h_j(x)γ_j···γ_{i-1}`` composed-substitution comparison;
* rewritten facts re-enter the delta log and count as *new* facts for
  discovery (a merge can enable body matches with repeated variables,
  e.g. ``E(x,x)`` after ``E(a,η)`` collapses to ``E(a,a)``).

**Lid rows.**  The runner works on the family-local term ids (lids) of
the :class:`~repro.model.columnar.ColumnarInstance` it owns.  A trigger
is a row ``(dependency index, lids)`` — the images of the body variables
in name order — which semi-naive discovery emits directly
(:func:`~repro.matching.delta_homomorphisms` with ``lid_rows``).  The
seen set, the (semi-)oblivious fired keys and the EGD-merge rewriting
(old lid → new lid) all work on these int tuples.
The standard chase's head-extension test runs each TGD's head plan —
bound once per run, frontier seeded, nulls frozen — on the frontier's
lids; an EGD trigger is live iff its two lids differ.  Head instantiation
writes int rows straight into the instance, through per-atom lid
templates (body-variable lid, fresh-null lid or rigid-term lid).  Terms,
``Atom``\\ s and :class:`~.step.Trigger`\\ s are built only for the step
that fires.  Strategies see :class:`~.step.PendingTrigger` wrappers of
the rows (``.dependency``, plus ``.assignment`` on demand).

**Order.**  Each discovery batch is pushed in a canonical order:
dependency index in Σ, then the ``repr`` strings of the images (a per-lid
cache that grows with the term table).  A run's step sequence therefore
depends only on the *set* of homomorphisms each discovery finds.  The
runner never asks which matcher is active: its two matching calls —
delta discovery and the head plan — answer under the ambient backend,
so both backends drive byte-identical chase runs, which the
differential suites and the golden step sequences
(``tests/golden/chase_sequences.json``) hold them to.

Variant-specific applicability (Section 2):

* standard: TGD triggers must have no head extension in the current
  instance; EGD triggers need ``h(x1) ≠ h(x2)``;
* oblivious: each trigger fires at most once, keyed on all body variables;
* semi-oblivious: keyed on the variables shared between body and head
  (the TGD frontier; for an EGD, the two equated variables).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..budget import Budget
from ..homomorphism.finder import find_homomorphisms
from ..matching import BoundPlan, body_atom_index, delta_homomorphisms, lid_getter
from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from ..model.dependencies import EGD, TGD, AnyDependency, DependencySet
from ..model.terms import NullFactory, Term, Variable
from .result import ChaseResult, ChaseStatus
from .step import PendingTrigger, StepOutcome, Substitution, egd_substitution
from .strategies import Strategy, resolve_strategy

VARIANTS = ("standard", "oblivious", "semi_oblivious")

#: A trigger row: (dependency index in Σ, lids of the body variables in
#: name order).
Row = tuple[int, tuple[int, ...]]


def _key_variables(dep: AnyDependency, variant: str) -> tuple[Variable, ...]:
    """The variables identifying a trigger for the given chase variant."""
    if variant == "oblivious":
        return tuple(sorted(dep.body_variables(), key=lambda v: v.name))
    # semi-oblivious: variables occurring in both body and head.
    if isinstance(dep, TGD):
        shared = dep.frontier()
    else:
        shared = {dep.lhs, dep.rhs}
    return tuple(sorted(shared, key=lambda v: v.name))


class _Rule:
    """One dependency of Σ as the runner uses it, resolved once per run.

    ``variables`` is the name order of the body variables (the layout of
    a trigger row's lids); ``key`` reads the (semi-)oblivious key lids
    off a row.  An EGD keeps the row positions of its two equated
    variables.  A TGD keeps its head plan (bound lazily, on the first
    head test, like any plan) with the getter of its seed lids, and its
    head instantiation: ``extras`` lists, in first occurrence order over
    the head, the terms a step registers beyond the body images —
    ``(k, None)`` for the ``k``-th existential's fresh null, ``(-1,
    term)`` for a rigid head term — and ``templates`` maps each head
    atom to its store key and the getter of its lids from ``row lids +
    extras``.
    """

    __slots__ = (
        "dep", "variables", "is_egd", "lhs", "rhs", "key",
        "head_plan", "head_seed", "extras", "templates",
    )

    def __init__(self, dep: AnyDependency, variant: str) -> None:
        self.dep = dep
        self.variables = tuple(sorted(dep.body_variables(), key=lambda v: v.name))
        pos = {v: i for i, v in enumerate(self.variables)}
        self.key = lid_getter([pos[v] for v in _key_variables(dep, variant)])
        self.is_egd = isinstance(dep, EGD)
        if isinstance(dep, EGD):
            self.lhs, self.rhs = pos[dep.lhs], pos[dep.rhs]
            return
        self.head_plan = BoundPlan(dep.head, dep.frontier(), True, ())
        self.head_seed = lid_getter([pos[v] for v in self.head_plan.seed_terms])
        existential = {z: k for k, z in enumerate(dep.existential)}
        slot: dict[Term, int] = {}
        extras: list[tuple[int, Term | None]] = []
        templates = []
        for atom in dep.head:
            idx = []
            for t in atom.args:
                i = pos.get(t)
                if i is None:
                    i = slot.get(t)
                    if i is None:
                        i = slot[t] = len(pos) + len(extras)
                        k = existential.get(t, -1)
                        extras.append((k, None if k >= 0 else t))
                idx.append(i)
            templates.append(((atom.predicate, atom.arity), lid_getter(idx)))
        self.extras = tuple(extras)
        self.templates = tuple(templates)


class ChaseRunner:
    """Runs one chase sequence over a private copy of the database."""

    def __init__(
        self,
        database: ColumnarInstance,
        sigma: DependencySet,
        variant: str = "standard",
        strategy: Strategy | str = "fifo",
        max_steps: int = 10_000,
        check_exhaustive: bool = False,
        budget: Budget | None = None,
    ) -> None:
        if variant not in VARIANTS:
            raise ValueError(f"unknown chase variant {variant!r}; known: {VARIANTS}")
        self.sigma = sigma
        self.variant = variant
        self.strategy = resolve_strategy(strategy)
        self.max_steps = max_steps
        # The step cap is one dimension of the run budget; an explicit
        # budget adds fact/wall-clock bounds and cancellation on top.
        self.budget = budget if budget is not None else Budget()
        self.check_exhaustive = check_exhaustive
        # ``copy()`` is an O(predicates) copy-on-write fork.
        self.instance = database.copy()
        start = max((n.label for n in self.instance.nulls()), default=0) + 1
        self.nulls = NullFactory(start=start)
        self.steps: list[StepOutcome] = []
        self._rules = [_Rule(d, variant) for d in sigma]
        self._standard = variant == "standard"
        self._pending: list[PendingTrigger] = []
        self._seen: set[Row] = set()
        self._fired_keys: set[Row] = set()
        # The family term table: lid → term, term tid → lid, and the
        # ``repr`` of every lid seen so far (the canonical order's key).
        table = self.instance.term_table
        self._terms = table.terms
        self._local_of = table.local_of
        self._register = table.register
        self._reprs: list[str] = []
        self._body_index = body_atom_index(
            (i, d.body) for i, d in enumerate(sigma)
        )
        self._tick = 0

    # -- discovery ---------------------------------------------------------

    def _lower(self, index: int, h: Mapping[Term, Term]) -> Row:
        """A dict homomorphism of dependency ``index``'s body as a row."""
        local_of = self._local_of
        return index, tuple(
            [local_of[h[v].tid] for v in self._rules[index].variables]
        )

    def _push_batch(self, rows: Iterable[Row]) -> None:
        """Push one discovery batch in canonical order (see module docstring)."""
        seen = self._seen
        batch = [r for r in rows if r not in seen]
        if not batch:
            return
        if len(batch) > 1:
            terms, reprs = self._terms, self._reprs
            if len(reprs) < len(terms):
                reprs.extend(map(repr, terms[len(reprs):]))
            lookup = reprs.__getitem__
            batch.sort(key=lambda r: (r[0], tuple(map(lookup, r[1]))))
        rules = self._rules
        pending = self._pending
        for r in batch:
            if r not in seen:  # batch may repeat a trigger
                seen.add(r)
                rule = rules[r[0]]
                pending.append(
                    PendingTrigger(rule.dep, r, rule.variables, self._terms)
                )

    def _discover_initial(self) -> None:
        """Full discovery over the starting instance (the standard chase
        keeps only the violations, as ``violations`` would)."""
        batch = []
        for i, rule in enumerate(self._rules):
            for h in find_homomorphisms(rule.dep.body, self.instance, limit=None):
                row = self._lower(i, h)
                if self._standard and not self._applicable(row):
                    continue
                batch.append(row)
        self._push_batch(batch)

    def _discover_delta(self) -> None:
        """Semi-naive discovery: join the delta-log facts added since the
        last call against the bodies mentioning their predicates."""
        inst = self.instance
        rows = delta_homomorphisms(self._body_index, inst, self._tick, lid_rows=True)
        self._tick = inst.tick
        self._push_batch(rows)

    # -- applicability -------------------------------------------------------

    def _applicable(self, row: Row) -> bool:
        index, lids = row
        rule = self._rules[index]
        if rule.is_egd:
            if lids[rule.lhs] == lids[rule.rhs]:
                return False
            if self._standard:
                return True
        elif self._standard:
            return not self._head_holds(rule, lids)
        return (index, rule.key(lids)) not in self._fired_keys

    def _head_holds(self, rule: _Rule, lids: tuple[int, ...]) -> bool:
        """Does the trigger's frontier image extend to the TGD's head?"""
        extensions = rule.head_plan.run(self.instance, rule.head_seed(lids))
        return next(extensions, None) is not None

    # -- steps and merges -----------------------------------------------------

    def _fire(self, pending: PendingTrigger) -> StepOutcome:
        """Apply one chase step (Definition 1) for an applicable trigger,
        in place, by lid."""
        index, lids = pending.row
        rule = self._rules[index]
        trigger = pending.trigger()
        terms = self._terms
        if rule.is_egd:
            dep = rule.dep
            gamma = egd_substitution(
                dep,
                {dep.lhs: terms[lids[rule.lhs]], dep.rhs: terms[lids[rule.rhs]]},
            )
            if gamma is None:
                return StepOutcome(trigger, failed=True)
            self.instance.merge_terms(gamma.old, gamma.new)
            self._apply_gamma(gamma)
            return StepOutcome(trigger, gamma=gamma)
        created = [self.nulls.fresh() for _ in rule.dep.existential]
        register = self._register
        values = list(lids)
        for k, term in rule.extras:
            values.append(register(created[k] if k >= 0 else term))
        add_key = self.instance._add_key
        added = []
        for skey, lids_of in rule.templates:
            key = lids_of(values)
            if add_key(skey, key):
                added.append(Atom(skey[0], tuple([terms[lid] for lid in key])))
        return StepOutcome(trigger, added=added, created_nulls=created)

    def _apply_gamma(self, gamma: Substitution) -> None:
        """Rewrite trigger bookkeeping after an EGD merge (old lid → new lid).

        The instance itself was already rewritten by the step; the rewritten
        facts re-entered the delta log and are picked up by the next
        ``_discover_delta`` call.
        """
        old, new = self._register(gamma.old), self._register(gamma.new)

        def rewrite(lids: tuple[int, ...]) -> tuple[int, ...]:
            return tuple([new if lid == old else lid for lid in lids])

        pending = []
        for p in self._pending:
            index, lids = p.row
            if old in lids:
                p = p.rewritten((index, rewrite(lids)))
            pending.append(p)
        self._pending = pending
        self._seen = {p.row for p in pending}
        if self._fired_keys:
            self._fired_keys = {
                (index, rewrite(key) if old in key else key)
                for index, key in self._fired_keys
            }

    # -- main loop -------------------------------------------------------------

    def run(self) -> ChaseResult:
        self._discover_initial()
        self._tick = self.instance.tick
        facts_seen = len(self.instance)
        self.budget.charge_facts(facts_seen)
        while True:
            pending = self._next_applicable()
            if pending is None:
                if self.check_exhaustive:
                    self._assert_exhaustive()
                return ChaseResult(
                    ChaseStatus.SUCCESS, self.instance, self.steps, self.variant
                )
            # A cap only bites when a step is still applicable: a chase
            # that halts exactly at the cap terminated.
            if len(self.steps) >= self.max_steps:
                return ChaseResult(
                    ChaseStatus.EXCEEDED, self.instance, self.steps, self.variant
                )
            if not self.budget.charge():
                return ChaseResult(
                    ChaseStatus.EXCEEDED, self.instance, self.steps, self.variant,
                    exhausted=self.budget.exhausted,
                )
            if not self._standard:
                index, lids = pending.row
                self._fired_keys.add((index, self._rules[index].key(lids)))
            outcome = self._fire(pending)
            self.steps.append(outcome)
            if outcome.failed:
                return ChaseResult(ChaseStatus.FAILURE, None, self.steps, self.variant)
            self._discover_delta()
            size = len(self.instance)
            if size > facts_seen:
                self.budget.charge_facts(size - facts_seen)
                facts_seen = size

    def _next_applicable(self) -> PendingTrigger | None:
        """Pop pending triggers per strategy until one is applicable.

        Dead triggers are dropped permanently and the pool is never
        re-swept: semi-naive discovery keeps it complete at all times (the
        invariant in the module docstring / DESIGN.md).
        """
        pending = self._pending
        # repro-lint: disable=budget-loop -- pool strictly shrinks: every iteration pops one trigger; the caller's step loop charges the budget
        while pending:
            candidate = pending.pop(self.strategy(pending))
            if self._applicable(candidate.row):
                return candidate
        return None

    def _assert_exhaustive(self) -> None:
        """Debug oracle: re-run full discovery and verify nothing fires.

        This is the seed's drain-time sweep, demoted to an assertion.  The
        differential tests enable it to certify the semi-naive invariant on
        every terminating run they produce.
        """
        for i, rule in enumerate(self._rules):
            for h in find_homomorphisms(rule.dep.body, self.instance, limit=None):
                if self._applicable(self._lower(i, h)):
                    raise AssertionError(
                        f"semi-naive discovery missed an applicable trigger "
                        f"for {rule.dep} under {h}"
                    )


def run_chase(
    database: ColumnarInstance,
    sigma: DependencySet,
    variant: str = "standard",
    strategy: Strategy | str = "fifo",
    max_steps: int = 10_000,
    budget: Budget | None = None,
) -> ChaseResult:
    """Run one chase sequence of ``database`` with ``sigma``.

    ``variant`` is one of ``standard``, ``oblivious``, ``semi_oblivious``;
    ``strategy`` resolves the nondeterministic choice among applicable
    steps.  The run works on a copy-on-write fork of ``database`` and
    matches under the ambient backend (``using_backend("naive")`` around
    this call selects the reference matcher).  ``budget``
    adds fact/wall-clock bounds and cancellation on top of ``max_steps``;
    exhaustion yields ``EXCEEDED`` with ``result.exhausted`` set — in
    either case only when some step is still applicable (a chase that
    halts exactly at a cap is ``SUCCESS``/``FAILURE``).  The input
    database is not modified.
    """
    runner = ChaseRunner(database, sigma, variant, strategy, max_steps, budget=budget)
    return runner.run()
