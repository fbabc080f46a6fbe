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

Each discovery batch is pushed in a canonical order (dependency order in Σ,
then assignment images), so a run's step sequence depends only on the *set*
of homomorphisms each discovery finds — the columnar default and the naive
reference backend (``engine="naive"``) drive byte-identical chase runs,
which the differential test suite exploits.

Variant-specific applicability (Section 2):

* standard: TGD triggers must have no head extension in the current
  instance; EGD triggers need ``h(x1) ≠ h(x2)``;
* oblivious: each trigger fires at most once, keyed on all body variables;
* semi-oblivious: keyed on the variables shared between body and head
  (the TGD frontier; for an EGD, the two equated variables).
"""

from __future__ import annotations

from typing import Iterable

from ..budget import Budget
from ..homomorphism.finder import find_homomorphism, find_homomorphisms
from ..homomorphism.satisfaction import violations
from ..matching import (
    body_atom_index,
    delta_homomorphisms,
    delta_row_homomorphisms,
    get_backend,
    using_backend,
)
from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from ..model.dependencies import EGD, TGD, AnyDependency, DependencySet
from ..model.terms import GroundTerm, Null, NullFactory, Variable
from .result import ChaseResult, ChaseStatus
from .step import StepOutcome, Substitution, Trigger, apply_step
from .strategies import Strategy, resolve_strategy

VARIANTS = ("standard", "oblivious", "semi_oblivious")


class ChaseBudgetExceeded(Exception):
    """Internal signal: step budget exhausted (mapped to EXCEEDED status)."""


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


class ChaseRunner:
    """Runs one chase sequence over a private copy of the database."""

    def __init__(
        self,
        database: ColumnarInstance,
        sigma: DependencySet,
        variant: str = "standard",
        strategy: Strategy | str = "fifo",
        max_steps: int = 10_000,
        copy_database: bool = True,
        engine: str | None = None,
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
        self.engine = engine
        self.check_exhaustive = check_exhaustive
        # ``copy()`` is an O(predicates) copy-on-write fork.
        self.instance = database.copy() if copy_database else database
        start = max((n.label for n in self.instance.nulls()), default=0) + 1
        self.nulls = NullFactory(start=start)
        self.steps: list[StepOutcome] = []
        self._pending: list[Trigger] = []
        self._seen: set[Trigger] = set()
        self._fired_keys: set[tuple] = set()
        self._key_vars: dict[AnyDependency, tuple[Variable, ...]] = {}
        if variant != "standard":
            self._key_vars = {d: _key_variables(d, variant) for d in sigma}
        self._dep_order = {d: i for i, d in enumerate(sigma)}
        self._body_index = body_atom_index((d, d.body) for d in sigma)
        self._tick = 0

    # -- discovery ---------------------------------------------------------

    def _trigger_sort_key(self, trigger: Trigger) -> tuple:
        return (
            self._dep_order[trigger.dependency],
            tuple(repr(t) for _, t in trigger.assignment),
        )

    def _push_batch(self, triggers: Iterable[Trigger]) -> None:
        """Push one discovery batch in canonical order (see module docstring)."""
        batch = [t for t in triggers if t not in self._seen]
        batch.sort(key=self._trigger_sort_key)
        for t in batch:
            if t not in self._seen:  # batch may repeat a trigger
                self._seen.add(t)
                self._pending.append(t)

    def _discover_initial(self) -> None:
        """Full discovery over the starting instance."""
        batch = []
        if self.variant == "standard":
            for dep in self.sigma:
                for h in violations(self.instance, dep):
                    batch.append(Trigger.make(dep, h))
        else:
            for dep in self.sigma:
                for h in find_homomorphisms(dep.body, self.instance, limit=None):
                    batch.append(Trigger.make(dep, h))
        self._push_batch(batch)

    def _discover_delta(self) -> None:
        """Semi-naive discovery: join the delta-log facts added since the
        last call against the bodies mentioning their predicates."""
        inst = self.instance
        if get_backend() == "naive":
            # The naive oracle's path: materialised delta facts, re-checked
            # for membership (a merge may have rewritten them away since).
            delta = inst.added_since(self._tick)
            self._tick = inst.tick
            live = [f for f in delta if f in inst]
            if live:
                self._push_batch(
                    Trigger.make(dep, h)
                    for dep, h in delta_homomorphisms(self._body_index, inst, live)
                )
            return
        # Row-handle path: no Atom is materialised for discovery; dead rows
        # (discarded or merge-rewritten since being logged) are filtered
        # by liveness.
        handles = inst.added_rows_since(self._tick)
        self._tick = inst.tick
        live_rows = [hd for hd in handles if inst.row_live(hd)]
        if live_rows:
            self._push_batch(
                Trigger.make(dep, h)
                for dep, h in delta_row_homomorphisms(
                    self._body_index, inst, live_rows
                )
            )

    # -- applicability -------------------------------------------------------

    def _applicable(self, trigger: Trigger) -> bool:
        dep = trigger.dependency
        h = trigger.mapping()
        if isinstance(dep, EGD) and h[dep.lhs] is h[dep.rhs]:
            return False
        if self.variant == "standard":
            if isinstance(dep, TGD):
                seed = {v: h[v] for v in dep.frontier()}
                ext = find_homomorphism(
                    dep.head, self.instance, seed=seed, frozen_nulls=True
                )
                return ext is None
            return True
        key = trigger.key(self._key_vars[dep])
        return key not in self._fired_keys

    # -- merges ---------------------------------------------------------------

    def _apply_gamma(self, gamma: Substitution) -> None:
        """Rewrite trigger bookkeeping after an EGD merge.

        The instance itself was already rewritten by the step; the rewritten
        facts re-entered the delta log and are picked up by the next
        ``_discover_delta`` call.
        """
        old, new = gamma.old, gamma.new
        self._pending = [t.rewrite(old, new) for t in self._pending]
        self._seen = set(self._pending)
        if self._fired_keys:
            self._fired_keys = {
                (dep, tuple(new if t is old else t for t in images))
                for dep, images in self._fired_keys
            }

    # -- main loop -------------------------------------------------------------

    def run(self) -> ChaseResult:
        if self.engine is None:  # inherit the ambient matching backend
            return self._run()
        with using_backend(self.engine):
            return self._run()

    def _run(self) -> ChaseResult:
        self._discover_initial()
        self._tick = self.instance.tick
        facts_seen = len(self.instance)
        self.budget.charge_facts(facts_seen)
        while True:
            if len(self.steps) >= self.max_steps:
                return ChaseResult(
                    ChaseStatus.EXCEEDED, self.instance, self.steps, self.variant
                )
            if not self.budget.charge():
                return ChaseResult(
                    ChaseStatus.EXCEEDED, self.instance, self.steps, self.variant,
                    exhausted=self.budget.exhausted,
                )
            trigger = self._next_applicable()
            if trigger is None:
                if self.check_exhaustive:
                    self._assert_exhaustive()
                return ChaseResult(
                    ChaseStatus.SUCCESS, self.instance, self.steps, self.variant
                )
            if self.variant != "standard":
                self._fired_keys.add(trigger.key(self._key_vars[trigger.dependency]))
            outcome = apply_step(self.instance, trigger, self.nulls)
            self.steps.append(outcome)
            if outcome.failed:
                return ChaseResult(ChaseStatus.FAILURE, None, self.steps, self.variant)
            if outcome.gamma is not None:
                self._apply_gamma(outcome.gamma)
            self._discover_delta()
            if len(self.instance) > facts_seen:
                self.budget.charge_facts(len(self.instance) - facts_seen)
                facts_seen = len(self.instance)

    def _next_applicable(self) -> Trigger | None:
        """Pop pending triggers per strategy until one is applicable.

        Dead triggers are dropped permanently and the pool is never
        re-swept: semi-naive discovery keeps it complete at all times (the
        invariant in the module docstring / DESIGN.md).
        """
        # repro-lint: disable=budget-loop -- pool strictly shrinks: every iteration pops one trigger; the caller's step loop charges the budget
        while self._pending:
            i = self.strategy(self._pending)
            trigger = self._pending.pop(i)
            if self._applicable(trigger):
                return trigger
        return None

    def _assert_exhaustive(self) -> None:
        """Debug oracle: re-run full discovery and verify nothing fires.

        This is the seed's drain-time sweep, demoted to an assertion.  The
        differential tests enable it to certify the semi-naive invariant on
        every terminating run they produce.
        """
        for dep in self.sigma:
            for h in find_homomorphisms(dep.body, self.instance, limit=None):
                if self._applicable(Trigger.make(dep, h)):
                    raise AssertionError(
                        f"semi-naive discovery missed an applicable trigger "
                        f"for {dep} under {h}"
                    )


def run_chase(
    database: ColumnarInstance,
    sigma: DependencySet,
    variant: str = "standard",
    strategy: Strategy | str = "fifo",
    max_steps: int = 10_000,
    engine: str | None = None,
    budget: Budget | None = None,
) -> ChaseResult:
    """Run one chase sequence of ``database`` with ``sigma``.

    ``variant`` is one of ``standard``, ``oblivious``, ``semi_oblivious``;
    ``strategy`` resolves the nondeterministic choice among applicable
    steps; ``engine`` selects the matching backend (``columnar`` or the
    ``naive`` reference), or inherits the ambient backend when None —
    ``using_backend(...)`` around this call is honoured; both run over a
    copy-on-write fork of ``database``.  ``budget``
    adds fact/wall-clock bounds and cancellation on top of ``max_steps``;
    exhaustion yields ``EXCEEDED`` with ``result.exhausted`` set.  The
    input database is not modified.
    """
    runner = ChaseRunner(
        database, sigma, variant, strategy, max_steps, engine=engine, budget=budget
    )
    return runner.run()
