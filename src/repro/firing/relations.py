"""Cached oracles for the firing relations over a dependency set.

:class:`FiringOracle` answers ``r1 ≺ r2`` (chase graph) and ``r1 < r2``
(firing graph, Definition 2) for pairs from a dependency set, caching
decisions.  The ≺ decision depends only on the pair; the < decision also
depends on the set of full dependencies (condition (iv)), so its cache is
keyed accordingly — the adornment algorithm re-queries the oracle as its
adorned set grows.

Each pair decision runs under a fresh step budget of ``self.budget``
steps; fresh budgets are linked to the ambient budget of the enclosing
analysis scope (see :mod:`repro.budget`), so a criterion-level deadline
or cancellation stops the oracle mid-pair with a sound, inexact answer.

Several criteria interrogate the same pairs of the same Σ (Str and S-Str
share the standard-step relation; CStr, SR and IR all rebuild the
oblivious-step chase graph).  A :class:`DecisionCache` — owned by an
:class:`~repro.analysis.context.AnalysisContext`, or installed for a
dynamic scope with :func:`shared_firing_cache` as the classification
portfolio does — lets every oracle wired to it reuse decisions across
criteria.  The cache is **thread-safe and single-flight**: when two
criteria of a parallel portfolio race to the same undecided edge, one
runs the witness engine and the other blocks until the decision lands,
so a chase probe is never duplicated.  Only deterministic decisions are
stored: a decision truncated by a wall-clock deadline or a cancellation
is kept out so one criterion's exhaustion can never leak approximation
into another criterion's verdict.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Iterator, Sequence

from ..budget import coerce_budget
from ..concurrency import SingleFlightCache
from ..model.dependencies import AnyDependency, DependencySet
from .witness import (
    DEFAULT_BUDGET,
    FiringDecision,
    WitnessEngine,
    may_fire,
)


def _deterministic(decision: FiringDecision, engine: WitnessEngine) -> bool:
    """Safe for a shared cache: decided by the pair alone.

    A decision is reproducible iff it completed, or was truncated by the
    engine's *own* per-pair step allowance.  Truncation inherited from an
    enclosing budget (a criterion's deadline, total-step limit or
    cancellation) depends on how much that criterion had already spent,
    so caching it would leak one criterion's exhaustion into another's
    analysis.
    """
    exhausted = engine.budget.exhausted
    if exhausted is None:
        return True
    if exhausted.dimension not in ("steps", "facts"):
        return False
    parent = engine.budget.parent
    return parent is None or parent.exhausted is None


class DecisionCache(SingleFlightCache):
    """A thread-safe, single-flight store of deterministic firing decisions.

    ``decide(key, compute)`` returns the cached decision for ``key`` or
    elects exactly one caller per key as the *leader* that runs
    ``compute`` (the witness-engine probe); concurrent callers for the
    same key block until the leader finishes (the
    :class:`~repro.concurrency.SingleFlightCache` protocol).  ``compute``
    returns ``(decision, deterministic)`` — only deterministic decisions
    enter the cache, so a leader whose enclosing budget blew mid-probe
    leaves the key undecided and the next caller re-elects a leader under
    its own budget.

    Stats (``hits``/``misses``/``waits``) are updated under the lock and
    surfaced through :meth:`stats` for the ``--stats`` report and the CI
    bench summary.  ``prefiltered`` counts the pairs oracles wired to the
    cache ruled out with :func:`~repro.firing.witness.may_fire` alone;
    those never reach the cache, so prefiltered + hits + misses splits
    every pair asked about into "prefiltered / cache hit / probed".
    """

    def __init__(self) -> None:
        super().__init__()
        self.hits = 0
        self.misses = 0
        self.waits = 0
        self.preloaded = 0
        self.prefiltered = 0

    def _on_hit(self) -> None:
        self.hits += 1

    def _on_miss(self) -> None:
        self.misses += 1

    def _on_wait(self) -> None:
        self.waits += 1

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._values

    def decide(
        self,
        key: tuple,
        compute: Callable[[], tuple[FiringDecision, bool]],
    ) -> FiringDecision:
        return self._get_or_build(key, compute)

    def seed(self, key: tuple, decision: FiringDecision) -> None:
        """Install a decision computed elsewhere (the batch artifact
        store's warm-start path).  Seeded decisions must be deterministic
        — the caller vouches, the cache cannot re-check."""
        with self._lock:
            if key not in self._values:
                self._values[key] = decision
                self.preloaded += 1

    def note_prefiltered(self, n: int = 1) -> None:
        """Count ``n`` pairs an oracle decided by the prefilter alone."""
        with self._lock:
            self.prefiltered += n

    def snapshot(self) -> dict[tuple, FiringDecision]:
        """A point-in-time copy of the decided edges (for persistence)."""
        with self._lock:
            return dict(self._values)

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._values),
                "hits": self.hits,
                "misses": self.misses,
                "waits": self.waits,
                "preloaded": self.preloaded,
                "prefiltered": self.prefiltered,
                "hit_rate": self.hits / total if total else 0.0,
            }


_SHARED_CACHE: ContextVar[DecisionCache | None] = ContextVar(
    "repro_shared_firing_cache", default=None
)


def current_firing_cache() -> DecisionCache | None:
    """The decision cache installed for the current dynamic scope."""
    return _SHARED_CACHE.get()


@contextmanager
def shared_firing_cache(
    cache: DecisionCache | None = None,
) -> Iterator[DecisionCache]:
    """Install a decision cache shared by every oracle in the scope."""
    cache = DecisionCache() if cache is None else cache
    token = _SHARED_CACHE.set(cache)
    try:
        yield cache
    finally:
        _SHARED_CACHE.reset(token)


@contextmanager
def no_firing_cache() -> Iterator[None]:
    """Suppress any enclosing shared cache for the scope.

    The ``backend="isolated"`` reference path of the classification
    portfolio uses this so each criterion recomputes every probe — the
    recompute baseline the shared-context bench compares against.
    """
    token = _SHARED_CACHE.set(None)
    try:
        yield
    finally:
        _SHARED_CACHE.reset(token)


class FiringOracle:
    """Decides and caches firing-relation edges.

    ``decisions`` wires the oracle to an explicit :class:`DecisionCache`
    (the shared-context path); without one the oracle falls back to the
    scope cache installed by :func:`shared_firing_cache`, and without
    that it probes uncached.  The per-oracle dicts stay in front of the
    shared cache as a lock-free fast path, and ``ever_inexact`` is
    per-oracle so one consumer's truncated probes never flag another's
    verdict.

    Every query passes :func:`~repro.firing.witness.may_fire` first: a
    pair it rules out is answered "no edge" (exactly) without an engine,
    a shared-cache entry or a frozenset of the full dependencies.  Pairs
    that pass reach a :class:`WitnessEngine` built over dependencies this
    oracle renamed apart (and warmed the plans of) once per suffix; the
    memo lives and dies with the oracle, so nothing outlives the analysis
    that created it.
    """

    def __init__(
        self,
        sigma: DependencySet | Sequence[AnyDependency],
        step_variant: str = "standard",
        budget: int = DEFAULT_BUDGET,
        decisions: DecisionCache | None = None,
    ) -> None:
        self.deps = list(sigma)
        self.step_variant = step_variant
        self.budget = budget
        self._decisions = decisions
        self._precedes_cache: dict[tuple, FiringDecision] = {}
        self._fires_cache: dict[tuple, FiringDecision] = {}
        self._prefiltered: set[tuple] = set()
        # (dependency, label, suffix) -> renamed copy.  The label is part
        # of the key because Dependency.__eq__ ignores it.
        self._renamed: dict[tuple, AnyDependency] = {}
        self.ever_inexact = False

    @property
    def fulls(self) -> list[AnyDependency]:
        return [d for d in self.deps if d.is_full]

    def _note(self, decision: FiringDecision) -> bool:
        if not decision.exact:
            self.ever_inexact = True
        return decision.edge

    def _shared(self) -> DecisionCache | None:
        if self._decisions is not None:
            return self._decisions
        return _SHARED_CACHE.get()

    def _rule_out(self, r1: AnyDependency, r2: AnyDependency) -> bool:
        """Record that the prefilter answered ``(r1, r2)``: no edge, exact."""
        key = (r1, r2)
        if key not in self._prefiltered:
            self._prefiltered.add(key)
            shared = self._shared()
            if shared is not None:
                shared.note_prefiltered()
        return False

    def note_prefiltered(self, n: int) -> None:
        """Count ``n`` pairs a caller ruled out with ``may_fire`` without
        asking (the graph builders' predicate index)."""
        shared = self._shared()
        if shared is not None and n:
            shared.note_prefiltered(n)

    def _rename(self, dep: AnyDependency, suffix: str) -> AnyDependency:
        key = (dep, dep.label, suffix)
        renamed = self._renamed.get(key)
        if renamed is None:
            renamed = dep.rename_variables(suffix)
            self._renamed[key] = renamed
        return renamed

    def _engine(
        self,
        r1: AnyDependency,
        r2: AnyDependency,
        fulls: Sequence[AnyDependency],
    ) -> WitnessEngine:
        renamed = (
            self._rename(r1, "1"),
            self._rename(r2, "2"),
            [self._rename(d, f"f{i}") for i, d in enumerate(fulls)],
        )
        return WitnessEngine(
            r1, r2, fulls, self.step_variant, coerce_budget(self.budget),
            renamed=renamed,
        )

    def _probe(
        self, shared_key: tuple, build: Callable[[], WitnessEngine], method: str
    ) -> FiringDecision:
        shared = self._shared()
        if shared is None:
            engine = build()
            return getattr(engine, method)()

        def compute() -> tuple[FiringDecision, bool]:
            engine = build()
            decision = getattr(engine, method)()
            return decision, _deterministic(decision, engine)

        return shared.decide(shared_key, compute)

    def precedes(self, r1: AnyDependency, r2: AnyDependency) -> bool:
        """``r1 ≺ r2``."""
        if not may_fire(r1, r2):
            return self._rule_out(r1, r2)
        key = (r1, r2)
        decision = self._precedes_cache.get(key)
        if decision is None:
            shared_key = ("precedes", r1, r2, self.step_variant, self.budget)
            decision = self._probe(
                shared_key, lambda: self._engine(r1, r2, ()), "precedes"
            )
            self._precedes_cache[key] = decision
        return self._note(decision)

    def fires(
        self,
        r1: AnyDependency,
        r2: AnyDependency,
        fulls: Iterable[AnyDependency] | None = None,
    ) -> bool:
        """``r1 < r2`` w.r.t. the full dependencies (defaults to Σ∀)."""
        if not may_fire(r1, r2):
            return self._rule_out(r1, r2)
        fulls = tuple(fulls) if fulls is not None else tuple(self.fulls)
        full_set = frozenset(fulls)
        key = (r1, r2, full_set)
        decision = self._fires_cache.get(key)
        if decision is None:
            shared_key = (
                "fires", r1, r2, full_set, self.step_variant, self.budget,
            )
            decision = self._probe(
                shared_key, lambda: self._engine(r1, r2, fulls), "fires"
            )
            self._fires_cache[key] = decision
        return self._note(decision)

    def fireable(
        self,
        r: AnyDependency,
        candidates: Iterable[AnyDependency] | None = None,
        fulls: Iterable[AnyDependency] | None = None,
    ) -> bool:
        """Definition 2: r is fireable w.r.t. Σ iff some r2 ∈ Σ has r2 < r."""
        pool = list(candidates) if candidates is not None else self.deps
        fulls = tuple(fulls) if fulls is not None else tuple(self.fulls)
        return any(self.fires(r2, r, fulls=fulls) for r2 in pool)
