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
:class:`~repro.analysis.context.AnalysisContext` and handed by argument
to every oracle the analysis builds, nested ones included — lets them
reuse decisions across criteria, so a chase probe is never duplicated.
An oracle given no cache makes a private one.  Only deterministic
decisions are stored: a decision truncated by a wall-clock deadline or a
cancellation is kept out so one criterion's exhaustion can never leak
approximation into another criterion's verdict.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from ..budget import coerce_budget
from ..model.atoms import Atom
from ..model.dependencies import TGD, AnyDependency, DependencySet
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


def pair_shape(r1: AnyDependency, r2: AnyDependency) -> tuple:
    """The pair ``(r1, r2)`` up to an injective renaming of predicates.

    Predicates are numbered by first occurrence across r1's body and
    head, then r2's body and head.  Everything else is kept as it is:
    the variables, the constants, the dependency kind, the order of the
    existential variables and an EGD's two sides.  Labels are left out,
    as ``Dependency.__eq__`` leaves them out.
    """
    numbers: dict[str, int] = {}

    def atoms(seq: tuple[Atom, ...]) -> tuple:
        return tuple(
            (numbers.setdefault(a.predicate, len(numbers)), a.args) for a in seq
        )

    def shape(d: AnyDependency) -> tuple:
        body = atoms(d.body)
        if isinstance(d, TGD):
            return (True, body, atoms(d.head), d.existential)
        return (False, body, d.lhs, d.rhs)

    return shape(r1), shape(r2)


class Memo:
    """Memoises cacheable builds and counts hits, misses and uncached builds.

    The core of both levels of the shared analysis substrate (DESIGN.md
    §6): the :class:`~repro.analysis.context.AnalysisContext` artifact
    store and the :class:`DecisionCache` of firing-edge decisions.  A
    build returns ``(value, cacheable)``; an uncacheable value (a
    budget-truncated, non-reproducible one) goes back to its own caller
    only, and the next request builds again under its own budget.  A memo
    is confined to the thread that made it.
    """

    def __init__(self) -> None:
        self._values: dict = {}
        self.hits = 0
        self.misses = 0
        self.uncached_builds = 0

    def _on_hit(self) -> None:
        self.hits += 1

    def _get_or_build(
        self, key: tuple, build: Callable[[], tuple[Any, bool]]
    ) -> Any:
        if key in self._values:
            self._on_hit()
            return self._values[key]
        self.misses += 1
        value, cacheable = build()
        if cacheable:
            self._values[key] = value
        else:
            self.uncached_builds += 1
        return value


class DecisionCache(Memo):
    """A store of deterministic firing decisions.

    ``decide(key, compute)`` returns the cached decision for ``key`` or
    runs ``compute`` (the witness-engine probe), which returns
    ``(decision, deterministic)``; only deterministic decisions enter the
    cache, so a probe whose enclosing budget blew leaves the key
    undecided and the next caller probes again under its own budget.

    ``hits``/``misses`` are surfaced through :meth:`stats` for the
    ``--stats`` report and the CI bench summary.  ``prefiltered`` counts
    the pairs oracles wired to the cache ruled out with
    :func:`~repro.firing.witness.may_fire` alone, and ``shape_hits`` the
    ``≺`` pairs they answered from an earlier decision on a pair of the
    same :func:`pair_shape`; neither reaches the cache, so prefiltered +
    shape hits + hits + misses splits every pair asked about into
    "prefiltered / shape twin / cache hit / probed".
    """

    def __init__(self) -> None:
        super().__init__()
        self.preloaded = 0
        self.prefiltered = 0
        self.shape_hits = 0

    # Defined here, not only on Memo, so perfbench's tracer can patch it.
    _on_hit = Memo._on_hit

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: tuple) -> bool:
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
        if key not in self._values:
            self._values[key] = decision
            self.preloaded += 1

    def note_prefiltered(self, n: int = 1) -> None:
        """Count ``n`` pairs an oracle decided by the prefilter alone."""
        self.prefiltered += n

    def note_shape_hit(self) -> None:
        """Count one pair an oracle answered from its shape twin."""
        self.shape_hits += 1

    def snapshot(self) -> dict[tuple, FiringDecision]:
        """A copy of the decided edges (for persistence)."""
        return dict(self._values)

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "entries": len(self._values),
            "hits": self.hits,
            "misses": self.misses,
            "preloaded": self.preloaded,
            "prefiltered": self.prefiltered,
            "shape_hits": self.shape_hits,
            "hit_rate": self.hits / total if total else 0.0,
        }


class FiringOracle:
    """Decides and caches firing-relation edges.

    ``decisions`` is the :class:`DecisionCache` the oracle probes
    through: the analysis context's (the shared-context path), or a
    fresh private one when none is given.  The per-oracle dicts stay in
    front of that cache as a fast path, and ``ever_inexact`` is
    per-oracle so one consumer's truncated probes never flag another's
    verdict.

    The ``≺`` memo is keyed by :func:`pair_shape`, so a pair whose shape
    was decided before reuses that decision without an engine.  That is
    sound: whether a witness exists does not change under an injective
    renaming of predicates, and a budget-truncated decision (``edge=True,
    exact=False``) over-approximates for every pair of its shape.  Only
    the first pair of each shape reaches the shared cache.  ``<`` keeps a
    per-pair memo, because its key holds the full dependencies, which
    would have to be renamed along.

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
        self.decisions = decisions if decisions is not None else DecisionCache()
        # shape -> (the pair that was probed, its decision)
        self._precedes_cache: dict[tuple, tuple[tuple, FiringDecision]] = {}
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

    def _rule_out(self, r1: AnyDependency, r2: AnyDependency) -> bool:
        """Record that the prefilter answered ``(r1, r2)``: no edge, exact."""
        key = (r1, r2)
        if key not in self._prefiltered:
            self._prefiltered.add(key)
            self.decisions.note_prefiltered()
        return False

    def note_prefiltered(self, n: int) -> None:
        """Count ``n`` pairs a caller ruled out with ``may_fire`` without
        asking (the graph builders' predicate index)."""
        self.decisions.note_prefiltered(n)

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
        self, cache_key: tuple, build: Callable[[], WitnessEngine], method: str
    ) -> FiringDecision:
        def compute() -> tuple[FiringDecision, bool]:
            engine = build()
            decision = getattr(engine, method)()
            return decision, _deterministic(decision, engine)

        return self.decisions.decide(cache_key, compute)

    def precedes(self, r1: AnyDependency, r2: AnyDependency) -> bool:
        """``r1 ≺ r2``."""
        if not may_fire(r1, r2):
            return self._rule_out(r1, r2)
        shape = pair_shape(r1, r2)
        memo = self._precedes_cache.get(shape)
        if memo is None:
            cache_key = ("precedes", r1, r2, self.step_variant, self.budget)
            decision = self._probe(
                cache_key, lambda: self._engine(r1, r2, ()), "precedes"
            )
            self._precedes_cache[shape] = ((r1, r2), decision)
        else:
            pair, decision = memo
            if pair != (r1, r2):
                self.decisions.note_shape_hit()
        return self._note(decision)

    def fires(
        self,
        r1: AnyDependency,
        r2: AnyDependency,
        fulls: Iterable[AnyDependency] | None = None,
        full_set: frozenset | None = None,
    ) -> bool:
        """``r1 < r2`` w.r.t. the full dependencies (defaults to Σ∀).

        ``full_set`` is ``frozenset(fulls)``, for a caller asking about
        many pairs with the same ``fulls``.
        """
        if not may_fire(r1, r2):
            return self._rule_out(r1, r2)
        fulls = tuple(fulls) if fulls is not None else tuple(self.fulls)
        if full_set is None:
            full_set = frozenset(fulls)
        key = (r1, r2, full_set)
        decision = self._fires_cache.get(key)
        if decision is None:
            cache_key = (
                "fires", r1, r2, full_set, self.step_variant, self.budget,
            )
            decision = self._probe(
                cache_key, lambda: self._engine(r1, r2, fulls), "fires"
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
        full_set = frozenset(fulls)
        return any(
            self.fires(r2, r, fulls=fulls, full_set=full_set) for r2 in pool
        )
