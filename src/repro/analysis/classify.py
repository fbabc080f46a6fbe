"""The portfolio runner: run every registered termination criterion on a
dependency set and summarise the verdicts.

This is the top-level entry point a downstream user reaches for first::

    from repro import classify, parse_dependencies
    report = classify(parse_dependencies(text))
    print(report)

The portfolio runs the criteria one after another on the calling thread
(``repro batch --jobs`` is where programs run in parallel, one process
each), under **per-criterion budgets** (``budget_steps`` /
``budget_ms``), and with **short-circuiting**: cheap static criteria
(WA, SC — microseconds) usually decide the strongest possible headline
verdict ("all standard chase sequences terminate") long before the
expensive semantic ones (LS, S-Str, SAC — the witness engine and
adornment saturation behind them) would finish, so once the headline can
no longer improve the remaining criteria are not run.

Semantics:

* with short-circuiting **off** (the default), every selected criterion
  runs to completion — criteria are independent and each pair decision
  is deterministic (the shared firing-decision cache only ever stores
  deterministic decisions, see :mod:`repro.firing.relations`, and the
  context hands it to nested analyses by argument);
* with short-circuiting **on**, the *headline* verdict (the ``⇒`` line)
  is always identical to the full portfolio's, but criteria whose result
  could no longer change it are reported as short-circuited instead of
  being run;
* a criterion whose budget blows reports ``exhausted`` — visible in the
  report and in the CLI's exit code 2 — rather than hanging or silently
  masquerading as a trusted rejection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..budget import Budget
from ..criteria.base import CriterionResult, Guarantee, get_criterion, registry
from ..firing.relations import DecisionCache
from ..model.dependencies import DependencySet
from .context import AnalysisContext

#: Criteria ordered roughly by cost (cheap static ones first).
DEFAULT_ORDER = [
    "WA", "SC", "SwA", "AC", "LS", "MSA", "MFA", "CStr", "SR", "IR", "Str", "S-Str", "SAC",
]

#: How the portfolio shares analysis artifacts across criteria:
#:
#: * ``shared`` — one :class:`~repro.analysis.context.AnalysisContext`
#:   per program, every criterion reads artifacts (and firing-edge
#:   decisions) off it;
#: * ``isolated`` — no sharing at all, every criterion recomputes every
#:   artifact and probe: the recompute oracle (pinned verdict-identical
#:   to ``shared`` by ``tests/test_context_differential.py``) and the
#:   baseline of the shared-context bench.  Library-only: the CLI always
#:   runs ``shared``.
BACKENDS = ("shared", "isolated")

#: Accept-implications that hold *by construction* in this codebase (see
#: the property suite ``tests/test_hierarchy_containments.py``, which is
#: the empirical oracle for this table): if the key accepts (exactly),
#: every value accepts; contrapositively, if a value rejects (exactly),
#: the key rejects.  Every implied criterion's own guarantee is equal to
#: or weaker than the implying criterion's, so an implied acceptance
#: carries the implied criterion's guarantee soundly.
HIERARCHY_IMPLIES = {
    "WA": ("SC", "Str", "CStr"),
    "SC": ("SR",),
    "CStr": ("SR",),
    "SR": ("IR",),
    "AC": ("LS",),
    "MSA": ("MFA",),
}


def _transitive_closure(edges: dict[str, tuple[str, ...]]) -> dict[str, frozenset[str]]:
    closure: dict[str, frozenset[str]] = {}

    def reach(name: str, seen: set[str]) -> set[str]:
        out: set[str] = set()
        for nxt in edges.get(name, ()):
            if nxt not in seen:
                seen.add(nxt)
                out.add(nxt)
                out |= reach(nxt, seen)
        return out

    for name in edges:
        closure[name] = frozenset(reach(name, {name}))
    return closure


#: name → every criterion whose acceptance it implies (transitively).
IMPLIES_CLOSURE = _transitive_closure(HIERARCHY_IMPLIES)


@dataclass
class ClassifyConfig:
    """Tuning knobs of one portfolio run.

    ``budget_steps``/``budget_ms`` are *per criterion*: each criterion
    gets a fresh :class:`~repro.budget.Budget` with these limits.
    ``short_circuit`` skips criteria that can no longer change the
    headline verdict.  ``backend`` picks the artifact-sharing strategy
    (:data:`BACKENDS`); ``hierarchy`` enables containment-aware
    scheduling: a criterion whose verdict is already implied (or refuted)
    by an exact verdict of another criterion via
    :data:`HIERARCHY_IMPLIES` is filled in without running.
    """

    criteria: list[str] | None = None
    budget_steps: int | None = None
    budget_ms: float | None = None
    short_circuit: bool = False
    stop_on_first: bool = False
    backend: str = "shared"
    hierarchy: bool = False

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; known: {BACKENDS}"
            )

    def names(self) -> list[str]:
        if self.criteria is not None:
            return list(self.criteria)
        return [n for n in DEFAULT_ORDER if n in registry()]

    def make_budget(self) -> Budget | None:
        if self.budget_steps is None and self.budget_ms is None:
            return None  # nothing to bound
        return Budget(max_steps=self.budget_steps, max_ms=self.budget_ms)


@dataclass
class ClassificationReport:
    """Per-criterion verdicts for one dependency set.

    ``details`` carries run-level metadata next to the per-criterion
    results: the artifact-sharing ``backend``, the shared context's
    artifact/decision cache statistics (``context``), and how many
    verdicts the hierarchy scheduler filled in without running
    (``implied``).
    """

    sigma: DependencySet
    results: dict[str, CriterionResult] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def accepted_by(self) -> list[str]:
        return [name for name, r in self.results.items() if r.accepted]

    @property
    def guarantees_all(self) -> bool:
        """Some accepting criterion guarantees CTstd∀."""
        return any(
            r.accepted and r.guarantee is Guarantee.CT_ALL
            for r in self.results.values()
        )

    @property
    def guarantees_exists(self) -> bool:
        """Some accepting criterion guarantees (at least) CTstd∃."""
        return any(r.accepted for r in self.results.values())

    @property
    def any_exhausted(self) -> bool:
        """Did some criterion blow its resource budget?

        Short-circuited criteria never ran, so they never count: only
        genuine budget trouble, where a rejection cannot be trusted.
        """
        return any(r.exhausted is not None for r in self.results.values())

    @property
    def verdict(self) -> str:
        if self.guarantees_all:
            return "all standard chase sequences terminate"
        if self.guarantees_exists:
            return "a terminating standard chase sequence exists"
        return "no criterion applies (termination unknown)"

    def __str__(self) -> str:
        lines = [f"classification of Σ ({len(self.sigma)} dependencies):"]
        for name, r in self.results.items():
            if r.skipped:
                lines.append(f"  - {name:<6} (short-circuited)")
                continue
            mark = "✓" if r.accepted else "✗"
            kind = "∀" if r.guarantee is Guarantee.CT_ALL else "∃"
            approx = "" if r.exact else " ~"
            budget = " [budget]" if r.exhausted is not None else ""
            implied = ""
            source = r.details.get("implied_by") or r.details.get("refuted_by")
            if source:
                implied = f" (⇐ {source})"
            lines.append(
                f"  {mark} {name:<6} (CTstd{kind}){approx}{budget}{implied}"
                f"  {r.elapsed_ms:8.1f} ms"
            )
        lines.append(f"  ⇒ {self.verdict}")
        return "\n".join(lines)

    def render_stats(self) -> str:
        """The shared-substrate statistics block (``repro classify --stats``)."""
        lines = [f"backend: {self.details.get('backend', '?')}"]
        implied = self.details.get("implied")
        if implied:
            lines.append(f"hierarchy: {implied} verdict(s) filled in by containment")
        ctx = self.details.get("context")
        if ctx is not None:
            a = ctx["artifacts"]
            lines.append(
                f"artifacts: {a['entries']} built, {a['hits']} hits / "
                f"{a['misses']} misses (hit rate {a['hit_rate']:.0%}, "
                f"{a['uncached_builds']} uncached builds)"
            )
            decisions = ctx["decisions"]
            lines.append(
                f"firing decisions: {decisions['entries']} decided, "
                f"{decisions['prefiltered']} prefiltered / "
                f"{decisions['shape_hits']} shape hits / "
                f"{decisions['hits']} hits / {decisions['misses']} misses "
                f"(hit rate {decisions['hit_rate']:.0%}, "
                f"{decisions['preloaded']} preloaded)"
            )
        return "\n".join(lines)


def _headline_decided(report: ClassificationReport, pending: list[str]) -> list[str]:
    """Which pending criteria can no longer improve the headline verdict?

    Once a CTstd∀ criterion accepts, nothing can improve on "all
    sequences terminate".  Once only the CTstd∃ headline is established,
    further CTstd∃ acceptances change nothing, but CTstd∀ criteria must
    still run.
    """
    if report.guarantees_all:
        return list(pending)
    if report.guarantees_exists:
        return [
            n for n in pending
            if get_criterion(n).guarantee is Guarantee.CT_EXISTS
        ]
    return []


def _short_circuited(name: str, guarantee: Guarantee) -> CriterionResult:
    return CriterionResult(
        criterion=name,
        accepted=False,
        guarantee=guarantee,
        exact=False,
        details={"short_circuited": True},
    )


def _implication_sound(result: CriterionResult) -> bool:
    """May this result seed hierarchy implications?

    Only an exact, budget-clean, actually-run verdict is a theorem-grade
    fact about Σ; approximations and short-circuits imply nothing.
    """
    return result.exact and result.exhausted is None and not result.skipped


def _implied_result(
    name: str, source: CriterionResult, accepted: bool
) -> CriterionResult:
    key = "implied_by" if accepted else "refuted_by"
    return CriterionResult(
        criterion=name,
        accepted=accepted,
        guarantee=get_criterion(name).guarantee,
        exact=True,
        details={key: source.criterion},
    )


def _hierarchy_decided(
    result: CriterionResult, pending: list[str]
) -> list[tuple[str, bool]]:
    """(criterion, accepted) for every pending verdict ``result`` decides.

    An exact acceptance of C decides every pending criterion C implies;
    an exact rejection of C decides (negatively) every pending criterion
    that implies C.
    """
    if not _implication_sound(result):
        return []
    name = result.criterion
    out = []
    for other in pending:
        if result.accepted and other in IMPLIES_CLOSURE.get(name, ()):
            out.append((other, True))
        elif not result.accepted and name in IMPLIES_CLOSURE.get(other, ()):
            out.append((other, False))
    return out


def classify(
    sigma: DependencySet,
    criteria: list[str] | None = None,
    stop_on_first: bool = False,
    jobs: int = 1,
    budget_steps: int | None = None,
    budget_ms: float | None = None,
    short_circuit: bool = False,
    backend: str = "shared",
    hierarchy: bool = False,
    config: ClassifyConfig | None = None,
    decisions: DecisionCache | None = None,
) -> ClassificationReport:
    """Run the (selected) criteria on Σ.

    ``criteria`` defaults to every registered criterion in rough cost
    order.  ``stop_on_first`` stops at the first acceptance — useful when
    only the verdict matters.  The remaining knobs (or an explicit
    ``config``) select budgets, short-circuiting and the artifact-sharing
    backend: see :class:`ClassifyConfig`.  ``decisions`` is the
    firing-decision cache the shared context starts from (the batch
    engine's warm-started one); the ``isolated`` backend shares nothing
    and refuses one.  ``jobs`` is kept for compatibility with callers
    that pass ``jobs=1``; criteria always run on the calling thread, and
    ``repro batch --jobs`` runs programs in parallel processes.
    """
    if jobs != 1:
        raise ValueError(
            f"classify runs on one thread (jobs={jobs!r}); "
            "run programs in parallel with `repro batch --jobs`"
        )
    if config is None:
        config = ClassifyConfig(
            criteria=criteria,
            budget_steps=budget_steps,
            budget_ms=budget_ms,
            short_circuit=short_circuit,
            stop_on_first=stop_on_first,
            backend=backend,
            hierarchy=hierarchy,
        )
    if config.backend == "isolated" and decisions is not None:
        raise ValueError("the isolated backend shares no decision cache")
    names = config.names()
    report = ClassificationReport(sigma)
    report.details["backend"] = config.backend

    if config.backend == "shared":
        # One artifact store for the whole program; its decision cache is
        # passed down to every nested analysis (the Adn∃/AC oracles, LS's
        # Σα, Adn∃-C's Σµ, IR's components).
        context = AnalysisContext(sigma, decisions)
        _run(sigma, names, config, report, context)
        report.details["context"] = context.stats()
    else:  # isolated
        _run(sigma, names, config, report, None)
    implied = sum(
        1
        for r in report.results.values()
        if "implied_by" in r.details or "refuted_by" in r.details
    )
    if implied:
        report.details["implied"] = implied
    # Present results in portfolio order, implied verdicts included.
    report.results = {n: report.results[n] for n in names if n in report.results}
    return report


def _run(
    sigma: DependencySet,
    names: list[str],
    config: ClassifyConfig,
    report: ClassificationReport,
    context: AnalysisContext | None,
) -> None:
    pending = list(names)
    while pending:
        name = pending.pop(0)
        criterion = get_criterion(name)
        result = criterion.check(
            sigma, budget=config.make_budget(), context=context
        )
        report.results[name] = result
        if config.stop_on_first and result.accepted:
            return
        if config.hierarchy:
            for other, accepted in _hierarchy_decided(result, pending):
                pending.remove(other)
                report.results[other] = _implied_result(other, result, accepted)
        if config.short_circuit:
            for skipped in _headline_decided(report, pending):
                pending.remove(skipped)
                report.results[skipped] = _short_circuited(
                    skipped, get_criterion(skipped).guarantee
                )
