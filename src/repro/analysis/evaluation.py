"""The paper's experimental pipeline (Section 7, Table 2) over a corpus.

For every generated ontology we measure what the paper measured:

* Table 2(b): ``|Σµ|/|Σ|`` and the Adn∃ running time;
* Table 2(c): semi-acyclicity vs. a chase-termination ground truth — the
  paper ran the standard chase with a 24h timeout; we run a bounded chase
  (steps budget standing in for wall-clock) with a termination-friendly
  strategy, plus an adversarial strategy to separate "some sequences
  terminate" from "the chase halted".

The batch engine takes that measurement (``evaluate_corpus(corpus,
BatchConfig(...)).evaluations()`` in :mod:`repro.batch`, cached and
parallel); this module holds its chase ground truth and the per-class
summaries and rendering.

Columns reproduced per class:

* ``A+NT``: ontologies that are semi-acyclic, plus ontologies that are not
  semi-acyclic and whose chase did not halt within the budget;
* ``FN``:  ontologies whose chase halted but that are not semi-acyclic
  ("false negatives").

We additionally report ``FP?`` — accepted by SAC while *no* chase strategy
we try halts within budget.  The paper's methodology cannot observe this
column (a non-halting accepted ontology lands in A+NT); see DESIGN.md §2
and EXPERIMENTS.md for why it is interesting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chase.result import ChaseStatus
from ..chase.runner import run_chase
from ..generators.databases import seed_database
from ..model.dependencies import DependencySet


@dataclass
class OntologyEvaluation:
    """Everything measured for one corpus ontology."""

    name: str
    class_name: str
    character: str
    size: int
    adorned_size: int
    adn_ms: float
    semi_acyclic: bool
    chase_halted: bool
    halted_strategy: str | None = None

    @property
    def ratio(self) -> float:
        return self.adorned_size / max(1, self.size)


@dataclass
class ClassSummary:
    """Aggregates of one (|Σ∃|, |Σegd|) corpus class."""

    class_name: str
    tests: int = 0
    sizes: list[int] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    times_ms: list[float] = field(default_factory=list)
    accepted: int = 0
    accepted_not_halted: int = 0
    not_accepted_not_halted: int = 0
    false_negatives: int = 0

    @property
    def avg_size(self) -> float:
        return sum(self.sizes) / max(1, len(self.sizes))

    @property
    def avg_ratio(self) -> float:
        return sum(self.ratios) / max(1, len(self.ratios))

    @property
    def avg_time_ms(self) -> float:
        return sum(self.times_ms) / max(1, len(self.times_ms))

    @property
    def a_plus_nt(self) -> int:
        """The paper's A+NT column: accepted ∪ (rejected ∧ not halted)."""
        return self.accepted + self.not_accepted_not_halted


#: Strategies tried, in order, to decide "the chase halted".  ``full_first``
#: is the ∃-termination-friendly order; ``fifo`` approximates an arbitrary
#: implementation order.
HALT_STRATEGIES = ("full_first", "fifo")


def chase_ground_truth(
    sigma: DependencySet, max_steps: int = 4_000
) -> tuple[bool, str | None]:
    """Did some standard chase run halt within the step budget?

    The budget stands in for the paper's 24-hour timeout; a failing run
    (⊥) counts as halted (it is a finite sequence).
    """
    db = seed_database(sigma)
    for strategy in HALT_STRATEGIES:
        result = run_chase(db, sigma, strategy=strategy, max_steps=max_steps)
        if result.status in (ChaseStatus.SUCCESS, ChaseStatus.FAILURE):
            return True, strategy
    return False, None


def summarise(evaluations: list[OntologyEvaluation]) -> dict[str, ClassSummary]:
    """Fold per-ontology evaluations into per-class summaries."""
    summaries: dict[str, ClassSummary] = {}
    for ev in evaluations:
        s = summaries.setdefault(ev.class_name, ClassSummary(ev.class_name))
        s.tests += 1
        s.sizes.append(ev.size)
        s.ratios.append(ev.ratio)
        s.times_ms.append(ev.adn_ms)
        if ev.semi_acyclic:
            s.accepted += 1
            if not ev.chase_halted:
                s.accepted_not_halted += 1
        elif ev.chase_halted:
            s.false_negatives += 1
        else:
            s.not_accepted_not_halted += 1
    return summaries


def render_table2(summaries: dict[str, ClassSummary]) -> str:
    """Render tables 2(a)-(c) in the paper's layout."""
    order = sorted(summaries)
    head = (
        f"{'class':<20} {'#tests':>6} {'|Σ|':>8} "
        f"{'|Σµ|/|Σ|':>9} {'time(ms)':>9} "
        f"{'A+NT':>6} {'FN':>4} {'FP?':>4}"
    )
    lines = [head, "-" * len(head)]
    for name in order:
        s = summaries[name]
        lines.append(
            f"{name:<20} {s.tests:>6} {s.avg_size:>8.0f} "
            f"{s.avg_ratio:>9.2f} {s.avg_time_ms:>9.1f} "
            f"{s.a_plus_nt:>6} {s.false_negatives:>4} {s.accepted_not_halted:>4}"
        )
    total_tests = sum(s.tests for s in summaries.values())
    total_fn = sum(s.false_negatives for s in summaries.values())
    total_halted = sum(
        s.tests - s.accepted_not_halted - s.not_accepted_not_halted
        for s in summaries.values()
    )
    lines.append("-" * len(head))
    lines.append(
        f"totals: {total_tests} ontologies, {total_halted} chase-halting, "
        f"{total_fn} false negatives"
    )
    return "\n".join(lines)
