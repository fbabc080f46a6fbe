"""Conjunctive queries and certain answers (paper Section 2).

The chase's purpose in most applications is query answering: the certain
answers to a union of conjunctive queries over (D, Σ) are computed by
evaluating the query on an arbitrary universal model and keeping the
null-free answers — ``certain(Q, D, Σ) = Q(I)↓`` for I ∈ UMod(D, Σ).

This module provides the query side:

* :class:`ConjunctiveQuery` — ``Q(x̄) :- body`` with evaluation over any
  instance;
* :class:`UnionQuery` — unions of CQs;
* :func:`certain_answers` — chases (D, Σ) to a universal model (the
  strategy defaults to ``full_first``, the ∃-termination-friendly order)
  and evaluates; refuses to answer when the chase did not terminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .chase.result import ChaseStatus
from .chase.runner import run_chase
from .homomorphism.finder import find_homomorphisms
from .model.atoms import Atom, atoms_variables
from .model.columnar import ColumnarInstance
from .model.dependencies import DependencySet
from .model.terms import GroundTerm, Term, Variable


class ChaseDidNotTerminate(RuntimeError):
    """Raised when certain answers are requested but no terminating chase
    sequence was found within the step budget."""


class InconsistentTheory(RuntimeError):
    """Raised when the chase fails (⊥): (D, Σ) has no model, so certain
    answers are trivially *all* tuples; callers must decide what that
    means for them."""


@dataclass(frozen=True)
class ConjunctiveQuery:
    """``Q(answer_vars) :- atoms`` (all other variables existential)."""

    atoms: tuple[Atom, ...]
    answer_vars: tuple[Variable, ...]
    name: str = "Q"

    def __post_init__(self) -> None:
        body_vars = atoms_variables(self.atoms)
        for v in self.answer_vars:
            if v not in body_vars:
                raise ValueError(
                    f"answer variable {v} does not occur in the query body"
                )

    @classmethod
    def make(
        cls,
        atoms: Sequence[Atom],
        answer_vars: Sequence[Variable],
        name: str = "Q",
    ) -> "ConjunctiveQuery":
        return cls(tuple(atoms), tuple(answer_vars), name)

    @property
    def is_boolean(self) -> bool:
        return not self.answer_vars

    def evaluate(self, instance: ColumnarInstance) -> set[tuple[GroundTerm, ...]]:
        """``Q(J)``: all answer tuples, nulls included."""
        out: set[tuple[GroundTerm, ...]] = set()
        for h in find_homomorphisms(list(self.atoms), instance, limit=None):
            out.add(tuple(h[v] for v in self.answer_vars))
        return out

    def evaluate_null_free(self, instance: ColumnarInstance) -> set[tuple]:
        """``Q(J)↓``: answers containing no labelled nulls."""
        return {
            row for row in self.evaluate(instance)
            if all(not t.is_null for t in row)
        }

    def __str__(self) -> str:
        head = ", ".join(v.name for v in self.answer_vars)
        body = " ∧ ".join(str(a) for a in self.atoms)
        return f"{self.name}({head}) :- {body}"


@dataclass(frozen=True)
class UnionQuery:
    """A union of conjunctive queries with a common answer arity."""

    disjuncts: tuple[ConjunctiveQuery, ...]

    def __post_init__(self) -> None:
        arities = {len(q.answer_vars) for q in self.disjuncts}
        if len(arities) > 1:
            raise ValueError("all disjuncts must share the answer arity")

    def evaluate(self, instance: ColumnarInstance) -> set[tuple]:
        out: set[tuple] = set()
        for q in self.disjuncts:
            out |= q.evaluate(instance)
        return out

    def evaluate_null_free(self, instance: ColumnarInstance) -> set[tuple]:
        out: set[tuple] = set()
        for q in self.disjuncts:
            out |= q.evaluate_null_free(instance)
        return out


def universal_model(
    database: ColumnarInstance,
    sigma: DependencySet,
    strategy: str = "full_first",
    max_steps: int = 20_000,
) -> ColumnarInstance:
    """A canonical universal model of (D, Σ) via the standard chase.

    Raises :class:`ChaseDidNotTerminate` on budget exhaustion and
    :class:`InconsistentTheory` on a failing sequence.
    """
    result = run_chase(database, sigma, strategy=strategy, max_steps=max_steps)
    if result.status is ChaseStatus.FAILURE:
        raise InconsistentTheory(
            "the chase failed (two constants equated): (D, Σ) has no model"
        )
    if result.status is not ChaseStatus.SUCCESS:
        raise ChaseDidNotTerminate(
            f"no terminating chase sequence within {max_steps} steps; "
            "try another strategy or check a termination criterion first"
        )
    assert result.instance is not None
    return result.instance


def certain_answers(
    query: ConjunctiveQuery | UnionQuery,
    database: ColumnarInstance,
    sigma: DependencySet,
    strategy: str = "full_first",
    max_steps: int = 20_000,
) -> set[tuple]:
    """``certain(Q, D, Σ) = Q(I)↓`` for a chased universal model I."""
    model = universal_model(database, sigma, strategy, max_steps)
    return query.evaluate_null_free(model)


def query(text_atoms: Iterable[Atom], answers: Iterable[Variable]) -> ConjunctiveQuery:
    """Terse constructor: ``query([Atom(...), ...], [x, y])``."""
    return ConjunctiveQuery(tuple(text_atoms), tuple(answers))
