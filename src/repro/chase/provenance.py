"""Chase provenance: explain how a fact was derived.

A :class:`ChaseResult` records every step (trigger, added facts, EGD
substitutions).  :func:`explain` reconstructs, for a fact of the final
instance, its derivation tree: which dependency produced it, under which
homomorphism, from which (recursively explained) body facts — with EGD
merges resolved, so a fact rewritten by substitutions still traces back
to the step that created its pre-merge form.

Useful for debugging dependency sets and for demonstrating universal-model
construction in the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from .result import ChaseResult
from .step import StepOutcome


@dataclass
class Derivation:
    """One node of a derivation tree."""

    fact: Atom
    source: str                      # "database" | dependency label/str
    via: StepOutcome | None = None
    premises: list["Derivation"] = field(default_factory=list)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.fact}   [{self.source}]"]
        for p in self.premises:
            lines.append(p.render(indent + 1))
        return "\n".join(lines)

    def depth(self) -> int:
        return 1 + max((p.depth() for p in self.premises), default=0)


class ProvenanceIndex:
    """Forward replay of a chase run, tracking fact origins through merges."""

    def __init__(self, database: ColumnarInstance, result: ChaseResult) -> None:
        self.result = result
        # Map each (current) fact to (source, step, premise facts at the
        # time of creation), updated as substitutions rewrite facts.
        self.origin: dict[Atom, tuple[str, StepOutcome | None, list[Atom]]] = {}
        for fact in database:
            self.origin[fact] = ("database", None, [])
        for step in result.steps:
            dep = step.trigger.dependency
            label = dep.label or str(dep)
            if step.gamma is not None:
                mapping = {step.gamma.old: step.gamma.new}
                rewritten: dict[Atom, tuple] = {}
                for fact, (src, via, premises) in self.origin.items():
                    new_fact = fact.apply(mapping)
                    new_premises = [p.apply(mapping) for p in premises]
                    # On collisions keep the earliest origin (first wins).
                    rewritten.setdefault(new_fact, (src, via, new_premises))
                self.origin = rewritten
                continue
            h = step.trigger.mapping()
            premises = [a.apply(h) for a in dep.body]
            for fact in step.added:
                self.origin.setdefault(fact, (label, step, premises))

    def explain(self, fact: Atom, max_depth: int = 25) -> Derivation:
        """The derivation tree of a fact of the final instance."""
        if fact not in self.origin:
            raise KeyError(f"{fact} is not a fact of the chase result")
        return self._explain(fact, max_depth, seen=frozenset())

    # repro-lint: disable=budget-loop -- depth counter strictly decreases and the seen set breaks cycles; read-only post-chase walk
    def _explain(self, fact: Atom, budget: int, seen: frozenset) -> Derivation:
        src, via, premises = self.origin[fact]
        node = Derivation(fact, src, via)
        if budget <= 0 or fact in seen:
            return node
        for p in premises:
            if p in self.origin:
                node.premises.append(
                    self._explain(p, budget - 1, seen | {fact})
                )
            else:
                node.premises.append(Derivation(p, "merged-away"))
        return node


def explain(
    database: ColumnarInstance, result: ChaseResult, fact: Atom
) -> Derivation:
    """One-shot: build the index and explain a single fact."""
    return ProvenanceIndex(database, result).explain(fact)
