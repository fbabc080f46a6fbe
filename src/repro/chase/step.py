"""Chase steps (Definition 1).

A chase step ``K --(r, h, γ)--> J`` enforces one dependency:

1. TGD ``ϕ(x,y) → ∃z ψ(x,z)``: extend ``h`` with fresh labelled nulls for
   the existential variables and add ``h'(ψ)`` to ``K``; γ is empty.
2. EGD ``ϕ(x,y) → x1 = x2`` with ``h(x1) ≠ h(x2)``:

   a. both images constants → ``J = ⊥`` (the step *fails*);
   b. otherwise γ replaces a null by the other term and ``J = Kγ``.

Steps mutate the given instance in place (the chase owns its instance); the
returned :class:`StepOutcome` records everything needed to replay or audit
the sequence, including γ so that (semi-)oblivious trigger bookkeeping can
compose substitutions per Section 2's sequence definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from ..model.dependencies import EGD, TGD, AnyDependency
from ..model.terms import Constant, GroundTerm, Null, NullFactory, Term, Variable


@dataclass(frozen=True)
class Trigger:
    """A dependency together with a homomorphism from its body.

    ``assignment`` maps each body variable to a ground term; it is stored as
    a sorted tuple so triggers are hashable and comparable.
    """

    dependency: AnyDependency
    assignment: tuple[tuple[Variable, GroundTerm], ...]

    @classmethod
    def make(cls, dep: AnyDependency, h: Mapping[Term, Term]) -> "Trigger":
        pairs = tuple(
            sorted(
                ((v, h[v]) for v in dep.body_variables()),
                key=lambda p: p[0].name,
            )
        )
        return cls(dep, pairs)  # type: ignore[arg-type]

    def mapping(self) -> dict[Term, Term]:
        return {v: t for v, t in self.assignment}

    def image_of(self, var: Variable) -> GroundTerm:
        for v, t in self.assignment:
            if v is var:
                return t
        raise KeyError(var)

    def rewrite(self, old: Null, new: GroundTerm) -> "Trigger":
        """Apply a substitution γ = {old/new} to the assignment images."""
        pairs = tuple((v, new if t is old else t) for v, t in self.assignment)
        return Trigger(self.dependency, pairs)

    def key(self, variables: tuple[Variable, ...]) -> tuple:
        """The trigger's identity restricted to the given variables.

        The oblivious chase keys triggers on all body variables; the
        semi-oblivious chase keys them on the frontier.
        """
        m = self.mapping()
        return (self.dependency, tuple(m[v] for v in variables))

    def __str__(self) -> str:
        binding = ", ".join(f"{v.name}↦{t}" for v, t in self.assignment)
        label = self.dependency.label or str(self.dependency)
        return f"⟨{label} | {binding}⟩"


class PendingTrigger:
    """A trigger waiting in the chase runner's pool, kept as a lid row.

    ``row`` is ``(dependency index in Σ, lids)``: the family-local term
    ids of the body variables' images, in variable-name order — the
    runner's seen set, fired keys and EGD-merge rewriting all work on
    these int tuples.  ``dependency`` is what strategies read; the
    :class:`Trigger`-style ``assignment`` is built on demand from the
    instance family's term table, and :meth:`trigger` builds the
    :class:`Trigger` a fired step records.
    """

    __slots__ = ("dependency", "row", "_variables", "_lid_terms")

    def __init__(
        self,
        dependency: AnyDependency,
        row: tuple[int, tuple[int, ...]],
        variables: tuple[Variable, ...],
        lid_terms: Sequence[Term],
    ) -> None:
        self.dependency = dependency
        self.row = row
        self._variables = variables
        self._lid_terms = lid_terms

    @property
    def assignment(self) -> tuple[tuple[Variable, GroundTerm], ...]:
        return tuple(
            zip(self._variables, map(self._lid_terms.__getitem__, self.row[1]))
        )

    def rewritten(self, row: tuple[int, tuple[int, ...]]) -> "PendingTrigger":
        """The same dependency's trigger at another row (an EGD merge)."""
        return PendingTrigger(self.dependency, row, self._variables, self._lid_terms)

    def trigger(self) -> Trigger:
        return Trigger(self.dependency, self.assignment)


@dataclass(frozen=True)
class Substitution:
    """The γ of an EGD step: a single null replaced by a ground term."""

    old: Null
    new: GroundTerm

    def __str__(self) -> str:
        return f"{{{self.old}/{self.new}}}"


@dataclass
class StepOutcome:
    """The result of applying one chase step."""

    trigger: Trigger
    added: list[Atom] = field(default_factory=list)
    gamma: Substitution | None = None
    failed: bool = False
    created_nulls: list[Null] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return self.failed or bool(self.added) or self.gamma is not None


def egd_substitution(dep: EGD, h: Mapping[Term, Term]) -> Substitution | None:
    """Compute γ per Definition 1(2), or None for the failing (⊥) case.

    Requires ``h(x1) ≠ h(x2)``.  If ``h(x1)`` is a null it is replaced by
    ``h(x2)``; otherwise ``h(x2)`` (which must then be a null) is replaced
    by ``h(x1)``.
    """
    t1, t2 = h[dep.lhs], h[dep.rhs]
    if t1 is t2:
        raise ValueError("EGD step requires h(x1) != h(x2)")
    if isinstance(t1, Constant) and isinstance(t2, Constant):
        return None
    if isinstance(t1, Null):
        return Substitution(t1, t2)  # type: ignore[arg-type]
    return Substitution(t2, t1)  # type: ignore[arg-type]


def apply_step(
    instance: ColumnarInstance,
    trigger: Trigger,
    nulls: NullFactory,
) -> StepOutcome:
    """Apply the chase step for ``trigger`` to ``instance`` **in place**.

    The caller is responsible for having checked the variant-specific
    applicability condition; this function implements only Definition 1.
    """
    dep = trigger.dependency
    h = trigger.mapping()
    if isinstance(dep, TGD):
        created: list[Null] = []
        mapping: dict[Term, Term] = {v: h[v] for v in dep.body_variables()}
        for z in dep.existential:
            nz = nulls.fresh()
            created.append(nz)
            mapping[z] = nz
        added = []
        for atom in dep.head:
            fact = atom.apply(mapping)
            if instance.add(fact):
                added.append(fact)
        return StepOutcome(trigger, added=added, created_nulls=created)

    gamma = egd_substitution(dep, h)
    if gamma is None:
        return StepOutcome(trigger, failed=True)
    instance.merge_terms(gamma.old, gamma.new)
    return StepOutcome(trigger, gamma=gamma)
