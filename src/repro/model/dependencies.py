"""Tuple generating dependencies (TGDs) and equality generating dependencies
(EGDs).

A TGD has the form  ``∀x∀y ϕ(x, y) → ∃z ψ(x, z)``; it is *full* (universally
quantified) when ``z`` is empty, otherwise *existentially quantified*.
An EGD has the form ``∀x ϕ(x) → x1 = x2``.

EGDs are always *full* dependencies: the paper's ``Σ∀`` contains all full
TGDs and all EGDs, while ``Σ∃`` contains the existentially quantified TGDs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence, Union

from .atoms import Atom, Position, atoms_constants, atoms_variables
from .terms import Constant, Term, Variable


class Dependency:
    """Common base class of :class:`TGD` and :class:`EGD`."""

    # ``__weakref__`` lets tests prove an analysis keeps no dependency
    # alive after it returns.
    __slots__ = ("body", "label", "_hash", "__weakref__")

    body: tuple[Atom, ...]
    label: str

    # -- classification ------------------------------------------------

    @property
    def is_tgd(self) -> bool:
        return isinstance(self, TGD)

    @property
    def is_egd(self) -> bool:
        return isinstance(self, EGD)

    @property
    def is_full(self) -> bool:
        """Full (universally quantified) dependencies: EGDs and full TGDs."""
        raise NotImplementedError

    @property
    def is_existential(self) -> bool:
        return not self.is_full

    # -- structure -------------------------------------------------------

    def body_variables(self) -> set[Variable]:
        return atoms_variables(self.body)

    def body_constants(self) -> set[Constant]:
        return atoms_constants(self.body)

    def variables(self) -> set[Variable]:
        raise NotImplementedError

    def body_positions_of(self, var: Variable) -> list[Position]:
        """All positions at which ``var`` occurs in the body."""
        out = []
        for atom in self.body:
            for i, t in enumerate(atom.args):
                if t is var:
                    out.append(Position(atom.predicate, i))
        return out

    def rename_variables(self, suffix: str) -> "Dependency":
        """Return a copy with every variable renamed (``x`` → ``x#suffix``).

        Used to rename dependencies apart before unification-based analyses.
        """
        raise NotImplementedError

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(self) is not type(other):
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Dependency") -> bool:
        return str(self) < str(other)


class TGD(Dependency):
    """A tuple generating dependency ``ϕ(x, y) → ∃z ψ(x, z)``.

    ``body`` and ``head`` are tuples of atoms.  The existentially quantified
    variables are exactly the head variables that do not occur in the body;
    they may also be given explicitly via ``existential`` (the order given
    there is preserved — the adornment algorithm processes existential
    variables "following the order they appear in z").
    """

    __slots__ = ("head", "existential")

    def __init__(
        self,
        body: Sequence[Atom],
        head: Sequence[Atom],
        existential: Sequence[Variable] | None = None,
        label: str = "",
    ) -> None:
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "head", tuple(head))
        if not self.body:
            raise ValueError("a TGD needs a non-empty body")
        if not self.head:
            raise ValueError("a TGD needs a non-empty head")
        body_vars = atoms_variables(self.body)
        head_vars = atoms_variables(self.head)
        inferred = head_vars - body_vars
        if existential is None:
            ordered: list[Variable] = []
            for atom in self.head:
                for t in atom.args:
                    if isinstance(t, Variable) and t in inferred and t not in ordered:
                        ordered.append(t)
            existential = ordered
        else:
            existential = list(existential)
            if set(existential) != inferred:
                raise ValueError(
                    f"existential variables {sorted(v.name for v in inferred)} "
                    f"do not match the declared ones "
                    f"{sorted(v.name for v in existential)}"
                )
        object.__setattr__(self, "existential", tuple(existential))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash(("TGD", self.body, self.head)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TGD is immutable")

    # -- structure -------------------------------------------------------

    @property
    def is_full(self) -> bool:
        return not self.existential

    def head_variables(self) -> set[Variable]:
        return atoms_variables(self.head)

    def frontier(self) -> set[Variable]:
        """Variables occurring in both body and head (the TGD's frontier).

        The semi-oblivious chase identifies triggers by their restriction to
        the frontier.
        """
        return self.body_variables() & self.head_variables()

    def variables(self) -> set[Variable]:
        return self.body_variables() | self.head_variables()

    def existential_variables(self) -> tuple[Variable, ...]:
        return self.existential

    def head_positions_of(self, var: Variable) -> list[Position]:
        out = []
        for atom in self.head:
            for i, t in enumerate(atom.args):
                if t is var:
                    out.append(Position(atom.predicate, i))
        return out

    def rename_variables(self, suffix: str) -> "TGD":
        ren: dict[Term, Term] = {
            v: Variable(f"{v.name}#{suffix}") for v in self.variables()
        }
        return TGD(
            [a.apply(ren) for a in self.body],
            [a.apply(ren) for a in self.head],
            existential=[ren[v] for v in self.existential],  # type: ignore[misc]
            label=self.label,
        )

    def _key(self) -> tuple:
        return (self.body, self.head)

    def __repr__(self) -> str:
        return f"TGD({self.label or str(self)!r})"

    def __str__(self) -> str:
        body = " ∧ ".join(str(a) for a in self.body)
        head = " ∧ ".join(str(a) for a in self.head)
        if self.existential:
            ex = " ".join(f"∃{v.name}" for v in self.existential)
            return f"{body} → {ex} {head}"
        return f"{body} → {head}"


class EGD(Dependency):
    """An equality generating dependency ``ϕ(x, y) → x1 = x2``."""

    __slots__ = ("lhs", "rhs")

    def __init__(
        self,
        body: Sequence[Atom],
        lhs: Variable,
        rhs: Variable,
        label: str = "",
    ) -> None:
        object.__setattr__(self, "body", tuple(body))
        if not self.body:
            raise ValueError("an EGD needs a non-empty body")
        if not isinstance(lhs, Variable) or not isinstance(rhs, Variable):
            raise TypeError("EGD equality sides must be variables")
        body_vars = atoms_variables(self.body)
        if lhs not in body_vars or rhs not in body_vars:
            raise ValueError("EGD equality variables must occur in the body")
        if lhs is rhs:
            raise ValueError("trivial EGD: both equality sides are the same variable")
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash(("EGD", self.body, lhs, rhs)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("EGD is immutable")

    @property
    def is_full(self) -> bool:
        return True

    def variables(self) -> set[Variable]:
        return self.body_variables()

    def rename_variables(self, suffix: str) -> "EGD":
        ren: dict[Term, Term] = {
            v: Variable(f"{v.name}#{suffix}") for v in self.variables()
        }
        return EGD(
            [a.apply(ren) for a in self.body],
            ren[self.lhs],  # type: ignore[arg-type]
            ren[self.rhs],  # type: ignore[arg-type]
            label=self.label,
        )

    def _key(self) -> tuple:
        return (self.body, self.lhs, self.rhs)

    def __repr__(self) -> str:
        return f"EGD({self.label or str(self)!r})"

    def __str__(self) -> str:
        body = " ∧ ".join(str(a) for a in self.body)
        return f"{body} → {self.lhs.name} = {self.rhs.name}"


AnyDependency = Union[TGD, EGD]


class DependencySet:
    """An ordered, duplicate-free set of dependencies Σ.

    Provides the paper's standard partitions:

    * ``tgds`` / ``egds``              — Σtgd and Σegd;
    * ``full`` / ``existential``       — Σ∀ (full TGDs + all EGDs) and Σ∃.
    """

    __slots__ = ("_deps", "_index")

    def __init__(self, deps: Iterable[AnyDependency] = ()) -> None:
        self._deps: list[AnyDependency] = []
        self._index: dict[AnyDependency, int] = {}
        for d in deps:
            self.add(d)

    def add(self, dep: AnyDependency) -> None:
        if not isinstance(dep, (TGD, EGD)):
            raise TypeError(f"{dep!r} is not a dependency")
        if dep not in self._index:
            self._index[dep] = len(self._deps)
            self._deps.append(dep)

    # -- container protocol ----------------------------------------------

    def __iter__(self) -> Iterator[AnyDependency]:
        return iter(self._deps)

    def __len__(self) -> int:
        return len(self._deps)

    def __contains__(self, dep: object) -> bool:
        return dep in self._index

    def __getitem__(self, i: int) -> AnyDependency:
        return self._deps[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependencySet):
            return NotImplemented
        return set(self._deps) == set(other._deps)

    def __hash__(self) -> int:
        return hash(frozenset(self._deps))

    def __repr__(self) -> str:
        return f"DependencySet({len(self)} dependencies)"

    def __str__(self) -> str:
        return "\n".join(
            f"{d.label + ': ' if d.label else ''}{d}" for d in self._deps
        )

    # -- partitions --------------------------------------------------------

    @property
    def tgds(self) -> list[TGD]:
        """Σtgd: all TGDs."""
        return [d for d in self._deps if isinstance(d, TGD)]

    @property
    def egds(self) -> list[EGD]:
        """Σegd: all EGDs."""
        return [d for d in self._deps if isinstance(d, EGD)]

    @property
    def full(self) -> list[AnyDependency]:
        """Σ∀: full TGDs and all EGDs."""
        return [d for d in self._deps if d.is_full]

    @property
    def existential(self) -> list[TGD]:
        """Σ∃: existentially quantified TGDs."""
        return [d for d in self._deps if not d.is_full]

    def tgds_only(self) -> "DependencySet":
        """The sub-set consisting of the TGDs (drops EGDs)."""
        return DependencySet(self.tgds)

    def restricted_to(self, deps: Iterable[AnyDependency]) -> "DependencySet":
        """The sub-set containing exactly ``deps`` (order preserved)."""
        wanted = set(deps)
        return DependencySet(d for d in self._deps if d in wanted)

    # -- schema ------------------------------------------------------------

    def predicates(self) -> dict[str, int]:
        """Predicate name → arity for every predicate mentioned in Σ.

        Raises if a predicate is used with two different arities.
        """
        out: dict[str, int] = {}
        for d in self._deps:
            atoms: tuple[Atom, ...] = d.body
            if isinstance(d, TGD):
                atoms = atoms + d.head
            for a in atoms:
                known = out.get(a.predicate)
                if known is None:
                    out[a.predicate] = a.arity
                elif known != a.arity:
                    raise ValueError(
                        f"predicate {a.predicate} used with arities "
                        f"{known} and {a.arity}"
                    )
        return out

    def positions(self) -> list[Position]:
        """All positions of the schema induced by Σ."""
        return [
            Position(p, i)
            for p, ar in sorted(self.predicates().items())
            for i in range(ar)
        ]

    def constants(self) -> set[Constant]:
        out: set[Constant] = set()
        for d in self._deps:
            out.update(d.body_constants())
            if isinstance(d, TGD):
                out.update(atoms_constants(d.head))
        return out

    def relabel(self, prefix: str = "r") -> "DependencySet":
        """Return a copy where dependencies are labelled ``r1, r2, ...``.

        Existing labels are overwritten; useful for pretty-printing
        generated sets.
        """
        out = DependencySet()
        for i, d in enumerate(self._deps, start=1):
            if isinstance(d, TGD):
                out.add(TGD(d.body, d.head, d.existential, label=f"{prefix}{i}"))
            else:
                out.add(EGD(d.body, d.lhs, d.rhs, label=f"{prefix}{i}"))
        return out


def dependency_set(*deps: AnyDependency) -> DependencySet:
    """Convenience constructor: ``dependency_set(r1, r2, r3)``."""
    return DependencySet(deps)
