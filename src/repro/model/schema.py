"""Schemas: finite sets of predicates with arities.

Most of the library infers the schema from a dependency set or an instance,
but the adornment algorithm needs the schema explicitly (its initial Σµ
contains one bridge dependency ``R(x1..xn) → R^{b..b}(x1..xn)`` per predicate
R ∈ R), so a first-class representation is provided.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .dependencies import DependencySet
from .columnar import ColumnarInstance


class Schema:
    """An immutable mapping of predicate names to arities."""

    __slots__ = ("_arities",)

    def __init__(self, arities: Mapping[str, int]) -> None:
        for name, ar in arities.items():
            if not isinstance(name, str) or not name:
                raise ValueError(f"bad predicate name {name!r}")
            if not isinstance(ar, int) or ar < 0:
                raise ValueError(f"bad arity {ar!r} for predicate {name}")
        object.__setattr__(self, "_arities", dict(arities))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Schema is immutable")

    @classmethod
    def from_dependencies(cls, sigma: DependencySet) -> "Schema":
        return cls(sigma.predicates())

    @classmethod
    def from_instance(cls, inst: ColumnarInstance) -> "Schema":
        arities: dict[str, int] = {}
        for fact in inst:
            known = arities.get(fact.predicate)
            if known is None:
                arities[fact.predicate] = fact.arity
            elif known != fact.arity:
                raise ValueError(
                    f"predicate {fact.predicate} used with arities "
                    f"{known} and {fact.arity}"
                )
        return cls(arities)

    @classmethod
    def union(cls, *schemas: "Schema") -> "Schema":
        merged: dict[str, int] = {}
        for s in schemas:
            for name, ar in s._arities.items():
                known = merged.get(name)
                if known is None:
                    merged[name] = ar
                elif known != ar:
                    raise ValueError(
                        f"predicate {name} has conflicting arities {known} and {ar}"
                    )
        return cls(merged)

    def arity(self, predicate: str) -> int:
        return self._arities[predicate]

    def __contains__(self, predicate: object) -> bool:
        return predicate in self._arities

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._arities))

    def __len__(self) -> int:
        return len(self._arities)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._arities == other._arities

    def __hash__(self) -> int:
        return hash(frozenset(self._arities.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}/{a}" for p, a in sorted(self._arities.items()))
        return f"Schema({inner})"

    def items(self) -> Iterable[tuple[str, int]]:
        return sorted(self._arities.items())
