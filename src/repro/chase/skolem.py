"""Skolemised chase for TGDs.

In the presence of TGDs only, the oblivious (resp. semi-oblivious) chase is
equivalent to the fixpoint computation of a Skolemised version of Σ, where
Skolem terms stand for labelled nulls (Section 2): dependency
``E(x,y) → ∃z E(x,z)`` becomes ``E(x,y) → E(x, f^r_z(x,y))`` for the
oblivious chase and ``E(x,y) → E(x, f^r_z(x))`` (frontier arguments only)
for the semi-oblivious chase.

This module provides the Skolem term machinery and the saturation loop used
by the MFA / MSA criteria, including cyclic-term detection ("a term f(t)
where f occurs in t").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..budget import Budget, BudgetExhausted
from ..homomorphism.finder import find_homomorphisms
from ..matching import body_atom_index, delta_homomorphisms
from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from ..model.dependencies import TGD, DependencySet
from ..model.terms import Term, Variable, next_term_id


class SkolemTerm(Term):
    """A functional term ``f^r_z(t1, ..., tk)``.

    ``functor`` identifies the (rule, existential variable) pair; arguments
    are ground terms or nested Skolem terms.
    """

    __slots__ = ("functor", "args", "tid", "_hash")

    _intern: dict[tuple, "SkolemTerm"] = {}

    def __new__(cls, functor: str, args: tuple[Term, ...]) -> "SkolemTerm":
        key = (functor, args)
        cached = cls._intern.get(key)
        if cached is None:
            cached = super().__new__(cls)
            object.__setattr__(cached, "functor", functor)
            object.__setattr__(cached, "args", args)
            object.__setattr__(cached, "tid", next_term_id())
            object.__setattr__(cached, "_hash", hash(("skolem", key)))
            cls._intern[key] = cached
        return cached

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SkolemTerm is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, SkolemTerm)
            and self.functor == other.functor
            and self.args == other.args
        )

    def __repr__(self) -> str:
        return f"SkolemTerm({self.functor}, {self.args!r})"

    def __str__(self) -> str:
        return f"{self.functor}({', '.join(str(a) for a in self.args)})"

    def depth(self) -> int:
        return 1 + max((a.depth() for a in self.args if isinstance(a, SkolemTerm)), default=0)

    def contains_functor(self, functor: str) -> bool:
        """Does ``functor`` occur anywhere in this term's argument tree?"""
        for a in self.args:
            if isinstance(a, SkolemTerm):
                if a.functor == functor or a.contains_functor(functor):
                    return True
        return False

    @property
    def is_cyclic(self) -> bool:
        """``f(t)`` with ``f`` occurring in ``t``."""
        return self.contains_functor(self.functor)


def functor_name(tgd: TGD, z: Variable, index: int) -> str:
    """A stable functor name ``f^{r}_{z}`` for rule ``tgd`` / variable ``z``."""
    label = tgd.label or f"rule{index}"
    return f"f_{label}_{z.name}"


@dataclass(frozen=True)
class SkolemisedTGD:
    """A TGD with its existential variables pre-bound to Skolem templates."""

    source: TGD
    variant: str  # "oblivious" | "semi_oblivious"
    functors: tuple[tuple[Variable, str, tuple[Variable, ...]], ...]
    # each entry: (existential var, functor, argument variables)

    def head_facts(self, h: dict) -> list[Atom]:
        mapping: dict[Term, Term] = {v: h[v] for v in self.source.body_variables()}
        for z, functor, arg_vars in self.functors:
            mapping[z] = SkolemTerm(functor, tuple(h[v] for v in arg_vars))
        return [a.apply(mapping) for a in self.source.head]


def skolemise(
    sigma: DependencySet, variant: str = "semi_oblivious"
) -> list[SkolemisedTGD]:
    """Skolemise the TGDs of Σ (EGDs are rejected: simulate them first)."""
    if sigma.egds:
        raise ValueError(
            "skolemisation is defined for TGDs only; apply an EGD simulation first"
        )
    out = []
    for i, dep in enumerate(sigma.tgds):
        if variant == "oblivious":
            arg_vars = tuple(sorted(dep.body_variables(), key=lambda v: v.name))
        elif variant == "semi_oblivious":
            arg_vars = tuple(sorted(dep.frontier(), key=lambda v: v.name))
        else:
            raise ValueError(f"unknown skolem variant {variant!r}")
        functors = tuple(
            (z, functor_name(dep, z, i), arg_vars) for z in dep.existential
        )
        out.append(SkolemisedTGD(dep, variant, functors))
    return out


@dataclass
class SaturationResult:
    """Outcome of the Skolem-chase saturation."""

    instance: ColumnarInstance
    saturated: bool
    cyclic_term: SkolemTerm | None
    rounds: int
    #: The budget dimension that stopped a non-saturating run, if any.
    exhausted: BudgetExhausted | None = None

    @property
    def alarmed(self) -> bool:
        return self.cyclic_term is not None


def saturate(
    database: ColumnarInstance,
    rules: Iterable[SkolemisedTGD],
    stop_on_cyclic: bool = True,
    max_facts: int | None = 200_000,
    max_rounds: int = 10_000,
    budget: Budget | None = None,
) -> SaturationResult:
    """Run the Skolem-chase fixpoint, semi-naively.

    Round 1 enumerates every body homomorphism; round ``k > 1`` only joins
    the facts added in round ``k-1`` (the instance's delta log) against the
    rule bodies mentioning their predicates.  Because the Skolem chase only
    ever adds facts, a homomorphism whose image lies entirely in older
    rounds already contributed its head facts earlier, so each round derives
    exactly the facts the naive fixpoint would — same rounds, same result.

    Stops early when a cyclic term is produced (MFA's alarm) if
    ``stop_on_cyclic``; gives up (``saturated=False``) past the
    ``max_facts`` (None: uncapped) or ``max_rounds`` caps, or when the
    ``budget`` — which adds wall-clock bounds and cancellation, and is
    charged one step per body homomorphism — exhausts mid-round.

    A rule is anything with a ``source`` TGD and a ``head_facts(h)``
    method: :class:`SkolemisedTGD` here, MSA's summarised rules in
    :mod:`repro.criteria.mfa`.
    """
    budget = budget if budget is not None else Budget()
    instance = database.copy()
    rules = list(rules)
    body_index = body_atom_index((rule, rule.source.body) for rule in rules)
    rounds = 0
    tick = instance.tick
    budget.charge_facts(len(instance))
    while rounds < max_rounds:
        rounds += 1
        if rounds == 1:
            homs: Iterable[tuple[SkolemisedTGD, dict]] = (
                (rule, h)
                for rule in rules
                for h in find_homomorphisms(rule.source.body, instance, limit=None)
            )
        else:
            homs = delta_homomorphisms(body_index, instance, tick)
        new_facts: list[Atom] = []
        pending: set[Atom] = set()
        for rule, h in homs:
            if not budget.charge():
                return SaturationResult(
                    instance, False, None, rounds, budget.exhausted
                )
            for fact in rule.head_facts(h):
                if fact in instance or fact in pending:
                    continue
                for t in fact.args:
                    if (
                        stop_on_cyclic
                        and isinstance(t, SkolemTerm)
                        and t.is_cyclic
                    ):
                        return SaturationResult(instance, False, t, rounds)
                pending.add(fact)
                new_facts.append(fact)
        tick = instance.tick
        added = instance.add_all(new_facts)
        if added == 0:
            return SaturationResult(instance, True, None, rounds)
        if not budget.charge_facts(added):
            return SaturationResult(instance, False, None, rounds, budget.exhausted)
        if max_facts is not None and len(instance) > max_facts:
            return SaturationResult(instance, False, None, rounds)
    return SaturationResult(instance, False, None, rounds)


def critical_instance(sigma: DependencySet, star_value: str = "*") -> ColumnarInstance:
    """The critical instance: every predicate filled with the ``*`` constant
    (plus one fact per constant appearing in Σ, conservatively star-padded).

    Chasing the critical instance covers every database: any database maps
    homomorphically into it.
    """
    from ..model.terms import Constant

    inst = ColumnarInstance()
    consts = sorted(sigma.constants(), key=str) or []
    values = [Constant(star_value)] + list(consts)
    for pred, arity in sorted(sigma.predicates().items()):
        if arity == 0:
            inst.add(Atom(pred, ()))
            continue
        # The full product over values × arity explodes; the star-only fact
        # suffices when Σ is constant-free (the common case), and we add the
        # per-constant diagonal facts otherwise.
        inst.add(Atom(pred, (Constant(star_value),) * arity))
        for c in consts:
            for i in range(arity):
                args = [Constant(star_value)] * arity
                args[i] = c
                inst.add(Atom(pred, args))
    return inst
