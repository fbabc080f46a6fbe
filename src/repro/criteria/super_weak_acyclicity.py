"""Super-weak acyclicity (Marnette — "Generalized schema-mappings: from
termination to tractability").

SwA analyses the *semi-oblivious* (Skolem) chase through *places*: argument
positions of the atom occurrences in the rules.  The key improvement over
safety is that place unification respects repeated variables and Skolem
term structure, so a dependency is not considered fired when distinct nulls
would have to occupy positions bound to the same variable.

Formulation implemented here (TGDs only; EGD sets are lifted through the
substitution-free simulation by the criterion class):

* rules are Skolemised with frontier-argument functions (semi-oblivious);
* ``Out(r, z)``: head places of the existential variable ``z``;
* ``In(r, x)``: body places of the variable ``x``;
* place ``p = (A, i)`` (in a head) *unifies with* ``q = (B, i)`` (in a
  body) iff the Skolemised atoms ``A`` and ``B`` unify (occurs check on
  Skolem terms, rules renamed apart);
* ``Move(Σ, P)``: least set of (head) places ⊇ P such that for every rule
  ``r`` and variable ``x`` in body∧head of ``r``, if some place of
  ``In(r, x)`` unifies with a place in the set, all places of the head
  occurrences of ``x`` join the set;
* ``r ⊑ r'`` (r triggers r') iff for some existential ``z`` of ``r`` and
  some variable ``x`` occurring in body and head of ``r'``, a place of
  ``In(r', x)`` unifies with a place in ``Move(Σ, Out(r, z))``.

Σ is super-weakly acyclic iff the trigger relation ``⊑`` is acyclic
(no directed cycle, including self-loops).  Acceptance guarantees CTstd∀.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from ..model.atoms import Atom
from ..model.dependencies import DependencySet
from ..model.terms import Constant, Term, Variable
from ..chase.skolem import SkolemTerm, skolemise
from .base import Guarantee, TerminationCriterion, register, verdict


@dataclass(frozen=True)
class Place:
    """An argument position of an atom occurrence in a Skolemised rule."""

    rule_index: int
    in_head: bool
    atom_index: int
    position: int
    atom: Atom  # the Skolemised atom occurrence (variables renamed apart)

    def __str__(self) -> str:
        where = "head" if self.in_head else "body"
        return f"r{self.rule_index}.{where}[{self.atom_index}].{self.position + 1}"


def _unify_terms(a: Term, b: Term, sub: dict) -> bool:
    """First-order unification with occurs check, mutating ``sub``."""
    a = _walk(a, sub)
    b = _walk(b, sub)
    if a is b:
        return True
    if isinstance(a, Variable):
        if _occurs(a, b, sub):
            return False
        sub[a] = b
        return True
    if isinstance(b, Variable):
        return _unify_terms(b, a, sub)
    if isinstance(a, Constant) or isinstance(b, Constant):
        return a is b
    if isinstance(a, SkolemTerm) and isinstance(b, SkolemTerm):
        if a.functor != b.functor or len(a.args) != len(b.args):
            return False
        return all(_unify_terms(x, y, sub) for x, y in zip(a.args, b.args))
    return False


def _walk(t: Term, sub: dict) -> Term:
    while isinstance(t, Variable) and t in sub:
        t = sub[t]
    return t


def _occurs(v: Variable, t: Term, sub: dict) -> bool:
    t = _walk(t, sub)
    if t is v:
        return True
    if isinstance(t, SkolemTerm):
        return any(_occurs(v, a, sub) for a in t.args)
    return False


def atoms_unify(a: Atom, b: Atom) -> bool:
    """Do the two atom patterns unify (as fresh rule instances)?

    The two atoms stand for places of *different* rule firings, so their
    variables are renamed apart even when they come from the same rule —
    e.g. the head place ``E(y, f(y)).2`` of ``E(x,y) → ∃z E(y,z)`` must
    unify with the body place ``E(x,y).2`` of another firing of the same
    rule.
    """
    if a.predicate != b.predicate or a.arity != b.arity:
        return False
    b = b.apply({v: Variable(f"{v.name}~rhs") for v in b.variables()})
    sub: dict = {}
    return all(_unify_terms(x, y, sub) for x, y in zip(a.args, b.args))


class SwAAnalysis:
    """Places, Move closure, and the trigger relation for a TGD set."""

    def __init__(self, sigma: DependencySet) -> None:
        self.sigma = sigma
        self.rules = []
        self._functors: list[dict[str, str]] = []
        skolemised = skolemise(sigma, variant="semi_oblivious")
        for i, sk in enumerate(skolemised):
            tgd = sk.source.rename_variables(f"swa{i}")
            mapping: dict[Term, Term] = {}
            per_rule: dict[str, str] = {}
            for z, functor, arg_vars in sk.functors:
                renamed_args = tuple(Variable(f"{v.name}#swa{i}") for v in arg_vars)
                mapping[Variable(f"{z.name}#swa{i}")] = SkolemTerm(
                    f"{functor}@{i}", renamed_args
                )
                per_rule[z.name] = f"{functor}@{i}"
            head = [a.apply(mapping) for a in tgd.head]
            self.rules.append((i, tgd, head))
            self._functors.append(per_rule)
        self._head_places: list[Place] = []
        self._body_places: list[Place] = []
        for i, tgd, head in self.rules:
            for ai, atom in enumerate(tgd.body):
                for pi in range(atom.arity):
                    self._body_places.append(Place(i, False, ai, pi, atom))
            for ai, atom in enumerate(head):
                for pi in range(atom.arity):
                    self._head_places.append(Place(i, True, ai, pi, atom))
        self._unify_cache: dict[tuple, bool] = {}

    # -- place sets ------------------------------------------------------

    def out_places(self, rule_index: int, z_name: str) -> list[Place]:
        """Head places where the Skolem term of existential ``z`` sits."""
        functor = self._functors[rule_index].get(z_name)
        if functor is None:
            return []
        out = []
        i, tgd, head = self.rules[rule_index]
        for ai, atom in enumerate(head):
            for pi, t in enumerate(atom.args):
                if isinstance(t, SkolemTerm) and t.functor == functor:
                    out.append(Place(i, True, ai, pi, atom))
        return out

    def head_places_of_var(self, rule_index: int, var: Variable) -> list[Place]:
        i, tgd, head = self.rules[rule_index]
        return [
            Place(i, True, ai, pi, atom)
            for ai, atom in enumerate(head)
            for pi, t in enumerate(atom.args)
            if t is var
        ]

    def body_places_of_var(self, rule_index: int, var: Variable) -> list[Place]:
        i, tgd, _ = self.rules[rule_index]
        return [
            Place(i, False, ai, pi, atom)
            for ai, atom in enumerate(tgd.body)
            for pi, t in enumerate(atom.args)
            if t is var
        ]

    def places_unify(self, head_place: Place, body_place: Place) -> bool:
        if head_place.position != body_place.position:
            return False
        key = (
            head_place.rule_index, head_place.atom_index,
            body_place.rule_index, body_place.atom_index,
        )
        cached = self._unify_cache.get(key)
        if cached is None:
            cached = atoms_unify(head_place.atom, body_place.atom)
            self._unify_cache[key] = cached
        return cached

    # -- Move closure --------------------------------------------------------

    def move(self, start: list[Place]) -> set[Place]:
        closure: set[Place] = set(start)
        changed = True
        while changed:
            changed = False
            for i, tgd, head in self.rules:
                shared = tgd.frontier()
                for x in shared:
                    body_places = self.body_places_of_var(i, x)
                    if any(
                        self.places_unify(p, q)
                        for q in body_places
                        for p in closure
                        if p.in_head
                    ):
                        for hp in self.head_places_of_var(i, x):
                            if hp not in closure:
                                closure.add(hp)
                                changed = True
        return closure

    # -- trigger relation -----------------------------------------------------

    def trigger_graph(self) -> nx.DiGraph:
        g = nx.DiGraph()
        g.add_nodes_from(range(len(self.rules)))
        for i, tgd, head in self.rules:
            for z in tgd.existential:
                bare = z.name.split("#")[0]
                out = self.out_places(i, bare)
                if not out:
                    continue
                reach = self.move(out)
                for j, tgd2, head2 in self.rules:
                    if g.has_edge(i, j):
                        continue
                    for x in tgd2.frontier():
                        body_places = self.body_places_of_var(j, x)
                        if any(
                            self.places_unify(p, q)
                            for q in body_places
                            for p in reach
                            if p.in_head
                        ):
                            g.add_edge(i, j)
                            break
        return g


def is_super_weakly_acyclic(sigma: DependencySet) -> bool:
    """SwA test for a TGD-only set."""
    return verdict("SwA", sigma, tgd_only=True)[0]


@register
class SuperWeakAcyclicity(TerminationCriterion):
    """SwA; EGD sets are lifted via the substitution-free simulation."""

    name = "SwA"
    guarantee = Guarantee.CT_ALL

    def _accepts(self, sigma: DependencySet, ctx) -> tuple[bool, bool, dict]:
        details: dict = {}
        if sigma.egds:
            details["simulated"] = True
        trigger_graph = SwAAnalysis(ctx.simulated()).trigger_graph()
        return nx.is_directed_acyclic_graph(trigger_graph), True, details
