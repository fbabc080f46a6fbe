"""Witness search for the firing relations ``r1 ≺ r2`` and ``r1 < r2``.

``r1 ≺ r2`` (chase graph, Deutsch–Nash–Remmel) holds iff there are
instances ``K``, ``J``, homomorphisms ``h1 : Body(r1) → K`` and
``h2 : Body(r2) → J`` such that

  (i)   ``K ⊨ h2(r2)``,
  (ii)  ``K --(r1, h1, γ1)--> J`` is a standard chase step,
  (iii) ``J ⊭ h2(r2)``.

``r1 < r2`` (firing graph, Definition 2) adds, for existential ``r2``,

  (iv)  no full dependency ``r3 ∈ Σ∀`` has a standard chase step
        ``K --(r3, h3, γ3)--> J'`` with ``J' ⊨ h2(r2)``.

Deciding (i)–(iii) is NP-complete; this module implements an exact-in-
practice witness search over canonical instances:

* ``K`` is built from a frozen copy of ``Body(r1)`` (labelled nulls, one
  per variable class), plus the atoms of ``h2(Body(r2))`` that the new
  head atoms / the EGD merge do not provide;
* condition (i) reduces to *newness* — at least one atom of
  ``h2(Body(r2))`` must be absent from ``K`` (if all body atoms pre-exist,
  either (i) or (iii) necessarily fails; see the derivation in DESIGN.md);
* for (iv), minimal witnesses are *saturated*: every applicable-and-
  defusing full TGD's head is added to K (the only way to neutralise it),
  re-checking (i)–(iii) after each addition; EGD defusers can be
  neutralised only by merging their equality images (extra variable
  merges) or by flipping the substitution direction (labelling a class as
  a constant), both of which are enumerated in the deep pass.

The paper's own Example 11 fixes two semantic corner cases which we follow
literally: a defusing step counts even when ``J' ⊨ h2(r2)`` holds
*vacuously*, and a failing step (``J' = ⊥``) defuses (a failing sequence is
finite, hence terminating).

When the enumeration budget is exhausted the engine answers ``True`` with
``exact=False``: firing edges are consumed negatively by every criterion,
so over-approximating keeps the criteria sound.  Budgets come from
:mod:`repro.budget`: an ``int`` budget is a per-pair step allowance (the
historical convention), a :class:`~repro.budget.Budget` is used as-is,
and fresh budgets are linked to the ambient one of the enclosing
analysis scope, so a criterion-level deadline or cancellation cuts the
witness search off mid-pair.

State management is transactional by default (``snapshots="savepoint"``):
the candidate instance ``K`` is built once per variable-freeze and every
enumerated candidate — the preimage pattern, the ``J`` overlay, each
defuser's probe instance — is a savepoint-scoped mutation rolled back in
O(changes), instead of the per-candidate ``Instance(K0)`` rebuilds and
``K.copy()`` forks the ``snapshots="copy"`` reference backend still
performs.  Both backends run the *same* enumeration and charge the
budget at the same points, so they produce byte-identical decisions
(witnesses included); the differential suite asserts it.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..budget import Budget, coerce_budget
from ..homomorphism.finder import find_homomorphism, find_homomorphisms
from ..homomorphism.satisfaction import satisfies_instantiated
from ..matching import chase_instance, warm_plans
from ..model.atoms import Atom
from ..model.dependencies import EGD, TGD, AnyDependency
from ..model.instances import Instance
from ..model.terms import Constant, Null, Term, Variable

# -- tuning knobs -----------------------------------------------------------

MAX_PARTITION_VARS = 7       # full partition enumeration up to Bell(7)=877
MAX_LABEL_CLASSES = 6        # label (null/const) enumeration up to 2^6
MAX_PREIMAGE_POSITIONS = 3   # per-atom preimage pattern enumeration
DEFAULT_BUDGET = 200_000     # unification/instance-check budget per pair

SNAPSHOT_BACKENDS = ("savepoint", "copy")


@dataclass
class Witness:
    """A concrete witness for conditions (i)-(iii) (and (iv) if checked)."""

    K: Instance
    J: Instance
    h1: dict
    h2: dict
    r1: AnyDependency
    r2: AnyDependency

    def __str__(self) -> str:
        return f"K={self.K} --[{self.r1.label or self.r1}]--> J={self.J}"


@dataclass
class FiringDecision:
    """Outcome of an edge decision: verdict + exactness + optional witness."""

    edge: bool
    exact: bool
    witness: Witness | None = None


# -- fresh term supply --------------------------------------------------------


class _TermSupply:
    """Deterministic fresh nulls/constants for witness instances."""

    def __init__(self) -> None:
        self._n = 0

    def null(self) -> Null:
        self._n += 1
        return Null(900_000 + self._n)

    def const(self) -> Constant:
        self._n += 1
        return Constant(f"__w{self._n}")


# -- partitions ----------------------------------------------------------------


def iter_partitions(items: Sequence, limit_vars: int = MAX_PARTITION_VARS) -> Iterator[list[list]]:
    """All set partitions of ``items`` (identity-finest first).

    Returns nothing beyond the singleton partition when ``items`` is larger
    than ``limit_vars`` (the caller treats that as an inexactness signal).
    """
    items = list(items)
    yield [[x] for x in items]
    if not items or len(items) > limit_vars:
        return

    # repro-lint: disable=budget-loop -- idx strictly advances to len(items) <= limit_vars; bounded partition enumeration
    def rec(idx: int, blocks: list[list]) -> Iterator[list[list]]:
        if idx == len(items):
            yield [list(b) for b in blocks]
            return
        x = items[idx]
        for b in blocks:
            b.append(x)
            yield from rec(idx + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from rec(idx + 1, blocks)
        blocks.pop()

    for part in rec(0, []):
        if all(len(b) == 1 for b in part):
            continue  # identity already yielded
        yield part


# -- the pair gate and plan warming ------------------------------------------------


def may_fire(r1: AnyDependency, r2: AnyDependency) -> bool:
    """Cheap necessary condition for both ``r1 ≺ r2`` and ``r1 < r2``.

    A TGD r1 can fire r2 only if at least one atom of ``h2(Body(r2))``
    comes from the new head atoms, so the head and body predicates must
    intersect.  EGDs can fire essentially anything (the merge may
    freshly create any body atom in J \\ K), so no filter applies.
    """
    if isinstance(r1, TGD):
        head_preds = {a.predicate for a in r1.head}
        return any(a.predicate in head_preds for a in r2.body)
    return True


def warm_renamed(deps: Iterable[AnyDependency]) -> None:
    """Compile the join plans for the bodies an engine probes over and
    over (candidate instances are built per partition, but the renamed
    bodies are fixed).  The empty compile target means ordering falls
    back to probe count; witness instances are small enough that order
    barely matters.  This runs under both plan-executing backends,
    ``columnar`` (the default) and ``planned``, and is a no-op only
    under the reference backends."""
    warm_plans([d.body for d in deps], ())


# -- the engine ------------------------------------------------------------------


class WitnessEngine:
    """Decides firing-relation edges for one pair of dependencies."""

    def __init__(
        self,
        r1: AnyDependency,
        r2: AnyDependency,
        fulls: Sequence[AnyDependency] = (),
        step_variant: str = "standard",
        budget: Budget | int = DEFAULT_BUDGET,
        snapshots: str = "savepoint",
        renamed: tuple[AnyDependency, AnyDependency, Sequence[AnyDependency]]
        | None = None,
    ) -> None:
        if snapshots not in SNAPSHOT_BACKENDS:
            raise ValueError(
                f"unknown snapshot backend {snapshots!r}; "
                f"known: {SNAPSHOT_BACKENDS}"
            )
        # Rename apart so self-loops and shared variable names are safe.
        # A caller deciding many pairs over one Σ (the FiringOracle)
        # renames each dependency once and passes ``renamed`` =
        # (r1 renamed "1", r2 renamed "2", fulls[i] renamed f"f{i}"),
        # having warmed their plans itself.
        if renamed is None:
            renamed = (
                r1.rename_variables("1"),
                r2.rename_variables("2"),
                [d.rename_variables(f"f{i}") for i, d in enumerate(fulls)],
            )
            warm_renamed([renamed[0], renamed[1], *renamed[2]])
        self.r1, self.r2 = renamed[0], renamed[1]
        self.fulls = list(renamed[2])
        self.orig_r1 = r1
        self.orig_r2 = r2
        self.step_variant = step_variant
        self.budget = coerce_budget(budget, default_steps=DEFAULT_BUDGET)
        self.snapshots = snapshots

    @contextmanager
    def _scratch(self, inst: Instance):
        """A scope in which ``inst`` may be freely mutated and is restored
        on exit: an undo-log savepoint (savepoint backend) or a throwaway
        fork (copy backend).  Callers must not hold live homomorphism
        generators over ``inst`` across the scope — the savepoint backend
        mutates it in place."""
        if self.snapshots == "savepoint":
            sp = inst.savepoint()
            try:
                yield inst
            finally:
                inst.rollback(sp)
        else:
            yield inst.copy()

    # -- public API ------------------------------------------------------

    def precedes(self) -> FiringDecision:
        """``r1 ≺ r2``: conditions (i)-(iii) only."""
        return self._decide(check_defusal=False)

    def fires(self) -> FiringDecision:
        """``r1 < r2``: adds the defusal condition (iv) for existential r2."""
        check = self.r2.is_existential
        return self._decide(check_defusal=check)

    # -- driver ----------------------------------------------------------

    def _decide(self, check_defusal: bool) -> FiringDecision:
        if not may_fire(self.r1, self.r2):
            return FiringDecision(False, True)
        inexact = False
        for witness, died_by_defusal in self._search(check_defusal):
            if witness is not None:
                return FiringDecision(True, True, witness)
        if not self.budget.exact:
            return FiringDecision(True, False)
        if self._hit_partition_limit:
            inexact = True
        return FiringDecision(False, not inexact)

    # -- witness enumeration ------------------------------------------------

    def _search(
        self, check_defusal: bool
    ) -> Iterator[tuple[Witness | None, bool]]:
        """Yield (witness, died_by_defusal) for each candidate examined."""
        self._hit_partition_limit = False
        r1_vars = sorted(self.r1.body_variables(), key=lambda v: v.name)
        if len(r1_vars) > MAX_PARTITION_VARS:
            self._hit_partition_limit = True
        for partition in iter_partitions(r1_vars):
            if not self.budget.charge():
                return
            if isinstance(self.r1, EGD):
                if self._same_block(partition, self.r1.lhs, self.r1.rhs):
                    continue
                directions = ("lhs", "rhs")
            else:
                directions = ("lhs",)
            for direction in directions:
                yield from self._search_with_freeze(
                    partition, direction, check_defusal
                )

    @staticmethod
    def _same_block(partition: list[list], a: Variable, b: Variable) -> bool:
        for block in partition:
            if a in block:
                return b in block
        return False

    def _search_with_freeze(
        self,
        partition: list[list],
        direction: str,
        check_defusal: bool,
    ) -> Iterator[tuple[Witness | None, bool]]:
        """Freeze Body(r1) per the partition and enumerate h2 candidates.

        ``direction`` selects, for an EGD r1, which equality side is the
        eliminated null ("lhs": γ = {h(x1)/h(x2)}, the Definition 1 default
        for a null x1-image; "rhs": the x2 side is eliminated, which
        corresponds to labelling the x1 class as a constant).
        """
        supply = _TermSupply()
        class_term: dict[Variable, Term] = {}
        blocks = [sorted(b, key=lambda v: v.name) for b in partition]
        for block in blocks:
            t = supply.null()
            for v in block:
                class_term[v] = t
        h1 = dict(class_term)
        K0 = [a.apply(class_term) for a in self.r1.body]

        if isinstance(self.r1, TGD):
            head_map: dict[Term, Term] = dict(class_term)
            for z in self.r1.existential:
                head_map[z] = supply.null()
            new_atoms = [a.apply(head_map) for a in self.r1.head]
            gamma = None
        else:
            lhs_t, rhs_t = class_term[self.r1.lhs], class_term[self.r1.rhs]
            if direction == "lhs":
                gamma = (lhs_t, rhs_t)  # eliminate h(x1)
            else:
                gamma = (rhs_t, lhs_t)
            new_atoms = []

        # The savepoint backend materialises the frozen body once per
        # freeze and scopes every candidate mutation below it; the copy
        # backend rebuilds the K0 instance per candidate (the reference
        # the differential suite compares against).  chase_instance picks
        # the active backend's fact representation.
        Kbase = chase_instance(K0) if self.snapshots == "savepoint" else None
        yield from self._enumerate_h2(
            Kbase, K0, new_atoms, gamma, h1, supply, check_defusal
        )

    def _enumerate_h2(
        self,
        Kbase: Instance | None,
        K0: list[Atom],
        new_atoms: list[Atom],
        gamma: tuple[Term, Term] | None,
        h1: dict,
        supply: _TermSupply,
        check_defusal: bool,
    ) -> Iterator[tuple[Witness | None, bool]]:
        """Enumerate mappings of Body(r2) into J = (K ∪ extras)γ ∪ New."""
        if gamma is None:
            J0 = list(dict.fromkeys(K0 + new_atoms))
        else:
            old, new = gamma
            J0 = list(dict.fromkeys(a.apply({old: new}) for a in K0))
        b2 = list(self.r2.body)
        n = len(b2)
        # Choose, per body atom of r2, whether it maps into J0 or becomes a
        # "free" atom added to K (and J) explicitly.
        for mask in range(2**n):
            if not self.budget.charge():
                return
            matched = [b2[i] for i in range(n) if mask & (1 << i)]
            free = [b2[i] for i in range(n) if not mask & (1 << i)]
            for g in find_homomorphisms(matched, J0, limit=None):
                if not self.budget.charge():
                    return
                yield from self._complete_witness(
                    Kbase, K0, new_atoms, gamma, h1, dict(g), free, supply,
                    check_defusal,
                )

    def _complete_witness(
        self,
        Kbase: Instance | None,
        K0: list[Atom],
        new_atoms: list[Atom],
        gamma: tuple[Term, Term] | None,
        h1: dict,
        h2: dict,
        free: list[Atom],
        supply: _TermSupply,
        check_defusal: bool,
    ) -> Iterator[tuple[Witness | None, bool]]:
        """Instantiate free atoms, build concrete K and J, run the checks."""
        unbound = sorted(
            {v for a in free for v in a.variables() if v not in h2},
            key=lambda v: v.name,
        )
        if unbound:
            # Each unbound variable may take a fresh null or any existing
            # witness term (e.g. the EGD merge survivor — needed when the
            # new match owes its existence to the merge, as in
            # "E(x,y) → x=y fires M(w) → ...": K = {E(a,η), M(η)}).
            if gamma is None:
                pool = sorted({t for a in K0 for t in a.args}, key=str)
            else:
                pool = sorted({t for a in K0 for t in a.args if t is not gamma[0]}, key=str)
            choices = [[supply.null()] + pool for _ in unbound]
            if len(unbound) > 3:
                choices = [[supply.null()] for _ in unbound]  # cap blow-up
            for combo in itertools.product(*choices):
                if not self.budget.charge():
                    return
                h2c = dict(h2)
                for v, t in zip(unbound, combo):
                    h2c[v] = t
                yield from self._complete_with_bound(
                    Kbase, K0, new_atoms, gamma, h1, h2c, free, check_defusal
                )
            return
        yield from self._complete_with_bound(
            Kbase, K0, new_atoms, gamma, h1, dict(h2), free, check_defusal
        )

    def _complete_with_bound(
        self,
        Kbase: Instance | None,
        K0: list[Atom],
        new_atoms: list[Atom],
        gamma: tuple[Term, Term] | None,
        h1: dict,
        h2: dict,
        free: list[Atom],
        check_defusal: bool,
    ) -> Iterator[tuple[Witness | None, bool]]:
        free_images = [a.apply(h2) for a in free]

        # Preimage patterns: for an EGD r1, a free atom may pre-exist in K
        # with the eliminated null in any subset of the merged positions.
        if gamma is None:
            preimage_choices: list[list[Atom]] = [free_images]
        else:
            old, new = gamma
            per_atom: list[list[Atom]] = []
            for img in free_images:
                positions = [i for i, t in enumerate(img.args) if t is new]
                options = [img]
                if positions and len(positions) <= MAX_PREIMAGE_POSITIONS:
                    for k in range(1, len(positions) + 1):
                        for combo in itertools.combinations(positions, k):
                            args = list(img.args)
                            for i in combo:
                                args[i] = old
                            options.append(Atom(img.predicate, args))
                elif positions:
                    args = [old if t is new else t for t in img.args]
                    options.append(Atom(img.predicate, args))
                per_atom.append(options)
            preimage_choices = [list(c) for c in itertools.product(*per_atom)]

        transactional = Kbase is not None
        for preimages in preimage_choices:
            if not self.budget.charge():
                return
            if transactional:
                sp = Kbase.savepoint()
                K = Kbase
            else:
                sp = None
                K = chase_instance(K0)
            try:
                K.add_all(preimages)
                # Build J: an overlay on K under a nested savepoint, or a
                # fork (copy backend).  Either way the same checks run and
                # the budget is charged at the same points.
                if transactional:
                    spJ = K.savepoint()
                    if gamma is None:
                        K.add_all(new_atoms)
                    else:
                        K.merge_terms(gamma[0], gamma[1])
                    J = K
                else:
                    if gamma is None:
                        J = K.copy()
                        J.add_all(new_atoms)
                    else:
                        J = K.apply({gamma[0]: gamma[1]})
                    spJ = None
                # Free images must actually be present in J (preimages
                # merge into them); guaranteed by construction, asserted
                # cheaply.
                inst_body: list[Atom] | None = None
                ok = all(img in J for img in free_images)
                if ok:
                    if not self.budget.charge():
                        ok = False
                    else:
                        inst_body = [a.apply(h2) for a in self.r2.body]
                        ok = self._witness_checks_J(J, inst_body, h2)
                if spJ is not None:
                    K.rollback(spJ)
                if not ok or inst_body is None:
                    continue
                if not self._witness_checks_K(K, inst_body, h1):
                    continue
                witness = self._materialize(K, new_atoms, gamma, h1, h2)
                if not check_defusal:
                    yield witness, False
                    return
                survivor = self._defusal(witness)
                if survivor is not None:
                    yield survivor, False
                    return
                yield None, True
            finally:
                if sp is not None:
                    Kbase.rollback(sp)

    # -- conditions (i)-(iii) -------------------------------------------------

    def _witness_checks_J(
        self, J: Instance, inst_body: list[Atom], h2: dict
    ) -> bool:
        """The conditions that read the *J* state."""
        # (iii) needs h2(Body(r2)) ⊆ J.
        if not all(a in J for a in inst_body):
            return False
        # (iii): J must violate h2(r2).  Under the oblivious step semantics
        # (c-stratification) a TGD trigger "fires" regardless of head
        # satisfaction, so (iii) degenerates to the new-trigger condition
        # checked in :meth:`_witness_checks_K`; EGD applicability stays the
        # same.
        if isinstance(self.r2, EGD):
            if h2[self.r2.lhs] is h2[self.r2.rhs]:
                return False
        elif self.step_variant != "oblivious":
            seed = {v: h2[v] for v in self.r2.frontier()}
            if find_homomorphism(self.r2.head, J, seed=seed, frozen_nulls=True):
                return False
        return True

    def _witness_checks_K(
        self, K: Instance, inst_body: list[Atom], h1: dict
    ) -> bool:
        """The conditions that read the *K* state."""
        # (i) via newness: some instantiated body atom must be absent from K
        # (otherwise (i) and (iii) cannot both hold; see module docstring).
        if all(a in K for a in inst_body):
            return False
        # (ii): the r1 step must be applicable on K.
        return self._step_applicable(K, h1)

    def _materialize(
        self,
        K: Instance,
        new_atoms: list[Atom],
        gamma: tuple[Term, Term] | None,
        h1: dict,
        h2: dict,
    ) -> Witness:
        """A witness holding instances detached from the enumeration state
        (the savepoint backend keeps mutating ``K`` after this returns)."""
        K_snap = K.copy() if self.snapshots == "savepoint" else K
        if gamma is None:
            J_snap = K_snap.copy()
            J_snap.add_all(new_atoms)
        else:
            J_snap = K_snap.apply({gamma[0]: gamma[1]})
        return Witness(K_snap, J_snap, dict(h1), dict(h2), self.orig_r1, self.orig_r2)

    def _check_witness(
        self, K: Instance, J: Instance, h1: dict, h2: dict
    ) -> Witness | None:
        """Conditions (i)-(iii) over already-materialised K and J (the
        defusal saturation loop re-checks its evolving witness this way)."""
        if not self.budget.charge():
            return None
        inst_body = [a.apply(h2) for a in self.r2.body]
        if not self._witness_checks_J(J, inst_body, h2):
            return None
        if not self._witness_checks_K(K, inst_body, h1):
            return None
        return Witness(K, J, dict(h1), dict(h2), self.orig_r1, self.orig_r2)

    def _step_applicable(self, K: Instance, h1: dict) -> bool:
        if isinstance(self.r1, EGD):
            t1, t2 = h1[self.r1.lhs], h1[self.r1.rhs]
            if t1 is t2:
                return False
            # A failing step (two constants) yields ⊥ which satisfies
            # everything, so it can never witness an edge; our freeze uses
            # nulls, keeping the step successful.
            return isinstance(t1, Null) or isinstance(t2, Null)
        if self.step_variant == "oblivious":
            return True  # the oblivious step fires regardless of satisfaction
        seed = {v: h1[v] for v in self.r1.frontier()}
        ext = find_homomorphism(self.r1.head, K, seed=seed, frozen_nulls=True)
        return ext is None

    # -- condition (iv): defusal -------------------------------------------------

    def _defusal(self, witness: Witness) -> Witness | None:
        """Return a (possibly saturated) surviving witness, or None.

        Full-TGD defusers are neutralised by adding their instantiated
        heads to K (mandatory — the only way to make them inapplicable);
        EGD defusers kill the witness (blocking them needs different
        variable merges, which the outer partition loop provides, or a
        flipped substitution direction, which we try here).
        """
        # The witness's instances are detached per-candidate state (see
        # :meth:`_materialize`), so the saturation loop may grow them in
        # place: on failure the witness is discarded, on success they back
        # the surviving witness.
        K, J = witness.K, witness.J
        h2 = witness.h2
        # Saturation adds full-TGD heads over a fixed term domain, so it is
        # finitely bounded; if the generous loop bound is ever hit we keep
        # the witness (over-approximating edges is the sound direction).
        for _ in range(64 + len(K) * 16):
            if not self.budget.charge():
                return None
            defuser = self._find_defuser(K, h2)
            if defuser is None:
                return Witness(K, J, witness.h1, h2, self.orig_r1, self.orig_r2)
            kind, r3, h3 = defuser
            if kind == "egd":
                return None
            # Neutralise the full TGD by satisfying it in K (and hence J).
            inst_head = [a.apply(h3) for a in r3.head]
            K.add_all(inst_head)
            J.add_all(inst_head)
            refreshed = self._check_witness(K, J, witness.h1, h2)
            if refreshed is None:
                return None
        return Witness(K, J, witness.h1, h2, self.orig_r1, self.orig_r2)

    def _find_defuser(self, K: Instance, h2: dict) -> tuple | None:
        """An applicable full-dependency step on K whose result satisfies
        h2(r2) — including vacuous satisfaction (Example 11)."""
        k_preds = K.predicates()
        for r3 in self.fulls:
            if any(a.predicate not in k_preds for a in r3.body):
                continue  # its body cannot map into K at all
            # Materialise the homomorphism list up front: the probes below
            # mutate K under a savepoint, which would invalidate a live
            # enumeration over its indexes.
            if isinstance(r3, TGD):
                for h3 in list(find_homomorphisms(r3.body, K, limit=None)):
                    if not self.budget.charge():
                        return None
                    inst_head = [a.apply(h3) for a in r3.head]
                    if all(a in K for a in inst_head):
                        continue  # not applicable (standard step)
                    with self._scratch(K) as Jp:
                        Jp.add_all(inst_head)
                        defused = satisfies_instantiated(Jp, self.r2, h2)
                    if defused:
                        return ("tgd", r3, h3)
            else:
                for h3 in list(find_homomorphisms(r3.body, K, limit=None)):
                    if not self.budget.charge():
                        return None
                    t1, t2 = h3[r3.lhs], h3[r3.rhs]
                    if t1 is t2:
                        continue
                    if isinstance(t1, Constant) and isinstance(t2, Constant):
                        return ("egd", r3, h3)  # ⊥ defuses by convention
                    # Definition 1 fixes the substitution direction from the
                    # null/constant labels of the images; our freeze labels
                    # are free, so the witness survives this hom if SOME
                    # realisable direction fails to defuse.  Direction
                    # choices are treated per-hom rather than via one global
                    # labelling — an over-approximation of survival, i.e. of
                    # edges, which is the sound direction for the criteria.
                    if self._all_directions_defuse(K, h2, t1, t2):
                        return ("egd", r3, h3)
        return None

    @staticmethod
    def _egd_directions(t1: Term, t2: Term) -> list[tuple[Term, Term]]:
        dirs = []
        if isinstance(t1, Null):
            dirs.append((t1, t2))
        if isinstance(t2, Null):
            dirs.append((t2, t1))
        return dirs

    def _all_directions_defuse(
        self, K: Instance, h2: dict, t1: Term, t2: Term
    ) -> bool:
        directions = self._egd_directions(t1, t2)
        if not directions:
            return True  # both constants: ⊥, defuses
        for old, new in directions:
            # ``old`` is a null (``_egd_directions`` guarantees it), so the
            # substitution is an in-place merge under the scratch scope.
            with self._scratch(K) as Jp:
                Jp.merge_terms(old, new)
                sat = satisfies_instantiated(Jp, self.r2, h2)
            if not sat:
                return False
        return True


# -- module-level conveniences -------------------------------------------------


def decide_precedes(
    r1: AnyDependency,
    r2: AnyDependency,
    step_variant: str = "standard",
    budget: Budget | int = DEFAULT_BUDGET,
    snapshots: str = "savepoint",
) -> FiringDecision:
    """Decide ``r1 ≺ r2`` (chase-graph edge)."""
    return WitnessEngine(r1, r2, (), step_variant, budget, snapshots).precedes()


def decide_fires(
    r1: AnyDependency,
    r2: AnyDependency,
    fulls: Iterable[AnyDependency],
    step_variant: str = "standard",
    budget: Budget | int = DEFAULT_BUDGET,
    snapshots: str = "savepoint",
) -> FiringDecision:
    """Decide ``r1 < r2`` (firing-graph edge) w.r.t. the full dependencies."""
    return WitnessEngine(
        r1, r2, tuple(fulls), step_variant, budget, snapshots
    ).fires()
