"""Synthetic ontology corpus mirroring Table 2(a) of the paper.

The paper evaluates on 178 real ontologies (Gardiner corpus, LUBM,
Phenoscape, OBO) translated to dependencies and partitioned into eight
classes by (|Σ∃|, |Σegd|).  Those artefacts are not available offline, so
this module generates a *seeded synthetic corpus* with the same class
structure: identical per-class test counts and matched average |Σ| (both
scalable), using the dependency motifs ontology translations produce —
concept hierarchies, role domain/range, inverse and transitive roles,
existential role successors, functional roles and keys as EGDs.

Each ontology's termination character is controlled by its *cycle motifs*:

* ``acyclic``         — existential successors only point down a concept
  DAG: every chase sequence terminates, all criteria should accept;
* ``egd_rescued``     — a Σ1-style cycle closed by a reflexivising EGD:
  only some sequences terminate (∈ CTstd∃ \\ CTstd∀); the paper's
  contributions are exactly the criteria that can accept these;
* ``unguarded``       — an existential cycle with no EGD: no terminating
  sequence, nothing should accept;
* ``functional_guard``— a cycle "guarded" by a functional-role EGD: the
  chase diverges on databases without matching role edges, yet the
  adornment algorithm's ``Dµ`` analysis merges the free symbol anyway.
  This motif exercises the soundness corner of the literal Algorithm 1
  documented in DESIGN.md §2 and EXPERIMENTS.md;
* ``sigma8_like``     — the Example 8 pattern (terminating, but the
  substitution-free simulation of it is not): a source of false negatives
  for TGD-only criteria.

The default mix per class is tuned so the *shape* of Table 2(c) — most
chase-terminating ontologies recognised, a few false negatives in the
large classes — is measured, not hard-coded.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

from ..model.atoms import Atom
from ..model.dependencies import EGD, TGD, AnyDependency, DependencySet
from ..model.terms import Variable

#: Table 2(a) ground truth: (|Σ∃| interval, |Σegd| interval) → (#tests, avg |Σ|).
TABLE2A_CLASSES: list[dict] = [
    {"name": "E1-10/G1-10", "exist": (1, 10), "egd": (1, 10), "tests": 50, "avg_size": 86},
    {"name": "E1-10/G11-100", "exist": (1, 10), "egd": (11, 100), "tests": 7, "avg_size": 451},
    {"name": "E11-100/G1-10", "exist": (11, 100), "egd": (1, 10), "tests": 15, "avg_size": 406},
    {"name": "E11-100/G11-100", "exist": (11, 100), "egd": (11, 100), "tests": 26, "avg_size": 1210},
    {"name": "E101-1000/G1-10", "exist": (101, 1000), "egd": (1, 10), "tests": 51, "avg_size": 3113},
    {"name": "E101-1000/G11-100", "exist": (101, 1000), "egd": (11, 100), "tests": 13, "avg_size": 3176},
    {"name": "E1001-5000/G1-10", "exist": (1001, 5000), "egd": (1, 10), "tests": 9, "avg_size": 9117},
    {"name": "E1001-5000/G11-100", "exist": (1001, 5000), "egd": (11, 100), "tests": 7, "avg_size": 19587},
]

DEFAULT_SEED = 20160396  # PVLDB 9(5), pages 396-407


@dataclass
class GeneratedOntology:
    """One synthetic ontology with its provenance."""

    name: str
    class_name: str
    sigma: DependencySet
    seed: int
    character: str  # dominant cycle motif
    profile: dict = field(default_factory=dict)


def _concept(i: int) -> str:
    return f"C{i}"


def _role(i: int) -> str:
    return f"R{i}"


def _prole(i: int) -> str:
    return f"S{i}"


class OntologyBuilder:
    """Builds one ontology-like dependency set from a seeded RNG.

    Structure discipline keeping the "acyclic" character honest:

    * concepts carry a topological order; subclass/successor axioms point
      strictly forward along it;
    * roles split into *successor roles* (carry labelled nulls, used by
      existential axioms) and *plain roles* (database constants only);
    * domain/range axioms on successor roles may only target concepts
      strictly after every concept already touching the role, so no
      backward concept edge sneaks in;
    * inverse/transitive axioms pair plain roles only (nulls never flow
      through them).

    The explicit cycle motifs then add the single backward edge that gives
    each ontology its termination character.
    """

    def __init__(self, rng: random.Random, n_exist: int, n_egd: int, n_full: int):
        self.rng = rng
        self.n_exist = max(1, n_exist)
        self.n_egd = max(1, n_egd)
        self.n_full = max(1, n_full)
        # Concept/role pools sized to the ontology: enough structure for
        # hierarchies without making bodies huge.
        self.n_concepts = max(4, (self.n_exist + self.n_full) // 2 + 2)
        self.n_succ_roles = max(2, self.n_exist // 2 + 1)
        self.n_plain_roles = max(2, self.n_full // 6 + 1)
        self.n_roles = self.n_succ_roles  # successor-role pool size
        self.deps: list[AnyDependency] = []
        self.x, self.y, self.z = Variable("x"), Variable("y"), Variable("z")
        # Per successor role: highest concept position touching it (as
        # subject or object), for the domain/range level constraint.
        self.role_level: dict[int, int] = {}
        # Successor roles frozen after receiving a domain/range axiom.
        self.frozen_roles: set[int] = set()
        # Roles reserved by the character motif: random EGDs must not touch
        # them, or they would silently change the termination character
        # (e.g. a functional EGD on an unguarded cycle's role).
        self.reserved_roles: set[int] = set()

    # -- motif emitters -------------------------------------------------

    def subclass(self, a: int, b: int) -> None:
        self.deps.append(
            TGD([Atom(_concept(a), (self.x,))], [Atom(_concept(b), (self.x,))])
        )

    def conj_subclass(self, a: int, b: int, c: int) -> None:
        self.deps.append(
            TGD(
                [Atom(_concept(a), (self.x,)), Atom(_concept(b), (self.x,))],
                [Atom(_concept(c), (self.x,))],
            )
        )

    def domain_axiom(self, r: int, a: int) -> None:
        self.deps.append(
            TGD([Atom(_role(r), (self.x, self.y))], [Atom(_concept(a), (self.x,))])
        )

    def range_axiom(self, r: int, a: int) -> None:
        self.deps.append(
            TGD([Atom(_role(r), (self.x, self.y))], [Atom(_concept(a), (self.y,))])
        )

    def domain_axiom_plain(self, r: int, a: int) -> None:
        self.deps.append(
            TGD([Atom(_prole(r), (self.x, self.y))], [Atom(_concept(a), (self.x,))])
        )

    def range_axiom_plain(self, r: int, a: int) -> None:
        self.deps.append(
            TGD([Atom(_prole(r), (self.x, self.y))], [Atom(_concept(a), (self.y,))])
        )

    def inverse_axiom_plain(self, r: int, s: int) -> None:
        self.deps.append(
            TGD([Atom(_prole(r), (self.x, self.y))], [Atom(_prole(s), (self.y, self.x))])
        )

    def transitive_axiom_plain(self, r: int) -> None:
        self.deps.append(
            TGD(
                [Atom(_prole(r), (self.x, self.y)), Atom(_prole(r), (self.y, self.z))],
                [Atom(_prole(r), (self.x, self.z))],
            )
        )

    def functional_egd_plain(self, r: int) -> None:
        self.deps.append(
            EGD(
                [Atom(_prole(r), (self.x, self.y)), Atom(_prole(r), (self.x, self.z))],
                self.y,
                self.z,
            )
        )

    def key_egd_plain(self, r: int) -> None:
        self.deps.append(
            EGD(
                [Atom(_prole(r), (self.x, self.z)), Atom(_prole(r), (self.y, self.z))],
                self.x,
                self.y,
            )
        )

    def successor_axiom(self, a: int, r: int, b: int) -> None:
        """A(x) → ∃y R(x,y) ∧ B(y)  — the existential motif."""
        self.deps.append(
            TGD(
                [Atom(_concept(a), (self.x,))],
                [Atom(_role(r), (self.x, self.y)), Atom(_concept(b), (self.y,))],
                existential=[self.y],
            )
        )

    def functional_egd(self, r: int) -> None:
        self.deps.append(
            EGD(
                [Atom(_role(r), (self.x, self.y)), Atom(_role(r), (self.x, self.z))],
                self.y,
                self.z,
            )
        )

    def key_egd(self, r: int) -> None:
        self.deps.append(
            EGD(
                [Atom(_role(r), (self.x, self.z)), Atom(_role(r), (self.y, self.z))],
                self.x,
                self.y,
            )
        )

    def reflexivising_egd(self, r: int) -> None:
        """R(x,y) → x = y — the Σ1-style EGD that truly rescues cycles."""
        self.deps.append(
            EGD([Atom(_role(r), (self.x, self.y))], self.x, self.y)
        )

    def sigma8_block(self, base: int) -> None:
        """An Example 8 block over fresh concepts (A, B, C shifted)."""
        a, b, c = _concept(base), _concept(base + 1), _concept(base + 2)
        x, y = self.x, self.y
        self.deps.append(TGD([Atom(a, (x,)), Atom(b, (x,))], [Atom(c, (x,))]))
        self.deps.append(
            TGD([Atom(c, (x,))], [Atom(a, (x,)), Atom(b, (y,))], existential=[y])
        )
        self.deps.append(
            TGD([Atom(c, (x,))], [Atom(a, (y,)), Atom(b, (x,))], existential=[y])
        )
        self.deps.append(EGD([Atom(a, (x,)), Atom(a, (y,))], x, y))
        self.deps.append(EGD([Atom(b, (x,)), Atom(b, (y,))], x, y))

    def mirror_block(self, r: int) -> None:
        """``R(x,y) → ∃z R(y,z) ∧ R(z,y)``: in CTstd∀ — every firing
        produces its own satisfaction witnesses, so the standard chase
        halts after one round — yet every static criterion, semi-acyclicity
        included, rejects it.  The corpus' source of false negatives."""
        x, y, z = self.x, self.y, self.z
        rr = _role(r)
        self.deps.append(
            TGD(
                [Atom(rr, (x, y))],
                [Atom(rr, (y, z)), Atom(rr, (z, y))],
                existential=[z],
            )
        )

    # -- assembly ---------------------------------------------------------

    def _touch_role(self, r: int, level: int) -> None:
        self.role_level[r] = max(self.role_level.get(r, 0), level)

    def _forward_successor(self) -> None:
        """One acyclic existential successor axiom.

        Roles that already received a domain/range axiom are frozen for
        further successor usage (a later, higher successor target would
        slip a backward edge past the axiom's level constraint).
        """
        rng = self.rng
        frozen = self.frozen_roles | self.reserved_roles
        candidates = [r for r in range(self.n_succ_roles) if r not in frozen]
        if not candidates:
            candidates = [
                r for r in range(self.n_succ_roles)
                if r not in self.reserved_roles
            ] or list(range(self.n_succ_roles))
        i = rng.randrange(self.n_concepts - 1)
        j = rng.randrange(i + 1, self.n_concepts)
        r = rng.choice(candidates)
        if r in frozen:
            ceiling = self.role_level.get(r, self.n_concepts)
            if j > ceiling:
                return  # cannot place safely; skip this axiom
        self.successor_axiom(i, r, j)
        self._touch_role(r, j)

    def build(self, character: str) -> DependencySet:
        rng = self.rng
        exist_left = self.n_exist
        egd_left = self.n_egd
        full_left = self.n_full

        # 1. Cycle motif(s) defining the termination character.  Each adds
        #    the one backward concept edge (b -> a with a < b).
        if character == "egd_rescued" and egd_left >= 1:
            r = rng.randrange(self.n_succ_roles)
            self.reserved_roles.add(r)
            self.successor_axiom(0, r, 1)
            self._touch_role(r, 1)
            self.subclass(1, 0)  # backward: closes the concept cycle
            self.reflexivising_egd(r)
            exist_left -= 1
            egd_left -= 1
            full_left = max(0, full_left - 1)
        elif character == "unguarded":
            r = rng.randrange(self.n_succ_roles)
            self.reserved_roles.add(r)
            self.successor_axiom(0, r, 1)
            self._touch_role(r, 1)
            self.subclass(1, 0)
            exist_left -= 1
            full_left = max(0, full_left - 1)
        elif character == "functional_guard" and egd_left >= 1:
            r = rng.randrange(self.n_succ_roles)
            self.reserved_roles.add(r)
            self.successor_axiom(0, r, 1)
            self._touch_role(r, 1)
            self.subclass(1, 0)
            self.functional_egd(r)
            exist_left -= 1
            egd_left -= 1
            full_left = max(0, full_left - 1)
        elif character == "sigma8_like":
            self.sigma8_block(self.n_concepts)
            exist_left = max(0, exist_left - 2)
            egd_left = max(0, egd_left - 2)
            full_left = max(0, full_left - 1)
        elif character == "mirror":
            # A dedicated role index past both pools, untouched elsewhere.
            self.mirror_block(self.n_succ_roles + self.n_plain_roles)
            exist_left -= 1
        # "acyclic": nothing special; everything below is acyclic.

        # 2. Acyclic existential successors (forward along the order).
        for _ in range(max(0, exist_left)):
            self._forward_successor()

        # 3. EGDs: functional roles and keys; successor roles and plain
        #    roles both occur (functional successor roles are realistic —
        #    and are what exercises the Dµ merge analysis).
        for k in range(max(0, egd_left)):
            if rng.random() < 0.5:
                free = [r for r in range(self.n_succ_roles)
                        if r not in self.reserved_roles]
                if not free:
                    continue
                self.functional_egd(rng.choice(free))
            else:
                r = rng.randrange(self.n_plain_roles)
                if rng.random() < 0.6:
                    self.functional_egd_plain(r)
                else:
                    self.key_egd_plain(r)

        # 4. Full TGDs: hierarchy and role axioms, all forward/harmless.
        emitted = 0
        guard = 0
        while emitted < full_left and guard < full_left * 8 + 32:
            guard += 1
            kind = rng.random()
            if kind < 0.40:
                i = rng.randrange(self.n_concepts - 1)
                j = rng.randrange(i + 1, self.n_concepts)
                self.subclass(i, j)
            elif kind < 0.52 and self.n_concepts >= 3:
                i = rng.randrange(self.n_concepts - 2)
                j = rng.randrange(i + 1, self.n_concepts - 1)
                k = rng.randrange(j + 1, self.n_concepts)
                self.conj_subclass(i, j, k)
            elif kind < 0.66:
                # Domain/range on a successor role: only forward targets,
                # and the role is frozen for further successor axioms.
                r = rng.randrange(self.n_succ_roles)
                floor = self.role_level.get(r, 0)
                if floor + 1 >= self.n_concepts:
                    continue
                c = rng.randrange(floor + 1, self.n_concepts)
                if rng.random() < 0.5:
                    self.domain_axiom(r, c)
                else:
                    self.range_axiom(r, c)
                self._touch_role(r, c)
                self.frozen_roles.add(r)
            elif kind < 0.86:
                # Domain/range on a plain role: unconstrained (no nulls).
                r = rng.randrange(self.n_plain_roles)
                c = rng.randrange(self.n_concepts)
                if rng.random() < 0.5:
                    self.domain_axiom_plain(r, c)
                else:
                    self.range_axiom_plain(r, c)
            else:
                r = rng.randrange(self.n_plain_roles)
                s = rng.randrange(self.n_plain_roles)
                if r != s:
                    self.inverse_axiom_plain(r, s)
                else:
                    self.transitive_axiom_plain(r)
            emitted += 1

        out = DependencySet()
        for d in self.deps:
            out.add(d)
        return out.relabel()


#: Per-class character mix (probabilities).  Tuned so the corpus-level
#: shape matches Table 2(c): ~43% of ontologies chase-terminating, false
#: negatives concentrated in the mid/large classes.
DEFAULT_CHARACTER_MIX: dict[str, list[tuple[str, float]]] = {
    "E1-10/G1-10": [
        ("acyclic", 0.50), ("egd_rescued", 0.26), ("unguarded", 0.12),
        ("functional_guard", 0.12), ("sigma8_like", 0.0),
    ],
    "E1-10/G11-100": [
        ("acyclic", 0.45), ("egd_rescued", 0.30), ("unguarded", 0.15),
        ("functional_guard", 0.10), ("sigma8_like", 0.0),
    ],
    "E11-100/G1-10": [
        ("acyclic", 0.25), ("egd_rescued", 0.15), ("unguarded", 0.45),
        ("functional_guard", 0.15), ("sigma8_like", 0.0),
    ],
    "E11-100/G11-100": [
        ("acyclic", 0.30), ("egd_rescued", 0.20), ("unguarded", 0.40),
        ("functional_guard", 0.10), ("sigma8_like", 0.0),
    ],
    "E101-1000/G1-10": [
        ("acyclic", 0.05), ("egd_rescued", 0.03), ("unguarded", 0.80),
        ("functional_guard", 0.12), ("sigma8_like", 0.0),
    ],
    "E101-1000/G11-100": [
        ("acyclic", 0.04), ("egd_rescued", 0.04), ("unguarded", 0.64),
        ("functional_guard", 0.05), ("sigma8_like", 0.08), ("mirror", 0.15),
    ],
    "E1001-5000/G1-10": [
        ("acyclic", 0.0), ("egd_rescued", 0.0), ("unguarded", 1.0),
        ("functional_guard", 0.0), ("sigma8_like", 0.0),
    ],
    "E1001-5000/G11-100": [
        ("acyclic", 0.0), ("egd_rescued", 0.0), ("unguarded", 1.0),
        ("functional_guard", 0.0), ("sigma8_like", 0.0),
    ],
}


def resolve_scale(scale: float | str | None = None) -> float:
    """Resolve the corpus scale: an explicit number, the ``REPRO_SCALE``
    environment variable, or the CI-friendly default."""
    if scale is None:
        scale = os.environ.get("REPRO_SCALE", "0.06")
    if scale == "paper":
        return 1.0
    try:
        value = float(scale)
    except ValueError:
        value = math.nan
    if not 0 < value <= 1.0:
        raise ValueError(
            f"corpus scale must be a number in (0, 1] or 'paper', got {scale!r}"
        )
    return value


def generate_corpus(
    scale: float | str | None = None,
    tests_scale: float | None = None,
    seed: int = DEFAULT_SEED,
    character_mix: dict | None = None,
    max_size: int | None = 60,
    classes: list[str] | None = None,
) -> list[GeneratedOntology]:
    """Generate the full eight-class corpus.

    ``scale`` multiplies the per-ontology sizes (1.0 = paper sizes, the
    default keeps the whole harness CI-friendly); ``tests_scale``
    multiplies the per-class test counts (default 1.0: all 178 sets);
    ``max_size`` caps the per-ontology dependency count after scaling
    (None = uncapped, used by REPRO_SCALE=paper runs).  The cap compresses
    the inter-class size ratios; EXPERIMENTS.md reports both the paper's
    sizes and ours.  ``classes`` restricts generation to the named
    Table 2(a) classes (e.g. the batch bench's class-1-only corpus);
    per-ontology seeds are always drawn in full-corpus order, so a
    restricted corpus contains exactly the ontologies the full corpus
    would for those classes.
    """
    if isinstance(scale, str) and scale == "paper":
        max_size = None
    if os.environ.get("REPRO_SCALE") == "paper" and scale is None:
        max_size = None
    scale = resolve_scale(scale)
    tests_scale = 1.0 if tests_scale is None else float(tests_scale)
    if not (math.isfinite(tests_scale) and tests_scale > 0):
        raise ValueError(
            f"corpus tests_scale must be a finite number > 0, got {tests_scale!r}"
        )
    if classes is not None:
        known = {c["name"] for c in TABLE2A_CLASSES}
        unknown = set(classes) - known
        if unknown:
            raise ValueError(f"unknown corpus classes {sorted(unknown)}")
    mix = character_mix or DEFAULT_CHARACTER_MIX
    master = random.Random(seed)
    corpus: list[GeneratedOntology] = []
    for cls in TABLE2A_CLASSES:
        tests = max(1, round(cls["tests"] * tests_scale))
        if classes is not None and cls["name"] not in classes:
            for _ in range(tests):  # keep the seed stream aligned
                master.randrange(2**31)
            continue
        lo_e, hi_e = cls["exist"]
        lo_g, hi_g = cls["egd"]
        for t in range(tests):
            sub_seed = master.randrange(2**31)
            rng = random.Random(sub_seed)
            n_exist = max(1, round(rng.randint(lo_e, hi_e) * scale))
            n_egd = max(1, round(rng.randint(lo_g, hi_g) * scale))
            size = max(
                n_exist + n_egd + 2,
                round(cls["avg_size"] * rng.uniform(0.7, 1.3) * scale),
            )
            if max_size is not None and size > max_size:
                shrink = max_size / size
                size = max_size
                n_exist = max(1, round(n_exist * shrink))
                n_egd = max(1, round(n_egd * shrink))
            n_full = max(1, size - n_exist - n_egd)
            character = _pick_character(rng, mix[cls["name"]])
            builder = OntologyBuilder(rng, n_exist, n_egd, n_full)
            sigma = builder.build(character)
            corpus.append(
                GeneratedOntology(
                    name=f"{cls['name']}#{t + 1}",
                    class_name=cls["name"],
                    sigma=sigma,
                    seed=sub_seed,
                    character=character,
                    profile={
                        "n_exist": len(sigma.existential),
                        "n_egd": len(sigma.egds),
                        "size": len(sigma),
                    },
                )
            )
    return corpus


def _pick_character(rng: random.Random, mix: list[tuple[str, float]]) -> str:
    roll = rng.random()
    acc = 0.0
    for name, p in mix:
        acc += p
        if roll < acc:
            return name
    return mix[-1][0]


def corpus_by_class(
    corpus: list[GeneratedOntology],
) -> dict[str, list[GeneratedOntology]]:
    """Group generated ontologies by their Table 2(a) class name."""
    out: dict[str, list[GeneratedOntology]] = {}
    for ont in corpus:
        out.setdefault(ont.class_name, []).append(ont)
    return out
