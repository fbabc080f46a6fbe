"""The Adn∃ adornment algorithm (paper Section 6, Algorithm 1 + Function 2).

Adn∃ rewrites Σ into a set Σµ of *adorned* dependencies that tracks which
facts a chase execution can derive and how their terms are produced:

* adornment symbols: ``b`` (bound — a constant of the database) and
  ``f_i`` (free — a labelled null introduced by a specific Skolem term);
* every ``f_i`` carries *adornment definitions* ``f_i = f^r_z(α)``
  recording the rule ``r``, existential variable ``z`` and argument
  adornments ``α`` that produce it;
* full dependencies are adorned before existential ones, and adorned EGDs
  are *executed* over the abstract database ``Dµ(Σµ)`` (``b`` behaves as a
  constant, the ``f_i`` as nulls): an EGD chase step yields a substitution
  ``τ = {f_i/s}`` applied to Σµ and AD — this is the paper's direct
  analysis of EGDs, the step every earlier criterion lacks;
* new adorned dependencies must be **fireable** w.r.t. Σµ (some adorned
  dependency ``<``-fires them — Definition 2), embedding the
  semi-stratification analysis;
* whenever a new adorned dependency equals an existing one up to a *valid*
  substitution θ (same-Skolem-function symbols only), θ is applied
  globally; if the merged head is *cyclic* w.r.t. the definition graph
  Ω(AD), a potential non-termination is detected and ``Acyc`` flips to
  false.

Ω(AD) has an edge ``f_i → f_j`` labelled ``f^r_z`` iff AD contains
``f_i = f^r_z(… f_j …)`` and ``f_j = f^s_w(…)`` with ``r, s ∈ Σ∃`` and
there is a firing chain ``s < r_1 < … < r_n < r`` through full
dependencies (n ≥ 0) — decided lazily with the firing oracle over the
*original* Σ.  A symbol is cyclic if some walk from it repeats an edge
label; an adorned head is cyclic if an existential position carries a
cyclic symbol.

The module also implements the TGD-only **AC** rewriting mode (no EGD
execution, no fireability filter, label-nesting edges without the firing
chain condition), the rewriting-based criterion of Greco–Spezzano–
Trubitsyna that semi-acyclicity strictly extends (Theorem 9).

Outputs mirror the paper's ``Adn∃(Σ) = ⟨Σµ, Acyc⟩``: :class:`AdnResult`
carries the adorned set (bridge dependencies ``R(x̄) → R^{b…b}(x̄)``
included, as in Algorithm 1 line 2), the boolean, the definitions, and
run statistics.

The algorithm keeps indexes over its records instead of rescanning them
on every iteration.  Records are only appended between two θ/τ
substitutions, so :meth:`AdornmentAlgorithm._add_record` updates each
index in place, and a substitution (which rewrites every record)
rebuilds them all:

* the ``(dep, src)`` pairs present, for the duplicate check;
* the records of each source, in record order, for tracking a record
  through rewrites and for the θ search;
* the body keys (adorned predicate names) of each source, for skipping
  bodies already adorned;
* the adorned-predicate pool, base predicate → adornments, re-sorted
  only for the bases that gained one;
* Σµ's dependencies and its full dependencies, for fireability.

:func:`decode_predicate` and :func:`encode_predicate` are memoised, and
candidate bodies are enumerated as tuples of predicate names, so an
adorned body becomes atoms only once it is new.
"""

from __future__ import annotations

import functools
import itertools
import re
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, Union

from ..budget import Budget, BudgetExhausted, coerce_budget
from ..firing.relations import DecisionCache, FiringOracle
from ..homomorphism.finder import find_homomorphisms
from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from ..model.dependencies import EGD, TGD, AnyDependency, DependencySet
from ..model.terms import Constant, Null, Term, Variable

# -- adornment symbols --------------------------------------------------------

BOUND = "b"
Symbol = Union[str, int]  # BOUND or an int i standing for f_i
Adornment = tuple[Symbol, ...]

_ADN_RE = re.compile(r"b|f(\d+)")


def symbol_str(sym: Symbol) -> str:
    """``b`` or ``f<i>`` — the paper's rendering of adornment symbols."""
    return "b" if sym == BOUND else f"f{sym}"


@functools.lru_cache(maxsize=1 << 16)
def encode_predicate(base: str, adornment: Adornment) -> str:
    """``R`` + adornment → ``R^bf1`` (the adorned predicate's name)."""
    return base + "^" + "".join(symbol_str(s) for s in adornment)


@functools.lru_cache(maxsize=1 << 16)
def decode_predicate(name: str) -> tuple[str, Adornment] | None:
    """Inverse of :func:`encode_predicate`; None for unadorned predicates.

    Memoised: Adn∃ decodes the same few hundred names millions of
    times, and the result is an immutable tuple.
    """
    if "^" not in name:
        return None
    base, _, suffix = name.partition("^")
    adn: list[Symbol] = []
    pos = 0
    # repro-lint: disable=budget-loop -- pos strictly advances to len(suffix); pure string decode, no chase work
    while pos < len(suffix):
        m = _ADN_RE.match(suffix, pos)
        if m is None:
            return None
        adn.append(BOUND if m.group() == "b" else int(m.group(1)))
        pos = m.end()
    return base, tuple(adn)


def _sym_key(sym: Symbol) -> tuple[int, int]:
    return (0, 0) if sym == BOUND else (1, sym)  # type: ignore[return-value]


# -- adornment definitions -------------------------------------------------------


@dataclass(frozen=True)
class AdornmentDefinition:
    """``f_i = f^r_z(α)``."""

    symbol: int
    rule: TGD
    z: Variable
    args: Adornment

    def substitute(self, mapping: dict[int, Symbol]) -> "AdornmentDefinition":
        sym = mapping.get(self.symbol, self.symbol)
        if not isinstance(sym, int):
            raise ValueError("a definition's own symbol cannot become bound")
        args = tuple(
            mapping.get(a, a) if isinstance(a, int) else a for a in self.args
        )
        return AdornmentDefinition(sym, self.rule, self.z, args)

    def __str__(self) -> str:
        inner = "".join(symbol_str(a) for a in self.args)
        label = self.rule.label or "r?"
        return f"f{self.symbol} = f^{label}_{self.z.name}({inner})"


# -- adorned dependency records -----------------------------------------------------


@dataclass(frozen=True)
class AdornedRecord:
    """One element of Σµ: an adorned dependency and its source."""

    dep: AnyDependency          # predicates encoded with adornments
    src: AnyDependency | None   # None for the bridge dependencies of line 2

    @property
    def is_bridge(self) -> bool:
        return self.src is None

    def body_key(self) -> tuple:
        return tuple(a.predicate for a in self.dep.body)


def _apply_symbols_to_dep(
    dep: AnyDependency, mapping: dict[int, Symbol]
) -> AnyDependency:
    """Rename adornment symbols inside a dependency's encoded predicates."""

    def rename(atom: Atom) -> Atom:
        decoded = decode_predicate(atom.predicate)
        if decoded is None:
            return atom
        base, adn = decoded
        new_adn = tuple(
            mapping.get(s, s) if isinstance(s, int) else s for s in adn
        )
        if new_adn == adn:
            return atom
        return Atom(encode_predicate(base, new_adn), atom.args)

    if isinstance(dep, TGD):
        return TGD(
            [rename(a) for a in dep.body],
            [rename(a) for a in dep.head],
            existential=dep.existential,
            label=dep.label,
        )
    return EGD([rename(a) for a in dep.body], dep.lhs, dep.rhs, label=dep.label)


def strip_adornments_dep(dep: AnyDependency) -> AnyDependency:
    """``src``: delete all adornments from a dependency."""

    def strip(atom: Atom) -> Atom:
        decoded = decode_predicate(atom.predicate)
        if decoded is None:
            return atom
        return Atom(decoded[0], atom.args)

    if isinstance(dep, TGD):
        return TGD(
            [strip(a) for a in dep.body],
            [strip(a) for a in dep.head],
            existential=dep.existential,
            label=dep.label,
        )
    return EGD([strip(a) for a in dep.body], dep.lhs, dep.rhs, label=dep.label)


def strip_adornments_instance(instance: ColumnarInstance) -> ColumnarInstance:
    """``src`` on instances: drop adornments from every fact's predicate."""
    out = ColumnarInstance()
    for fact in instance:
        decoded = decode_predicate(fact.predicate)
        out.add(fact if decoded is None else Atom(decoded[0], fact.args))
    return out


# -- result -----------------------------------------------------------------------


@dataclass
class AdnResult:
    """``Adn∃(Σ) = ⟨Σµ, Acyc⟩`` plus diagnostics.

    ``exact=False`` means the saturation was cut short — by the resource
    budget, by the livelock detector, or by the symbol/record caps — and
    ``acyclic=False`` is then the conservative verdict, not the
    algorithm's fixpoint answer.  ``exhausted`` records which budget
    dimension blew (None when a livelock or cap stopped the run; the
    ``stats["stopped"]`` entry distinguishes those).
    """

    adorned: DependencySet
    acyclic: bool
    definitions: list[AdornmentDefinition]
    records: list[AdornedRecord] = field(default_factory=list)
    exact: bool = True
    exhausted: BudgetExhausted | None = None
    stats: dict = field(default_factory=dict)

    def __iter__(self):  # unpack like the paper's pair
        yield self.adorned
        yield self.acyclic

    def __getitem__(self, i: int):
        return (self.adorned, self.acyclic)[i]


# -- the algorithm ------------------------------------------------------------------

#: Default per-run budget: total step charges (driver iterations, candidate
#: bodies, Dµ homomorphisms, witness-engine work funded through the
#: oracles) and a wall-clock backstop for divergence shapes no counter
#: anticipates.  The livelock detector usually fires long before either.
DEFAULT_ADN_STEPS = 5_000_000
DEFAULT_ADN_MS = 10_000.0

#: Per-pair step allowance of the Adn∃ firing oracles.  It is part of the
#: key of every decision they cache or persist, so changing it leaves the
#: stored decisions unused.
ADN_FIRING_BUDGET = 60_000

#: Largest free symbol a run may mint before it stops, flagged approximate.
ADN_MAX_SYMBOL = 5_000


class AdornmentAlgorithm:
    """One run of Adn∃ (or the AC rewriting when ``mode="ac"``).

    Saturation is bounded three ways, every one of them a graceful
    verdict (``exact=False``), never a hang:

    * a **livelock detector**: the driver state (records + definitions)
      is fingerprinted each iteration with free symbols canonically
      renumbered; since the driver is deterministic and all its decisions
      are invariant under monotone renamings of the free symbols, a
      repeated fingerprint proves the run cycles forever (the historical
      `adn_exists` divergence: an EGD chase step keeps merging away the
      symbols the adornment step keeps re-minting, so the state repeats
      up to ever-growing symbol numbers and no size cap ever fires);
    * a :class:`~repro.budget.Budget` (steps + wall clock, linked to the
      ambient analysis budget) charged in the driver loop, the candidate
      body enumeration, the Dµ EGD chase step and — through the firing
      oracles — the witness engine;
    * the legacy ``max_records`` and :data:`ADN_MAX_SYMBOL` size caps.

    ``decisions`` is the firing-decision cache both oracles probe
    through (an analysis context's); without one each makes a private one.
    """

    def __init__(
        self,
        sigma: DependencySet,
        mode: str = "adn_exists",
        max_records: int | None = None,
        budget: Budget | None = None,
        decisions: DecisionCache | None = None,
    ) -> None:
        if mode not in ("adn_exists", "ac"):
            raise ValueError(f"unknown adornment mode {mode!r}")
        if mode == "ac" and sigma.egds:
            raise ValueError("AC mode is TGD-only; simulate EGDs first")
        self.sigma = sigma
        self.mode = mode
        self.records: list[AdornedRecord] = []
        self.definitions: list[AdornmentDefinition] = []
        self.acyclic = True
        self.exact = True
        self.stopped: str | None = None  # "livelock" | "max_symbol" | ...
        self.max_records = max_records or max(2_000, 60 * max(len(sigma), 1))
        if budget is None:
            budget = coerce_budget(None)  # fresh, linked to the ambient scope
            budget.max_steps = DEFAULT_ADN_STEPS
            budget.max_ms = DEFAULT_ADN_MS
        self.budget = budget
        # Oracle over Σµ (fireability of adorned dependencies).
        self._mu_oracle = FiringOracle(
            (), budget=ADN_FIRING_BUDGET, decisions=decisions
        )
        # Oracle over Σ (firing chains for Ω(AD) cyclicity).
        self._sigma_oracle = FiringOracle(
            sigma, budget=ADN_FIRING_BUDGET, decisions=decisions
        )
        self._chain_cache: dict[tuple, bool] = {}
        self._src_index = {d: i for i, d in enumerate(sigma)}
        self._charge_backlog = 0
        self._reindex()

    # -- driver ---------------------------------------------------------------

    def run(self) -> AdnResult:
        from ..budget import budget_scope

        with budget_scope(self.budget):
            return self._run()

    def _run(self) -> AdnResult:
        start = time.perf_counter()
        self._init_bridges()
        iterations = 0
        seen_states: set[tuple] = set()
        seen_counts: set[tuple[int, int]] = set()
        while True:
            iterations += 1
            if not self.budget.charge():
                self.stopped = "budget"
                break
            if self.stopped is not None:  # set mid-iteration (max_symbol)
                break
            if len(self.records) > self.max_records:
                self.stopped = "max_records"
                break
            # Livelock check, gated on a repeated count signature: a
            # cycling run revisits the same (records, definitions) sizes
            # forever, while a growing run almost never does — so the
            # O(|records|) fingerprint stays off the common path.
            counts = (len(self.records), len(self.definitions))
            if counts in seen_counts:
                state = self._state_fingerprint()
                if state in seen_states:
                    self.stopped = "livelock"
                    break
                seen_states.add(state)
            else:
                seen_counts.add(counts)
            added = self._adorn_one(self.sigma.full)
            if added is not None:
                rec, _ = added
                if isinstance(rec.src, EGD) and self.mode == "adn_exists":
                    self._egd_chase_step(rec.src)
                self._merge_step(self._current_version(rec))
                continue
            added = self._adorn_one(self.sigma.existential)
            if added is not None:
                rec, _ = added
                self._merge_step(self._current_version(rec))
                continue
            if not self.budget.ok:
                # The enumeration was cut short, not genuinely drained.
                self.stopped = "budget"
            break
        if self.stopped is not None:
            # Every stop is a truncated saturation: the conservative verdict
            # is "potentially non-terminating", flagged approximate.
            self.acyclic = False
            self.exact = False
        elapsed = (time.perf_counter() - start) * 1000.0
        deps = DependencySet(r.dep for r in self.records)
        return AdnResult(
            adorned=deps,
            acyclic=self.acyclic,
            definitions=list(self.definitions),
            records=list(self.records),
            exact=self.exact,
            exhausted=self.budget.exhausted,
            stats={
                "iterations": iterations,
                "size_sigma": len(self.sigma),
                "size_adorned": len(deps),
                "elapsed_ms": elapsed,
                "mode": self.mode,
                "stopped": self.stopped,
                "budget_steps": self.budget.steps,
            },
        )

    def _charge_batched(self, n: int = 1) -> bool:
        """Budget charge for the hot enumeration loops.

        ``Budget.charge`` walks the parent chain on every call, which the
        Table 2(b) bench showed costing double-digit percent when done
        per candidate body / per Dµ homomorphism.  Work is accumulated
        locally and flushed every 32 units; between flushes the cheap
        ``exact`` flag still stops the loop promptly once the budget is
        known-blown.
        """
        self._charge_backlog += n
        if self._charge_backlog < 32:
            return self.budget.exact
        pending, self._charge_backlog = self._charge_backlog, 0
        return self.budget.charge(pending)

    # -- livelock detection ----------------------------------------------------

    def _state_fingerprint(self) -> tuple:
        """The driver state with free symbols canonically renumbered.

        The renumbering maps the sorted distinct symbols to ``1..n`` —
        a *monotone* bijection, so every order-sensitive driver decision
        (adornment pools sort by symbol value) behaves identically on the
        renumbered state.  The driver being deterministic, a repeated
        fingerprint therefore proves the run will repeat it forever.

        A record is keyed by its source plus ``(base predicate, renamed
        adornment)`` per atom — that determines the adorned dependency
        (its atom arguments come verbatim from the source), and the base
        names keep the per-predicate bridges (which all share
        ``src=None``) apart.  The fingerprint is pure tuples: this runs
        every driver iteration, so it must not build dependency objects.
        """
        syms: set[int] = set()
        rec_atoms: list[tuple[int, list[tuple[str, Adornment]]]] = []
        for rec in self.records:
            atoms: tuple[Atom, ...] = rec.dep.body
            if isinstance(rec.dep, TGD):
                atoms = atoms + rec.dep.head
            decoded_atoms = []
            for a in atoms:
                decoded = decode_predicate(a.predicate)
                if decoded is None:
                    decoded_atoms.append((a.predicate, ()))
                    continue
                decoded_atoms.append(decoded)
                syms.update(s for s in decoded[1] if isinstance(s, int))
            src = -1 if rec.src is None else self._src_index[rec.src]
            rec_atoms.append((src, decoded_atoms))
        for d in self.definitions:
            syms.add(d.symbol)
            syms.update(a for a in d.args if isinstance(a, int))
        ren = {s: i + 1 for i, s in enumerate(sorted(syms))}

        def renamed(adn: Adornment) -> tuple:
            return tuple(ren[s] if isinstance(s, int) else s for s in adn)

        recs = tuple(
            (src, tuple((base, renamed(adn)) for base, adn in decoded_atoms))
            for src, decoded_atoms in rec_atoms
        )
        defs = tuple(
            (ren[d.symbol], self._src_index[d.rule], d.z.name, renamed(d.args))
            for d in self.definitions
        )
        return (self.acyclic, recs, defs)

    # -- line 2: bridge dependencies -----------------------------------------------

    def _init_bridges(self) -> None:
        for pred, arity in sorted(self.sigma.predicates().items()):
            args = [Variable(f"x{i + 1}") for i in range(arity)]
            bridge = TGD(
                [Atom(pred, args)],
                [Atom(encode_predicate(pred, (BOUND,) * arity), args)],
                label=f"base_{pred}",
            )
            self._add_record(AdornedRecord(bridge, None))

    # -- record indexes ----------------------------------------------------------

    def _reindex(self) -> None:
        """Rebuild every record index from ``self.records``.

        Records are only ever appended, except by a θ/τ substitution,
        which rewrites them all; the substitution calls this, and
        :meth:`_add_record` keeps the indexes current in between.
        """
        self._record_keys: set[tuple] = set()
        self._by_src: dict = {}
        self._body_keys_by_src: dict = {}
        self._pool: dict[str, set[Adornment]] = {}
        self._pool_sorted: dict[str, list[Adornment]] = {}
        self._pool_dirty: set[str] = set()
        self._mu_deps: list[AnyDependency] = []
        self._mu_fulls: list[AnyDependency] = []
        self._max_record_symbol = 0
        for rec in self.records:
            self._index_record(rec)

    def _index_record(self, rec: AdornedRecord) -> None:
        self._record_keys.add((rec.dep, rec.src))
        self._by_src.setdefault(rec.src, []).append(rec)
        self._body_keys_by_src.setdefault(rec.src, set()).add(rec.body_key())
        self._mu_deps.append(rec.dep)
        if rec.dep.is_full:
            self._mu_fulls.append(rec.dep)
        atoms: tuple[Atom, ...] = rec.dep.body
        if isinstance(rec.dep, TGD):
            atoms = atoms + rec.dep.head
        for a in atoms:
            decoded = decode_predicate(a.predicate)
            if decoded is None:
                continue
            base, adn = decoded
            adns = self._pool.get(base)
            if adns is None:
                adns = self._pool[base] = set()
                self._pool_sorted[base] = []
            if adn not in adns:
                adns.add(adn)
                self._pool_dirty.add(base)
            for sym in adn:
                if isinstance(sym, int) and sym > self._max_record_symbol:
                    self._max_record_symbol = sym

    def _add_record(self, rec: AdornedRecord) -> bool:
        if (rec.dep, rec.src) in self._record_keys:
            return False
        self.records.append(rec)
        self._index_record(rec)
        return True

    def _current_version(self, rec: AdornedRecord) -> AdornedRecord:
        """Track a record through τ-rewrites (same src, latest dep)."""
        same_src = self._by_src.get(rec.src, ())
        for r in reversed(same_src):
            if r.dep == rec.dep:
                return r
        # The dep got rewritten; the most recent record of the same source
        # is the rewritten form.
        if same_src:
            return same_src[-1]
        return rec

    # -- adorned predicate pool ----------------------------------------------------

    def _adorned_predicates(self) -> dict[str, list[Adornment]]:
        """Base predicate → its adornments in Σµ, in symbol order.

        The returned dict is the live pool: read it before the next
        record is added.
        """
        for base in self._pool_dirty:
            self._pool_sorted[base] = sorted(
                self._pool[base], key=lambda adn: tuple(_sym_key(s) for s in adn)
            )
        self._pool_dirty.clear()
        return self._pool_sorted

    def _body_keys(self, src: AnyDependency) -> set[tuple]:
        return self._body_keys_by_src.get(src, set())

    # -- Function 2: adorn -------------------------------------------------------------

    def _adorn_one(
        self, candidates: Sequence[AnyDependency]
    ) -> tuple[AdornedRecord, list[AdornmentDefinition]] | None:
        pool = self._adorned_predicates()
        for r in candidates:
            got = self._adorn(r, pool)
            if got is not None:
                return got
        return None

    def _adorn(
        self, r: AnyDependency, pool: dict[str, list[Adornment]]
    ) -> tuple[AdornedRecord, list[AdornmentDefinition]] | None:
        seen_bodies = self._body_keys(r)
        for key, var_syms in self._coherent_bodies(r, pool):
            if key in seen_bodies:
                continue
            bodyµ = [Atom(name, a.args) for name, a in zip(key, r.body)]
            new_defs: list[AdornmentDefinition] = []
            headµ = self._head_adorn(r, var_syms, new_defs)
            dep = self._build_adorned(r, bodyµ, headµ)
            rec = AdornedRecord(dep, r)
            if self.mode == "adn_exists" and not self._fireable(dep):
                continue
            # Commit: tentative definitions become real.
            self.definitions.extend(new_defs)
            self._add_record(rec)
            return rec, new_defs
        return None

    def _coherent_bodies(
        self, r: AnyDependency, pool: dict[str, list[Adornment]]
    ) -> Iterator[tuple[tuple[str, ...], dict[Variable, Symbol]]]:
        """All coherent adorned versions of Body(r), deterministic order.

        Each is the tuple of adorned predicate names (the record's body
        key; the arguments are Body(r)'s) and the variables' symbols.
        """
        return self._coherent_from(r.body, pool, 0, [], {})

    def _coherent_from(
        self,
        atoms: tuple[Atom, ...],
        pool: dict[str, list[Adornment]],
        idx: int,
        acc: list[str],
        binding: dict[Variable, Symbol],
    ) -> Iterator[tuple[tuple[str, ...], dict[Variable, Symbol]]]:
        """:meth:`_coherent_bodies` from ``atoms[idx]`` on.

        A method rather than a nested closure: a self-recursive closure is
        a reference cycle, which would keep ``self`` (and the decision
        cache its oracles share) alive until the cyclic collector runs.
        """
        if idx == len(atoms):
            yield tuple(acc), binding
            return
        atom = atoms[idx]
        for adn in pool.get(atom.predicate, []):
            if not self._charge_batched():
                return  # run() reports the truncation
            new_binding = dict(binding)
            ok = True
            for t, s in zip(atom.args, adn):
                if isinstance(t, Constant):
                    if s != BOUND:
                        ok = False
                        break
                else:
                    bound = new_binding.get(t)  # type: ignore[arg-type]
                    if bound is None:
                        new_binding[t] = s  # type: ignore[index]
                    elif bound != s:
                        ok = False
                        break
            if not ok:
                continue
            acc.append(encode_predicate(atom.predicate, adn))
            yield from self._coherent_from(atoms, pool, idx + 1, acc, new_binding)
            acc.pop()

    def _head_adorn(
        self,
        r: AnyDependency,
        var_syms: dict[Variable, Symbol],
        new_defs: list[AdornmentDefinition],
    ) -> list[Atom] | None:
        """HeadAdn: propagate body adornments into the head (TGDs only)."""
        if isinstance(r, EGD):
            return None
        ex_syms: dict[Variable, Symbol] = {}
        frontier = sorted(r.frontier(), key=lambda v: v.name)
        alpha: Adornment = tuple(var_syms[x] for x in frontier)
        for z in r.existential:
            sym = self._lookup_or_create(r, z, alpha, new_defs)
            ex_syms[z] = sym
        adorned_head = []
        for atom in r.head:
            adn: list[Symbol] = []
            for t in atom.args:
                if isinstance(t, Constant):
                    adn.append(BOUND)
                elif t in ex_syms:
                    adn.append(ex_syms[t])  # type: ignore[index]
                else:
                    adn.append(var_syms[t])  # type: ignore[index]
            adorned_head.append(
                Atom(encode_predicate(atom.predicate, tuple(adn)), atom.args)
            )
        return adorned_head

    def _lookup_or_create(
        self,
        r: TGD,
        z: Variable,
        alpha: Adornment,
        new_defs: list[AdornmentDefinition],
    ) -> int:
        for d in itertools.chain(self.definitions, new_defs):
            if d.rule == r and d.z == z and d.args == alpha:
                return d.symbol
        nxt = self._next_symbol(new_defs)
        new_defs.append(AdornmentDefinition(nxt, r, z, alpha))
        return nxt

    def _next_symbol(self, pending: list[AdornmentDefinition]) -> int:
        """One more than the largest free symbol in use: in a record's
        adorned predicates, or in a definition (committed or pending) as
        its symbol or an argument."""
        highest = self._max_record_symbol
        for d in itertools.chain(self.definitions, pending):
            highest = max(
                highest, d.symbol, *(a for a in d.args if isinstance(a, int))
            )
        if highest + 1 > ADN_MAX_SYMBOL:
            self.stopped = "max_symbol"  # run() breaks at the next iteration
        return highest + 1

    def _build_adorned(
        self, r: AnyDependency, bodyµ: list[Atom], headµ: list[Atom] | None
    ) -> AnyDependency:
        if isinstance(r, EGD):
            return EGD(bodyµ, r.lhs, r.rhs, label=r.label)
        assert headµ is not None
        return TGD(bodyµ, headµ, existential=r.existential, label=r.label)

    # -- fireability (Definition 2 via the witness engine) -----------------------------

    def _fireable(self, dep: AnyDependency) -> bool:
        fulls = self._mu_fulls
        if dep.is_full:
            fulls = fulls + [dep]
        return self._mu_oracle.fireable(dep, candidates=self._mu_deps, fulls=fulls)

    # -- lines 8-10: EGD chase step over Dµ(Σµ) ------------------------------------------

    def d_mu(self) -> ColumnarInstance:
        """``Dµ(Σµ)``: one fact per adorned predicate; b is a constant, the
        free symbols are labelled nulls."""
        inst = ColumnarInstance()
        for base, adns in self._adorned_predicates().items():
            for adn in adns:
                args = [
                    Constant(BOUND) if s == BOUND else Null(s)  # type: ignore[arg-type]
                    for s in adn
                ]
                inst.add(Atom(base, args))
        return inst

    def _egd_chase_step(self, egd: EGD) -> None:
        d_mu = self.d_mu()
        body = [self._constants_to_b(a) for a in egd.body]
        best: tuple | None = None
        for h in find_homomorphisms(body, d_mu, limit=None):
            if not self._charge_batched():
                break  # apply the best substitution found so far, if any
            t1, t2 = h[egd.lhs], h[egd.rhs]
            if t1 is t2:
                continue
            key = (str(t1), str(t2))
            if best is None or key < best[0]:
                best = (key, t1, t2)
        if best is None:
            return
        _, t1, t2 = best
        # Definition 1 direction: the null (free) side is replaced.
        if isinstance(t1, Null):
            old, new = t1, t2
        else:
            old, new = t2, t1
        new_sym: Symbol = BOUND if isinstance(new, Constant) else new.label
        self._apply_symbol_substitution({old.label: new_sym}, drop_defs_of=old.label)

    @staticmethod
    def _constants_to_b(atom: Atom) -> Atom:
        args = [
            Constant(BOUND) if isinstance(t, Constant) else t for t in atom.args
        ]
        return Atom(atom.predicate, args)

    def _apply_symbol_substitution(
        self, mapping: dict[int, Symbol], drop_defs_of: int | None = None
    ) -> None:
        new_records: list[AdornedRecord] = []
        keys: set[tuple] = set()
        for rec in self.records:
            dep = _apply_symbols_to_dep(rec.dep, mapping)
            if (dep, rec.src) not in keys:
                keys.add((dep, rec.src))
                new_records.append(AdornedRecord(dep, rec.src))
        self.records = new_records
        self._reindex()
        new_defs: list[AdornmentDefinition] = []
        for d in self.definitions:
            if drop_defs_of is not None and d.symbol == drop_defs_of:
                continue
            if d.symbol in mapping and not isinstance(
                mapping[d.symbol], int
            ):
                continue  # its symbol became bound: definition disappears
            nd = d.substitute(mapping)
            if nd not in new_defs:
                new_defs.append(nd)
        self.definitions = new_defs

    # -- lines 13-16: θ merge and cyclicity ------------------------------------------------

    def _merge_step(self, rec: AdornedRecord) -> None:
        if rec.src is None:
            return
        theta = self._find_valid_theta(rec)
        if theta is None:
            return
        self._apply_symbol_substitution(theta)  # θ maps free → free only
        # The paper's Definition of a cyclic head covers only existential
        # head positions, but its own Example 13 flips Acyc on an EGD
        # (whose head carries no adornments at all).  We therefore check
        # every free symbol occurring in rµθ — existential head positions
        # included — which matches the example and errs on the sound side.
        syms = self._merged_symbols(rec, theta)
        if any(self._is_cyclic_symbol(s) for s in syms):
            self.acyclic = False

    def _find_valid_theta(self, rec: AdornedRecord) -> dict[int, int] | None:
        my_adns = self._dep_adornments(rec.dep)
        for other in self._by_src.get(rec.src, ()):
            if other is rec:
                continue
            theta = self._match_adornments(my_adns, self._dep_adornments(other.dep))
            if theta is None or not theta:
                continue
            if any(v in theta for v in theta.values()):
                continue  # fi/fj with fj/fk forbidden
            if not all(self._theta_pair_valid(a, b) for a, b in theta.items()):
                continue
            if _apply_symbols_to_dep(rec.dep, dict(theta)) == other.dep:
                return dict(theta)
        return None

    @staticmethod
    def _dep_adornments(dep: AnyDependency) -> list[Adornment]:
        atoms: tuple[Atom, ...] = dep.body
        if isinstance(dep, TGD):
            atoms = atoms + dep.head
        out = []
        for a in atoms:
            decoded = decode_predicate(a.predicate)
            out.append(decoded[1] if decoded else ())
        return out

    @staticmethod
    def _match_adornments(
        mine: list[Adornment], theirs: list[Adornment]
    ) -> dict[int, int] | None:
        if len(mine) != len(theirs):
            return None
        theta: dict[int, int] = {}
        for a, b in zip(mine, theirs):
            if len(a) != len(b):
                return None
            for s, t in zip(a, b):
                if s == t:
                    continue
                if not isinstance(s, int) or not isinstance(t, int):
                    return None  # substitutions map free symbols only
                bound = theta.get(s)
                if bound is None:
                    theta[s] = t
                elif bound != t:
                    return None
        return theta

    def _theta_pair_valid(self, fi: int, fj: int) -> bool:
        """Valid substitutions: both symbols defined by the same f^r_z."""
        defs_i = [(d.rule, d.z) for d in self.definitions if d.symbol == fi]
        defs_j = {(d.rule, d.z) for d in self.definitions if d.symbol == fj}
        return any(key in defs_j for key in defs_i)

    def _merged_symbols(
        self, rec: AdornedRecord, theta: dict[int, int]
    ) -> set[int]:
        """All free symbols occurring in rµθ (see _merge_step's comment)."""
        out: set[int] = set()
        atoms: tuple[Atom, ...] = rec.dep.body
        if isinstance(rec.dep, TGD):
            atoms = atoms + rec.dep.head
        for atom in atoms:
            decoded = decode_predicate(atom.predicate)
            if decoded is None:
                continue
            for s in decoded[1]:
                if isinstance(s, int):
                    out.add(theta.get(s, s))
        return out

    # -- Ω(AD) and cyclic symbols -----------------------------------------------------------

    def _omega_edges(self) -> list[tuple[int, int, tuple]]:
        """Edges (fi, fj, label) of Ω(AD)."""
        defined = {d.symbol for d in self.definitions}
        edges = []
        for d in self.definitions:
            for arg in d.args:
                if not isinstance(arg, int) or arg not in defined:
                    continue
                for d2 in self.definitions:
                    if d2.symbol != arg:
                        continue
                    if self.mode == "ac" or self._chain(d2.rule, d.rule):
                        edges.append((d.symbol, arg, (d.rule, d.z)))
                        break
        return edges

    def _chain(self, s: TGD, r: TGD) -> bool:
        """∃ r1..rn ∈ Σ∀ (n ≥ 0) with s < r1 < … < rn < r, over Σ."""
        key = (s, r)
        cached = self._chain_cache.get(key)
        if cached is not None:
            return cached
        fulls = self.sigma.full
        # BFS from s through full intermediates.
        frontier: list[AnyDependency] = [s]
        visited: set[AnyDependency] = set()
        found = False
        # repro-lint: disable=budget-loop -- BFS over the finite full-TGD set; visited guard enqueues each dependency at most once
        while frontier and not found:
            node = frontier.pop()
            if self._sigma_oracle.fires(node, r, fulls=fulls):
                found = True
                break
            for mid in fulls:
                if mid in visited:
                    continue
                if self._sigma_oracle.fires(node, mid, fulls=fulls):
                    visited.add(mid)
                    frontier.append(mid)
        self._chain_cache[key] = found
        return found

    def _is_cyclic_symbol(self, start: int) -> bool:
        """A walk from ``start`` in Ω(AD) using two same-labelled edges."""
        edges = self._omega_edges()
        if not edges:
            return False
        adj: dict[int, list[tuple[int, tuple]]] = {}
        for u, v, label in edges:
            adj.setdefault(u, []).append((v, label))
        reach: set[int] = set()
        stack = [start]
        # repro-lint: disable=budget-loop -- reachability walk over the finite Ω(AD) graph; reach guard pushes each node once
        while stack:
            node = stack.pop()
            for v, _ in adj.get(node, []):
                if v not in reach:
                    reach.add(v)
                    stack.append(v)
        reach.add(start)
        by_label: dict[tuple, list[tuple[int, int]]] = {}
        for u, v, label in edges:
            if u in reach:
                by_label.setdefault(label, []).append((u, v))
        for label, label_edges in by_label.items():
            for (u1, v1) in label_edges:
                for (u2, v2) in label_edges:
                    if (u1, v1) == (u2, v2):
                        # One edge used twice needs a cycle back to its tail.
                        if self._reaches(adj, v1, u1):
                            return True
                    elif self._reaches(adj, v1, u2):
                        return True
        return False

    @staticmethod
    def _reaches(adj: dict, src: int, dst: int) -> bool:
        if src == dst:
            return True
        seen = {src}
        stack = [src]
        # repro-lint: disable=budget-loop -- reachability walk over the finite Ω(AD) graph; seen guard pushes each node once
        while stack:
            node = stack.pop()
            for v, _ in adj.get(node, []):
                if v == dst:
                    return True
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return False


def adn_exists(
    sigma: DependencySet,
    max_records: int | None = None,
    budget: Budget | None = None,
    decisions: DecisionCache | None = None,
) -> AdnResult:
    """Run Algorithm 1 (Adn∃) on Σ."""
    return AdornmentAlgorithm(
        sigma, "adn_exists", max_records=max_records, budget=budget,
        decisions=decisions,
    ).run()


def ac_rewriting(
    sigma: DependencySet,
    max_records: int | None = None,
    budget: Budget | None = None,
    decisions: DecisionCache | None = None,
) -> AdnResult:
    """The TGD-only AC adornment rewriting (EGDs must be simulated away)."""
    return AdornmentAlgorithm(
        sigma, "ac", max_records=max_records, budget=budget,
        decisions=decisions,
    ).run()
