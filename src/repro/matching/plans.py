"""Compiled per-body join plans: the ``"columnar"`` matching backend.

Each ``(body, seeded-variables, frozen_nulls)`` combination is compiled
once into a fixed-order join plan and replayed on every subsequent call,
instead of re-deriving an atom order at every node of a backtracking
search — on the flat corpus classes (tiny candidate pools, very many
trigger probes, e.g. E1001-5000/G1-10) that interpretive overhead would
be the cost:

* **Atom order is chosen at compile time** from the index statistics of
  the first instance the plan runs against (candidate-cell sizes / live
  extents), greedily most-constrained-first, instead of being re-derived
  at every search node.  Compilation is lazy: a plan is compiled on its
  first use, against the instance it then runs on.
* **Each atom becomes one specialised step** — a flat tuple of probe,
  check and output position lists.  Rigid positions (constants, frozen
  nulls) compile to probes by a term id known at compile time; positions
  bound by the seed or by an earlier atom compile to probes through a
  register array; repeated terms within one atom compile to argument
  identity checks; first occurrences compile to register writes.  No
  mapping dict is touched until a full homomorphism is emitted.
* **Plans are cached** in a bounded module-level table keyed by
  ``(body atoms, seeded flex-term ids restricted to the body,
  frozen_nulls)`` — exactly the inputs that determine the compiled
  shape.  Semi-naive discovery (:func:`delta_row_homomorphisms`) binds
  one plan per (body, anchor atom) pair once (:class:`BoundPlan`) and
  then runs it per delta row with no lookup at all.

Plans enumerate the same homomorphism **set** as the naive reference
(:mod:`.naive`), possibly in a different order, which is the contract the
backend switch and the differential suites hold them to (chase decisions
are order-insensitive because the runner sorts discovery batches
canonically; see DESIGN.md §9).

A plan holds **no** reference to any instance — only atom structure, term
objects and term ids — so the cache never pins instance state.  Term ids
are process-local (:mod:`repro.model.terms`) and never escape: emitted
homomorphisms map term objects to term objects, and the lid-tuple emit
mode hands out family-local ids, meaningful only within the target's
instance family (DESIGN.md §11).

**Columnar execution (DESIGN.md §10/§11).**  The target is always a
:class:`~repro.model.columnar.ColumnarInstance`, the one fact store
(:func:`repro.matching.homomorphisms` loads a plain atom collection
into one first).  Each plan lazily code-generates one specialised
nested-loop generator (:func:`_codegen_columnar`) whose registers,
probes and checks are all family-local term ids — probe-free steps scan
rowmap keys directly (zero column reads), probed pools filter tombstones
against the live bitmap and upgrade to the vectorised
:mod:`repro.model.kernels` above a size threshold, and no ``Atom`` or
``Term`` object is touched until a homomorphism is emitted at the
boundary — as a term dict or, for lid-level consumers, as a tuple of
the registers' lids (see :func:`_codegen_columnar`'s emit modes).
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from ..model import kernels as _kernels
from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from ..model.terms import Constant, Null, Term, Variable
from . import naive as _naive
from .config import _backend

if TYPE_CHECKING:  # the engine imports this module to dispatch to it
    from .engine import BodyAnchor, Homomorphism

#: Most join steps one generated function nests.  Each step is one
#: ``for`` level, and CPython refuses more than 20 statically nested
#: blocks in one code object; a longer body (core retraction matches
#: every fact with a null) continues in a chained inner generator.
_STEPS_PER_FUNCTION = 12

#: Hard cap on the body atoms of all cached plans together: a plan and
#: its generated code grow with its body.  Rule bodies have a few atoms,
#: so 16384 covers every corpus class with room to spare, while a core
#: retraction (whose body is every fact with a null) weighs its full
#: size.  The table is simply cleared when it would overflow
#: (compilation is cheap relative to the chase that triggered it).
_CACHE_LIMIT = 16384

# (atoms, frozenset of seeded body-flex tids, frozen_nulls) → _Plan
_plan_cache: dict[tuple, "_Plan"] = {}
_cached_atoms = 0  # body atoms over all of _plan_cache
_epoch = 0  # bumped by every clear; a BoundPlan re-resolves when it moved


def clear_cache() -> None:
    """Drop every compiled plan (test isolation / memory pressure)."""
    global _cached_atoms, _epoch
    _plan_cache.clear()
    _cached_atoms = 0
    _epoch += 1


def cache_size() -> int:
    return len(_plan_cache)


def _is_flex(term: Term, frozen_nulls: bool) -> bool:
    """Can this body term be bound by the homomorphism (vs rigid)?"""
    return isinstance(term, Variable) or (
        isinstance(term, Null) and not frozen_nulls
    )


class _Plan:
    """A compiled body: fixed atom order + one specialised step per atom.

    ``steps[k]`` is a flat tuple
    ``(predicate, arity, rigid, bound, checks, outs)`` with

    * ``rigid``  — ``((pos, term), ...)``: cell-probe by the term's
      family-local id, then check column ``pos`` against it;
    * ``bound``  — ``((pos, reg), ...)``: cell-probe by the local id in
      register ``reg`` (seeded, or written by an earlier step);
    * ``checks`` — ``((pos, pos0), ...)``: within-atom repeats, columns
      ``pos`` and ``pos0`` must hold the same id;
    * ``outs``   — ``((pos, reg), ...)``: first occurrences, written to
      register ``reg``.

    ``seed_terms`` lists the seeded body-flex terms in register order
    0..n; ``out_pairs`` maps the remaining registers back to their terms
    when a result is emitted.  ``fns`` caches the generated executor per
    emit mode (see :func:`_codegen_columnar`).
    """

    __slots__ = ("steps", "seed_terms", "out_pairs", "nregs", "fns")

    def __init__(
        self,
        atoms: Sequence[Atom],
        order: Sequence[int],
        seed_terms: Sequence[Term],
        frozen_nulls: bool,
    ) -> None:
        self.fns: dict[tuple[Term, ...] | None, Callable] = {}
        self.seed_terms = tuple(seed_terms)
        reg_of: dict[Term, int] = {t: i for i, t in enumerate(self.seed_terms)}
        out_pairs: list[tuple[Term, int]] = []
        steps = []
        for j in order:
            atom = atoms[j]
            rigid: list[tuple[int, Term]] = []
            bound: list[tuple[int, int]] = []
            checks: list[tuple[int, int]] = []
            outs: list[tuple[int, int]] = []
            first_pos: dict[Term, int] = {}
            for pos, s in enumerate(atom.args):
                if not _is_flex(s, frozen_nulls):
                    rigid.append((pos, s))
                elif s in first_pos:
                    checks.append((pos, first_pos[s]))
                else:
                    first_pos[s] = pos
                    reg = reg_of.get(s)
                    if reg is None:
                        reg = len(reg_of)
                        reg_of[s] = reg
                        out_pairs.append((s, reg))
                        outs.append((pos, reg))
                    else:
                        bound.append((pos, reg))
            steps.append((
                atom.predicate,
                atom.arity,
                tuple(rigid),
                tuple(bound),
                tuple(checks),
                tuple(outs),
            ))
        self.steps = tuple(steps)
        self.out_pairs = tuple(out_pairs)
        self.nregs = len(reg_of)


def _estimate(
    atom: Atom,
    bound_terms: set[Term],
    frozen_nulls: bool,
    inst: ColumnarInstance,
) -> tuple[float, int]:
    """(estimated candidate-pool size, -probe count) for greedy ordering.

    Rigid positions contribute their exact compile-time candidate-cell
    size (tombstones included — dead rows inflate an estimate but never
    its correctness); positions over already-bound flex terms contribute
    the *average* cell size of their slot (live extent / distinct keys)
    — the runtime value is unknown at compile time.  No probe at all
    costs the whole live extent.
    """
    store = inst._stores.get((atom.predicate, atom.arity))
    if store is None:
        return 0.0, 0
    local_of = inst._terms.local_of
    extent = store.nlive
    best = float(extent)
    probes = 0
    for pos, s in enumerate(atom.args):
        flex = _is_flex(s, frozen_nulls)
        if flex and s not in bound_terms:
            continue
        probes += 1
        cell_map = store.index[pos]
        if not flex:
            lid = local_of.get(s.tid)
            size = 0.0 if lid is None else float(len(cell_map.get(lid, ())))
        else:
            size = extent / len(cell_map) if cell_map else 0.0
        if size < best:
            best = size
    return best, -probes


def _order_atoms(
    atoms: Sequence[Atom],
    seeded: set[Term] | frozenset[Term],
    frozen_nulls: bool,
    inst: ColumnarInstance,
) -> list[int]:
    """Greedy most-constrained-first order, decided once at compile time
    from the statistics of the instance the plan first runs on."""
    remaining = list(range(len(atoms)))
    bound = set(seeded)
    order: list[int] = []
    while remaining:
        best_j = min(
            remaining,
            key=lambda j: (*_estimate(atoms[j], bound, frozen_nulls, inst), j),
        )
        remaining.remove(best_j)
        order.append(best_j)
        for s in atoms[best_j].args:
            if _is_flex(s, frozen_nulls):
                bound.add(s)
    return order


def _compile(
    atoms: tuple[Atom, ...],
    seeded: set[Term] | frozenset[Term],
    frozen_nulls: bool,
    inst: ColumnarInstance,
) -> _Plan:
    seed_terms = sorted(seeded, key=lambda t: t.tid)
    order = _order_atoms(atoms, seeded, frozen_nulls, inst)
    return _Plan(atoms, order, seed_terms, frozen_nulls)


def _codegen_columnar(plan: _Plan, emit: tuple[Term, ...] | None) -> Callable:
    """Generate the columnar executor for one compiled plan and emit mode.

    The emitted function has the shape::

        def plan_fn(stores, terms, lof, r0, ..., rk):  # seeds, as lids
            s0 = stores.get(('P', 2))            # one per distinct store
            if s0 is None: return
            q0 = lof.get(17)                     # rigid term → local id
            if q0 is None: return                # term absent: no match
            m0 = s0.rowmap                       # probe-free scan source
            c1_1 = s1.cols[1]                    # hoisted typed columns
            x1_0 = s1.index[0]                   # hoisted probe maps
            v1 = s1.live                         # hoisted live bitmap
            for t0_0, t0_1 in m0:                # keys ARE the lid tuples
                p = x1_0.get(t0_0)               # bound probe
                if p is None: continue
                if len(p) >= _K.MIN_VECTOR_ROWS:     # vectorised kernel
                    p = _K.filter_rows(p, v1, ((c1_0, t0_0),), ())
                    for w1 in p:
                        r2 = c1_1[w1]
                        yield {k0: terms[t0_0], k1: terms[r2]}
                else:                            # inline scalar loop
                    for w1 in p:
                        if not v1[w1]: continue      # tombstone filter
                        if c1_0[w1] != t0_0: continue
                        r2 = c1_1[w1]
                        yield {k0: terms[t0_0], k1: terms[r2]}

    Everything in the loop nest is an int read, int compare or buffer
    iteration; the ``for`` statement captures each pool's iterator at
    entry, so the scratch names ``p``/``b`` are safely reused per depth.

    Four layout-driven specialisations (DESIGN.md §11):

    * **Probe-free steps iterate rowmap keys**, unpacking the lid tuple
      straight into loop variables — the keys already hold every column
      value of a live row, so the full-extent scan (the dominant shape
      on the flat corpus classes) reads no column and consults no live
      bit at all.
    * **Fully bound steps test rowmap membership**: a step that binds
      no new register (every position rigid or bound) emits one
      ``if (ids…) in m:`` instead of a loop, since at most one live row
      holds those ids.
    * **Probed steps filter tombstones** (``live`` bit per candidate),
      and the outermost probed pool upgrades to one
      :func:`repro.model.kernels.filter_rows` call above
      ``MIN_VECTOR_ROWS`` — live test and equality checks evaluated as
      whole-array numpy operations over the ``array('q')`` buffers when
      the numpy kernels are active (no vector branch is emitted at all
      under the pure-Python kernels: an inline loop always wins there).
    * **Rigid terms lower to local ids in the prologue** (plans are
      cached across instances, so the family-local id cannot be burned
      in): an absent term means no row can match and the executor
      returns before touching a store.

    Emission happens *inside* the generated code, in one of two modes:

    * ``emit=None`` — the innermost loop yields the finished
      homomorphism dict (out terms are burned in as the globals
      ``k0…``, out lids lifted through the family's dense ``terms``
      list), built by one dict-display instruction.  Seed entries are
      NOT in the emitted dict (out terms are never seeded, so the two
      halves are disjoint); the caller updates them in when present;
    * ``emit=(t0, …, tn)`` — it yields the registers of those terms
      (seeded or not) as one tuple of family-local ids, in that order,
      with no term lifted at all: the chase runner's trigger rows
      (every body variable in name order), and ``()`` for a pure
      existence test such as the standard chase's head check.

    A body longer than ``_STEPS_PER_FUNCTION`` atoms is split: every
    ``_STEPS_PER_FUNCTION``-th step starts an inner generator ``_c{d}``,
    defined once after the prologue (so it reads the hoisted stores,
    columns and rigid ids as closure cells) and entered by ``yield from
    _c{d}(r…)`` with every register bound so far.  No code object then
    nests more loops than CPython allows.  Such a body gets no
    vectorised arm, which would emit its first function twice, so each
    of its steps and inner generators is emitted exactly once.
    """
    steps = plan.steps
    nsteps = len(steps)
    src: list[str] = []
    args = ", ".join(
        ["stores", "terms", "lof"]
        + [f"r{i}" for i in range(len(plan.seed_terms))]
    )
    src.append(f"def plan_fn({args}):")
    # Steps over the same store share its hoisted locals, named after
    # the first such step: sid[d] is that step's index.
    sid: list[int] = []
    first_step: dict[tuple[str, int], int] = {}
    for d, step in enumerate(steps):
        sd = first_step.setdefault((step[0], step[1]), d)
        sid.append(sd)
        if sd == d:
            src.append(f" s{d} = stores.get(({step[0]!r}, {step[1]}))")
            src.append(f" if s{d} is None:")
            src.append("  return")
    # Rigid terms: one family-local id lookup per distinct term, hoisted.
    rigid_name: dict[int, str] = {}
    for step in steps:
        for _p, t in step[2]:
            if t.tid not in rigid_name:
                name = f"q{len(rigid_name)}"
                rigid_name[t.tid] = name
                src.append(f" {name} = lof.get({t.tid})")
                src.append(f" if {name} is None:")
                src.append("  return")
    probe_free = []
    hoists: dict[str, str] = {}  # local name → expression, in order
    for d, step in enumerate(steps):
        _, _, rigid, bound, checks, outs = step
        sd = sid[d]
        pf = not rigid and not bound
        probe_free.append(pf)
        if pf or not outs:
            hoists.setdefault(f"m{sd}", f"s{sd}.rowmap")
            continue
        probe_pos = sorted({p for p, _ in rigid} | {p for p, _ in bound})
        col_pos = sorted(
            set(probe_pos)
            | {p for p, _ in checks}
            | {p0 for _, p0 in checks}
            | {p for p, _ in outs}
        )
        for p in col_pos:
            hoists.setdefault(f"c{sd}_{p}", f"s{sd}.cols[{p}]")
        for p in probe_pos:
            hoists.setdefault(f"x{sd}_{p}", f"s{sd}.index[{p}]")
        hoists.setdefault(f"v{sd}", f"s{sd}.live")
    src.extend(f" {name} = {expr}" for name, expr in hoists.items())

    # regname[reg] → the expression naming that register's current lid at
    # the point of use: a seed parameter, an unpacked rowmap-key element,
    # or an explicit r{reg} written from a column read.
    regname = {i: f"r{i}" for i in range(len(plan.seed_terms))}
    vectorise = _kernels.VECTORISED
    # live[d]: the registers bound before step d (seeds, then the outs
    # of steps 0..d-1) — the arguments of an inner generator at step d.
    live: list[tuple[int, ...]] = []
    bound_regs = list(regname)
    for step in steps:
        live.append(tuple(bound_regs))
        bound_regs.extend(reg for _, reg in step[5])
    inner_defs: list[str] = []  # source of the inner generators
    reg_of = {t: i for i, t in enumerate(plan.seed_terms)}
    reg_of.update(plan.out_pairs)

    def emit_tail(d: int, indent: str, looped: bool) -> None:
        e = d + 1
        if e == nsteps:
            if emit is None:
                items = ", ".join(
                    f"k{j}: terms[{regname[reg]}]"
                    for j, (_, reg) in enumerate(plan.out_pairs)
                )
                src.append(f"{indent}yield {{{items}}}")
            else:
                lids = [regname[reg_of[t]] for t in emit]
                tup = ", ".join(lids) + ("," if len(lids) == 1 else "")
                src.append(f"{indent}yield ({tup})")
        elif e % _STEPS_PER_FUNCTION:
            emit_step(e, indent, looped)
        else:
            args = ", ".join(regname[reg] for reg in live[e])
            src.append(f"{indent}yield from _c{e}({args})")
            for reg in live[e]:
                regname[reg] = f"r{reg}"
            mark = len(src)
            emit_step(e, "  ", False)
            params = ", ".join(f"r{reg}" for reg in live[e])
            inner_defs.append(f" def _c{e}({params}):")
            inner_defs.extend(src[mark:])
            del src[mark:]

    def emit_scalar_loop(d: int, indent: str, step: tuple) -> None:
        _, _, rigid, bound, checks, outs = step
        sd = sid[d]
        src.append(f"{indent}for w{d} in p:")
        body = indent + " "
        src.append(f"{body}if not v{sd}[w{d}]:")
        src.append(f"{body} continue")
        for p, t in rigid:
            src.append(f"{body}if c{sd}_{p}[w{d}] != {rigid_name[t.tid]}:")
            src.append(f"{body} continue")
        for p, reg in bound:
            src.append(f"{body}if c{sd}_{p}[w{d}] != {regname[reg]}:")
            src.append(f"{body} continue")
        for p, p0 in checks:
            src.append(f"{body}if c{sd}_{p}[w{d}] != c{sd}_{p0}[w{d}]:")
            src.append(f"{body} continue")
        for p, reg in outs:
            src.append(f"{body}r{reg} = c{sd}_{p}[w{d}]")
            regname[reg] = f"r{reg}"
        emit_tail(d, body, True)

    def emit_step(d: int, indent: str, looped: bool) -> None:
        """Emit step ``d`` and everything after it; ``looped`` says
        whether a loop of the current function encloses it (a dead end
        then skips to that loop's next row, else it ends the call)."""
        step = steps[d]
        _, arity, rigid, bound, checks, outs = step
        sd = sid[d]
        bail = "continue" if looped else "return"
        if probe_free[d]:
            if arity:
                names = ", ".join(f"t{d}_{p}" for p in range(arity))
                if arity == 1:
                    names += ","  # unpack the 1-tuple key
                src.append(f"{indent}for {names} in m{sd}:")
            else:
                src.append(f"{indent}for _e{d} in m{sd}:")
            body = indent + " "
            for p, p0 in checks:
                src.append(f"{body}if t{d}_{p} != t{d}_{p0}:")
                src.append(f"{body} continue")
            for p, reg in outs:
                regname[reg] = f"t{d}_{p}"
            emit_tail(d, body, True)
            return
        if not outs:
            # Every position is rigid or bound, so the step is one rowmap
            # membership test: at most one live row holds these ids.
            key = [""] * arity
            for p, t in rigid:
                key[p] = rigid_name[t.tid]
            for p, reg in bound:
                key[p] = regname[reg]
            for p, p0 in checks:
                key[p] = key[p0]
            tup = ", ".join(key) + ("," if arity == 1 else "")
            src.append(f"{indent}if ({tup}) in m{sd}:")
            emit_tail(d, indent + " ", looped)
            return
        probes = [f"x{sd}_{p}.get({rigid_name[t.tid]})" for p, t in rigid] + [
            f"x{sd}_{p}.get({regname[reg]})" for p, reg in bound
        ]
        src.append(f"{indent}p = {probes[0]}")
        src.append(f"{indent}if p is None:")
        src.append(f"{indent} {bail}")
        for probe in probes[1:]:
            src.append(f"{indent}b = {probe}")
            src.append(f"{indent}if b is None:")
            src.append(f"{indent} {bail}")
            src.append(f"{indent}if len(b) < len(p):")
            src.append(f"{indent} p = b")
        if vectorise and d == 0 and nsteps <= _STEPS_PER_FUNCTION:
            # Only the outermost pool gets the vectorised branch: inner
            # pools are small by most-constrained ordering, and a dual
            # path per depth would double the nest size at each level.
            # A chained body has none: it is typically a one-shot core
            # retraction, whose compile time the copy would double.
            eqs = [f"(c{sd}_{p}, {rigid_name[t.tid]})" for p, t in rigid] + [
                f"(c{sd}_{p}, {regname[reg]})" for p, reg in bound
            ]
            pairs = [f"(c{sd}_{p}, c{sd}_{p0})" for p, p0 in checks]
            eqs_src = "(" + ", ".join(eqs) + ("," if len(eqs) == 1 else "") + ")"
            pairs_src = (
                "(" + ", ".join(pairs) + ("," if len(pairs) == 1 else "") + ")"
            )
            src.append(f"{indent}if len(p) >= _K.MIN_VECTOR_ROWS:")
            src.append(
                f"{indent} p = _K.filter_rows(p, v{sd}, {eqs_src}, {pairs_src})"
            )
            src.append(f"{indent} for w{d} in p:")
            body = indent + "  "
            for p, reg in outs:
                src.append(f"{body}r{reg} = c{sd}_{p}[w{d}]")
                regname[reg] = f"r{reg}"
            emit_tail(d, body, True)
            src.append(f"{indent}else:")
            emit_scalar_loop(d, indent + " ", step)
        else:
            emit_scalar_loop(d, indent, step)

    mark = len(src)
    emit_step(0, " ", False)
    # The three emitters call each other through closure cells; emptying
    # the cells frees them by reference counting instead of leaving a
    # cycle per compiled plan to the cyclic collector.
    del emit_tail, emit_scalar_loop, emit_step
    src[mark:mark] = inner_defs
    ns: dict = {"len": len, "_K": _kernels}
    for j, (t, _) in enumerate(plan.out_pairs):
        ns[f"k{j}"] = t
    exec(compile("\n".join(src), "<columnar-plan>", "exec"), ns)
    return ns["plan_fn"]


def _resolve(
    atoms: tuple[Atom, ...],
    seeded: set[Term] | frozenset[Term],
    frozen_nulls: bool,
    target: ColumnarInstance,
) -> _Plan:
    """The cached plan for ``(atoms, seeded, frozen_nulls)``, compiled
    against ``target`` on a miss."""
    global _cached_atoms
    key = (atoms, frozenset(t.tid for t in seeded), frozen_nulls)
    plan = _plan_cache.get(key)
    if plan is None:
        if _cached_atoms + len(atoms) > _CACHE_LIMIT:
            clear_cache()
        plan = _compile(atoms, seeded, frozen_nulls, target)
        _plan_cache[key] = plan
        _cached_atoms += len(atoms)
    return plan


def _executor(plan: _Plan, emit: tuple[Term, ...] | None) -> Callable:
    """The plan's generated executor for one emit mode (generated once)."""
    fn = plan.fns.get(emit)
    if fn is None:
        fn = _codegen_columnar(plan, emit)
        plan.fns[emit] = fn
    return fn


class BoundPlan:
    """One ``(atoms, seeded terms, frozen_nulls)`` plan bound for repeated
    execution in one emit mode.

    :meth:`run` starts the generated executor on ``target`` with the
    seed lids in :attr:`seed_terms` order.  Resolution is lazy — the plan
    is taken from the cache, or compiled against ``target``, at the first
    call, exactly when :func:`match` would have — and repeats after a
    cache clear, so every plan compiled and cached is the one ``match``
    would have compiled and cached.
    """

    __slots__ = ("atoms", "seeded", "frozen_nulls", "emit", "seed_terms", "fn", "epoch")

    def __init__(
        self,
        atoms: Sequence[Atom],
        seeded: Iterable[Term],
        frozen_nulls: bool,
        emit: tuple[Term, ...] | None,
    ) -> None:
        self.atoms = tuple(atoms)
        self.seeded = frozenset(seeded)
        self.frozen_nulls = frozen_nulls
        self.emit = emit
        self.seed_terms = tuple(sorted(self.seeded, key=lambda t: t.tid))
        self.fn: Callable | None = None
        self.epoch = -1

    def executor(self, target: ColumnarInstance) -> Callable:
        """The generated function, (re-)resolved against ``target`` when
        no plan is bound or the cache was cleared since."""
        if self.epoch != _epoch:
            plan = _resolve(self.atoms, self.seeded, self.frozen_nulls, target)
            self.fn = _executor(plan, self.emit)
            self.epoch = _epoch
        return self.fn  # type: ignore[return-value]

    def run(self, target: ColumnarInstance, seed_lids: Sequence[int]) -> Iterator:
        """The plan's results on ``target`` for one seed binding, under
        the active backend: the ``naive`` reference answers the same
        question from the seed terms, in the same emit mode (its term
        dicts also carry the seed bindings)."""
        table = target._terms
        if _backend.get() == "naive":
            terms, local_of = table.terms, table.local_of
            seed = {t: terms[lid] for t, lid in zip(self.seed_terms, seed_lids)}
            homs = _naive.match(self.atoms, target, seed, self.frozen_nulls)
            emit = self.emit
            if emit is None:
                return homs
            return (tuple([local_of[h[v].tid] for v in emit]) for h in homs)
        return self.executor(target)(
            target._stores, table.terms, table.local_of, *seed_lids
        )


def match(
    source: Sequence[Atom],
    target: ColumnarInstance,
    seed: Mapping[Term, Term] | None = None,
    frozen_nulls: bool = False,
    limit: int | None = None,
) -> Iterator[Homomorphism]:
    """Enumerate homomorphisms from ``source`` into ``target`` via a
    compiled (and cached) join plan and its generated int executor.

    Same contract and same homomorphism *set* as
    :func:`repro.matching.naive.match` (order may differ).  Terms cross
    the boundary exactly twice — seed images are lowered to family-local
    ids going in (``None`` for a term the instance has never seen, which
    the generated probes and checks reject wholesale), and out-register
    lids are lifted through the family's dense term list coming out.
    """
    base: Homomorphism = dict(seed) if seed else {}
    # Constants in the source must not be seeded to something else (the
    # naive reference rejects these wholesale, irrespective of body
    # membership).
    for k, v in base.items():
        if isinstance(k, Constant) and k is not v:
            return
    atoms = tuple(source)
    if not atoms:
        yield dict(base)
        return

    seeded = {
        s
        for a in atoms
        for s in a.args
        if _is_flex(s, frozen_nulls) and s in base
    }
    plan = _resolve(atoms, seeded, frozen_nulls, target)
    fn = _executor(plan, None)

    table = target._terms
    local_of = table.local_of
    seed_lids = [local_of.get(base[t].tid) for t in plan.seed_terms]
    gen = fn(target._stores, table.terms, local_of, *seed_lids)
    if not base and limit is None:
        # The executor already yields finished homomorphism dicts; the
        # unseeded, unbounded hot path delegates to it wholesale.
        yield from gen
        return
    count = 0
    for h in gen:
        if base:
            h.update(base)  # disjoint from outs (out terms never seeded)
        yield h
        count += 1
        if limit is not None and count >= limit:
            return


def lid_getter(positions: Sequence[int]) -> Callable[[Sequence[int]], tuple]:
    """A C-speed ``lids -> tuple(lids[p] for p in positions)``
    (``itemgetter`` returns a bare item for one position, so the short
    cases are spelled out)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (p,) = positions
        return lambda lids: (lids[p],)
    return lambda lids: ()


def _bind_anchor(
    anchor: BodyAnchor, lid_rows: bool
) -> tuple[BoundPlan, Callable[[Sequence[int]], tuple]]:
    """The plan ``match`` would run for every fact this anchor accepts
    (the body seeded with the anchor's variables), bound once, plus the
    getter of its seed lids (in executor-parameter order) from a row."""
    first = dict(anchor.variables)
    bound = BoundPlan(anchor.body, first, False, anchor.names if lid_rows else None)
    return bound, lid_getter([first[t] for t in bound.seed_terms])


def delta_row_homomorphisms(
    by_pred: Mapping[str, list[BodyAnchor]],
    target: ColumnarInstance,
    handles: Iterable[tuple[tuple[str, int], int]],
    lid_rows: bool = False,
) -> Iterator[tuple[object, Homomorphism | tuple[int, ...]]]:
    """Semi-naive discovery over columnar delta-row handles.

    The ``columnar`` backend of
    :func:`repro.matching.engine.delta_homomorphisms`, which passes it
    the live handles: each ``(storekey, row)`` handle anchors
    every body atom over its predicate without materialising the fact —
    the anchor is checked lid-by-lid (repeated variables must agree,
    constants and nulls must sit on the row exactly), then the anchor's
    plan runs with the row's lids as its seeds.  Each anchor binds its
    plan once (:func:`_bind_anchor`), so a row costs no plan lookup.
    Same ``(key, h)`` stream as :func:`match` run per anchor; same
    duplication caveats; consumers dedupe.

    With ``lid_rows`` each homomorphism is emitted as the tuple of
    family-local ids of the body's variables in name order instead of a
    term dict — the chase runner's trigger rows.
    """
    table = target._terms
    terms = table.terms
    local_of = table.local_of
    stores = target._stores
    for skey, row in handles:
        anchors = by_pred.get(skey[0])
        if not anchors:
            continue
        arity = skey[1]
        lids = [col[row] for col in stores[skey].cols]
        for anchor in anchors:
            if anchor.arity != arity:
                continue
            if anchor.checked and not _anchor_fits(anchor, lids, local_of):
                continue
            bound = anchor.bound.get(lid_rows)
            if bound is None:
                bound = anchor.bound[lid_rows] = _bind_anchor(anchor, lid_rows)
            plan, seeds = bound
            fn = plan.fn if plan.epoch == _epoch else plan.executor(target)
            gen = fn(stores, terms, local_of, *seeds(lids))
            key = anchor.key
            if lid_rows:
                for image in gen:
                    yield key, image
            else:
                base = [(v, terms[lids[p]]) for v, p in anchor.variables]
                for h in gen:
                    h.update(base)  # disjoint from outs, as in match
                    yield key, h


def _anchor_fits(
    anchor: BodyAnchor, lids: Sequence[int], local_of: Mapping[int, int]
) -> bool:
    """Do a row's lids satisfy the anchor's repeated-variable and rigid
    checks?  (A rigid term this family has never seen matches no row.)"""
    for pos, pos0 in anchor.repeats:
        if lids[pos] != lids[pos0]:
            return False
    for pos, term in anchor.rigid:
        if local_of.get(term.tid) != lids[pos]:
            return False
    return True
