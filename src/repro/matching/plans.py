"""Compiled per-body join plans: the ``"columnar"`` matching backend.

Each ``(body, seeded-variables, frozen_nulls)`` combination is compiled
once into a fixed-order join plan and replayed on every subsequent call,
instead of re-deriving an atom order at every node of a backtracking
search — on the flat corpus classes (tiny candidate pools, very many
trigger probes, e.g. E1001-5000/G1-10) that interpretive overhead would
be the cost:

* **Atom order is chosen at compile time** from the index statistics of
  the first target the plan runs against (bucket sizes / predicate
  extents), greedily most-constrained-first, instead of being re-derived
  at every search node.
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
  shape.  The semi-naive discovery loop therefore hits one cached plan
  per (dependency, anchor atom) pair after the first delta round;
  :func:`warm` precompiles those pairs up front at chase start.

Plans enumerate the same homomorphism **set** as the naive reference
(:mod:`.naive`), possibly in a different order, which is the contract the
backend switch and the differential suites hold them to (chase decisions
are order-insensitive because the runner sorts discovery batches
canonically; see DESIGN.md §9).

A plan holds **no** reference to any instance — only atom structure, term
objects and term ids — so the cache never pins instance state.  Term ids
are process-local (:mod:`repro.model.terms`) and never escape into the
emitted homomorphisms, which map term objects to term objects.

**Columnar execution (DESIGN.md §10/§11).**  When the target is an
instance — a :class:`~repro.model.columnar.ColumnarInstance`, the one
fact store — each plan lazily
code-generates one specialised nested-loop generator
(:func:`_codegen_columnar`) whose registers, probes and checks are all
family-local term ids — probe-free steps scan rowmap keys directly
(zero column reads), probed pools filter tombstones against the live
bitmap and upgrade to the vectorised :mod:`repro.model.kernels` above a
size threshold, and no ``Atom`` or ``Term`` object is touched until a
homomorphism is emitted at the boundary.

**The plan executor for atom collections.**  The same plans run over a
plain atom list (:func:`_execute`, probing the term-id-keyed ``(predicate,
position)`` cells of an :class:`~.engine.AdHocIndex` built over the
list).  This is a production path, not a reference: the witness engine
matches ``Body(r2)`` into its candidate ``J`` atom list thousands of
times per classification portfolio, and core computation matches into
retraction targets.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..model import kernels as _kernels
from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from ..model.terms import Constant, Null, Term, Variable
from .engine import AdHocIndex, Homomorphism

_EMPTY: frozenset[Atom] = frozenset()

#: Hard cap on cached compiled bodies.  Each entry is a few hundred bytes
#: of tuples; 4096 covers every corpus class with room to spare, and the
#: table is simply cleared when it would overflow (compilation is cheap
#: relative to the chase that triggered it).
_CACHE_LIMIT = 4096

# (atoms, frozenset of seeded body-flex tids, frozen_nulls) → _Plan
_plan_cache: dict[tuple, "_Plan"] = {}


def clear_cache() -> None:
    """Drop every compiled plan (test isolation / memory pressure)."""
    _plan_cache.clear()


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

    * ``rigid``  — ``((pos, term), ...)``: bucket-probe by ``term.tid``,
      then identity-check ``fact.args[pos] is term``;
    * ``bound``  — ``((pos, reg), ...)``: bucket-probe by the term id of
      register ``reg`` (seeded, or written by an earlier step);
    * ``checks`` — ``((pos, pos0), ...)``: within-atom repeats,
      ``fact.args[pos] is fact.args[pos0]``;
    * ``outs``   — ``((pos, reg), ...)``: first occurrences, written to
      register ``reg``.

    ``seed_terms`` lists the seeded body-flex terms in register order
    0..n; ``out_pairs`` maps the remaining registers back to their terms
    when a result dict is emitted.
    """

    __slots__ = ("steps", "seed_terms", "out_pairs", "nregs", "columnar_fn")

    def __init__(
        self,
        atoms: Sequence[Atom],
        order: Sequence[int],
        seed_terms: Sequence[Term],
        frozen_nulls: bool,
    ) -> None:
        self.columnar_fn: Callable | None = None  # lazy; see _codegen_columnar
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
    idx: AdHocIndex,
) -> tuple[float, int]:
    """(estimated candidate-pool size, -probe count) for greedy ordering.

    Rigid positions contribute their exact compile-time bucket size;
    positions over already-bound flex terms contribute the *average* cell
    size of their slot (extent / distinct keys) — the runtime value is
    unknown at compile time.  No probe at all costs the whole predicate
    extent.
    """
    extent = len(idx._pred_bucket(atom.predicate))
    slots = idx._pos_slots(atom.predicate)
    best = float(extent)
    probes = 0
    for pos, s in enumerate(atom.args):
        flex = _is_flex(s, frozen_nulls)
        if flex and s not in bound_terms:
            continue
        probes += 1
        if slots is None or pos >= len(slots):
            best = 0.0
            continue
        cell = slots[pos]
        if not flex:
            size = float(len(cell.get(s.tid, _EMPTY)))
        else:
            size = extent / len(cell) if cell else 0.0
        if size < best:
            best = size
    return best, -probes


def _estimate_columnar(
    atom: Atom,
    bound_terms: set[Term],
    frozen_nulls: bool,
    inst: ColumnarInstance,
) -> tuple[float, int]:
    """:func:`_estimate` over a columnar store's row-id index: extents are
    live-row counts, rigid cells are candidate-cell sizes (tombstones
    included — dead rows inflate an estimate but never its correctness)."""
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
    seeded: set[Term],
    frozen_nulls: bool,
    idx: AdHocIndex | ColumnarInstance,
    estimate: Callable = _estimate,
) -> list[int]:
    """Greedy most-constrained-first order, decided once at compile time
    from the statistics of the compiling target's index."""
    remaining = list(range(len(atoms)))
    bound = set(seeded)
    order: list[int] = []
    while remaining:
        best_j = min(
            remaining,
            key=lambda j: (*estimate(atoms[j], bound, frozen_nulls, idx), j),
        )
        remaining.remove(best_j)
        order.append(best_j)
        for s in atoms[best_j].args:
            if _is_flex(s, frozen_nulls):
                bound.add(s)
    return order


def _compile(
    atoms: tuple[Atom, ...],
    seeded: set[Term],
    frozen_nulls: bool,
    idx: AdHocIndex | ColumnarInstance,
    estimate: Callable = _estimate,
) -> _Plan:
    seed_terms = sorted(seeded, key=lambda t: t.tid)
    order = _order_atoms(atoms, seeded, frozen_nulls, idx, estimate)
    return _Plan(atoms, order, seed_terms, frozen_nulls)


def _codegen_columnar(plan: _Plan) -> Callable:
    """Generate the columnar executor for one compiled plan.

    The emitted function has the shape::

        def plan_fn(stores, terms, lof, r0, ..., rk):  # seeds, as lids
            s0 = stores.get(('P', 2))            # one store per step
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

    Three layout-driven specialisations (DESIGN.md §11):

    * **Probe-free steps iterate rowmap keys**, unpacking the lid tuple
      straight into loop variables — the keys already hold every column
      value of a live row, so the full-extent scan (the dominant shape
      on the flat corpus classes) reads no column and consults no live
      bit at all.
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

    Emission happens *inside* the generated code: the innermost loop
    yields the finished homomorphism dict (out terms are burned in as
    the globals ``k0…``, out lids lifted through the family's dense
    ``terms`` list), built by one dict-display instruction.  Seed
    entries are NOT in the emitted dict (out terms are never seeded, so
    the two halves are disjoint); the caller updates them in when
    present.
    """
    steps = plan.steps
    nsteps = len(steps)
    src: list[str] = []
    args = ", ".join(
        ["stores", "terms", "lof"]
        + [f"r{i}" for i in range(len(plan.seed_terms))]
    )
    src.append(f"def plan_fn({args}):")
    for d, step in enumerate(steps):
        predicate, arity = step[0], step[1]
        src.append(f" s{d} = stores.get(({predicate!r}, {arity}))")
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
    for d, step in enumerate(steps):
        _, _, rigid, bound, checks, outs = step
        pf = not rigid and not bound
        probe_free.append(pf)
        if pf:
            src.append(f" m{d} = s{d}.rowmap")
            continue
        probe_pos = sorted({p for p, _ in rigid} | {p for p, _ in bound})
        col_pos = sorted(
            set(probe_pos)
            | {p for p, _ in checks}
            | {p0 for _, p0 in checks}
            | {p for p, _ in outs}
        )
        for p in col_pos:
            src.append(f" c{d}_{p} = s{d}.cols[{p}]")
        for p in probe_pos:
            src.append(f" x{d}_{p} = s{d}.index[{p}]")
        src.append(f" v{d} = s{d}.live")

    # regname[reg] → the expression naming that register's current lid at
    # the point of use: a seed parameter, an unpacked rowmap-key element,
    # or an explicit r{reg} written from a column read.
    regname = {i: f"r{i}" for i in range(len(plan.seed_terms))}
    vectorise = _kernels.VECTORISED

    def emit_tail(d: int, indent: str) -> None:
        if d + 1 == nsteps:
            items = ", ".join(
                f"k{j}: terms[{regname[reg]}]"
                for j, (_, reg) in enumerate(plan.out_pairs)
            )
            src.append(f"{indent}yield {{{items}}}")
        else:
            emit_step(d + 1, indent)

    def emit_scalar_loop(d: int, indent: str, step: tuple) -> None:
        _, _, rigid, bound, checks, outs = step
        src.append(f"{indent}for w{d} in p:")
        body = indent + " "
        src.append(f"{body}if not v{d}[w{d}]:")
        src.append(f"{body} continue")
        for p, t in rigid:
            src.append(f"{body}if c{d}_{p}[w{d}] != {rigid_name[t.tid]}:")
            src.append(f"{body} continue")
        for p, reg in bound:
            src.append(f"{body}if c{d}_{p}[w{d}] != {regname[reg]}:")
            src.append(f"{body} continue")
        for p, p0 in checks:
            src.append(f"{body}if c{d}_{p}[w{d}] != c{d}_{p0}[w{d}]:")
            src.append(f"{body} continue")
        for p, reg in outs:
            src.append(f"{body}r{reg} = c{d}_{p}[w{d}]")
            regname[reg] = f"r{reg}"
        emit_tail(d, body)

    def emit_step(d: int, indent: str) -> None:
        step = steps[d]
        _, arity, rigid, bound, checks, outs = step
        bail = "return" if d == 0 else "continue"
        if probe_free[d]:
            if arity:
                names = ", ".join(f"t{d}_{p}" for p in range(arity))
                if arity == 1:
                    names += ","  # unpack the 1-tuple key
                src.append(f"{indent}for {names} in m{d}:")
            else:
                src.append(f"{indent}for _e{d} in m{d}:")
            body = indent + " "
            for p, p0 in checks:
                src.append(f"{body}if t{d}_{p} != t{d}_{p0}:")
                src.append(f"{body} continue")
            for p, reg in outs:
                regname[reg] = f"t{d}_{p}"
            emit_tail(d, body)
            return
        probes = [f"x{d}_{p}.get({rigid_name[t.tid]})" for p, t in rigid] + [
            f"x{d}_{p}.get({regname[reg]})" for p, reg in bound
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
        if vectorise and d == 0:
            # Only the outermost pool gets the vectorised branch: inner
            # pools are small by most-constrained ordering, and a dual
            # path per depth would double the nest size at each level.
            eqs = [f"(c{d}_{p}, {rigid_name[t.tid]})" for p, t in rigid] + [
                f"(c{d}_{p}, {regname[reg]})" for p, reg in bound
            ]
            pairs = [f"(c{d}_{p}, c{d}_{p0})" for p, p0 in checks]
            eqs_src = "(" + ", ".join(eqs) + ("," if len(eqs) == 1 else "") + ")"
            pairs_src = (
                "(" + ", ".join(pairs) + ("," if len(pairs) == 1 else "") + ")"
            )
            src.append(f"{indent}if len(p) >= _K.MIN_VECTOR_ROWS:")
            src.append(
                f"{indent} p = _K.filter_rows(p, v{d}, {eqs_src}, {pairs_src})"
            )
            src.append(f"{indent} for w{d} in p:")
            body = indent + "  "
            for p, reg in outs:
                src.append(f"{body}r{reg} = c{d}_{p}[w{d}]")
                regname[reg] = f"r{reg}"
            emit_tail(d, body)
            src.append(f"{indent}else:")
            emit_scalar_loop(d, indent + " ", step)
        else:
            emit_scalar_loop(d, indent, step)

    emit_step(0, " ")
    ns: dict = {"len": len, "_K": _kernels}
    for j, (t, _) in enumerate(plan.out_pairs):
        ns[f"k{j}"] = t
    exec(compile("\n".join(src), "<columnar-plan>", "exec"), ns)
    return ns["plan_fn"]


def _execute(
    steps: tuple,
    depth: int,
    idx: AdHocIndex,
    regs: list,
) -> Iterator[None]:
    """Run the plan from ``steps[depth]``; yields once per full match.

    Emission protocol: a bare ``yield`` signals "the registers currently
    hold one complete homomorphism" — the caller reads ``regs`` while the
    generator is suspended.  Registers are overwritten, never unwound:
    each register has exactly one writing step, and deeper steps only
    read registers written above them.
    """
    predicate, arity, rigid, bound, checks, outs = steps[depth]
    pos_slots = idx._pos_slots(predicate)
    if pos_slots is None:
        return  # predicate never seen: no facts to match
    pool = None
    best = -1
    nslots = len(pos_slots)
    for pos, term in rigid:
        if pos >= nslots:
            return
        b = pos_slots[pos].get(term.tid)
        if not b:
            return
        if best < 0 or len(b) < best:
            pool, best = b, len(b)
    for pos, reg in bound:
        if pos >= nslots:
            return
        b = pos_slots[pos].get(regs[reg].tid)
        if not b:
            return
        if best < 0 or len(b) < best:
            pool, best = b, len(b)
    if pool is None:
        pool = idx._pred_bucket(predicate)
    last = depth + 1 == len(steps)
    for fact in pool:
        fargs = fact.args
        if len(fargs) != arity:
            continue
        ok = True
        for pos, term in rigid:
            if fargs[pos] is not term:
                ok = False
                break
        if ok:
            for pos, reg in bound:
                if fargs[pos] is not regs[reg]:
                    ok = False
                    break
        if ok:
            for pos, pos0 in checks:
                if fargs[pos] is not fargs[pos0]:
                    ok = False
                    break
        if not ok:
            continue
        for pos, reg in outs:
            regs[reg] = fargs[pos]
        if last:
            yield None
        else:
            yield from _execute(steps, depth + 1, idx, regs)


def match(
    source: Sequence[Atom],
    target: ColumnarInstance | Iterable[Atom],
    seed: Mapping[Term, Term] | None = None,
    frozen_nulls: bool = False,
    limit: int | None = None,
) -> Iterator[Homomorphism]:
    """Enumerate homomorphisms from ``source`` into ``target`` via a
    compiled (and cached) join plan.

    Same contract and same homomorphism *set* as
    :func:`repro.matching.naive.match` (order may differ).  Instances
    run the plan's generated int executor; atom collections run the plan
    executor over an :class:`~.engine.AdHocIndex`.
    """
    if isinstance(target, ColumnarInstance):
        return _match_columnar(tuple(source), target, seed, frozen_nulls, limit)
    return _match_atoms(source, target, seed, frozen_nulls, limit)


def _match_atoms(
    source: Sequence[Atom],
    target: Iterable[Atom],
    seed: Mapping[Term, Term] | None = None,
    frozen_nulls: bool = False,
    limit: int | None = None,
) -> Iterator[Homomorphism]:
    idx = AdHocIndex(target)
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
    key = (atoms, frozenset(t.tid for t in seeded), frozen_nulls)
    plan = _plan_cache.get(key)
    if plan is None:
        if len(_plan_cache) >= _CACHE_LIMIT:
            _plan_cache.clear()
        plan = _compile(atoms, seeded, frozen_nulls, idx)
        _plan_cache[key] = plan

    regs: list = [None] * plan.nregs
    for i, t in enumerate(plan.seed_terms):
        regs[i] = base[t]

    out_pairs = plan.out_pairs
    count = 0
    for _ in _execute(plan.steps, 0, idx, regs):
        h = dict(base)
        for t, reg in out_pairs:
            h[t] = regs[reg]
        yield h
        count += 1
        if limit is not None and count >= limit:
            return


def _match_columnar(
    atoms: tuple[Atom, ...],
    inst: ColumnarInstance,
    seed: Mapping[Term, Term] | None,
    frozen_nulls: bool,
    limit: int | None,
) -> Iterator[Homomorphism]:
    """The columnar arm of :func:`match`: same plan cache, int executor.

    Terms cross the boundary exactly twice — seed images are lowered to
    family-local ids going in (``None`` for a term the instance has
    never seen, which the generated probes and checks reject wholesale),
    and out-register lids are lifted through the family's dense term
    list coming out.
    """
    base: Homomorphism = dict(seed) if seed else {}
    for k, v in base.items():
        if isinstance(k, Constant) and k is not v:
            return
    if not atoms:
        yield dict(base)
        return

    seeded = {
        s
        for a in atoms
        for s in a.args
        if _is_flex(s, frozen_nulls) and s in base
    }
    key = (atoms, frozenset(t.tid for t in seeded), frozen_nulls)
    plan = _plan_cache.get(key)
    if plan is None:
        if len(_plan_cache) >= _CACHE_LIMIT:
            _plan_cache.clear()
        plan = _compile(atoms, seeded, frozen_nulls, inst, _estimate_columnar)
        _plan_cache[key] = plan
    fn = plan.columnar_fn
    if fn is None:
        fn = _codegen_columnar(plan)
        plan.columnar_fn = fn

    table = inst._terms
    local_of = table.local_of
    seed_lids = [local_of.get(base[t].tid) for t in plan.seed_terms]
    gen = fn(inst._stores, table.terms, local_of, *seed_lids)
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


def delta_row_homomorphisms(
    by_pred: Mapping[str, list[tuple[object, Sequence[Atom], Atom]]],
    target: ColumnarInstance,
    handles: Iterable[tuple[tuple[str, int], int]],
) -> Iterator[tuple[object, Homomorphism]]:
    """Semi-naive discovery over columnar delta-row handles.

    The columnar counterpart of
    :func:`repro.matching.engine.delta_homomorphisms`: each ``(storekey,
    row)`` handle from :meth:`ColumnarInstance.added_rows_since` anchors
    every body atom over its predicate without materialising the fact —
    the anchor is computed lid-by-lid (variables bind consistently,
    constants and nulls must match rigidly), then the plan executor runs
    with the resulting seed.  Same ``(key, h)`` stream as the object
    version, same duplication caveats; consumers dedupe.
    """
    terms = target._terms.terms
    stores = target._stores
    for skey, row in handles:
        predicate, arity = skey
        entries = by_pred.get(predicate)
        if not entries:
            continue
        store = stores[skey]
        row_terms = [terms[col[row]] for col in store.cols]
        for key, body, atom in entries:
            if atom.arity != arity:
                continue
            seed: Homomorphism = {}
            ok = True
            for s, rt in zip(atom.args, row_terms):
                if isinstance(s, Variable):
                    bound = seed.get(s)
                    if bound is None:
                        seed[s] = rt
                    elif bound is not rt:
                        ok = False
                        break
                elif s is not rt:
                    # Rigid anchor: constants and nulls must sit on the
                    # row exactly (seed_mapping's frozen-null semantics;
                    # terms are interned, so identity is equality).
                    ok = False
                    break
            if not ok:
                continue
            for h in match(body, target, seed=seed, limit=None):
                yield key, h


def warm(
    bodies: Iterable[Sequence[Atom]],
    target: ColumnarInstance | Iterable[Atom],
    frozen_nulls: bool = False,
) -> int:
    """Precompile the plans a chase over ``bodies`` will need.

    For every body: the unseeded plan (initial full enumeration) plus one
    plan per body atom seeded with that atom's variables — exactly the
    seed shapes :func:`repro.matching.engine.seed_mapping` produces during
    semi-naive delta discovery.  Returns the number of plans compiled
    fresh (cached ones are skipped).  Purely an optimisation: a cold
    cache compiles lazily on first use with identical results.
    """
    idx: AdHocIndex | ColumnarInstance
    if isinstance(target, ColumnarInstance):
        idx, estimate = target, _estimate_columnar
    else:
        idx, estimate = AdHocIndex(target), _estimate
    compiled = 0
    for body in bodies:
        atoms = tuple(body)
        if not atoms:
            continue
        seed_sets = [set()]
        for anchor in atoms:
            seed_sets.append(
                {s for s in anchor.args if _is_flex(s, frozen_nulls)}
            )
        for seeded in seed_sets:
            key = (atoms, frozenset(t.tid for t in seeded), frozen_nulls)
            if key in _plan_cache:
                continue
            if len(_plan_cache) >= _CACHE_LIMIT:
                _plan_cache.clear()
            _plan_cache[key] = _compile(atoms, seeded, frozen_nulls, idx, estimate)
            compiled += 1
    return compiled
