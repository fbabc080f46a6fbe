"""Columnar-vs-planned-vs-naive matcher micro-benchmark.

One ontology per Table 2(a) class is grown into a few-thousand-fact
instance by a (semi-oblivious, full-first) chase prefix under the default
backend and converted to a plain ``Instance``; three arms then enumerate
*every* body homomorphism of the ontology into that instance — the exact
workload behind trigger discovery, saturation and satisfaction checks:

* **columnar** — the compiled plans as generated nested int loops over
  the flat tid columns of a :class:`~repro.model.columnar.ColumnarInstance`
  (DESIGN.md §10), no Atom tuples or register boxing on the hot path;
* **planned** — the same compiled plans through the plan executor for
  non-columnar targets, over the ``Instance``'s interned-term buckets and
  a flat register array (DESIGN.md §9) — the path the witness engine,
  MFA/MSA and Adn∃'s EGD step take;
* **naive** — the reference backend: static ordering over full predicate
  extents.

The gaps measured are columnar / planned (the columnar-store win) and
columnar / naive (the whole matching stack against the reference).  The
last numbers of the retired dynamic ``indexed`` engine are frozen in
DESIGN.md §9's migration note.

The bench re-checks the differential invariant (identical homomorphism
counts) across all three arms on every workload and pins per-class
floors; a separate untimed pass records each arm's tracemalloc peak so
representation overhead is tracked next to wall-clock.  Results go to
``benchmarks/results/matching.txt``.
"""

from __future__ import annotations

import gc
import os
import time
import tracemalloc

from conftest import write_result

from repro.chase.runner import run_chase
from repro.generators.corpus import TABLE2A_CLASSES, generate_corpus
from repro.generators.databases import seed_database
from repro.matching import naive as naive_engine
from repro.matching import plans as planned_engine
from repro.model import ColumnarInstance, Instance

LARGEST_CLASS = TABLE2A_CLASSES[-1]["name"]  # E1001-5000/G11-100
#: The big-extent classes where per-row python objects dominate — the
#: columnar store's target territory.
COLUMNAR_CLASSES = ("E1001-5000/G1-10", "E1001-5000/G11-100")

NAIVE_FLOOR = 3.0      # columnar / naive on LARGEST_CLASS
#: Raised from the 1.5 of the first columnar store: the rowmap-key scan
#: emission and typed-buffer kernels must buy ≥ 1.3x on top of it.
COLUMNAR_FLOOR = 2.0   # columnar / planned on every COLUMNAR_CLASSES member
COLUMNAR_MIN = 1.0     # columnar / planned on every class

#: Chase prefix length used to grow each workload instance.
GROW_STEPS = int(os.environ.get("REPRO_MATCH_STEPS", "3000"))
REPEATS = 11


def _time_arms(repeats, fns):
    """Best-of-n wall time per arm, sampled round-robin.

    Three defences against the noise that made single-shot ratios flake:
    sub-millisecond workloads are repeated inside each timed sample
    until the sample is ≥2ms (the tiny corpus classes finish in tens of
    microseconds, where one call is all timer granularity), the arms
    are interleaved per round so a background-load drift hits every arm
    equally instead of whichever was measured last, and the cyclic GC
    is paused across the timed rounds so collection pauses — which land
    on whichever arm happens to cross the allocation threshold — never
    pollute a sample.  Reported times are always per single call.
    """
    inners, best, values = {}, {}, {}
    for arm, fn in fns.items():
        fn()  # warm-up: plan compilation must not skew calibration
        t0 = time.perf_counter()
        values[arm] = fn()
        once = time.perf_counter() - t0
        inners[arm] = max(1, int(2e-3 / max(once, 1e-9)))
        best[arm] = once
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            for arm, fn in fns.items():
                inner = inners[arm]
                t0 = time.perf_counter()
                for _ in range(inner):
                    fn()
                dt = (time.perf_counter() - t0) / inner
                if dt < best[arm]:
                    best[arm] = dt
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, values


def _peak_kib(fn) -> float:
    """tracemalloc peak (KiB) over one run of ``fn`` (untimed pass)."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024.0


def _workloads():
    """(class name, Σ, grown instance) — one ontology per corpus class."""
    corpus = generate_corpus(tests_scale=0.02)
    seen: dict[str, object] = {}
    for ont in corpus:
        seen.setdefault(ont.class_name, ont)
    for cls in TABLE2A_CLASSES:
        ont = seen[cls["name"]]
        db = seed_database(ont.sigma)
        result = run_chase(
            db, ont.sigma, variant="semi_oblivious", strategy="full_first",
            max_steps=GROW_STEPS,
        )
        grown = result.instance if result.instance is not None else db
        # The chase warmed its plans against the seed database's
        # statistics; drop them so every arm runs plans compiled for the
        # grown instance it is timed on.
        planned_engine.clear_cache()
        yield cls["name"], ont.sigma, Instance(grown)


def _enumerate_all(matcher, sigma, instance) -> int:
    return sum(
        1 for dep in sigma for _ in matcher.match(dep.body, instance, limit=None)
    )


def test_bench_matching():
    # Bench hygiene: preceding in-process suites (the batch corpus bench
    # runs first) leave thousands of compiled plans and a fragmented
    # heap behind, which taxes the sub-20µs classes' per-call cache
    # lookups unevenly across arms.  Start from an empty plan cache —
    # the warm-up call inside _time_arms recompiles exactly the plans
    # this bench measures — and a collected heap.
    planned_engine.clear_cache()
    gc.collect()
    rows = []
    mem_rows = []
    col_speedups = {}
    naive_speedups = {}
    for name, sigma, instance in _workloads():
        # The columnar conversion happens once, outside timing: chases
        # under the columnar backend build their store incrementally and
        # never pay a bulk conversion on the matching path.
        col = ColumnarInstance(instance)
        arms = [
            ("columnar", planned_engine, col),
            ("planned", planned_engine, instance),
            ("naive", naive_engine, instance),
        ]
        peaks = {}
        fns = {
            arm: lambda m=matcher, t=target: _enumerate_all(m, sigma, t)
            for arm, matcher, target in arms
        }
        times, counts = _time_arms(REPEATS, fns)
        assert len(set(counts.values())) == 1, f"differential violation on {name}"
        # The floor-gated classes get up to two timing retries when the
        # first window lands under a floor: the gates are about the
        # engines, not about whatever else the host ran during the first
        # sampling window.  Retries min-merge into the best-of estimate.
        for _ in range(2):
            col_floor = (
                COLUMNAR_FLOOR if name in COLUMNAR_CLASSES else COLUMNAR_MIN
            )
            col_ok = (
                times["planned"] / max(times["columnar"], 1e-9) >= col_floor
            )
            nai_ok = (
                name != LARGEST_CLASS
                or times["naive"] / max(times["columnar"], 1e-9) >= NAIVE_FLOOR
            )
            if col_ok and nai_ok:
                break
            arms_to_retime = ["columnar", "planned"]
            if not nai_ok:
                arms_to_retime.append("naive")
            retimes, _ = _time_arms(REPEATS, {a: fns[a] for a in arms_to_retime})
            for a, t in retimes.items():
                times[a] = min(times[a], t)
        for arm, matcher, target in arms:
            peaks[arm] = _peak_kib(
                lambda m=matcher, t=target: _enumerate_all(m, sigma, t)
            )
        col_speedups[name] = times["planned"] / max(times["columnar"], 1e-9)
        naive_speedups[name] = times["naive"] / max(times["columnar"], 1e-9)
        rows.append(
            f"{name:<20} {len(list(sigma)):>4} {len(instance):>6} "
            f"{counts['planned']:>6} "
            f"{times['columnar'] * 1e3:>9.2f} {times['planned'] * 1e3:>10.2f} "
            f"{times['naive'] * 1e3:>9.2f} "
            f"{col_speedups[name]:>8.1f}x {naive_speedups[name]:>8.1f}x"
        )
        mem_rows.append(
            f"{name:<20} {peaks['columnar']:>12.0f} {peaks['planned']:>11.0f} "
            f"{peaks['naive']:>10.0f}"
        )
    header = (
        f"{'class':<20} {'|Σ|':>4} {'|I|':>6} {'homs':>6} "
        f"{'colmnr ms':>9} {'planned ms':>10} "
        f"{'naive ms':>9} {'col/pln':>9} {'col/nai':>9}"
    )
    mem_header = (
        f"{'class':<20} {'columnar KiB':>12} {'planned KiB':>11} "
        f"{'naive KiB':>10}"
    )
    text = "\n".join(
        [
            "Matching micro-bench — full body-homomorphism enumeration into a "
            f"chase-grown instance ({GROW_STEPS} steps), best of {REPEATS}",
            "",
            header,
            "-" * len(header),
            *rows,
            "",
            "tracemalloc peak per arm (one untimed enumeration pass)",
            "",
            mem_header,
            "-" * len(mem_header),
            *mem_rows,
            "",
            f"floors: columnar ≥ {COLUMNAR_FLOOR}x planned on "
            + ", ".join(
                f"{c} (measured {col_speedups[c]:.1f}x)" for c in COLUMNAR_CLASSES
            ),
            f"        columnar ≥ {COLUMNAR_MIN}x planned on every class "
            f"(worst {min(col_speedups.values()):.1f}x)",
            f"        columnar ≥ {NAIVE_FLOOR}x naive on {LARGEST_CLASS} "
            f"(measured {naive_speedups[LARGEST_CLASS]:.1f}x)",
        ]
    )
    write_result("matching", text)
    for cls in COLUMNAR_CLASSES:
        assert col_speedups[cls] >= COLUMNAR_FLOOR, (
            f"columnar execution only {col_speedups[cls]:.2f}x faster than "
            f"the planned engine on {cls}"
        )
    for name, speedup in col_speedups.items():
        assert speedup >= COLUMNAR_MIN, (
            f"columnar execution regressed to {speedup:.2f}x of the planned "
            f"engine on {name}"
        )
    assert naive_speedups[LARGEST_CLASS] >= NAIVE_FLOOR, (
        f"columnar execution only {naive_speedups[LARGEST_CLASS]:.2f}x faster "
        f"than the naive reference on {LARGEST_CLASS}"
    )
