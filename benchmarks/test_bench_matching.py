"""Columnar-vs-naive matcher micro-benchmark.

One ontology per Table 2(a) class is grown into a few-thousand-fact
instance by a (semi-oblivious, full-first) chase prefix under the default
backend and rebuilt as a fresh (tombstone-free) instance; two arms then
enumerate *every* body homomorphism of the ontology into that instance —
the exact workload behind trigger discovery, saturation and satisfaction
checks:

* **columnar** — the compiled plans as generated nested int loops over
  the flat tid columns of a :class:`~repro.model.columnar.ColumnarInstance`
  (DESIGN.md §10), no Atom tuples or register boxing on the hot path;
* **naive** — the reference backend: static ordering over full predicate
  extents, read through the instance's public per-predicate snapshots.

The gap measured is columnar / naive (the whole matching stack against
the reference).  The last numbers of the retired dynamic ``indexed``
engine and of the retired ``planned`` arm (the plans over the
object-indexed ``Instance`` store) are frozen in DESIGN.md §9's
migration notes.

The bench re-checks the differential invariant (identical homomorphism
counts) across both arms on every workload and pins the naive floor; a
separate untimed pass records each arm's tracemalloc peak so
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
from repro.model import ColumnarInstance

LARGEST_CLASS = TABLE2A_CLASSES[-1]["name"]  # E1001-5000/G11-100

NAIVE_FLOOR = 3.0      # columnar / naive on LARGEST_CLASS

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
        # The chase compiled its plans on first use, against the instance
        # as it was then; drop them so the timed plans are compiled for
        # the grown instance they run on.
        planned_engine.clear_cache()
        # A fresh rebuild, outside timing: chases build their store
        # incrementally and never pay a bulk rebuild on the matching path.
        yield cls["name"], ont.sigma, ColumnarInstance(grown)


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
    naive_speedups = {}
    for name, sigma, instance in _workloads():
        arms = [
            ("columnar", planned_engine),
            ("naive", naive_engine),
        ]
        peaks = {}
        fns = {
            arm: lambda m=matcher: _enumerate_all(m, sigma, instance)
            for arm, matcher in arms
        }
        times, counts = _time_arms(REPEATS, fns)
        assert len(set(counts.values())) == 1, f"differential violation on {name}"
        # The floor-gated class gets up to two timing retries when the
        # first window lands under the floor: the gate is about the
        # engines, not about whatever else the host ran during the first
        # sampling window.  Retries min-merge into the best-of estimate.
        for _ in range(2):
            if (
                name != LARGEST_CLASS
                or times["naive"] / max(times["columnar"], 1e-9) >= NAIVE_FLOOR
            ):
                break
            retimes, _ = _time_arms(REPEATS, fns)
            for a, t in retimes.items():
                times[a] = min(times[a], t)
        for arm, matcher in arms:
            peaks[arm] = _peak_kib(
                lambda m=matcher: _enumerate_all(m, sigma, instance)
            )
        naive_speedups[name] = times["naive"] / max(times["columnar"], 1e-9)
        rows.append(
            f"{name:<20} {len(list(sigma)):>4} {len(instance):>6} "
            f"{counts['columnar']:>6} "
            f"{times['columnar'] * 1e3:>9.2f} {times['naive'] * 1e3:>9.2f} "
            f"{naive_speedups[name]:>8.1f}x"
        )
        mem_rows.append(
            f"{name:<20} {peaks['columnar']:>12.0f} {peaks['naive']:>10.0f}"
        )
    header = (
        f"{'class':<20} {'|Σ|':>4} {'|I|':>6} {'homs':>6} "
        f"{'colmnr ms':>9} {'naive ms':>9} {'col/nai':>9}"
    )
    mem_header = f"{'class':<20} {'columnar KiB':>12} {'naive KiB':>10}"
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
            f"floor: columnar ≥ {NAIVE_FLOOR}x naive on {LARGEST_CLASS} "
            f"(measured {naive_speedups[LARGEST_CLASS]:.1f}x)",
        ]
    )
    write_result("matching", text)
    assert naive_speedups[LARGEST_CLASS] >= NAIVE_FLOOR, (
        f"columnar execution only {naive_speedups[LARGEST_CLASS]:.2f}x faster "
        f"than the naive reference on {LARGEST_CLASS}"
    )
