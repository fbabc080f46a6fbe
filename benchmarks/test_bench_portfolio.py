"""Full-vs-short-circuit classification micro-benchmark.

The workload is the random-program corpus the property tests draw from
(``random_dependency_set``, 3 dependencies, 30% EGDs) — the same family
whose seed 36 historically hung `adn_exists` and which PR 2 made
boundable.  Two arms classify every program:

* **sequential** — the seed's path: ``classify(sigma)``, every criterion
  to completion in cost order;
* **short-circuit** — ``classify(sigma, short_circuit=True,
  budget_ms=250, budget_steps=2_000_000)``: criteria run in the same
  order under per-criterion budgets, and criteria that can no longer
  change the headline verdict are not run.  On most programs the cheap
  static criteria (WA/SC, microseconds) decide "all sequences terminate"
  before the witness-engine-heavy ones (LS/S-Str/SAC, up to ~1s) would
  start; on the heavy tail the budgets bound the stragglers.

The bench asserts the short-circuit arm's headline verdict matches the
full sequential one on every program **except** where it visibly
exhausted a budget (the designed trade: boundedness for flagged
exactness — never a silent downgrade), and that it beats the sequential
arm by ≥ ``SPEEDUP_FLOOR`` overall.

A second comparison measures the shared analysis substrate (DESIGN.md
§6): ``backend="shared"`` (one memoized ``AnalysisContext`` + one
firing-decision cache per program) against ``backend="isolated"``
(every criterion recomputes every artifact and probe — the pre-sharing
baseline).  The workload is the criterion family whose machinery the
substrate deduplicates — WA/SC plus the restriction chain CStr/SR/IR,
which used to build four separate ``FiringOracle``s over the same
oblivious pair matrix and recompute the affected positions three times
(criteria like LS or SAC spend their time in once-per-program artifacts
no sharing can remove, so they would only dilute the measurement
without exercising the substrate).  Verdict-identical per the
differential suite, ≥ ``SHARED_SPEEDUP_FLOOR`` faster, artifact and
decision hit rates reported (CPU time, best of alternating runs).
Timings go to
``benchmarks/results/portfolio.txt`` / ``portfolio_shared.txt``.
"""

from __future__ import annotations

import os
import time

from conftest import best_of_alternating, write_result

from repro.analysis import classify
from repro.generators import random_dependency_set

N_PROGRAMS = int(os.environ.get("REPRO_PORTFOLIO_PROGRAMS", "60"))
#: Conservative CI floor; standalone runs measure ~2x (see results/).
SPEEDUP_FLOOR = 1.5
#: Floor for one shared context vs full isolated recomputation.  Both
#: arms run single-threaded, so each is timed as the best of
#: ``SHARED_REPEATS`` alternating runs on the process CPU clock, which
#: load from other processes does not move.
SHARED_SPEEDUP_FLOOR = 2.0
SHARED_REPEATS = 5
#: The substrate workload: the static criteria plus the restriction
#: chain that shares the oblivious pair matrix and affected positions.
SHARED_CRITERIA = ["WA", "SC", "CStr", "SR", "IR"]
BUDGET_MS = 250.0
BUDGET_STEPS = 2_000_000


def test_portfolio_beats_sequential_classify():
    sigmas = [
        random_dependency_set(seed, n_deps=3, egd_fraction=0.3)
        for seed in range(N_PROGRAMS)
    ]

    t0 = time.perf_counter()
    sequential = [classify(sigma) for sigma in sigmas]
    seq_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    short = [
        classify(
            sigma,
            short_circuit=True,
            budget_ms=BUDGET_MS,
            budget_steps=BUDGET_STEPS,
        )
        for sigma in sigmas
    ]
    sc_s = time.perf_counter() - t0

    mismatches = []
    exhausted_downgrades = 0
    for seed, (seq, sc) in enumerate(zip(sequential, short)):
        if seq.verdict == sc.verdict:
            continue
        if sc.any_exhausted:
            exhausted_downgrades += 1  # flagged, hence trustworthy
            continue
        mismatches.append(seed)
    assert not mismatches, (
        f"short-circuit changed headline verdicts without flagging a blown "
        f"budget on seeds {mismatches}"
    )

    speedup = seq_s / sc_s
    ran = sum(
        1 for r in short for res in r.results.values() if not res.skipped
    )
    total = sum(len(r.results) for r in short)
    lines = [
        "Short-circuit classification bench — "
        f"{N_PROGRAMS} random programs (n_deps=3, egd_fraction=0.3), "
        "headline-verdict-preserving modulo flagged budget exhaustion",
        "",
        f"sequential classify (full, in cost order):  {seq_s * 1000:8.1f} ms",
        f"short-circuit ({BUDGET_MS:.0f} ms/{BUDGET_STEPS} steps "
        f"per criterion): {sc_s * 1000:8.1f} ms",
        "",
        f"speedup: {speedup:.1f}x   "
        f"criteria actually run: {ran}/{total}   "
        f"flagged budget downgrades: {exhausted_downgrades}/{N_PROGRAMS}",
        "",
        f"floor: short-circuit ≥ {SPEEDUP_FLOOR}x sequential "
        f"(measured {speedup:.1f}x)",
    ]
    write_result("portfolio", "\n".join(lines))
    assert speedup >= SPEEDUP_FLOOR, (
        f"short-circuit speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )


def test_shared_context_beats_isolated_recompute():
    sigmas = [
        random_dependency_set(seed, n_deps=4, egd_fraction=0.3)
        for seed in range(N_PROGRAMS)
    ]

    (iso_s, isolated), (shr_s, shared) = best_of_alternating(
        SHARED_REPEATS,
        lambda: [
            classify(sigma, criteria=SHARED_CRITERIA, backend="isolated")
            for sigma in sigmas
        ],
        lambda: [
            classify(sigma, criteria=SHARED_CRITERIA, backend="shared")
            for sigma in sigmas
        ],
    )

    mismatches = [
        seed
        for seed, (iso, shr) in enumerate(zip(isolated, shared))
        if [(n, r.accepted, r.exact) for n, r in iso.results.items()]
        != [(n, r.accepted, r.exact) for n, r in shr.results.items()]
    ]
    assert not mismatches, (
        f"shared context changed verdicts on seeds {mismatches}"
    )

    speedup = iso_s / shr_s
    artifact_hits = artifact_total = decision_hits = decision_total = 0
    for report in shared:
        ctx = report.details["context"]
        artifact_hits += ctx["artifacts"]["hits"]
        artifact_total += ctx["artifacts"]["hits"] + ctx["artifacts"]["misses"]
        decision_hits += ctx["decisions"]["hits"]
        decision_total += ctx["decisions"]["hits"] + ctx["decisions"]["misses"]
    artifact_rate = artifact_hits / artifact_total if artifact_total else 0.0
    decision_rate = decision_hits / decision_total if decision_total else 0.0

    lines = [
        "Shared analysis substrate bench — one memoized AnalysisContext "
        "per program vs isolated per-criterion recomputation "
        f"({N_PROGRAMS} random programs, criteria "
        f"{'/'.join(SHARED_CRITERIA)}, verdict-identical)",
        "",
        f"isolated recompute (no sharing):            {iso_s * 1000:8.1f} ms",
        f"shared context (artifacts + decisions):     {shr_s * 1000:8.1f} ms",
        f"(process CPU time, best of {SHARED_REPEATS} alternating runs)",
        "",
        f"speedup: {speedup:.1f}x   "
        f"artifact cache hit rate: {artifact_rate:.0%}   "
        f"firing-decision cache hit rate: {decision_rate:.0%}",
        "",
        f"floor: shared ≥ {SHARED_SPEEDUP_FLOOR}x isolated "
        f"(measured {speedup:.1f}x)",
    ]
    write_result("portfolio_shared", "\n".join(lines))
    assert speedup >= SHARED_SPEEDUP_FLOOR, (
        f"shared-context speedup {speedup:.2f}x below the "
        f"{SHARED_SPEEDUP_FLOOR}x floor"
    )
