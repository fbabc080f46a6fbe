"""Shared fixtures for the benchmark harness.

The corpus and its evaluation are session-scoped: Tables 2(a), 2(b) and
2(c) are different projections of one experimental run, exactly as in the
paper.  Scale is controlled by the ``REPRO_SCALE`` environment variable
(default: CI-friendly; ``REPRO_SCALE=paper`` for full-size ontologies —
expect hours, as the paper's own Java prototype needed seconds per
ontology on much smaller Python-constant workloads).

Every bench writes its rendered table to ``benchmarks/results/`` so the
paper-vs-measured comparison in EXPERIMENTS.md can be regenerated.
"""

from __future__ import annotations

import os
import pathlib
import signal
import time

import pytest

from repro.analysis.evaluation import summarise
from repro.batch import BatchConfig, evaluate_corpus
from repro.generators import generate_corpus

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Per-bench timeout guard, mirroring tests/conftest.py (benches are
#: slower, so the default allowance is larger).  0 disables.
BENCH_TIMEOUT_S = float(os.environ.get("REPRO_BENCH_TIMEOUT", "900"))


@pytest.fixture(autouse=True)
def _per_bench_timeout():
    if BENCH_TIMEOUT_S <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def on_alarm(signum, frame):
        pytest.fail(
            f"bench exceeded the {BENCH_TIMEOUT_S:.0f}s timeout guard",
            pytrace=True,
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, BENCH_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def best_of_alternating(repeats: int, *arms):
    """Run the single-threaded ``arms`` in turn, ``repeats`` rounds, and
    return each arm's ``(best seconds, last value)``.

    Time is process CPU time: it leaves out the time other processes
    hold the core, and alternating the arms spreads any slow spell over
    all of them, so the ratio of two bests follows the code, not the
    machine's load.
    """
    best = [float("inf")] * len(arms)
    values = [None] * len(arms)
    for _ in range(repeats):
        for i, arm in enumerate(arms):
            t0 = time.process_time()
            values[i] = arm()
            best[i] = min(best[i], time.process_time() - t0)
    return list(zip(best, values))


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


@pytest.fixture(scope="session")
def corpus():
    """The 178-ontology synthetic corpus (Table 2(a) structure)."""
    tests_scale = float(os.environ.get("REPRO_TESTS_SCALE", "1.0"))
    return generate_corpus(tests_scale=tests_scale)


@pytest.fixture(scope="session")
def corpus_evaluations(corpus):
    """Adn∃ + chase ground truth for every ontology (Tables 2(b)/(c)).

    Runs through the batch engine: ``REPRO_JOBS=N`` fans the corpus out
    over N worker processes, ``REPRO_CACHE_DIR=...`` makes repeated bench
    runs incremental (only new or changed ontologies are re-evaluated).
    """
    config = BatchConfig(
        jobs=int(os.environ.get("REPRO_JOBS", "1")),
        cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
        chase_steps=int(os.environ.get("REPRO_CHASE_STEPS", "1200")),
    )
    return evaluate_corpus(corpus, config).evaluations()


@pytest.fixture(scope="session")
def corpus_summaries(corpus_evaluations):
    return summarise(corpus_evaluations)
