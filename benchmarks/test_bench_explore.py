"""Semi-naive vs full-rediscovery chase exploration micro-benchmark.

The branchiest Table 1 witness programs are explored over *grown*
databases (the witness pattern replicated over fresh constants, so every
state carries hundreds of facts while each chase step still only touches
a handful): exactly the regime semi-naive discovery targets, where a
branch should cost O(|Δ|) instead of a from-scratch trigger rediscovery
over the whole state.

Both arms visit branches under undo-log savepoints on the default
columnar backend; they differ only in discovery: ``discovery="delta"``
(the production path) vs ``discovery="full"`` (the explorer's naive
oracle, re-enumerating every body homomorphism at every state).  The
bench re-checks the differential invariant (identical
:class:`ExplorationResult`) on every workload and pins the aggregate
speedup.  Timings go to ``benchmarks/results/explore.txt``.  The last
numbers of the retired copy-backed explorer and eager-fork arms are
frozen in DESIGN.md §5/§11's migration notes.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

from conftest import best_of_alternating, write_result

from repro.chase.explorer import explore_chase
from repro.data.witnesses import witness_cases
from repro.model import Atom, Instance
from repro.model.terms import Constant

#: delta / full aggregate floor.  Seven wall-clock runs on a 2-core
#: x86-64 host (Python 3.11, numpy kernels) read 2.17–2.50x; the floor
#: sits below their minimum.  Each arm is timed as the best of
#: ``REPEATS`` alternating runs on the process CPU clock (the explorer is
#: single-threaded), so load from other processes does not move it.
SPEEDUP_FLOOR = 2.0

#: Deep-chain scaling table: the two-rule divergent program explored to
#: these state caps, one fresh process per row so peak RSS is its own.
DEEP_STATES = (100, 200, 400, 800)
SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

#: Replication factor for the witness databases (fact count scales with it).
SCALE = int(os.environ.get("REPRO_EXPLORE_SCALE", "200"))
REPEATS = 5

#: The branchy corpus: (witness case, chase variant, depth, state cap).
#: mirror_pair gets a larger share of scale — its database is a single
#: fact, the others' are two to three.
WORKLOADS = [
    ("sigma_1", "standard", SCALE, 4, 200),
    ("sigma_11", "standard", SCALE, 4, 200),
    ("sigma_10", "standard", SCALE, 4, 200),
    ("mirror_pair", "oblivious", SCALE + SCALE // 4, 3, 200),
    ("mirror_pair", "semi_oblivious", SCALE + SCALE // 4, 3, 200),
]


def _grown(db: Instance, copies: int) -> Instance:
    """The database pattern replicated ``copies`` times over fresh
    constants: isomorphic chase structure per copy, |I| scaled up."""
    out = Instance()
    for k in range(copies):
        for f in db:
            out.add(
                Atom(f.predicate, tuple(Constant(f"{t.value}@{k}") for t in f.args))
            )
    return out


#: Both explore.txt sections, assembled in definition order so a full
#: module run commits one file with the explore arm and the deep table.
_SECTIONS: dict[str, str] = {}


def _emit_sections() -> None:
    write_result(
        "explore",
        "\n\n".join(
            _SECTIONS[k] for k in ("explore", "deep") if k in _SECTIONS
        ),
    )


def test_bench_explore():
    cases = {c.name: c for c in witness_cases()}
    rows = []
    total_delta = total_full = 0.0
    for name, variant, copies, depth, states in WORKLOADS:
        case = cases[name]
        db = _grown(case.database, copies)
        (t_delta, r_delta), (t_full, r_full) = best_of_alternating(
            REPEATS,
            lambda: explore_chase(
                db, case.sigma, variant=variant,
                max_depth=depth, max_states=states, discovery="delta",
            ),
            lambda: explore_chase(
                db, case.sigma, variant=variant,
                max_depth=depth, max_states=states, discovery="full",
            ),
        )
        assert r_delta == r_full, f"differential violation on {name}/{variant}"
        total_delta += t_delta
        total_full += t_full
        speedup = t_full / max(t_delta, 1e-9)
        rows.append(
            f"{name:<13} {variant:<15} {len(db):>6} {r_delta.explored_states:>7} "
            f"{t_delta * 1e3:>10.1f} {t_full * 1e3:>10.1f} {speedup:>7.1f}x"
        )
    aggregate = total_full / max(total_delta, 1e-9)
    header = (
        f"{'witness':<13} {'variant':<15} {'|I|':>6} {'states':>7} "
        f"{'delta ms':>10} {'full ms':>10} {'speedup':>8}"
    )
    text = "\n".join(
        [
            "Explore micro-bench — semi-naive (delta) vs full-rediscovery "
            "DFS, both on savepoints, columnar backend, on grown Table 1 "
            f"witness programs (scale {SCALE}), best of {REPEATS} "
            "alternating runs, process CPU time",
            "",
            header,
            "-" * len(header),
            *rows,
            "",
            f"floor: delta ≥ {SPEEDUP_FLOOR}x full rediscovery in aggregate "
            f"(measured {aggregate:.2f}x)",
        ]
    )
    _SECTIONS["explore"] = text
    _emit_sections()
    assert aggregate >= SPEEDUP_FLOOR, (
        f"semi-naive explorer only {aggregate:.2f}x faster than full "
        f"rediscovery on the branchy witness corpus"
    )


#: One scaling row, run in a fresh interpreter: explore the deep chain to
#: ``max_states`` and report seconds, canonicaliser calls and peak RSS.
_DEEP_ROW = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from repro.chase import explorer
from repro.model import parse_dependencies, parse_facts

calls = [0]
null_part = explorer._null_part
def counting(null_facts):
    calls[0] += 1
    return null_part(null_facts)
explorer._null_part = counting

sigma = parse_dependencies("r1: N(x) -> exists y. E(x, y)\\nr2: E(x, y) -> N(y)")
t0 = time.perf_counter()
result = explorer.explore_chase(
    parse_facts('N("a")'), sigma, max_depth=10**6, max_states=int(sys.argv[2])
)
print(json.dumps({
    "states": result.explored_states,
    "seconds": time.perf_counter() - t0,
    "calls": calls[0],
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def test_bench_deep_chain_scaling():
    """How the standard-chase state memo scales along one chase path of
    ``N(x) → ∃y E(x,y); E(x,y) → N(y)``: every state opens its own memo
    bucket, so the canonicaliser must never run."""
    rows = []
    for states in DEEP_STATES:
        out = subprocess.run(
            [sys.executable, "-c", _DEEP_ROW, SRC, str(states)],
            capture_output=True, text=True, check=True,
        ).stdout
        row = json.loads(out.splitlines()[-1])
        assert row["states"] == states
        assert row["calls"] == 0
        rows.append(
            f"{states:>7} {row['seconds']:>10.3f} {row['calls']:>17} "
            f"{row['rss_mb']:>13.1f}"
        )
    header = f"{'states':>7} {'seconds':>10} {'canonicaliser':>17} {'peak RSS MB':>13}"
    _SECTIONS["deep"] = "\n".join(
        [
            "Deep-chain memo scaling — N(x) -> exists y. E(x,y); "
            "E(x,y) -> N(y) from N(\"a\"), standard chase, one fresh "
            "process per row (canonicaliser = _null_part calls)",
            "",
            header,
            "-" * len(header),
            *rows,
        ]
    )
    _emit_sections()
