"""The benchmark's three workloads: inputs, one timed pass, output checks.

Every input reaches the program as text.  ``make_inputs`` takes a fixed
draw of programs (and databases) and renders a seed-specific *isomorph*
of each: every predicate, variable and constant gets a fresh name derived
from the seed.  Renaming preserves every verdict, so one expected-output
file (generated with the reference arms, see ``make_expected.py``) checks
every seed, while the text the program parses differs from seed to seed.

The draw itself does not depend on the seed, for two measured reasons:
the expected file is generated once, by the slow reference arms, and the
cost of the programs ``generate_corpus`` draws varies far beyond the
benchmark's bounds from one draw to the next (11-29 s per uncapped
E101+ program).  The order in which dependencies are listed is kept as
well: Adn∃ on the Table 2 corpus is not invariant under reordering (its
adorned size and, for some programs, its verdict change).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

WORKLOADS = ("classify_portfolio", "table2_batch", "explore_deep")

#: The fixed corpus draw every workload renames (DEFAULT_SEED of the
#: generator: PVLDB 9(5), pages 396-407).
CORPUS_SEED = 20160396

#: classify_portfolio: the first programs of the three cheapest Table 2(a)
#: classes plus one E101-1000/G1-10 program, capped at 30 dependencies so
#: that one pass takes about 5 s on 2 cores (uncapped, the E101+ programs
#: alone take 11-29 s each).
CLASSIFY_CORPUS = {"tests_scale": 0.05, "max_size": 30}
CLASSIFY_PROGRAMS = (
    "E1-10/G1-10#1",
    "E1-10/G1-10#2",
    "E1-10/G11-100#1",
    "E11-100/G1-10#1",
    "E101-1000/G1-10#3",
)

#: table2_batch: 19 programs covering all eight Table 2(a) classes, capped
#: at 20 dependencies so that the cold run takes about 2.5 s: a run then
#: holds ~9 passes, and the speed calibration around the cold run brackets
#: it closely (a 6-s cold run left twice the spread).
TABLE2_CORPUS = {"tests_scale": 0.1, "max_size": 20}
CHASE_STEPS = 1200
WARM_RERUNS = 12

#: explore_deep: the two-rule divergent program, explored deep ...
DEEP_PROGRAM = "N(x) -> exists y. E(x, y)\nE(x, y) -> N(y)"
DEEP_FACTS = 'N("a")'
DEEP_MAX_DEPTH = 1500
DEEP_MAX_STATES = 120
#: ... and the branchy Table 1 witnesses over databases grown to ~200
#: facts: (witness, chase variant, max depth, max states).
WIDE = (
    ("sigma_1", "standard", 4, 200),
    ("sigma_11", "standard", 4, 200),
    ("mirror_pair", "oblivious", 3, 200),
    ("mirror_pair", "semi_oblivious", 3, 200),
)
WIDE_FACTS = 200


@dataclass(frozen=True)
class Item:
    """One operation's input, as the program receives it."""

    id: str
    program: str
    facts: str = ""
    params: dict = field(default_factory=dict)


# -- inputs ------------------------------------------------------------------


def _isomorph(sigma: Any, facts: list, rng: random.Random) -> tuple[Any, list]:
    """Rename predicates, variables and constants to seed-specific names.

    Each renaming is a bijection that keeps the names' relative order
    (fresh names share one random tag and carry the old name's rank), so
    every sort the analyser does comes out the same and the renamed
    program costs exactly as much work as the original.  Random-order
    renamings change single-program classification times by up to ±15%
    from seed to seed, more than the run-to-run bounds allow.
    """
    from repro.model.atoms import Atom
    from repro.model.dependencies import EGD, TGD, DependencySet
    from repro.model.terms import Constant, Variable

    tag = format(rng.getrandbits(24), "06x")

    def ranked(names: list, fmt: str) -> dict:
        return {x: fmt.format(tag=tag, i=k) for k, x in enumerate(sorted(names, key=str))}

    preds = ranked(list(set(sigma.predicates()) | {f.predicate for f in facts}), "P{tag}_{i:04d}")
    consts = {
        c: Constant(name)
        for c, name in ranked(list({t for f in facts for t in f.args}), "c{tag}_{i:05d}").items()
    }

    def atom(a: Any, terms: dict) -> Any:
        return Atom(preds[a.predicate], tuple(terms.get(t, t) for t in a.args))

    out = DependencySet()
    for dep in sigma:
        vmap = {
            v: Variable(name)
            for v, name in ranked(list(dep.variables()), "v{tag}_{i:02d}").items()
        }
        if isinstance(dep, TGD):
            out.add(
                TGD(
                    [atom(a, vmap) for a in dep.body],
                    [atom(a, vmap) for a in dep.head],
                    existential=[vmap[v] for v in dep.existential],
                    label=dep.label,
                )
            )
        else:
            out.add(
                EGD([atom(a, vmap) for a in dep.body], vmap[dep.lhs], vmap[dep.rhs],
                    label=dep.label)
            )
    return out, [atom(f, consts) for f in facts]


def _facts_text(facts: list) -> str:
    return " ".join(str(f) for f in facts)


def _grown(database: Any, target: int) -> list:
    """The witness database replicated over fresh constants to ~target facts."""
    from repro.model.atoms import Atom
    from repro.model.terms import Constant

    facts = sorted(database, key=str)
    copies = max(1, target // len(facts))
    return [
        Atom(f.predicate, tuple(Constant(f"{t.value}@{k}") for t in f.args))
        for k in range(copies)
        for f in facts
    ]


def base_inputs(workload: str) -> list[tuple[str, Any, list, dict]]:
    """The seed-free draw: (id, Σ, database facts, params) per operation."""
    if workload == "classify_portfolio":
        from repro.generators.corpus import generate_corpus

        corpus = {
            o.name: o for o in generate_corpus(seed=CORPUS_SEED, **CLASSIFY_CORPUS)
        }
        return [(name, corpus[name].sigma, [], {}) for name in CLASSIFY_PROGRAMS]
    if workload == "table2_batch":
        from repro.generators.corpus import generate_corpus

        return [
            (o.name, o.sigma, [], {"class_name": o.class_name, "character": o.character})
            for o in generate_corpus(seed=CORPUS_SEED, **TABLE2_CORPUS)
        ]
    if workload == "explore_deep":
        from repro.data.witnesses import witness_cases
        from repro.model.parser import parse_dependencies, parse_facts

        cases = {c.name: c for c in witness_cases()}
        out = [(
            "deep",
            parse_dependencies(DEEP_PROGRAM),
            sorted(parse_facts(DEEP_FACTS), key=str),
            {"variant": "standard", "max_depth": DEEP_MAX_DEPTH,
             "max_states": DEEP_MAX_STATES},
        )]
        for name, variant, depth, states in WIDE:
            case = cases[name]
            out.append((
                f"wide:{name}:{variant}",
                case.sigma,
                _grown(case.database, WIDE_FACTS),
                {"variant": variant, "max_depth": depth, "max_states": states},
            ))
        return out
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def make_inputs(workload: str, seed: int | None) -> list[Item]:
    """Render the draw as text; ``seed=None`` keeps the original names
    (what the expected file was generated from)."""
    from repro.model.parser import to_text

    items = []
    for ident, sigma, facts, params in base_inputs(workload):
        if seed is not None:
            sigma, facts = _isomorph(
                sigma, facts, random.Random(f"{workload}/{seed}/{ident}")
            )
        items.append(Item(ident, to_text(sigma), _facts_text(facts), params))
    return items


# -- machine speed --------------------------------------------------------------

#: Seconds the calibration loop takes at the reference speed (its median
#: on the 2-core machine the benchmark was tuned on).
CALIBRATION_REF_S = 0.018


def calibrate() -> float:
    """Seconds a fixed pure-Python loop (integer arithmetic, dict and str
    churn) takes right now.

    The shared machines this runs on change speed by up to ±25% for
    stretches of seconds to minutes, which no statistic over one 30-s run
    can average away.  Timing this loop between operations and scaling
    each operation by ``CALIBRATION_REF_S`` over the loop's time around it
    removes most of that drift (it halved the spread of window medians of
    the explore workload in a 200-s recording).  The loop does not touch
    ``repro``, so a change to the program moves only the numerator.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    table = {}
    for i in range(20_000):
        table[i] = str(i)
    return time.perf_counter() - t0


class OpTimer:
    """Times a pass's operations, sampling machine speed between them
    when ``calibrated`` (untraced passes); traced passes are not
    interrupted, so their spans cover only the program and its glue."""

    def __init__(self, calibrated: bool) -> None:
        self.raw_ms: dict[str, list[float]] = {}
        self.factors: dict[str, list[float]] = {}
        self.calibrated = calibrated
        self._last = calibrate() if calibrated else 0.0

    def time(self, op: str, fn: Callable[[], Any]) -> Any:
        t0 = time.perf_counter()
        result = fn()
        elapsed = (time.perf_counter() - t0) * 1000.0
        factor = 1.0
        if self.calibrated:
            now = calibrate()
            factor = CALIBRATION_REF_S / ((self._last + now) / 2.0)
            self._last = now
        self.raw_ms.setdefault(op, []).append(elapsed)
        self.factors.setdefault(op, []).append(factor)
        return result


# -- one pass ------------------------------------------------------------------


@dataclass
class PassResult:
    """What one pass produced: outputs per item id, per-operation raw
    times and their speed factors, and the count of items processed."""

    outputs: dict[str, dict]
    timer: OpTimer
    items: int

    def op_ms(self, normalised: bool = True) -> dict[str, list[float]]:
        t = self.timer
        if not normalised:
            return t.raw_ms
        return {
            op: [ms * f for ms, f in zip(t.raw_ms[op], t.factors[op])]
            for op in t.raw_ms
        }

    @property
    def ops(self) -> int:
        return sum(len(v) for v in self.timer.raw_ms.values())


def classify_output(report: Any) -> dict:
    return {
        "verdict": report.verdict,
        "criteria": {
            name: ("accepted" if r.accepted else "rejected")
            + ("" if r.exact else ", approximate")
            for name, r in report.results.items()
        },
    }


def run_classify(items: list[Item], workdir: str, timer: OpTimer) -> PassResult:
    from repro.analysis.classify import classify
    from repro.model.parser import parse_dependencies

    outputs = {}
    for it in items:
        report = timer.time(
            it.id,
            lambda: classify(parse_dependencies(it.program), jobs=1, backend="shared"),
        )
        outputs[it.id] = classify_output(report)
    return PassResult(outputs, timer, len(items))


def table2_output(report: Any) -> dict[str, dict]:
    return {
        r.name: {k: r.record["data"][k] for k in ("adorned_size", "semi_acyclic", "chase_halted")}
        for r in report.results
    }


def _evaluate(items: list[Item], cache_dir: str) -> Any:
    from repro.batch.engine import BatchConfig, evaluate_corpus
    from repro.generators.corpus import GeneratedOntology
    from repro.model.parser import parse_dependencies

    corpus = [
        GeneratedOntology(
            name=it.id, class_name=it.params["class_name"],
            sigma=parse_dependencies(it.program), seed=CORPUS_SEED,
            character=it.params["character"],
        )
        for it in items
    ]
    config = BatchConfig(
        mode="evaluate", jobs=1, cache_dir=cache_dir, chase_steps=CHASE_STEPS
    )
    return evaluate_corpus(corpus, config)


def run_table2(items: list[Item], workdir: str, timer: OpTimer) -> PassResult:
    """One cold evaluation into a fresh cache directory, then warm re-runs
    served from it.  Warm outputs are checked too: a re-run must serve
    every record from the cache, unchanged."""
    cache_dir = os.path.join(workdir, f"cache-{time.perf_counter_ns()}")
    cold = timer.time("cold", lambda: _evaluate(items, cache_dir))
    outputs = table2_output(cold)
    for k in range(WARM_RERUNS):
        warm = timer.time("warm", lambda: _evaluate(items, cache_dir))
        if warm.computed or table2_output(warm) != table2_output(cold):
            # Not in the expected file, so it counts as a wrong output.
            outputs[f"warm re-run {k}"] = {"computed": warm.computed}
    return PassResult(outputs, timer, len(items))


def explore_output(result: Any) -> dict:
    return {
        "verdict": result.verdict.name,
        "explored_states": result.explored_states,
        "terminating_paths": result.terminating_paths,
        "failing_paths": result.failing_paths,
        "capped_paths": result.capped_paths,
    }


def run_explore(items: list[Item], workdir: str, timer: OpTimer) -> PassResult:
    from repro.chase.explorer import explore_chase
    from repro.model.parser import parse_dependencies, parse_facts

    outputs = {}
    for it in items:
        result = timer.time(
            it.id,
            lambda: explore_chase(
                parse_facts(it.facts), parse_dependencies(it.program), **it.params
            ),
        )
        outputs[it.id] = explore_output(result)
    return PassResult(outputs, timer, sum(o["explored_states"] for o in outputs.values()))


RUNNERS: dict[str, Callable[[list[Item], str, OpTimer], PassResult]] = {
    "classify_portfolio": run_classify,
    "table2_batch": run_table2,
    "explore_deep": run_explore,
}

#: What one counted item of ``items_per_s`` is, per workload.
ITEM_UNIT = {
    "classify_portfolio": "programs classified",
    "table2_batch": "programs evaluated cold",
    "explore_deep": "chase states explored",
}


def primary_ms(workload: str, op_ms: dict[str, list[float]]) -> float:
    """The time the items of ``items_per_s`` took in one pass: the cold
    run for ``table2_batch``, every operation otherwise."""
    if workload == "table2_batch":
        return op_ms["cold"][0]
    return sum(sum(v) for v in op_ms.values())


def wrong_outputs(expected: dict[str, dict], outputs: dict[str, dict]) -> list[str]:
    """Ids whose output differs from the expected file (or is extra/missing)."""
    return sorted(
        k for k in set(expected) | set(outputs) if expected.get(k) != outputs.get(k)
    )
