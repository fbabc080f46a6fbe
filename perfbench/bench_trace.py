"""Span recorder and layer wrappers for the traced benchmark run.

Tracing lives entirely in the benchmark: :func:`traced` replaces the
public entry point of each layer of ``repro`` with a wrapper that opens a
span (name, parent, start, end) around the call and bumps the layer's
counters, runs the body, and then puts every original back.  Nothing under
``src/`` knows it is being traced.

The recorder is single-threaded by design (the workloads run with
``jobs=1``): one stack of open spans, so every span's parent is the span
that was open when it started, and children never overlap.  A span's
*self time* is its duration minus the durations of its direct children.

Functions that return lazy iterators (the matching layer) are wrapped
twice: once around the call that builds the iterator and once around
every ``next()``, because the matching work happens while the caller
pulls results, inside the caller's own span.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: The root span of a traced pass: the benchmark's own code between calls
#: into the program, i.e. the time no wrapped layer accounts for.
ROOT_LAYER = "bench"


def layer_of(name: str) -> str:
    """The layer a span's self time is charged to: the first dotted
    component of its name, except for the explorer's memo key, which is
    reported on its own."""
    if name.startswith("explorer.memo_key"):
        return "explorer.memo_key"
    return name.split(".", 1)[0]


class Recorder:
    """In-memory spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self._thread = threading.get_ident()

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        top = self.stack.pop()
        if top != sid:
            raise RuntimeError(f"span {self.names[sid]} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    # -- derived figures ------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        dur = self.durations()
        own = list(dur)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[sid]
        return own

    def layer_self_ms(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, own in zip(self.names, self.self_times()):
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + own * 1000.0
        return out

    def inclusive_ms(self, prefix: str) -> dict[str, float]:
        """Summed durations of the spans named ``prefix<suffix>``, by
        suffix.  Nested spans of one name (a criterion checked inside
        another) are counted once, at the outermost."""
        out: dict[str, float] = {}
        dur = self.durations()
        names = self.names
        for sid, name in enumerate(names):
            if not name.startswith(prefix):
                continue
            parent = self.parents[sid]
            nested = False
            while parent >= 0:
                if names[parent] == name:
                    nested = True
                    break
                parent = self.parents[parent]
            if not nested:
                key = name[len(prefix):]
                out[key] = out.get(key, 0.0) + dur[sid] * 1000.0
        return out

    def write(self, path: str, header: dict) -> None:
        """Write every span as one tab-separated line after a JSON header."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            t0 = self.starts[0] if self.starts else 0.0
            for sid, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(
                    f"{sid}\t{parent}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\n"
                )


# -- wrappers -------------------------------------------------------------


def _wrap_call(
    rec: Recorder,
    fn: Callable,
    name: str | Callable[..., str],
    after: Callable[[Recorder, Any, tuple, dict], None] | None = None,
) -> Callable:
    dynamic = callable(name)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        sid = rec.begin(name(*args, **kwargs) if dynamic else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(sid)
        if after is not None:
            after(rec, result, args, kwargs)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


class _TimedIterator:
    """An iterator whose every ``next()`` is one span."""

    __slots__ = ("_it", "_rec", "_name")

    def __init__(self, it: Iterator, rec: Recorder, name: str) -> None:
        self._it = it
        self._rec = rec
        self._name = name

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        rec = self._rec
        sid = rec.begin(self._name)
        try:
            return next(self._it)
        finally:
            rec.end(sid)


def _wrap_iter(rec: Recorder, fn: Callable, name: str, counter: str) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rec.counts[counter] += 1
        sid = rec.begin(name)
        try:
            it = iter(fn(*args, **kwargs))
        finally:
            rec.end(sid)
        return _TimedIterator(it, rec, name)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


# -- patching ---------------------------------------------------------------


class Patches:
    """Every attribute replaced for one traced pass, restorable in one go."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def function(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` and every ``repro`` module global bound
        to the same function object (``from x import f`` copies)."""
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @property
    def saved(self) -> list[tuple[object, str, object]]:
        return list(self._saved)


def _after_adn(rec: Recorder, result: Any, args: tuple, kwargs: dict) -> None:
    algorithm = args[0]
    rec.counts["adn.calls"] += 1
    rec.counts["adn.input_deps"] += len(algorithm.sigma)
    rec.counts["adn.adorned_deps"] += len(result.adorned)


def _after_runner(rec: Recorder, result: Any, args: tuple, kwargs: dict) -> None:
    rec.counts["runner.calls"] += 1
    rec.counts["runner.steps"] += result.step_count


def _after_batch(rec: Recorder, report: Any, args: tuple, kwargs: dict) -> None:
    rec.counts["batch.computed"] += report.computed
    rec.counts["batch.hits"] += report.hits + report.deduplicated


def _after_explore(rec: Recorder, result: Any, args: tuple, kwargs: dict) -> None:
    rec.counts["explorer.states"] += result.explored_states


def _after_probe(rec: Recorder, decision: Any, args: tuple, kwargs: dict) -> None:
    rec.counts["firing.decisions_probed"] += 1
    if decision.edge:
        rec.counts["witness.edges"] += 1


def _counting(rec: Recorder, counter: str, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rec.counts[counter] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _counted_call(rec: Recorder, fn: Callable, name: str, counter: str) -> Callable:
    return _counting(rec, counter, _wrap_call(rec, fn, name))


#: AnalysisContext memo keys -> the artifact names reported per build.
ARTIFACTS = {
    "firing_graph": "firing_graph",
    "chase_graph": "chase_graph",
    "restriction_graph": "restriction_graph",
    "adn_exists": "adn_result",
    "ac_rewriting": "ac_rewriting",
    "critical_instance": "critical_instance",
    "skolem_rules": "skolem_rules",
    "simulated": "simulated",
}


def _install(rec: Recorder, patches: Patches) -> None:
    """Wrap the public entry of every layer the benchmark reports on."""
    from repro.analysis.context import AnalysisContext
    from repro.batch.cache import ResultCache
    from repro.chase.runner import ChaseRunner
    from repro.core.adornment import AdornmentAlgorithm
    from repro.criteria.base import TerminationCriterion
    from repro.firing.relations import DecisionCache, FiringOracle
    from repro.firing.witness import WitnessEngine
    from repro.model.columnar import ColumnarInstance

    # model.parser
    for attr in ("parse_dependencies", "parse_facts"):
        patches.function(
            "repro.model.parser", attr,
            lambda f: _counted_call(rec, f, "parser", "parser.calls"),
        )
    # batch.fingerprint
    patches.function(
        "repro.batch.fingerprint", "canonical_fingerprint",
        lambda f: _counted_call(rec, f, "fingerprint", "fingerprint.calls"),
    )
    # store
    patches.method(ResultCache, "get", lambda f: _counted_call(rec, f, "store.get", "store.get_calls"))
    patches.method(ResultCache, "put", lambda f: _counted_call(rec, f, "store.put", "store.put_calls"))
    patches.method(ResultCache, "put_many", lambda f: _counted_call(rec, f, "store.put", "store.put_calls"))
    patches.method(ResultCache, "__init__", lambda f: _wrap_call(rec, f, "store.open"))
    patches.method(ResultCache, "close", lambda f: _wrap_call(rec, f, "store.open"))
    # batch.engine
    patches.function(
        "repro.batch.engine", "evaluate_corpus",
        lambda f: _wrap_call(rec, f, "batch", _after_batch),
    )

    # analysis.context: every artifact request goes through _get; the
    # build closure it receives runs only on a miss.
    def wrap_get(original: Callable) -> Callable:
        def _get(self: Any, key: tuple, build: Callable, deterministic: Any = None) -> Any:
            rec.counts["context.artifact_requests"] += 1
            artifact = ARTIFACTS.get(key[0], "other")

            def timed_build() -> Any:
                rec.counts["context.artifact_builds"] += 1
                with rec.span("context.build." + artifact):
                    return build()

            return original(self, key, timed_build, deterministic)

        return _get

    patches.method(AnalysisContext, "_get", wrap_get)
    # criteria
    patches.method(
        TerminationCriterion, "check",
        lambda f: _wrap_call(rec, f, lambda self, *a, **k: "criteria." + self.name),
    )
    # firing.relations
    for attr in ("precedes", "fires"):
        patches.method(FiringOracle, attr, lambda f: _counted_call(rec, f, "firing", "firing.queries"))
    patches.method(DecisionCache, "_on_hit", lambda f: _counting(rec, "firing.decision_hits", f))
    # firing.witness
    patches.method(WitnessEngine, "__init__", lambda f: _counted_call(rec, f, "witness", "witness.engines"))
    for attr in ("precedes", "fires"):
        patches.method(WitnessEngine, attr, lambda f: _wrap_call(rec, f, "witness", _after_probe))
    # core.adornment
    patches.method(AdornmentAlgorithm, "run", lambda f: _wrap_call(rec, f, "adn", _after_adn))
    # chase.runner
    patches.method(ChaseRunner, "run", lambda f: _wrap_call(rec, f, "runner", _after_runner))
    # chase.skolem
    for attr in ("skolemise", "saturate", "critical_instance"):
        patches.function("repro.chase.skolem", attr, lambda f: _wrap_call(rec, f, "skolem"))
    # matching
    patches.function("repro.matching", "homomorphisms", lambda f: _wrap_iter(rec, f, "matching", "matching.calls"))
    patches.function("repro.matching.engine", "delta_homomorphisms", lambda f: _wrap_iter(rec, f, "matching", "matching.calls"))
    patches.function("repro.matching.plans", "delta_row_homomorphisms", lambda f: _wrap_iter(rec, f, "matching", "matching.calls"))
    # chase.explorer: the public entry plus the memo key it computes per
    # state (``_memo_key``; ``canonical_key`` is its non-columnar fallback).
    patches.function(
        "repro.chase.explorer", "explore_chase",
        lambda f: _wrap_call(rec, f, "explorer", _after_explore),
    )
    patches.function("repro.chase.explorer", "_memo_key", lambda f: _wrap_call(rec, f, "explorer.memo_key"))
    # model.columnar: branch forks (copy, savepoint) and their unwinding.
    for attr in ("copy", "savepoint"):
        patches.method(ColumnarInstance, attr, lambda f: _counted_call(rec, f, "columnar", "columnar.forks"))
    patches.method(ColumnarInstance, "rollback", lambda f: _wrap_call(rec, f, "columnar"))


# -- what a traced pass reports ------------------------------------------------

CRITERIA = ("WA", "SC", "SwA", "AC", "LS", "MSA", "MFA", "CStr", "SR", "IR",
            "Str", "S-Str", "SAC")

#: Layers in the order the per-layer table prints them.
LAYERS = ("bench", "parser", "fingerprint", "store", "batch", "context",
          "criteria", "firing", "witness", "adn", "runner", "skolem",
          "matching", "explorer", "explorer.memo_key", "columnar")

#: The self-time metric of each layer (two layers report it under the
#: name of the work they do).
SELF_METRIC = {layer: f"{layer}.self_ms" for layer in LAYERS}
SELF_METRIC["explorer.memo_key"] = "explorer.memo_key_ms"
SELF_METRIC["columnar"] = "columnar.fork_ms"

#: Counters copied verbatim from a traced pass.
COUNTERS = (
    "parser.calls", "fingerprint.calls", "store.get_calls", "store.put_calls",
    "batch.computed", "batch.hits", "context.artifact_builds", "firing.queries",
    "firing.decisions_probed", "firing.decision_hits", "witness.engines",
    "adn.calls", "runner.calls", "runner.steps", "matching.calls",
    "explorer.states", "columnar.forks",
)


def figure_units() -> dict[str, str]:
    """Every per-layer figure a traced pass yields, times in ms: name -> unit."""
    units = {
        "trace.untraced_wall_s": "s",
        "trace.traced_wall_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.spans": "count",
    }
    units.update({SELF_METRIC[layer]: "ms" for layer in LAYERS})
    units.update({name: "count" for name in COUNTERS})
    units.update({
        "context.artifact_hits": "count",
        "store.get_ms": "ms",
        "store.put_ms": "ms",
        "store.open_ms": "ms",
        "witness.edge_ratio": "ratio",
        "adn.adorned_ratio": "ratio",
    })
    units.update({f"context.build_ms.{a}": "ms" for a in ARTIFACTS.values()})
    units.update({f"criteria.{c}.ms": "ms" for c in CRITERIA})
    return units


def figures(rec: Recorder) -> dict[str, float]:
    """The per-layer figures of one traced pass whose root span is the
    first span recorded; ``trace.untraced_wall_s`` and
    ``trace.overhead_ratio`` need the untraced passes and are the caller's."""
    counts = rec.counts
    layer_ms = rec.layer_self_ms()
    fig: dict[str, float] = {
        "trace.traced_wall_s": rec.durations()[0],
        "trace.spans": len(rec.names),
    }
    for layer in LAYERS:
        fig[SELF_METRIC[layer]] = layer_ms.get(layer, 0.0)
    for name in COUNTERS:
        fig[name] = counts.get(name, 0)
    fig["context.artifact_hits"] = (
        counts.get("context.artifact_requests", 0)
        - counts.get("context.artifact_builds", 0)
    )
    store = rec.inclusive_ms("store.")
    for op in ("get", "put", "open"):
        fig[f"store.{op}_ms"] = store.get(op, 0.0)
    builds = rec.inclusive_ms("context.build.")
    for artifact in ARTIFACTS.values():
        fig[f"context.build_ms.{artifact}"] = builds.get(artifact, 0.0)
    checks = rec.inclusive_ms("criteria.")
    for c in CRITERIA:
        fig[f"criteria.{c}.ms"] = checks.get(c, 0.0)
    engines = counts.get("witness.engines", 0)
    fig["witness.edge_ratio"] = counts.get("witness.edges", 0) / engines if engines else 0.0
    deps = counts.get("adn.input_deps", 0)
    fig["adn.adorned_ratio"] = counts.get("adn.adorned_deps", 0) / deps if deps else 0.0
    return fig


def pct_name(name: str) -> str:
    """The reported name of a millisecond figure (``x.self_ms`` ->
    ``x.self_pct``, ``criteria.WA.ms`` -> ``criteria.WA.pct``)."""
    return name.replace("_ms", "_pct") if "_ms" in name else name.removesuffix("ms") + "pct"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports: name -> unit.

    Times are reported as a percentage of the traced pass's wall time
    (the printed table and the span file keep milliseconds): a layer a
    workload never enters reads exactly 0 on every run, which is the
    point of a "should not move" cell, and a percentage is not mistaken
    for a timer stuck at one value.
    """
    return dict(
        (pct_name(n), "%") if u == "ms" else (n, u) for n, u in figure_units().items()
    )


def report(figs: dict[str, float]) -> dict[str, float]:
    """Convert figures to the reported metrics (ms -> % of traced wall)."""
    units = figure_units()
    wall_ms = figs["trace.traced_wall_s"] * 1000.0
    return {
        (pct_name(n) if units[n] == "ms" else n): (
            100.0 * v / wall_ms if units[n] == "ms" else v
        )
        for n, v in figs.items()
    }


def count_figures(rec: Recorder) -> dict[str, float]:
    """The exact counters of one traced pass (run-to-run reproducible)."""
    units = figure_units()
    return {k: v for k, v in figures(rec).items() if units.get(k) == "count"}


@contextmanager
def traced(rec: Recorder) -> Iterator[Patches]:
    """Install every layer wrapper for the duration of the block."""
    if threading.get_ident() != rec._thread:
        raise RuntimeError("a Recorder is bound to the thread that made it")
    patches = Patches()
    try:
        _install(rec, patches)
        yield patches
    finally:
        patches.restore()
