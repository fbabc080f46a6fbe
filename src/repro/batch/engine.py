"""Sharded, cached, corpus-scale batch evaluation.

``evaluate_corpus`` turns the one-shot Table 2 pipeline into an
incremental evaluation service:

* **content-addressed reuse** — each program is keyed by its canonical
  fingerprint; a re-run (or a renamed/reordered twin, or a duplicate
  inside one corpus) only evaluates programs whose key or evaluation
  parameters changed, everything else is served from the
  :class:`~repro.batch.cache.ResultCache`;
* **process-pool sharding** — classification is CPU-bound pure-Python
  work, so ``jobs=N`` fans the misses out over *processes* (one program
  is classified on one thread; this layer parallelises the corpus).
  ``shard=(i, n)`` restricts a run to the programs whose key lands in
  shard ``i`` of ``n`` — the same deterministic key-space split on every
  machine, so ``n`` hosts can each take one shard and never duplicate
  work (against one locally-shared cache directory, or — on network
  filesystems, where SQLite's locking is not reliable — against
  per-host directories merged afterwards by exporting each host's store
  to JSONL and importing every export into one store);
* **budgets and interruption** — the PR 2 :class:`~repro.budget.Budget`
  contract crosses the process boundary by value: each worker rebuilds a
  per-program budget from the config's limits, and a blown budget comes
  back as the record's ``exhausted`` field (a verdict, never an
  exception) and is *persisted* so a cached rejection is exactly as
  trustworthy as a fresh one.  SIGINT (or a tripped
  :class:`~repro.budget.Cancellation` token) drains cleanly: finished
  results are already on disk — the cache flushes every completion
  round in one batched transaction (``put_many``) — pending
  work is cancelled, and the report says ``interrupted`` so the CLI can
  exit 1; re-running with the same cache resumes where the run stopped.

The unit of work is selectable: ``mode="evaluate"`` runs the paper's
Section 7 measurement (Adn∃ + bounded-chase ground truth, one
:class:`~repro.analysis.evaluation.OntologyEvaluation` per program) and
``mode="classify"`` runs the full criterion portfolio.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..analysis.classify import ClassifyConfig, classify
from ..analysis.evaluation import OntologyEvaluation, chase_ground_truth
from ..budget import Budget, Cancellation, budget_scope
from ..core.adornment import adn_exists
from ..generators.corpus import GeneratedOntology
from ..io import dependencies_from_json, dependencies_to_json, jsonl_dumps
from ..model.dependencies import DependencySet
from .cache import SCHEMA_VERSION, CacheStats, ResultCache
from .fingerprint import canonical_fingerprint, stable_hash

if TYPE_CHECKING:  # runtime import stays lazy (artifacts pulls in the store)
    from .artifacts import ArtifactStore

MODES = ("evaluate", "classify")


@dataclass
class BatchConfig:
    """Tuning knobs of one batch run.

    ``budget_steps``/``budget_ms`` are **per program** (each worker
    rebuilds a fresh :class:`~repro.budget.Budget` from them — budgets
    hold clocks and locks and do not cross process boundaries by
    reference).  ``shard`` is ``(index, count)``; ``resume=False`` makes
    the run recompute everything while still writing the cache (the
    refresh switch).
    """

    mode: str = "evaluate"
    jobs: int = 1
    cache_dir: str | os.PathLike | None = None
    shard: tuple[int, int] | None = None
    resume: bool = True
    budget_steps: int | None = None
    budget_ms: float | None = None
    chase_steps: int = 1_200
    criteria: list[str] | None = None  # classify mode only

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown batch mode {self.mode!r}; known: {MODES}")
        if self.shard is not None:
            index, count = self.shard
            if count < 1 or not 0 <= index < count:
                raise ValueError(f"bad shard spec {self.shard!r}")

    def params_key(self) -> str:
        """Fingerprint of every parameter that affects a record's payload.

        Sharding, job count and cache location deliberately do not enter:
        they change *which* machine computes a record, never its content.
        """
        return stable_hash(
            {
                "schema": SCHEMA_VERSION,
                "mode": self.mode,
                "budget_steps": self.budget_steps,
                "budget_ms": self.budget_ms,
                "chase_steps": self.chase_steps if self.mode == "evaluate" else None,
                "criteria": self.criteria if self.mode == "classify" else None,
            }
        )


@dataclass
class ProgramResult:
    """One corpus program together with its (possibly cached) record."""

    key: str
    name: str
    class_name: str
    character: str
    size: int
    record: dict
    cached: bool

    @property
    def exhausted(self) -> dict | None:
        return self.record.get("exhausted")

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "name": self.name,
            "class": self.class_name,
            "character": self.character,
            "size": self.size,
            "cached": self.cached,
            **{k: v for k, v in self.record.items() if k != "name"},
        }


@dataclass
class BatchReport:
    """Everything one batch run produced and how it got it."""

    mode: str
    results: list[ProgramResult] = field(default_factory=list)
    computed: int = 0           # programs actually evaluated this run
    hits: int = 0               # programs served from the cache
    deduplicated: int = 0       # served from a twin computed this run
    skipped_other_shards: int = 0
    interrupted: bool = False
    cache_stats: CacheStats | None = None
    #: Firing-edge decisions warm-started from / appended to the
    #: artifact store (classify mode with a cache directory only).
    decisions_preloaded: int = 0
    decisions_recorded: int = 0

    @property
    def any_exhausted(self) -> bool:
        return any(r.exhausted is not None for r in self.results)

    @property
    def complete(self) -> bool:
        """Every selected program has a record (sharding excluded ones
        were never selected, so a sharded run can still be complete)."""
        return not self.interrupted

    @property
    def hit_rate(self) -> float:
        served = self.hits + self.deduplicated + self.computed
        return (self.hits + self.deduplicated) / served if served else 0.0

    def evaluations(self) -> list[OntologyEvaluation]:
        """The records as Table 2 evaluations (``mode="evaluate"`` only)."""
        if self.mode != "evaluate":
            raise ValueError("evaluations() requires mode='evaluate'")
        out = []
        for r in self.results:
            d = r.record["data"]
            out.append(
                OntologyEvaluation(
                    name=r.name,
                    class_name=r.class_name,
                    character=r.character,
                    size=r.size,
                    adorned_size=d["adorned_size"],
                    adn_ms=d["adn_ms"],
                    semi_acyclic=d["semi_acyclic"],
                    chase_halted=d["chase_halted"],
                    halted_strategy=d["halted_strategy"],
                )
            )
        return out

    # -- renderings --------------------------------------------------------

    def to_jsonl(self) -> str:
        return "\n".join(jsonl_dumps(r.to_json()) for r in self.results)

    def render_table(self) -> str:
        head = (
            f"{'program':<24} {'|Σ|':>5} {'verdict':<44} "
            f"{'src':>6} {'ms':>8}"
        )
        lines = [head, "-" * len(head)]
        for r in self.results:
            verdict = _headline(self.mode, r.record)
            if r.exhausted is not None:
                verdict += " [budget]"
            src = "cache" if r.cached else "fresh"
            lines.append(
                f"{r.name:<24} {r.size:>5} {verdict:<44} "
                f"{src:>6} {r.record.get('elapsed_ms', 0.0):>8.1f}"
            )
        lines.append("-" * len(head))
        lines.append(self.summary_line())
        return "\n".join(lines)

    def summary_line(self) -> str:
        bits = [
            f"{len(self.results)} programs",
            f"{self.computed} evaluated",
            f"{self.hits + self.deduplicated} from cache "
            f"(hit rate {self.hit_rate:.0%})",
        ]
        if self.skipped_other_shards:
            bits.append(f"{self.skipped_other_shards} in other shards")
        if self.decisions_preloaded or self.decisions_recorded:
            bits.append(
                f"firing decisions: {self.decisions_preloaded} preloaded, "
                f"{self.decisions_recorded} newly recorded"
            )
        if self.interrupted:
            bits.append("INTERRUPTED (re-run with the same cache to resume)")
        if self.any_exhausted:
            bits.append("some budgets exhausted")
        return "; ".join(bits)


def _headline(mode: str, record: dict) -> str:
    data = record["data"]
    if mode == "evaluate":
        sac = "SAC✓" if data["semi_acyclic"] else "SAC✗"
        chase = "chase halted" if data["chase_halted"] else "no halt"
        return f"{sac}, {chase}"
    return data["verdict"]


# -- the worker (top level: must pickle across the process boundary) -----------


def _evaluate_payload(payload: dict) -> dict:
    """Evaluate one program inside a worker process.

    Rebuilds the dependency set and the per-program budget locally, runs
    the configured mode, and returns a plain-dict record — the only
    currency that crosses the process boundary.
    """
    sigma = dependencies_from_json(payload["sigma"])
    if payload["mode"] == "evaluate":
        return _evaluate_record(sigma, payload)
    return _classify_record(sigma, payload)


def _evaluate_record(sigma: DependencySet, payload: dict) -> dict:
    import time

    budget = None
    if payload["budget_steps"] is not None or payload["budget_ms"] is not None:
        budget = Budget(
            max_steps=payload["budget_steps"], max_ms=payload["budget_ms"]
        )
    start = time.perf_counter()
    with budget_scope(budget):
        t0 = time.perf_counter()
        adn = adn_exists(sigma)
        adn_ms = (time.perf_counter() - t0) * 1000.0
        halted, strategy = chase_ground_truth(
            sigma, max_steps=payload["chase_steps"]
        )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    exhausted = None
    if budget is not None and budget.exhausted is not None:
        e = budget.exhausted
        exhausted = {"dimension": e.dimension, "spent": e.spent, "limit": e.limit}
    return {
        "data": {
            "adorned_size": len(adn.adorned),
            "adn_ms": adn_ms,
            "semi_acyclic": adn.acyclic,
            "chase_halted": halted,
            "halted_strategy": strategy,
            "exact": adn.exact,
        },
        "exhausted": exhausted,
        "elapsed_ms": elapsed_ms,
    }


def _classify_record(sigma: DependencySet, payload: dict) -> dict:
    import time

    from ..firing.relations import DecisionCache
    from .artifacts import decisions_to_json, dependency_codes, seed_decisions

    # Warm-start the firing-decision layer from the artifact store, run
    # the portfolio's shared context on top of it, and ship the (possibly
    # grown) decision set back for persistence.  A None payload means no
    # artifact store exists: then Σ is never canonicalised at all.
    stored = payload.get("decisions")
    codes = dependency_codes(sigma) if stored is not None else None
    decisions = DecisionCache()
    if stored:
        seed_decisions(sigma, stored, decisions, codes=codes)
    start = time.perf_counter()
    report = classify(
        sigma,
        config=ClassifyConfig(
            criteria=payload["criteria"],
            budget_steps=payload["budget_steps"],
            budget_ms=payload["budget_ms"],
        ),
        decisions=decisions,
    )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    decision_stats = decisions.stats()
    exhausted = None
    for r in report.results.values():
        if r.exhausted is not None:
            exhausted = {
                "dimension": r.exhausted.dimension,
                "spent": r.exhausted.spent,
                "limit": r.exhausted.limit,
                "criterion": r.criterion,
            }
            break
    return {
        "data": {
            "verdict": report.verdict,
            "accepted_by": report.accepted_by,
            "criteria": {
                name: {
                    "accepted": r.accepted,
                    "exact": r.exact,
                    "exhausted": str(r.exhausted) if r.exhausted else None,
                }
                for name, r in report.results.items()
            },
        },
        "exhausted": exhausted,
        "elapsed_ms": elapsed_ms,
        # Transient (stripped before the record enters the result cache):
        # the decisions to persist and how warm the run started.
        "artifacts": None
        if stored is None
        else {
            "oracle": decisions_to_json(sigma, decisions, codes=codes),
            "preloaded": decision_stats["preloaded"],
        },
    }


# -- the engine ----------------------------------------------------------------


def shard_of(key: str, count: int) -> int:
    """The deterministic shard a fingerprint belongs to (stable across
    machines and runs: derived from the key, not from corpus order)."""
    return int(key[:8], 16) % count


def evaluate_corpus(
    corpus: list[GeneratedOntology],
    config: BatchConfig | None = None,
    cancellation: Cancellation | None = None,
) -> BatchReport:
    """Evaluate a corpus through the cache, pool and shard machinery.

    Results come back in corpus order regardless of completion order.
    ``cancellation`` is the programmatic stand-in for SIGINT: once
    tripped, no new program starts, in-flight work is drained, and the
    report is marked interrupted.
    """
    config = config or BatchConfig()
    params = config.params_key()
    report = BatchReport(mode=config.mode)
    # Workers never see these handles: the parent is the only writer, and
    # the store's connections are pid-guarded anyway (a handle inherited
    # across the pool's fork reopens in the child rather than sharing the
    # parent's connection).
    cache = ResultCache(config.cache_dir) if config.cache_dir is not None else None
    # The artifact store rides next to the result cache: classify misses
    # (new programs, or old programs under new evaluation parameters)
    # warm-start their firing-decision layer from earlier runs.
    store = None
    if cache is not None and config.mode == "classify":
        from .artifacts import ArtifactStore

        store = ArtifactStore(config.cache_dir)

    # Fingerprint everything up front (cheap, pure) and decide each
    # program's fate: other shard / cache hit / needs computing.
    keyed = [(canonical_fingerprint(ont.sigma), ont) for ont in corpus]
    slots: dict[str, ProgramResult] = {}
    pending: dict[str, GeneratedOntology] = {}
    ordered: list[tuple[str, GeneratedOntology]] = []
    for key, ont in keyed:
        if config.shard is not None:
            index, count = config.shard
            if shard_of(key, count) != index:
                report.skipped_other_shards += 1
                continue
        ordered.append((key, ont))
        if key in slots or key in pending:
            continue  # a twin already decided this key's fate
        record = cache.get(key, params) if cache and config.resume else None
        if record is not None:
            slots[key] = _program_result(key, ont, record, cached=True)
            report.hits += 1
        else:
            pending[key] = ont

    try:
        if pending:
            _run_pending(
                pending, config, params, cache, store, cancellation, slots, report
            )
    except KeyboardInterrupt:
        report.interrupted = True
    finally:
        if cache is not None:
            report.cache_stats = cache.stats
            cache.close()
        if store is not None:
            store.close()

    for key, ont in ordered:
        done = slots.get(key)
        if done is None:
            continue  # interrupted before this program was reached
        if done.name != ont.name:
            # A twin's record serves this program: re-wrap it under the
            # program's own identity (the payload is shared).
            done = _program_result(key, ont, done.record, cached=done.cached)
            report.deduplicated += 1
        report.results.append(done)
    return report


def _program_result(
    key: str, ont: GeneratedOntology, record: dict, cached: bool
) -> ProgramResult:
    return ProgramResult(
        key=key,
        name=ont.name,
        class_name=ont.class_name,
        character=ont.character,
        size=len(ont.sigma),
        record=record,
        cached=cached,
    )


def _payload(
    key: str,
    ont: GeneratedOntology,
    config: BatchConfig,
    store: ArtifactStore | None = None,
) -> dict:
    return {
        "key": key,
        "mode": config.mode,
        "sigma": dependencies_to_json(ont.sigma),
        "budget_steps": config.budget_steps,
        "budget_ms": config.budget_ms,
        "chase_steps": config.chase_steps,
        "criteria": config.criteria,
        "decisions": store.get(key) if store is not None else None,
    }


def _cancelled(cancellation: Cancellation | None) -> bool:
    return cancellation is not None and cancellation.cancelled


def _run_pending(
    pending: dict[str, GeneratedOntology],
    config: BatchConfig,
    params: str,
    cache: ResultCache | None,
    store: ArtifactStore | None,
    cancellation: Cancellation | None,
    slots: dict[str, ProgramResult],
    report: BatchReport,
) -> None:
    def finish_batch(items: list[tuple[str, dict]]) -> None:
        batch: list[tuple[str, dict]] = []
        for key, raw in items:
            record = dict(raw)
            # The decision layer is persisted into the artifact store,
            # not into the result record (which must stay stable across
            # warm and cold runs of the same program).
            artifacts = record.pop("artifacts", None)
            if artifacts is not None:
                report.decisions_preloaded += artifacts.get("preloaded", 0)
                if store is not None:
                    report.decisions_recorded += store.put(
                        key, artifacts.get("oracle", [])
                    )
            record["name"] = pending[key].name
            batch.append((key, record))
        # One durable write for the whole round: the cache flush comes
        # BEFORE the report/slots update, so a crash between the two can
        # claim less than the cache holds but never more.
        if cache is not None:
            cache.put_many([(key, params, record) for key, record in batch])
        for key, record in batch:
            slots[key] = _program_result(key, pending[key], record, cached=False)
            report.computed += 1

    if config.jobs <= 1:
        # Sequential runs keep the per-record durability unit: each
        # program is flushed before the next one starts.
        for key in list(pending):
            if _cancelled(cancellation):
                report.interrupted = True
                return
            finish_batch(
                [(key, _evaluate_payload(_payload(key, pending[key], config, store)))]
            )
        return

    if _cancelled(cancellation):  # tripped before anything started
        report.interrupted = True
        return

    # Submission is eager (unlike the classify portfolio there is no
    # short-circuit decision to wait for), completion handling is
    # incremental: every finished record is flushed to the cache before
    # the next wait, so an interrupt never loses completed work.  The
    # wait is time-sliced so a tripped cancellation token is honoured
    # within ~100ms even while every worker is deep inside a program —
    # in-flight programs still run to completion (worker processes hold
    # no reference to the token), but nothing new is collected and
    # pending futures are cancelled.
    with ProcessPoolExecutor(max_workers=config.jobs) as pool:
        running = {
            pool.submit(_evaluate_payload, _payload(key, ont, config, store)): key
            for key, ont in pending.items()
        }
        try:
            while running:
                done, _ = wait(
                    running, timeout=0.1, return_when=FIRST_COMPLETED
                )
                # Everything that completed this round drains through ONE
                # batched cache write (put_many) instead of one commit per
                # program; an interrupt still loses nothing because the
                # flush happens before the next wait.
                finish_batch([(running.pop(fut), fut.result()) for fut in done])
                if _cancelled(cancellation):
                    raise KeyboardInterrupt
        except KeyboardInterrupt:
            for fut in running:
                fut.cancel()
            pool.shutdown(wait=False, cancel_futures=True)
            report.interrupted = True
