"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``classify FILE``
    Run the termination-criterion portfolio on a dependency file.

``chase FILE --data FACTS``
    Run a chase (variant/strategy selectable) and print the result.

``adorn FILE``
    Run Adn∃ and print the adorned dependencies, definitions and Acyc.

``graph FILE``
    Print the chase graph and firing graph (optionally as DOT).

``explore FILE --data FACTS``
    Exhaustively explore the chase's nondeterminism within bounds.

``batch FILE... | batch --corpus``
    Batch-evaluate many programs through the sharded, content-addressed
    result cache (``repro.batch``): ``--jobs`` fans out over processes,
    ``--cache-dir`` makes re-runs incremental and interrupted runs
    resumable, ``--shard I/N`` splits the key space across machines,
    ``--store sqlite|jsonl`` selects the cache's backend (DESIGN.md §7).

``batch query --cache-dir DIR``
    Filter/sort/paginate the verdicts stored in a cache directory
    (keyset cursors — the surface a result-serving API sits on).

``batch export-jsonl | batch import-jsonl``
    Move a cache directory to/from the portable JSONL snapshot format.

(``batch FILE...`` is shorthand for ``batch run FILE...`` — the bare
form stays the way it always was.)

``lint [PATH...]``
    Run the project's AST invariant checker (:mod:`repro.devtools.lint`)
    over ``src``/``tests``/``benchmarks`` (or the given paths).  Each
    rule enforces a DESIGN.md section (see §8); exit 0 means no
    unsuppressed, unbaselined finding.  ``--format json`` for CI,
    ``--write-baseline`` to grandfather the current findings.

Dependency files use the syntax of :mod:`repro.model.parser`; facts files
contain atoms such as ``N("a") E("a","b")``.

Every command exits with ``EXIT_INPUT_ERROR`` (3) when its input cannot be
used — an unreadable or missing file, or a program or facts text the
parser rejects — after printing one ``repro: error: ...`` line (with the
parser's line and column) to stderr.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from .analysis import classify
from .chase import explore_chase, run_chase
from .core import adn_exists
from .firing import chase_graph, firing_graph, render_graph
from .firing.graphs import to_dot
from .model import (
    ColumnarInstance,
    DependencySet,
    ParseError,
    parse_dependencies,
    parse_facts,
)

#: Exit code for unusable input: an unreadable file or malformed text.
EXIT_INPUT_ERROR = 3


def _load_sigma(path: str) -> DependencySet:
    return parse_dependencies(pathlib.Path(path).read_text())


def _load_facts(spec: str) -> ColumnarInstance:
    p = pathlib.Path(spec)
    text = p.read_text() if p.exists() else spec
    return parse_facts(text)


def cmd_classify(args: argparse.Namespace) -> int:
    """Run the criterion portfolio.

    Exit codes mirror ``repro chase``: 0 — some criterion accepts;
    1 — every criterion rejects with its analysis complete; 2 — no
    acceptance and some criterion exhausted its budget, so the rejection
    cannot be trusted.
    """
    sigma = _load_sigma(args.file)
    criteria = args.criteria.split(",") if args.criteria else None
    report = classify(
        sigma,
        criteria=criteria,
        jobs=args.jobs,
        budget_steps=args.budget_steps,
        budget_ms=args.budget_ms,
        short_circuit=args.short_circuit,
        hierarchy=args.hierarchy,
    )
    print(report)
    if args.stats:
        print()
        print(report.render_stats())
    if report.guarantees_exists:
        return 0
    return 2 if report.any_exhausted else 1


def cmd_chase(args: argparse.Namespace) -> int:
    """Run one chase sequence; exit 0 on termination, 2 on budget."""
    sigma = _load_sigma(args.file)
    db = _load_facts(args.data)
    result = run_chase(
        db,
        sigma,
        variant=args.variant,
        strategy=args.strategy,
        max_steps=args.max_steps,
    )
    print(f"status: {result.status.value} after {result.step_count} steps")
    if result.instance is not None:
        for fact in sorted(result.instance, key=str):
            print(f"  {fact}")
    return 0 if result.terminated else 2


def cmd_adorn(args: argparse.Namespace) -> int:
    """Run Adn∃; exit 0 iff Acyc is true."""
    sigma = _load_sigma(args.file)
    result = adn_exists(sigma)
    approx = ""
    if not result.exact:
        approx = f"   ~approximate ({result.stats['stopped']})"
    print(f"Acyc = {result.acyclic}   |Σ| = {len(sigma)}   "
          f"|Σµ| = {result.stats['size_adorned']}   "
          f"({result.stats['elapsed_ms']:.1f} ms){approx}")
    print("\nadorned dependencies:")
    for rec in result.records:
        marker = "·" if rec.is_bridge else "+"
        print(f"  {marker} {rec.dep}")
    if result.definitions:
        print("\nadornment definitions:")
        for d in result.definitions:
            print(f"  {d}")
    return 0 if result.acyclic else 1


def cmd_graph(args: argparse.Namespace) -> int:
    """Print the chase and firing graphs (text or DOT)."""
    sigma = _load_sigma(args.file)
    g = chase_graph(sigma)
    gf = firing_graph(sigma)
    if args.dot:
        print(to_dot(g, "chase_graph"))
        print(to_dot(gf, "firing_graph"))
    else:
        print(render_graph(g, "Chase graph G(Σ)"))
        print()
        print(render_graph(gf, "Firing graph Gf(Σ)"))
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    """Explore every chase sequence; exit 0 iff one terminates."""
    sigma = _load_sigma(args.file)
    db = _load_facts(args.data)
    result = explore_chase(
        db, sigma, variant=args.variant,
        max_depth=args.max_depth, max_states=args.max_states,
    )
    print(f"verdict: {result.verdict.value}")
    print(f"  terminating leaves: {result.terminating_paths}")
    print(f"  failing leaves:     {result.failing_paths}")
    print(f"  cut-off paths:      {result.capped_paths}")
    print(f"  states explored:    {result.explored_states}")
    return 0 if result.some_terminating else 1


def _parse_shard(spec: str | None) -> tuple[int, int] | None:
    if spec is None:
        return None
    try:
        index, count = (int(part) for part in spec.split("/", 1))
    except ValueError:
        raise SystemExit(f"bad --shard {spec!r}: expected I/N, e.g. 0/4")
    if count < 1 or not 0 <= index < count:
        raise SystemExit(f"bad --shard {spec!r}: need 0 <= I < N")
    return (index, count)


def cmd_batch(args: argparse.Namespace) -> int:
    """Batch-evaluate dependency files or the synthetic corpus.

    Exit codes extend the ``classify`` contract to a whole corpus:
    0 — every selected program evaluated, no budget trouble; 1 — the run
    is incomplete (interrupted; re-run with the same ``--cache-dir`` to
    resume); 2 — complete, but some program exhausted its budget, so its
    recorded rejection cannot be trusted.
    """
    from .batch import BatchConfig, evaluate_corpus
    from .generators.corpus import GeneratedOntology, generate_corpus

    if bool(args.files) == bool(args.corpus):
        raise SystemExit("batch needs dependency files or --corpus (not both)")
    if args.corpus:
        classes = args.corpus_classes.split(",") if args.corpus_classes else None
        programs = generate_corpus(
            scale=args.corpus_scale,
            tests_scale=args.corpus_tests_scale,
            classes=classes,
        )
    else:
        programs = [
            GeneratedOntology(
                name=pathlib.Path(f).stem,
                class_name="file",
                sigma=_load_sigma(f),
                seed=0,
                character="file",
            )
            for f in args.files
        ]
    config = BatchConfig(
        mode=args.mode,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        store=args.store,
        shard=_parse_shard(args.shard),
        resume=args.resume,
        budget_steps=args.budget_steps,
        budget_ms=args.budget_ms,
        chase_steps=args.chase_steps,
        criteria=args.criteria.split(",") if args.criteria else None,
    )
    report = evaluate_corpus(programs, config)
    if args.format == "jsonl":
        if report.results:
            print(report.to_jsonl())
        print(report.summary_line(), file=sys.stderr)
    else:
        print(report.render_table())
    if not report.complete:
        return 1
    return 2 if report.any_exhausted else 0


def _open_store(args) -> tuple:
    """The (ResultCache, ArtifactStore) pair of a cache directory."""
    from .batch import ArtifactStore, ResultCache

    cache = ResultCache(args.cache_dir, backend=args.store)
    store = ArtifactStore(args.cache_dir, backend=args.store)
    return cache, store


def cmd_batch_export(args: argparse.Namespace) -> int:
    """Snapshot a cache directory as portable JSONL files."""
    from .store import export_jsonl

    cache, store = _open_store(args)
    try:
        results_text, artifacts_text, report = export_jsonl(cache, store)
    finally:
        cache.close()
        store.close()
    if args.output is None:
        sys.stdout.write(results_text)
        print(f"exported {report.summary()}", file=sys.stderr)
        return 0
    out = pathlib.Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.jsonl").write_text(results_text)
    (out / "artifacts.jsonl").write_text(artifacts_text)
    print(f"exported {report.summary()} to {out}")
    return 0


def cmd_batch_import(args: argparse.Namespace) -> int:
    """Replay JSONL snapshots into a cache directory's store."""
    from .store import import_jsonl

    source = pathlib.Path(args.input if args.input else args.cache_dir)
    results_path = source / "results.jsonl"
    artifacts_path = source / "artifacts.jsonl"
    if not results_path.exists() and not artifacts_path.exists():
        raise SystemExit(f"nothing to import: no JSONL snapshot in {source}")
    cache, store = _open_store(args)
    try:
        report = import_jsonl(
            cache,
            results_path.read_text() if results_path.exists() else "",
            store,
            artifacts_path.read_text() if artifacts_path.exists() else "",
        )
    finally:
        cache.close()
        store.close()
    print(f"imported {report.summary()} into {args.cache_dir}")
    return 0


def cmd_batch_query(args: argparse.Namespace) -> int:
    """Query the stored verdicts of a cache directory.

    Exit 0 with rows on stdout; the keyset cursor for the next page (if
    any) goes to stderr so piped output stays clean.
    """
    import json

    from .batch import ResultCache
    from .io import jsonl_dumps
    from .store import QueryError, ResultQuery

    cache = ResultCache(args.cache_dir, backend=args.store)
    if getattr(args, "stats", False):
        try:
            print(json.dumps(cache.stats_snapshot(), indent=2, sort_keys=True))
        finally:
            cache.close()
        return 0
    try:
        page = cache.query(
            ResultQuery(
                verdict=args.verdict,
                criterion=args.criterion,
                exhausted=args.exhausted,
                key_prefix=args.key_prefix,
                sort=args.sort,
                limit=args.limit,
                cursor=args.cursor,
            )
        )
    except QueryError as exc:
        raise SystemExit(f"bad query: {exc}")
    finally:
        cache.close()
    if args.format == "jsonl":
        for row in page.rows:
            print(jsonl_dumps(row))
    else:
        head = (
            f"{'key':<16} {'program':<24} {'verdict':<44} "
            f"{'budget':>6} {'ms':>8}"
        )
        print(head)
        print("-" * len(head))
        for row in page.rows:
            # elapsed_ms is nullable: a record that never measured
            # wall-clock renders blank, not a fake 0.0.
            ms = row["elapsed_ms"]
            print(
                f"{row['key'][:16]:<16} {row['name']:<24} "
                f"{row['verdict']:<44} "
                f"{row['exhausted'] or '':>6} "
                f"{'' if ms is None else f'{ms:.1f}':>8}"
            )
        print("-" * len(head))
        print(f"{len(page.rows)} rows")
    if page.next_cursor is not None:
        print(f"next cursor: {page.next_cursor}", file=sys.stderr)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the DESIGN.md invariant checker (DESIGN.md §8).

    Exit 0 — clean (baselined/suppressed findings allowed); 1 — at least
    one unsuppressed, unbaselined finding; 2 — usage trouble (bad path,
    malformed baseline).
    """
    from collections import Counter

    from .devtools.lint import (
        BASELINE_NAME,
        DEFAULT_PATHS,
        all_rules,
        load_baseline,
        render_json,
        render_text,
        run_lint,
        save_baseline,
    )

    root = pathlib.Path(args.root).resolve()
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name:<28} {rule.section:<7} {rule.summary}")
        return 0
    baseline_path = pathlib.Path(
        args.baseline if args.baseline else root / BASELINE_NAME
    )
    try:
        baseline = Counter() if args.no_baseline else load_baseline(baseline_path)
    except ValueError as exc:
        print(f"bad baseline: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_lint(
            root, args.paths or DEFAULT_PATHS, baseline=baseline
        )
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.write_baseline:
        save_baseline(baseline_path, report)
        print(f"baseline written: {baseline_path} "
              f"({len(report.baseline_material)} entries)")
        return 0
    output = render_json(report) if args.format == "json" else render_text(report)
    sys.stdout.write(output)
    return report.exit_code()


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the repro CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chase termination analysis "
        "(Calautti et al., PVLDB 9(5), 2016 — reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run the termination criteria portfolio")
    p.add_argument("file")
    p.add_argument("--criteria", help="comma-separated subset, e.g. WA,SAC")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="run criteria concurrently on N threads (default 1)")
    p.add_argument("--budget-steps", type=int, default=None, metavar="N",
                   help="per-criterion work budget in abstract steps; "
                        "exhaustion is reported, never an error")
    p.add_argument("--budget-ms", type=float, default=None, metavar="MS",
                   help="per-criterion wall-clock budget in milliseconds")
    p.add_argument("--short-circuit", action="store_true",
                   help="cancel criteria that can no longer change the "
                        "overall verdict (cheap static criteria usually "
                        "decide it first)")
    p.add_argument("--hierarchy", action="store_true",
                   help="fill in verdicts already implied or refuted by "
                        "the paper's criterion containments (e.g. WA ⇒ "
                        "SC ⇒ SR ⇒ IR) instead of running those criteria")
    p.add_argument("--stats", action="store_true",
                   help="print artifact / firing-decision cache "
                        "statistics after the report")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "batch",
        help="batch-evaluate many programs (sharded, content-addressed cache)",
    )
    bsub = p.add_subparsers(dest="batch_command", required=True)

    p = bsub.add_parser(
        "run",
        help="evaluate programs (the default: 'batch FILE...' means "
             "'batch run FILE...')",
    )
    p.add_argument("files", nargs="*",
                   help="dependency files; omit when using --corpus")
    p.add_argument("--corpus", action="store_true",
                   help="evaluate the synthetic Table 2 ontology corpus")
    p.add_argument("--corpus-scale", default=None, metavar="S",
                   help="corpus size scale (float or 'paper'; default: "
                        "REPRO_SCALE or the CI-friendly 0.06)")
    p.add_argument("--corpus-tests-scale", type=float, default=None,
                   metavar="T", help="per-class test count multiplier")
    p.add_argument("--corpus-classes", metavar="A,B",
                   help="restrict to these Table 2(a) classes")
    p.add_argument("--mode", default="evaluate",
                   choices=["evaluate", "classify"],
                   help="evaluate: Adn∃ + chase ground truth (Table 2); "
                        "classify: the full criterion portfolio")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="evaluate programs on N worker processes")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="content-addressed result cache; re-runs only "
                        "evaluate new or changed programs")
    p.add_argument("--store", default="sqlite", choices=["sqlite", "jsonl"],
                   help="cache backend: the embedded sqlite store "
                        "(default) or the append-only JSONL reference "
                        "logs")
    p.add_argument("--shard", metavar="I/N",
                   help="evaluate only the programs in key-space shard I "
                        "of N (deterministic; for multi-machine runs)")
    p.add_argument("--resume", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="reuse cached results (--no-resume recomputes "
                        "everything but still refreshes the cache)")
    p.add_argument("--format", default="table", choices=["jsonl", "table"],
                   help="stdout format (jsonl prints one record per line)")
    p.add_argument("--budget-steps", type=int, default=None, metavar="N",
                   help="per-program work budget in abstract steps")
    p.add_argument("--budget-ms", type=float, default=None, metavar="MS",
                   help="per-program wall-clock budget in milliseconds")
    p.add_argument("--chase-steps", type=int, default=1_200, metavar="N",
                   help="chase ground-truth step bound (evaluate mode)")
    p.add_argument("--criteria", metavar="A,B",
                   help="criterion subset (classify mode)")
    p.set_defaults(func=cmd_batch)

    p = bsub.add_parser(
        "export-jsonl",
        help="snapshot a cache directory as portable JSONL files",
    )
    p.add_argument("--cache-dir", required=True, metavar="DIR")
    p.add_argument("--store", default="sqlite", choices=["sqlite", "jsonl"],
                   help="backend to export from (default sqlite)")
    p.add_argument("--output", metavar="DIR",
                   help="write results.jsonl/artifacts.jsonl here "
                        "(default: results to stdout)")
    p.set_defaults(func=cmd_batch_export)

    p = bsub.add_parser(
        "import-jsonl",
        help="replay a JSONL snapshot into a cache directory's store",
    )
    p.add_argument("--cache-dir", required=True, metavar="DIR")
    p.add_argument("--store", default="sqlite", choices=["sqlite", "jsonl"],
                   help="backend to import into (default sqlite)")
    p.add_argument("--input", metavar="DIR",
                   help="directory holding results.jsonl/artifacts.jsonl "
                        "(default: the cache dir itself)")
    p.set_defaults(func=cmd_batch_import)

    p = bsub.add_parser(
        "query",
        help="filter/sort/paginate the verdicts stored in a cache",
    )
    p.add_argument("--cache-dir", required=True, metavar="DIR")
    p.add_argument("--store", default="sqlite", choices=["sqlite", "jsonl"])
    p.add_argument("--verdict", metavar="V",
                   help="exact headline verdict, e.g. 'WA' or 'rejected'")
    p.add_argument("--criterion", metavar="C",
                   help="only programs accepted by this criterion")
    p.add_argument("--exhausted", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="only budget-exhausted records "
                        "(--no-exhausted: only trusted ones)")
    p.add_argument("--key-prefix", metavar="HEX",
                   help="fingerprint prefix filter")
    p.add_argument("--sort", default="seq", metavar="FIELD",
                   help="seq|name|verdict|elapsed_ms|key, "
                        "'-' prefix for descending (default: seq)")
    p.add_argument("--limit", type=int, default=50, metavar="N")
    p.add_argument("--cursor", metavar="CUR",
                   help="keyset cursor from a previous page's stderr")
    p.add_argument("--format", default="table", choices=["table", "jsonl"])
    p.add_argument("--stats", action="store_true",
                   help="print store statistics (row counts, file/WAL "
                        "sizes, cache hit counters) as JSON and exit")
    p.set_defaults(func=cmd_batch_query)

    p = sub.add_parser(
        "lint",
        help="check the codebase against the DESIGN.md invariants (§8)",
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories to check "
                        "(default: src tests benchmarks)")
    p.add_argument("--root", default=".",
                   help="repository root the paths and the report are "
                        "relative to (default: the working directory)")
    p.add_argument("--format", default="text", choices=["text", "json"],
                   help="report format (json carries machine-readable "
                        "counts for CI)")
    p.add_argument("--baseline", metavar="FILE",
                   help="baseline of grandfathered findings "
                        "(default: <root>/lint-baseline.json)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore the baseline: report every finding")
    p.add_argument("--write-baseline", action="store_true",
                   help="grandfather the current findings into the "
                        "baseline file and exit 0")
    p.add_argument("--list-rules", action="store_true",
                   help="list the registered rules and the DESIGN.md "
                        "sections they enforce")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("chase", help="run one chase sequence")
    p.add_argument("file")
    p.add_argument("--data", required=True, help="facts file or inline facts")
    p.add_argument("--variant", default="standard",
                   choices=["standard", "oblivious", "semi_oblivious"])
    p.add_argument("--strategy", default="full_first")
    p.add_argument("--max-steps", type=int, default=10_000)
    p.set_defaults(func=cmd_chase)

    p = sub.add_parser("adorn", help="run the Adn∃ adornment algorithm")
    p.add_argument("file")
    p.set_defaults(func=cmd_adorn)

    p = sub.add_parser("graph", help="print the chase / firing graphs")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("explore", help="explore every chase sequence (bounded)")
    p.add_argument("file")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", default="standard",
                   choices=["standard", "oblivious", "semi_oblivious"])
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--max-states", type=int, default=20_000)
    p.set_defaults(func=cmd_explore)

    return parser


#: ``batch`` subcommands; any other first token after ``batch`` is
#: treated as a program file for the implicit ``run`` subcommand.
_BATCH_SUBCOMMANDS = ("run", "export-jsonl", "import-jsonl", "query")


def _normalise_argv(argv: list[str]) -> list[str]:
    """Insert the implicit ``run`` so ``batch FILE...`` keeps working."""
    if (
        argv
        and argv[0] == "batch"
        and (len(argv) == 1
             or argv[1] not in _BATCH_SUBCOMMANDS + ("-h", "--help"))
    ):
        return [argv[0], "run", *argv[1:]]
    return argv


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(_normalise_argv(argv))
    try:
        return args.func(args)
    except (OSError, ParseError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
