"""Tests for ``repro.devtools.lint`` — the DESIGN.md invariant checker.

Each rule gets a flagging fixture *and* a passing fixture, written into a
tmp tree that mirrors the real layout (``src/repro/chase/...``) so the
rules' path scoping is exercised, not bypassed.  On top of that:
suppression parsing, the baseline round-trip, CLI exit codes, the JSON
format, and the meta-test that the checked-in tree itself lints clean.
"""

from __future__ import annotations

import json
import os
import pathlib
import textwrap
from collections import Counter

import pytest

from repro.cli import main
from repro.devtools.lint import (
    all_rules,
    load_baseline,
    render_json,
    run_lint,
    save_baseline,
)
from repro.devtools.lint.framework import BASELINE_VERSION

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def check_golden(name: str, actual: str) -> None:
    """Same regenerate-with-REPRO_REGEN_GOLDEN=1 contract as test_cli_batch."""
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(actual)
    assert path.exists(), f"golden file {name} missing; regenerate with " \
        "REPRO_REGEN_GOLDEN=1"
    assert actual == path.read_text(), f"{name} drifted from its golden"


def lint_tree(tmp_path, files, **kwargs):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint it."""
    for rel, src in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(src))
    paths = kwargs.pop("paths", sorted(files))
    return run_lint(tmp_path, paths, **kwargs)


def rules_of(report):
    return sorted(f.rule for f in report.findings)


# ---------------------------------------------------------------------------
# budget-loop (§2)
# ---------------------------------------------------------------------------


class TestBudgetLoop:
    PATH = "src/repro/chase/fixture.py"

    def test_flags_unbudgeted_while(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def run(pending):
                while pending:
                    pending.pop()
            """})
        assert rules_of(report) == ["budget-loop"]
        assert report.findings[0].line == 2

    def test_passes_while_that_charges(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def run(pending, budget):
                while pending:
                    if not budget.charge():
                        break
                    pending.pop()
            """})
        assert report.clean

    def test_passes_while_that_polls_cancellation(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def run(pending, token):
                while pending:
                    if token.cancelled:
                        break
                    pending.pop()
            """})
        assert report.clean

    def test_flags_recursive_function_without_poll(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def descend(node):
                for child in node.children:
                    descend(child)
            """})
        assert rules_of(report) == ["budget-loop"]
        assert "recursive function 'descend'" in report.findings[0].message

    def test_passes_recursive_method_that_charges(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            class Walker:
                def descend(self, node):
                    if not self.budget.charge():
                        return
                    for child in node.children:
                        self.descend(child)
            """})
        assert report.clean

    def test_closure_poll_does_not_vouch_for_outer_loop(self, tmp_path):
        # A budget poll inside a nested function is not executed by the
        # enclosing while loop, so it must not satisfy the rule.
        report = lint_tree(tmp_path, {self.PATH: """\
            def run(pending, budget):
                def helper():
                    return budget.charge()
                while pending:
                    pending.pop()
            """})
        assert rules_of(report) == ["budget-loop"]

    def test_passes_hoisted_bound_charge_helper(self, tmp_path):
        # Plan-compiled hot loops hoist the bound method out of the loop
        # (``charge = budget.charge``); the bare-name call still polls.
        report = lint_tree(tmp_path, {self.PATH: """\
            def run(pending, budget):
                charge = budget.charge
                while pending:
                    if not charge():
                        break
                    pending.pop()
            """})
        assert report.clean

    def test_passes_hoisted_private_charge_facts_helper(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def run(pending, budget):
                _charge_facts = budget.charge_facts
                while pending:
                    if not _charge_facts(3):
                        break
                    pending.pop()
            """})
        assert report.clean

    def test_unrelated_bare_call_does_not_vouch(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def run(pending, advance):
                while pending:
                    advance()
                    pending.pop()
            """})
        assert rules_of(report) == ["budget-loop"]

    def test_out_of_scope_module_is_not_patrolled(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/util.py": """\
            def spin(pending):
                while pending:
                    pending.pop()
            """})
        assert report.clean


# ---------------------------------------------------------------------------
# swallowed-control-exception (§2)
# ---------------------------------------------------------------------------


class TestSwallowedControlException:
    PATH = "src/repro/anywhere.py"

    def test_flags_pass_swallow_of_control_exception(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def f():
                try:
                    work()
                except BudgetExhausted:
                    pass
            """})
        assert rules_of(report) == ["swallowed-control-exception"]

    def test_passes_reraise(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def f():
                try:
                    work()
                except BudgetExhausted:
                    cleanup()
                    raise
            """})
        assert report.clean

    def test_passes_verdict_conversion(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def f():
                try:
                    work()
                except BudgetExhausted:
                    return Verdict.budget_exhausted()
            """})
        assert report.clean

    def test_flags_broad_except_without_reraise(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def f():
                try:
                    work()
                except Exception as exc:
                    log(exc)
            """})
        assert rules_of(report) == ["swallowed-control-exception"]

    def test_passes_broad_except_with_reraise(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def f():
                try:
                    work()
                except BaseException:
                    rollback()
                    raise
            """})
        assert report.clean

    def test_narrow_domain_exception_is_fine(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def f():
                try:
                    work()
                except ValueError:
                    pass
            """})
        assert report.clean


# ---------------------------------------------------------------------------
# instance-encapsulation (§1/§5)
# ---------------------------------------------------------------------------


class TestInstanceEncapsulation:
    def test_flags_foreign_private_access(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/chase/peek.py": """\
            def cheat(instance):
                return instance._stores
            """})
        assert rules_of(report) == ["instance-encapsulation"]
        assert "_stores" in report.findings[0].message

    def test_self_access_is_exempt(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/chase/own.py": """\
            class Thing:
                def size(self):
                    return len(self._stores)
            """})
        assert report.clean

    def test_columnar_module_is_exempt(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/model/columnar.py": """\
            def rebuild(instance):
                return instance._stores
            """})
        assert report.clean

    def test_instances_module_is_not_exempt(self, tmp_path):
        # It holds only the database constructors: no fact store.
        report = lint_tree(tmp_path, {"src/repro/model/instances.py": """\
            def rebuild(instance):
                return instance._stores
            """})
        assert rules_of(report) == ["instance-encapsulation"]

    def test_matching_engine_is_not_exempt(self, tmp_path):
        # The engine module holds only the shared primitives and delta
        # discovery; the plan executor is the one reader of innards.
        report = lint_tree(tmp_path, {"src/repro/matching/engine.py": """\
            def probe(instance, pred):
                return instance._stores.get(pred)
            """})
        assert rules_of(report) == ["instance-encapsulation"]

    def test_plan_executor_is_exempt(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/matching/plans.py": """\
            def probe(instance, pred):
                return instance._stores.get(pred)
            """})
        assert report.clean

    def test_naive_matcher_is_not_exempt(self, tmp_path):
        # The naive oracle reads instances only through with_predicate.
        report = lint_tree(tmp_path, {"src/repro/matching/naive.py": """\
            def probe(instance, pred):
                return instance._stores.get(pred)
            """})
        assert rules_of(report) == ["instance-encapsulation"]

    def test_tests_are_not_patrolled(self, tmp_path):
        report = lint_tree(tmp_path, {"tests/test_peek.py": """\
            def test_internal(instance):
                assert instance._stores
            """})
        assert report.clean


# ---------------------------------------------------------------------------
# backend-dispatch (§1)
# ---------------------------------------------------------------------------


class TestBackendDispatch:
    def test_flags_a_consumer_branching_on_the_backend(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/chase/loop.py": """\
            from ..matching import get_backend

            def discover(instance):
                return get_backend() == "naive"
            """})
        assert rules_of(report) == ["backend-dispatch"] * 2
        assert "get_backend" in report.findings[0].message

    def test_flags_attribute_and_private_access(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/criteria/peek.py": """\
            from ..matching import config

            def run(f):
                with config.using_backend("naive"):
                    return config._backend.get(), f()
            """})
        assert rules_of(report) == ["backend-dispatch"] * 2

    def test_matching_package_is_exempt(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/matching/engine.py": """\
            from .config import _backend, get_backend

            def dispatch():
                return _backend.get() == get_backend()
            """})
        assert report.clean

    def test_unrelated_backend_names_pass(self, tmp_path):
        # The classify context's ``backend=`` is another switch.
        report = lint_tree(tmp_path, {"src/repro/analysis/run.py": """\
            def classify(sigma, backend="shared"):
                return backend
            """})
        assert report.clean

    def test_tests_are_not_patrolled(self, tmp_path):
        report = lint_tree(tmp_path, {"tests/test_switch.py": """\
            from repro.matching import using_backend

            def test_naive():
                with using_backend("naive"):
                    pass
            """})
        assert report.clean


# ---------------------------------------------------------------------------
# fork-safety (§7)
# ---------------------------------------------------------------------------


class TestForkSafety:
    def test_flags_connect_outside_store(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/chase/db.py": """\
            import sqlite3

            def snapshot(path):
                return sqlite3.connect(path)
            """})
        assert rules_of(report) == ["fork-safety"]

    def test_passes_lazy_connect_inside_store(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/store/sqlite.py": """\
            import sqlite3

            def _open(path):
                return sqlite3.connect(path)
            """})
        assert report.clean

    def test_flags_module_level_connect_even_in_store(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/store/sqlite.py": """\
            import sqlite3

            CONN = sqlite3.connect("store.sqlite")
            """})
        assert rules_of(report) == ["fork-safety"]
        assert "module-level" in report.findings[0].message

    def test_flags_module_level_connect_in_class_body(self, tmp_path):
        # Class bodies execute at import time, so a connection there is
        # just as fork-shared as a plain module-level one.
        report = lint_tree(tmp_path, {"src/repro/store/sqlite.py": """\
            import sqlite3

            class Registry:
                conn = sqlite3.connect("store.sqlite")
            """})
        assert rules_of(report) == ["fork-safety"]


# ---------------------------------------------------------------------------
# determinism (§4/§6)
# ---------------------------------------------------------------------------


class TestDeterminism:
    PATH = "src/repro/batch/fingerprint.py"

    def test_flags_unsorted_set_into_sink(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def key(xs):
                return stable_hash(set(xs))
            """})
        assert rules_of(report) == ["determinism"]

    def test_passes_sorted_set_into_sink(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def key(xs):
                return stable_hash(sorted(set(xs)))
            """})
        assert report.clean

    def test_flags_loop_over_set_driving_sink(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def keys(inst, out):
                for null in inst.nulls():
                    out.append(stable_hash(null))
            """})
        assert rules_of(report) == ["determinism"]

    def test_flags_time_random_hash_id(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            import random
            import time

            def key(x):
                return (time.time(), random.random(), hash(x), id(x))
            """})
        assert rules_of(report) == ["determinism"] * 4

    def test_unscoped_module_is_not_patrolled(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/chase/runner2.py": """\
            def key(xs):
                return stable_hash(set(xs))
            """})
        assert report.clean


# ---------------------------------------------------------------------------
# bare-except (repo-wide)
# ---------------------------------------------------------------------------


class TestBareExcept:
    def test_flags_everywhere_including_tests(self, tmp_path):
        report = lint_tree(tmp_path, {"tests/test_x.py": """\
            def f():
                try:
                    work()
                except:
                    pass
            """})
        assert rules_of(report) == ["bare-except"]

    def test_named_handler_passes(self, tmp_path):
        report = lint_tree(tmp_path, {"tests/test_x.py": """\
            def f():
                try:
                    work()
                except (ValueError, KeyError):
                    pass
            """})
        assert report.clean


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    PATH = "src/repro/chase/fixture.py"

    def test_trailing_suppression_covers_its_line(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def run(pending):
                while pending:  # repro-lint: disable=budget-loop -- pops one item per iteration
                    pending.pop()
            """})
        assert report.clean
        assert report.suppressed == 1

    def test_standalone_suppression_covers_next_line(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def run(pending):
                # repro-lint: disable=budget-loop -- pops one item per iteration
                while pending:
                    pending.pop()
            """})
        assert report.clean
        assert report.suppressed == 1

    def test_justification_is_mandatory(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def run(pending):
                while pending:  # repro-lint: disable=budget-loop
                    pending.pop()
            """})
        # The naked suppression does not suppress, and is itself reported.
        assert rules_of(report) == ["budget-loop", "invalid-suppression"]

    def test_suppression_only_covers_named_rules(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: """\
            def run(pending):
                while pending:  # repro-lint: disable=bare-except -- wrong rule named
                    pending.pop()
            """})
        assert rules_of(report) == ["budget-loop"]

    def test_multiple_rules_one_comment(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/chase/z.py": """\
            def cheat(instance, pending):
                # repro-lint: disable=budget-loop,instance-encapsulation -- fixture exercising the list form
                while instance._stores:
                    pending.pop()
            """})
        assert report.clean
        assert report.suppressed == 2

    def test_marker_inside_string_literal_is_inert(self, tmp_path):
        report = lint_tree(tmp_path, {self.PATH: '''\
            MARKER = "# repro-lint: disable=budget-loop -- not a real comment"

            def run(pending):
                while pending:
                    pending.pop()
            '''})
        assert rules_of(report) == ["budget-loop"]


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

_DIRTY = {
    "src/repro/chase/old.py": """\
        def run(pending):
            while pending:
                pending.pop()
        """,
}


class TestBaseline:
    def test_round_trip_grandfathers_findings(self, tmp_path):
        report = lint_tree(tmp_path, _DIRTY)
        assert not report.clean
        baseline_path = tmp_path / "lint-baseline.json"
        save_baseline(baseline_path, report)

        again = lint_tree(tmp_path, _DIRTY, baseline=load_baseline(baseline_path))
        assert again.clean
        assert [f.rule for f in again.baselined] == ["budget-loop"]
        assert again.exit_code() == 0

    def test_line_drift_keeps_baseline_valid(self, tmp_path):
        report = lint_tree(tmp_path, _DIRTY)
        baseline_path = tmp_path / "lint-baseline.json"
        save_baseline(baseline_path, report)
        # Prepend code: the finding moves to another line, same text.
        target = tmp_path / "src/repro/chase/old.py"
        target.write_text("import os\n\n" + target.read_text())

        again = run_lint(tmp_path, ["src"], baseline=load_baseline(baseline_path))
        assert again.clean and len(again.baselined) == 1

    def test_touching_the_line_invalidates_baseline(self, tmp_path):
        report = lint_tree(tmp_path, _DIRTY)
        baseline_path = tmp_path / "lint-baseline.json"
        save_baseline(baseline_path, report)
        target = tmp_path / "src/repro/chase/old.py"
        target.write_text(target.read_text().replace(
            "while pending:", "while pending is not None:"))

        again = run_lint(tmp_path, ["src"], baseline=load_baseline(baseline_path))
        assert rules_of(again) == ["budget-loop"]
        assert not again.baselined

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == Counter()

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "lint-baseline.json"
        bad.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            load_baseline(bad)


# ---------------------------------------------------------------------------
# framework odds and ends
# ---------------------------------------------------------------------------


class TestFramework:
    def test_syntax_error_is_a_parse_error_finding(self, tmp_path):
        report = lint_tree(tmp_path, {"src/repro/broken.py": "def f(:\n"})
        assert rules_of(report) == ["parse-error"]

    def test_unknown_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_lint(tmp_path, ["no-such-dir"])

    def test_render_json_carries_counts(self, tmp_path):
        report = lint_tree(tmp_path, _DIRTY)
        payload = json.loads(render_json(report))
        assert payload["version"] == BASELINE_VERSION
        assert payload["counts"] == {
            "findings": 1, "baselined": 0, "suppressed": 0}
        assert payload["findings"][0]["rule"] == "budget-loop"

    def test_every_rule_names_a_design_section(self):
        rules = all_rules()
        assert len(rules) >= 6
        for rule in rules:
            assert rule.name and rule.section.startswith("§") and rule.summary


# ---------------------------------------------------------------------------
# CLI and the tree itself
# ---------------------------------------------------------------------------


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean").mkdir()
        (tmp_path / "clean/ok.py").write_text("x = 1\n")
        code = main(["lint", "--root", str(tmp_path), "clean"])
        assert code == 0
        assert "0 findings" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        p = tmp_path / "src/repro/chase"
        p.mkdir(parents=True)
        (p / "bad.py").write_text("def f(xs):\n    while xs:\n        xs.pop()\n")
        code = main(["lint", "--root", str(tmp_path), "src"])
        assert code == 1
        assert "budget-loop" in capsys.readouterr().out

    def test_exit_three_on_bad_baseline(self, tmp_path, capsys):
        (tmp_path / "lint-baseline.json").write_text("{\"version\": 99}")
        (tmp_path / "src").mkdir()
        code = main(["lint", "--root", str(tmp_path), "src"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("repro: error: bad baseline")
        assert err.count("\n") == 1

    def test_exit_three_on_missing_path(self, tmp_path, capsys):
        code = main(["lint", "--root", str(tmp_path), "nowhere"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and "nowhere" in err
        assert err.count("\n") == 1

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.name in out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        p = tmp_path / "src/repro/chase"
        p.mkdir(parents=True)
        (p / "bad.py").write_text("def f(xs):\n    while xs:\n        xs.pop()\n")
        assert main(["lint", "--root", str(tmp_path), "src",
                     "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", "--root", str(tmp_path), "src"]) == 0
        assert "(1 baselined" in capsys.readouterr().out

    def test_text_output_matches_golden(self, tmp_path, capsys):
        """Pins the human report format: findings, a baselined line, the
        suppressed count, the summary.  Paths in the output are relative
        to --root, so the report is tmp-dir independent."""
        files = {
            "src/repro/chase/old.py": """\
                def drain(pending):
                    while pending:
                        pending.pop()
                """,
            "src/repro/chase/fresh.py": """\
                def cheat(instance, pending):
                    while pending:  # repro-lint: disable=budget-loop -- pops one item per iteration
                        pending.pop()
                    return instance._stores
                """,
        }
        for rel, src in files.items():
            p = tmp_path / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(textwrap.dedent(src))
        # Grandfather old.py only, then lint the whole fixture tree.
        assert main(["lint", "--root", str(tmp_path), "src/repro/chase/old.py",
                     "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", "--root", str(tmp_path), "src"]) == 1
        check_golden("lint_fixture.txt", capsys.readouterr().out)

    def test_checked_in_tree_is_clean(self):
        """The acceptance criterion: the repository lints clean against
        its committed (empty) baseline."""
        baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
        report = run_lint(REPO_ROOT, ["src", "tests", "benchmarks"],
                          baseline=baseline)
        assert report.clean, "\n".join(f.render() for f in report.findings)
        assert not report.baselined, "baseline should stay empty"


# ---------------------------------------------------------------------------
# static typing (setup.cfg [mypy]; the CI lint job runs the real thing)
# ---------------------------------------------------------------------------


def _unannotated_defs(path: pathlib.Path) -> list[str]:
    import ast as _ast

    out = []
    for node in _ast.walk(_ast.parse(path.read_text())):
        if not isinstance(node, (_ast.FunctionDef, _ast.AsyncFunctionDef)):
            continue
        a = node.args
        missing = [
            arg.arg
            for arg in a.posonlyargs + a.args + a.kwonlyargs
            if arg.annotation is None and arg.arg not in ("self", "cls")
        ]
        if node.returns is None and node.name != "__init__":
            missing.append("return")
        for var in (a.vararg, a.kwarg):
            if var is not None and var.annotation is None:
                missing.append(var.arg)
        if missing:
            out.append(f"{path.name}:{node.lineno} {node.name}: {missing}")
    return out


class TestTyping:
    def test_strict_modules_have_fully_annotated_defs(self):
        """AST-level stand-in for mypy's disallow_untyped_defs over the
        strict modules (setup.cfg), so the guarantee holds even where
        mypy is not installed."""
        strict = [REPO_ROOT / "src/repro/budget.py"]
        strict += sorted((REPO_ROOT / "src/repro/store").glob("*.py"))
        strict += sorted((REPO_ROOT / "src/repro/batch").glob("*.py"))
        problems = [line for p in strict for line in _unannotated_defs(p)]
        assert not problems, "\n".join(problems)

    def test_mypy_strict_modules(self):
        """The real checker, when available (CI installs it)."""
        import shutil
        import subprocess

        if shutil.which("mypy") is None:
            pytest.skip("mypy not installed; the CI lint job runs it")
        proc = subprocess.run(
            ["mypy", "src/repro/budget.py", "src/repro/store",
             "src/repro/batch"],
            cwd=REPO_ROOT, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
