"""CLI tests: every command end-to-end via main()."""

import os
import pathlib

import pytest

from repro.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

SIGMA1 = """
r1: N(x) -> exists y. E(x, y)
r2: E(x, y) -> N(y)
r3: E(x, y) -> x = y
"""

SIGMA3 = """
r1: P(x, y) -> exists z. E(x, z)
r2: Q(x, y) -> exists z. E(z, y)
"""


@pytest.fixture
def sigma1_file(tmp_path):
    p = tmp_path / "sigma1.deps"
    p.write_text(SIGMA1)
    return str(p)


@pytest.fixture
def sigma3_file(tmp_path):
    p = tmp_path / "sigma3.deps"
    p.write_text(SIGMA3)
    return str(p)


class TestClassify:
    def test_accepting_exit_code(self, sigma1_file, capsys):
        assert main(["classify", sigma1_file]) == 0
        out = capsys.readouterr().out
        assert "SAC" in out and "terminating" in out

    def test_criteria_subset(self, sigma1_file, capsys):
        assert main(["classify", sigma1_file, "--criteria", "WA,SAC"]) == 0
        out = capsys.readouterr().out
        assert "SwA" not in out

    def test_rejecting_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.deps"
        p.write_text(
            "r1: N(x) -> exists y, z. E(x, y, z)\n"
            "r2: E(x, y, y) -> N(y)\n"
            "r3: E(x, y, z) -> y = z\n"
        )
        assert main(["classify", str(p)]) == 1

    def test_stats_flag(self, sigma3_file, capsys):
        assert main(["classify", sigma3_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "backend: shared" in out
        assert "artifacts:" in out and "firing decisions:" in out

    def test_stats_golden(self, tmp_path, capsys):
        """The ``--stats`` block of a corpus program whose adorned Σα has
        shape twins: firing decisions split into prefiltered / shape hits
        / hits / misses.  Regenerate with ``REPRO_REGEN_GOLDEN=1``."""
        from repro.generators.corpus import generate_corpus
        from repro.model.parser import to_text

        corpus = generate_corpus(
            seed=20160396, scale=0.06, tests_scale=0.05, max_size=30
        )
        program = next(o for o in corpus if o.name == "E1-10/G1-10#2")
        p = tmp_path / "program.deps"
        p.write_text(to_text(program.sigma))
        assert main(["classify", str(p), "--stats"]) == 1
        out = capsys.readouterr().out
        stats = out[out.index("backend:"):]
        golden = GOLDEN_DIR / "classify_stats.txt"
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            golden.write_text(stats)
        assert stats == golden.read_text()
        assert " shape hits / " in stats

    def test_backend_flag(self, sigma3_file, capsys):
        # The CLI always runs the shared context; the isolated recompute
        # oracle is library-only, so the flag is gone.  An unknown flag
        # is unusable input (exit 3), not "budget exhausted" (exit 2).
        from repro.cli import EXIT_INPUT_ERROR

        code = main(["classify", sigma3_file, "--backend", "isolated"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and err.count("\n") == 1
        assert "--backend" in err

    def test_hierarchy_flag(self, sigma3_file, capsys):
        # WA accepts Σ3, so the contained criteria are filled in.
        assert main(["classify", sigma3_file, "--hierarchy"]) == 0
        out = capsys.readouterr().out
        assert "(⇐ WA)" in out


class TestClassifyPortfolio:
    """The portfolio flags: --budget-steps, --budget-ms, --short-circuit,
    and the chase-style 0/1/2 exit codes."""

    REJECTED = (
        "r1: A(x) -> exists y. R(x, y)\n"
        "r2: R(x, y) -> A(y)\n"
    )

    @pytest.fixture
    def rejected_file(self, tmp_path):
        p = tmp_path / "rejected.deps"
        p.write_text(self.REJECTED)
        return str(p)

    def test_jobs_flag_is_an_input_error(self, sigma1_file, capsys):
        # Criteria run on one thread; ``repro batch --jobs`` is the
        # parallel surface.  Exit 3, not 2, which would read "exhausted".
        from repro.cli import EXIT_INPUT_ERROR

        assert main(["classify", sigma1_file, "--jobs", "4"]) == EXIT_INPUT_ERROR
        assert "--jobs" in capsys.readouterr().err

    def test_trusted_rejection_exits_1(self, rejected_file):
        assert main(["classify", rejected_file]) == 1

    def test_budget_exhaustion_exits_2(self, rejected_file, capsys):
        code = main(["classify", rejected_file, "--budget-steps", "20"])
        assert code == 2
        assert "[budget]" in capsys.readouterr().out

    def test_budget_ms_accepting_still_exits_0(self, sigma1_file):
        # Acceptance is sound regardless of other criteria's budgets.
        assert main(["classify", sigma1_file, "--budget-ms", "60000"]) == 0

    def test_short_circuit_skips_and_keeps_verdict(self, sigma1_file, capsys):
        code = main(["classify", sigma1_file, "--short-circuit"])
        assert code == 0
        out = capsys.readouterr().out
        assert "terminating" in out

    def test_help_documents_portfolio_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--budget-steps", "--budget-ms", "--short-circuit"):
            assert flag in out
        assert "--jobs" not in out


class TestChase:
    def test_inline_facts(self, sigma1_file, capsys):
        code = main(
            ["chase", sigma1_file, "--data", 'N("a")', "--strategy", "full_first"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "success" in out and 'E("a", "a")' in out

    def test_facts_file(self, sigma1_file, tmp_path, capsys):
        facts = tmp_path / "db.facts"
        facts.write_text('N("a")')
        assert main(["chase", sigma1_file, "--data", str(facts)]) == 0

    def test_exceeded_exit_code(self, sigma1_file, capsys):
        code = main(
            [
                "chase", sigma1_file, "--data", 'N("a")',
                "--strategy", "existential_first", "--max-steps", "20",
            ]
        )
        assert code == 2


class TestAdorn:
    def test_acyclic(self, sigma1_file, capsys):
        assert main(["adorn", sigma1_file]) == 0
        out = capsys.readouterr().out
        assert "Acyc = True" in out and "E^bb" in out

    def test_cyclic(self, tmp_path, capsys):
        p = tmp_path / "cyc.deps"
        p.write_text("r1: A(x) -> exists y. R(x, y)\nr2: R(x, y) -> A(y)\n")
        assert main(["adorn", str(p)]) == 1
        assert "Acyc = False" in capsys.readouterr().out


class TestGraph:
    def test_text(self, sigma1_file, capsys):
        assert main(["graph", sigma1_file]) == 0
        out = capsys.readouterr().out
        assert "Chase graph" in out and "Firing graph" in out

    def test_dot(self, sigma1_file, capsys):
        assert main(["graph", sigma1_file, "--dot"]) == 0
        out = capsys.readouterr().out
        assert "digraph chase_graph" in out
        assert '"r1" -> "r2"' in out


class TestExplore:
    def test_some_terminating(self, sigma1_file, capsys):
        code = main(
            ["explore", sigma1_file, "--data", 'N("a")', "--max-depth", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "terminating leaves: 1" in out

    def test_none_terminating(self, tmp_path, capsys):
        p = tmp_path / "sigma10.deps"
        p.write_text(
            "r1: N(x) -> exists y, z. E(x, y, z)\n"
            "r2: E(x, y, y) -> N(y)\n"
            "r3: E(x, y, z) -> y = z\n"
        )
        code = main(
            ["explore", str(p), "--data", 'N("a")', "--max-depth", "7"]
        )
        assert code == 1


class TestInputErrors:
    """Unusable input ends in one ``repro: error:`` line and exit code
    ``EXIT_INPUT_ERROR``, never a traceback (checked in a real process,
    where an escaping exception would print one)."""

    @staticmethod
    def run_cli(*args, cwd):
        import os
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, cwd=cwd, env=env, timeout=120,
        )

    def test_missing_program_file(self, tmp_path):
        from repro.cli import EXIT_INPUT_ERROR

        proc = self.run_cli("chase", "missing.txt", "--data", "x", cwd=tmp_path)
        assert proc.returncode == EXIT_INPUT_ERROR
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro: error:")
        assert "missing.txt" in lines[0]

    def test_malformed_program(self, tmp_path):
        from repro.cli import EXIT_INPUT_ERROR

        bad = tmp_path / "bad.deps"
        bad.write_text("r1: P(x) -> exists y. E(x, y)\nr2: E(x, y -> P(y)\n")
        proc = self.run_cli("classify", str(bad), cwd=tmp_path)
        assert proc.returncode == EXIT_INPUT_ERROR
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro: error:")
        assert "(line 2, column" in lines[0]

    def test_malformed_facts_in_process(self, sigma1_file, capsys):
        from repro.cli import EXIT_INPUT_ERROR

        assert main(["chase", sigma1_file, "--data", 'N("a"']) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "(line 1, column" in err

    @pytest.mark.parametrize("spec", ["WA,BOGUS", ","])
    def test_unknown_criterion(self, sigma1_file, capsys, spec):
        """A bad name is an input error, not exit 1 ("every criterion
        rejects") or a traceback."""
        from repro.cli import EXIT_INPUT_ERROR

        assert main(["classify", sigma1_file, "--criteria", spec]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unknown criterion")
        assert err.count("\n") == 1 and "known: " in err

    def test_unknown_strategy(self, sigma1_file, capsys):
        from repro.cli import EXIT_INPUT_ERROR

        code = main(["chase", sigma1_file, "--data", 'N("a")', "--strategy", "nope"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unknown --strategy 'nope'")
        assert err.count("\n") == 1 and "full_first" in err

    @staticmethod
    def assert_usage_error(capsys, code, fragment):
        from repro.cli import EXIT_INPUT_ERROR

        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and err.count("\n") == 1, err
        assert fragment in err

    @pytest.mark.parametrize("args", [
        ["--budget-steps", "-5"],
        ["--budget-steps", "abc"],
        ["--budget-ms", "-1"],
        ["--budget-ms", "nan"],
        ["--budget-ms", "inf"],
        ["--bogus"],
    ])
    def test_classify_rejects_bad_arguments(self, sigma1_file, capsys, args):
        code = main(["classify", sigma1_file, *args])
        self.assert_usage_error(capsys, code, args[0])

    @pytest.mark.parametrize("args", [
        ["--max-steps", "-1"],
        ["--max-steps", "1.5"],
        ["--variant", "bogus"],
    ])
    def test_chase_rejects_bad_arguments(self, sigma1_file, capsys, args):
        code = main(["chase", sigma1_file, "--data", 'N("a")', *args])
        self.assert_usage_error(capsys, code, args[0])

    @pytest.mark.parametrize("args", [
        ["--max-depth", "-1"],
        ["--max-states", "-3"],
    ])
    def test_explore_rejects_bad_arguments(self, sigma1_file, capsys, args):
        code = main(["explore", sigma1_file, "--data", 'N("a")', *args])
        self.assert_usage_error(capsys, code, args[0])

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chase", "--help"])
        assert exc.value.code == 0
        assert "--max-steps" in capsys.readouterr().out
