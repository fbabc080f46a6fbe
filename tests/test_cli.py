"""CLI tests: every command end-to-end via main()."""

import pathlib

import pytest

from repro.cli import main

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

    def test_backend_flag(self, sigma3_file, capsys):
        # The CLI always runs the shared context; the isolated recompute
        # oracle is library-only, so the flag is gone.
        with pytest.raises(SystemExit) as exc:
            main(["classify", sigma3_file, "--backend", "isolated"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_hierarchy_flag(self, sigma3_file, capsys):
        # WA accepts Σ3, so the contained criteria are filled in.
        assert main(["classify", sigma3_file, "--hierarchy"]) == 0
        out = capsys.readouterr().out
        assert "(⇐ WA)" in out


class TestClassifyPortfolio:
    """The portfolio flags: --jobs, --budget-steps, --budget-ms,
    --short-circuit, and the chase-style 0/1/2 exit codes."""

    REJECTED = (
        "r1: A(x) -> exists y. R(x, y)\n"
        "r2: R(x, y) -> A(y)\n"
    )

    @pytest.fixture
    def rejected_file(self, tmp_path):
        p = tmp_path / "rejected.deps"
        p.write_text(self.REJECTED)
        return str(p)

    def test_jobs_same_verdict_as_sequential(self, sigma1_file, capsys):
        assert main(["classify", sigma1_file]) == 0
        seq = capsys.readouterr().out
        assert main(["classify", sigma1_file, "--jobs", "4"]) == 0
        par = capsys.readouterr().out
        # Same criteria, same marks (timings differ).
        strip = lambda out: [line.split("  ")[1] for line in out.splitlines()[1:-1]]
        assert strip(seq) == strip(par)

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
        code = main(["classify", sigma1_file, "--jobs", "2", "--short-circuit"])
        assert code == 0
        out = capsys.readouterr().out
        assert "terminating" in out

    def test_help_documents_portfolio_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--jobs", "--budget-steps", "--budget-ms", "--short-circuit"):
            assert flag in out


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
