"""CLI golden-file tests for ``repro batch``: both output formats, the
0/1/2 exit-code contract, exit 3 for unusable arguments and damaged
stores, and the JSONL export/import round trip.

Timings are the only nondeterminism in the output, so goldens are
compared after masking them (table) or stripping them (jsonl); everything
else — keys, verdicts, cache provenance, summary counts — must match
byte-for-byte.  Regenerate after an intentional output change with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_cli_batch.py
"""

from __future__ import annotations

import json
import os
import pathlib
import re

import pytest

from repro.cli import EXIT_INPUT_ERROR, main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

SIGMA_OK = """
r1: N(x) -> exists y. E(x, y)
r2: E(x, y) -> N(y)
r3: E(x, y) -> x = y
"""

SIGMA_PLAIN = """
r1: P(x, y) -> exists z. E(x, z)
"""


@pytest.fixture
def deps_files(tmp_path):
    one = tmp_path / "sigma_ok.deps"
    one.write_text(SIGMA_OK)
    two = tmp_path / "sigma_plain.deps"
    two.write_text(SIGMA_PLAIN)
    return [str(one), str(two)]


def mask_table(text: str) -> str:
    """Mask the wall-clock column (the one nondeterministic field).

    The surrounding padding is swallowed too: a timing crossing a power
    of ten (9.9 → 10.2 ms on a slower machine) changes the column's
    digit count, and the golden must not care.
    """
    return re.sub(r"\s*\d+\.\d", " #.#", text)


def strip_jsonl(text: str) -> list[dict]:
    """Parse records and drop the volatile timing fields."""
    out = []
    for line in text.strip().splitlines():
        record = json.loads(line)
        record.pop("elapsed_ms", None)
        record.get("data", {}).pop("adn_ms", None)
        out.append(record)
    return out


def check_golden(name: str, actual: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(actual)
    assert path.exists(), f"golden file {name} missing; regenerate with " \
        "REPRO_REGEN_GOLDEN=1"
    assert actual == path.read_text(), f"{name} drifted from its golden"


class TestFormats:
    def test_table_golden(self, deps_files, capsys):
        assert main(["batch", *deps_files]) == 0
        check_golden("batch_table.txt", mask_table(capsys.readouterr().out))

    def test_table_golden_warm(self, deps_files, capsys, tmp_path):
        """The cache column flips to 'cache' on the warm run — pinned by
        its own golden so provenance reporting cannot silently regress."""
        cache = str(tmp_path / "cache")
        assert main(["batch", *deps_files, "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["batch", *deps_files, "--cache-dir", cache]) == 0
        check_golden(
            "batch_table_warm.txt", mask_table(capsys.readouterr().out)
        )

    def test_jsonl_golden(self, deps_files, capsys):
        assert main(["batch", "--format", "jsonl", *deps_files]) == 0
        records = strip_jsonl(capsys.readouterr().out)
        actual = "\n".join(
            json.dumps(r, sort_keys=True) for r in records
        ) + "\n"
        check_golden("batch_jsonl.txt", actual)

    def test_jsonl_summary_goes_to_stderr(self, deps_files, capsys):
        main(["batch", "--format", "jsonl", *deps_files])
        captured = capsys.readouterr()
        assert "programs" in captured.err
        for line in captured.out.strip().splitlines():
            json.loads(line)  # stdout is pure JSONL

    def test_classify_mode_table_golden(self, deps_files, capsys):
        assert main([
            "batch", *deps_files, "--mode", "classify",
            "--criteria", "WA,SC,SwA",
        ]) == 0
        check_golden(
            "batch_classify_table.txt", mask_table(capsys.readouterr().out)
        )


class TestExitCodes:
    """0 — complete and trusted; 1 — incomplete; 2 — budget-tainted."""

    def test_zero_on_clean_run(self, deps_files):
        assert main(["batch", *deps_files]) == 0

    def test_two_on_budget_exhaustion(self, deps_files, capsys):
        code = main([
            "batch", deps_files[0], "--mode", "classify", "--budget-steps", "1",
        ])
        assert code == 2
        assert "[budget]" in capsys.readouterr().out

    def test_two_survives_the_cache(self, deps_files, tmp_path):
        """A warm rerun of a budget-tainted corpus must still exit 2:
        exhaustion is part of the cached record, not of the run."""
        cache = str(tmp_path / "cache")
        args = ["batch", deps_files[0], "--mode", "classify",
                "--budget-steps", "1", "--cache-dir", cache]
        assert main(args) == 2
        assert main(args) == 2

    def test_one_on_interrupted_run(self, deps_files, capsys, monkeypatch):
        """SIGINT mid-run surfaces as exit 1 (resume with the same
        cache).  The drain itself is engine behaviour (tested with a
        cancellation token in test_batch_cache.py); here the KeyboardInterrupt
        is injected at the first evaluation to pin the CLI contract."""
        import repro.batch.engine as engine

        def boom(payload):
            raise KeyboardInterrupt

        monkeypatch.setattr(engine, "_evaluate_payload", boom)
        assert main(["batch", *deps_files]) == 1
        assert "INTERRUPTED" in capsys.readouterr().out

    def test_shard_runs_subset_and_exits_zero(self, deps_files, capsys):
        assert main(["batch", *deps_files, "--shard", "0/2"]) == 0
        assert main(["batch", *deps_files, "--shard", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "in other shards" in out


def assert_input_error(capsys, code: int, *fragments: str) -> None:
    """Exit 3 after exactly one ``repro: error:`` line on stderr."""
    assert code == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ")
    assert err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


class TestArgumentValidation:
    def test_files_and_corpus_are_exclusive(self, deps_files, capsys):
        code = main(["batch", *deps_files, "--corpus"])
        assert_input_error(capsys, code, "dependency files or --corpus")
        assert_input_error(capsys, main(["batch"]), "dependency files or --corpus")

    def test_bad_shard_spec(self, deps_files, capsys):
        code = main(["batch", *deps_files, "--shard", "3"])
        assert_input_error(capsys, code, "bad --shard '3'", "expected I/N")
        code = main(["batch", *deps_files, "--shard", "2/2"])  # index ∉ [0, 2)
        assert_input_error(capsys, code, "bad --shard '2/2'", "0 <= I < N")

    def test_bad_query(self, tmp_path, capsys):
        code = main(["batch", "query", "--cache-dir", str(tmp_path),
                     "--sort", "bogus"])
        assert_input_error(capsys, code, "bad query:", "bogus")

    def test_nothing_to_import(self, tmp_path, capsys):
        code = main(["batch", "import-jsonl", "--cache-dir", str(tmp_path)])
        assert_input_error(capsys, code, "nothing to import")

    def test_unknown_criterion(self, deps_files, capsys):
        code = main(["batch", *deps_files, "--mode", "classify",
                     "--criteria", "BOGUS"])
        assert_input_error(capsys, code, "unknown criterion 'BOGUS'", "known: ")

    @pytest.mark.parametrize("args", [
        ["--jobs", "0"],
        ["--jobs", "-2"],
        ["--budget-steps", "-1"],
        ["--budget-ms", "nan"],
        ["--chase-steps", "-1"],
    ])
    def test_rejects_out_of_range_numbers(self, deps_files, capsys, args):
        assert_input_error(capsys, main(["batch", *deps_files, *args]), args[0])

    @pytest.mark.parametrize("args, fragment", [
        (["--corpus-scale", "-1"], "corpus scale"),
        (["--corpus-scale", "abc"], "corpus scale"),
        (["--corpus-scale", "2"], "corpus scale"),
        (["--corpus-classes", "BOGUS"], "BOGUS"),
        (["--corpus-tests-scale", "nan"], "--corpus-tests-scale"),
        (["--corpus-tests-scale", "-1"], "--corpus-tests-scale"),
        (["--corpus-tests-scale", "0"], "--corpus-tests-scale"),
    ])
    def test_rejects_bad_corpus_arguments(self, capsys, args, fragment):
        code = main(["batch", "--corpus", *args])
        assert_input_error(capsys, code, fragment)

    def test_corpus_flag_smoke(self, capsys):
        assert main([
            "batch", "--corpus", "--corpus-scale", "0.03",
            "--corpus-tests-scale", "0.02", "--corpus-classes", "E1-10/G1-10",
            "--chase-steps", "300",
        ]) == 0
        assert "E1-10/G1-10#1" in capsys.readouterr().out


class TestStoreCommands:
    def test_export_import_round_trip(self, deps_files, tmp_path, capsys):
        """export → import into a fresh dir → warm run evaluates nothing
        → a second export is byte-identical to the first."""
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        snap1, snap2 = tmp_path / "snap1", tmp_path / "snap2"
        assert main(["batch", *deps_files, "--cache-dir", src]) == 0
        assert main(["batch", "export-jsonl", "--cache-dir", src,
                     "--output", str(snap1)]) == 0
        assert main(["batch", "import-jsonl", "--cache-dir", dst,
                     "--input", str(snap1)]) == 0
        capsys.readouterr()
        assert main(["batch", *deps_files, "--cache-dir", dst]) == 0
        assert "0 evaluated" in capsys.readouterr().out
        assert main(["batch", "export-jsonl", "--cache-dir", dst,
                     "--output", str(snap2)]) == 0
        for name in ("results.jsonl", "artifacts.jsonl"):
            assert (snap2 / name).read_bytes() == (snap1 / name).read_bytes()


    def test_import_of_own_legacy_logs_writes_each_entry_once(
        self, tmp_path, capsys
    ):
        """Without ``--input`` the legacy logs of the cache directory are
        the snapshot.  Opening the store has already migrated them, so
        the import must not replay them: a second write would re-mint
        every ``seq``."""
        files = []
        for i in range(1, 6):  # five arities: five distinct fingerprints
            args = ", ".join(f"x{j}" for j in range(i))
            path = tmp_path / f"p{i}.deps"
            path.write_text(f"r1: P({args}) -> exists y. E(x0, y)\n")
            files.append(str(path))
        src, snap = tmp_path / "src", tmp_path / "snap"
        assert main(["batch", *files, "--cache-dir", str(src)]) == 0
        assert main(["batch", "export-jsonl", "--cache-dir", str(src),
                     "--output", str(snap)]) == 0
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        for name in ("results.jsonl", "artifacts.jsonl"):
            (legacy / name).write_bytes((snap / name).read_bytes())
        capsys.readouterr()
        assert main(["batch", "import-jsonl", "--cache-dir", str(legacy)]) == 0
        assert "imported 5 result records" in capsys.readouterr().out
        assert main(["batch", "query", "--cache-dir", str(legacy),
                     "--format", "jsonl"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert sorted(row["seq"] for row in rows) == [1, 2, 3, 4, 5]


class TestCorruptStore:
    """A damaged ``store.sqlite`` is an input error, never a traceback."""

    @pytest.fixture
    def corrupt_dir(self, tmp_path):
        (tmp_path / "store.sqlite").write_bytes(b"not a database " * 512)
        return str(tmp_path)

    def test_batch_run(self, deps_files, corrupt_dir, capsys):
        code = main(["batch", *deps_files, "--cache-dir", corrupt_dir])
        assert_input_error(capsys, code, "store.sqlite", "import-jsonl")

    def test_query(self, corrupt_dir, capsys):
        code = main(["batch", "query", "--cache-dir", corrupt_dir])
        assert_input_error(capsys, code, "store.sqlite", "import-jsonl")

    def test_export_jsonl(self, corrupt_dir, capsys):
        code = main(["batch", "export-jsonl", "--cache-dir", corrupt_dir])
        assert_input_error(capsys, code, "store.sqlite", "import-jsonl")
