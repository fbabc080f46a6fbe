"""Golden Adn∃ and AC rewriting results.

``tests/golden/adn_results.json`` pins, per program and mode, the
adorned records, the adornment definitions and the run statistics of
:class:`~repro.core.adornment.AdornmentAlgorithm`: the verdict, the
exactness flag, the sizes, the main loop's iteration count and budget
steps, and one sha256 each over the records (in order, with their
sources) and the definitions (in order).  A change to the algorithm
that alters any record, any symbol number or the order in which they
appear — not just the verdict — fails here.

The programs are the Table 2 draw the ``table2_batch`` benchmark
evaluates, the five ``classify_portfolio`` programs, the Table 1
witnesses and the paper's example sets.  Adn∃ runs on Σ; AC runs on the
substitution-free simulation of Σ, as the AC and LS criteria do.

Regenerate (only for a deliberate change of the algorithm) with::

    PYTHONPATH=src python tests/test_adn_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import pytest

from repro.core.adornment import ac_rewriting, adn_exists
from repro.data.paper import all_paper_sets
from repro.data.witnesses import witness_cases
from repro.generators.corpus import generate_corpus
from repro.simulation.substitution_free import substitution_free_simulation

GOLDEN = pathlib.Path(__file__).parent / "golden" / "adn_results.json"

#: The ``table2_batch`` draw and the ``classify_portfolio`` draw.
TABLE2_CORPUS = {"seed": 20160396, "tests_scale": 0.1, "max_size": 20}
CLASSIFY_CORPUS = {"seed": 20160396, "tests_scale": 0.05, "max_size": 30}
CLASSIFY_PROGRAMS = (
    "E1-10/G1-10#1",
    "E1-10/G1-10#2",
    "E1-10/G11-100#1",
    "E11-100/G1-10#1",
    "E101-1000/G1-10#3",
)


def programs() -> dict[str, object]:
    """Every golden program, keyed by a readable id."""
    out: dict[str, object] = {}
    for ont in generate_corpus(**TABLE2_CORPUS):
        out[f"table2/{ont.name}"] = ont.sigma
    classify = {o.name: o for o in generate_corpus(**CLASSIFY_CORPUS)}
    for name in CLASSIFY_PROGRAMS:
        out[f"classify/{name}"] = classify[name].sigma
    for case in witness_cases():
        out[f"witness/{case.name}"] = case.sigma
    for name, sigma in all_paper_sets().items():
        out[f"paper/{name}"] = sigma
    return out


def _sha(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def result_record(result) -> dict:
    """Verdict, sizes, run statistics and digests of one run."""
    return {
        "acyclic": result.acyclic,
        "exact": result.exact,
        "records": len(result.records),
        "definitions": len(result.definitions),
        "iterations": result.stats["iterations"],
        "budget_steps": result.stats["budget_steps"],
        "size_adorned": result.stats["size_adorned"],
        "stopped": result.stats["stopped"],
        "records_sha256": _sha(
            f"{rec.dep.label}|{rec.dep}|{'' if rec.src is None else rec.src}"
            for rec in result.records
        ),
        "definitions_sha256": _sha(str(d) for d in result.definitions),
    }


def record_one(sigma) -> dict[str, dict]:
    simulated = substitution_free_simulation(sigma) if sigma.egds else sigma
    return {
        "adn_exists": result_record(adn_exists(sigma)),
        "ac": result_record(ac_rewriting(simulated)),
    }


def record_all() -> dict[str, dict]:
    return {name: record_one(sigma) for name, sigma in programs().items()}


@pytest.fixture
def no_scale_override(monkeypatch):
    # ``generate_corpus`` reads REPRO_SCALE; the golden draw must not.
    monkeypatch.delenv("REPRO_SCALE", raising=False)


def test_adn_results_match_golden(no_scale_override):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    progs = programs()
    assert sorted(progs) == sorted(want)
    mismatched = []
    for name, sigma in progs.items():
        got = record_one(sigma)
        for mode in ("adn_exists", "ac"):
            if got[mode] != want[name][mode]:
                mismatched.append(f"{name}/{mode}")
    assert not mismatched, mismatched


if __name__ == "__main__":
    os.environ.pop("REPRO_SCALE", None)
    GOLDEN.write_text(
        json.dumps(record_all(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}")
