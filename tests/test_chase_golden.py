"""Golden chase step sequences.

``tests/golden/chase_sequences.json`` pins, per run, the status, the
step count, the final fact count and one sha256 over every step's
trigger, added facts, created nulls and γ.  The runs cover the Table 2
programs the ``table2_batch`` benchmark evaluates (standard chase from
the seed database, both ground-truth strategies, 1,200-step cap) and
every Table 1 witness under all three variants and four strategies at
small caps.  A runner change that alters any step of any of these
sequences — not just the final verdict — fails here.

Regenerate (only for a deliberate change of chase semantics) with::

    PYTHONPATH=src python tests/test_chase_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import pytest

from repro.chase.runner import run_chase
from repro.chase.strategies import random_strategy
from repro.data.witnesses import witness_cases
from repro.generators.corpus import generate_corpus
from repro.generators.databases import seed_database
from repro.matching import using_backend

GOLDEN = pathlib.Path(__file__).parent / "golden" / "chase_sequences.json"

#: The ``table2_batch`` draw: generator seed, scale and size cap, and the
#: ground truth's step cap and strategies.
TABLE2_CORPUS = {"seed": 20160396, "tests_scale": 0.1, "max_size": 20}
TABLE2_STEPS = 1200
TABLE2_STRATEGIES = ("full_first", "fifo")

WITNESS_VARIANTS = ("standard", "oblivious", "semi_oblivious")
WITNESS_STRATEGIES = ("fifo", "full_first", "lifo", "random7")
WITNESS_STEPS = 60


def _strategy(name: str):
    return random_strategy(7) if name == "random7" else name


def sequence_record(result) -> dict:
    """Status, sizes and one digest over every step of a run."""
    digest = hashlib.sha256()
    for step in result.steps:
        for part in (
            str(step.trigger),
            ";".join(str(f) for f in step.added),
            ";".join(str(n) for n in step.created_nulls),
            str(step.gamma),
        ):
            digest.update(part.encode("utf-8"))
            digest.update(b"\x00")
        digest.update(b"\x01")
    return {
        "status": result.status.value,
        "steps": result.step_count,
        "facts": len(result.instance) if result.instance is not None else None,
        "sha256": digest.hexdigest(),
    }


def record_all() -> dict[str, dict]:
    """Every golden run under the active matching backend, keyed by a
    readable run id."""
    out: dict[str, dict] = {}
    for ont in generate_corpus(**TABLE2_CORPUS):
        db = seed_database(ont.sigma)
        for strategy in TABLE2_STRATEGIES:
            result = run_chase(
                db, ont.sigma, strategy=strategy, max_steps=TABLE2_STEPS
            )
            out[f"table2/{ont.name}/{strategy}"] = sequence_record(result)
    for case in witness_cases():
        for variant in WITNESS_VARIANTS:
            for strategy in WITNESS_STRATEGIES:
                result = run_chase(
                    case.database, case.sigma, variant=variant,
                    strategy=_strategy(strategy), max_steps=WITNESS_STEPS,
                )
                key = f"witness/{case.name}/{variant}/{strategy}"
                out[key] = sequence_record(result)
    return out


@pytest.fixture
def no_scale_override(monkeypatch):
    # ``generate_corpus`` reads REPRO_SCALE; the golden draw must not.
    monkeypatch.delenv("REPRO_SCALE", raising=False)


def test_chase_sequences_match_golden(no_scale_override):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = record_all()
    assert len(want) == 19 * len(TABLE2_STRATEGIES) + len(witness_cases()) * len(
        WITNESS_VARIANTS
    ) * len(WITNESS_STRATEGIES)
    assert sorted(got) == sorted(want)
    mismatched = [k for k in want if got[k] != want[k]]
    assert not mismatched, mismatched[:10]


def test_witness_sequences_match_golden_under_naive_engine(no_scale_override):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for case in witness_cases():
        for variant in WITNESS_VARIANTS:
            for strategy in WITNESS_STRATEGIES:
                with using_backend("naive"):
                    result = run_chase(
                        case.database, case.sigma, variant=variant,
                        strategy=_strategy(strategy), max_steps=WITNESS_STEPS,
                    )
                key = f"witness/{case.name}/{variant}/{strategy}"
                assert sequence_record(result) == want[key], key


if __name__ == "__main__":
    os.environ.pop("REPRO_SCALE", None)
    GOLDEN.write_text(
        json.dumps(record_all(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}")
