"""Golden firing-witness engine runs.

``tests/golden/witness_engines.json`` pins, for every pair ``(r1, r2)``
of a program that passes :func:`~repro.firing.witness.may_fire`, three
:class:`~repro.firing.witness.WitnessEngine` runs: ``precedes`` (``≺``,
standard step), ``fires`` (``<`` against the program's full
dependencies) and oblivious ``precedes``.  Each run is recorded as
``[edge, exact, budget steps, witness digest]``, where the digest is one
sha256 over the sorted atoms of the witness's ``K`` and ``J`` and the
sorted bindings of its ``h1`` and ``h2`` (null labels included), or
``null`` when the run returned no witness.  A change to the engine that
alters any decision, any witness or the number of steps any search
charges fails here, so step-budgeted verdicts stay reproducible.

The programs are the Table 2 draw the ``table2_batch`` benchmark
evaluates and the five ``classify_portfolio`` programs.

Regenerate (only for a deliberate change of the witness search) with::

    PYTHONPATH=src python tests/test_witness_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import pytest

from repro.firing.witness import WitnessEngine, may_fire
from repro.generators.corpus import generate_corpus

GOLDEN = pathlib.Path(__file__).parent / "golden" / "witness_engines.json"

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

FIELDS = ("edge", "exact", "steps", "witness_sha256")
RUNS = ("precedes", "fires", "oblivious_precedes")


def programs() -> dict[str, object]:
    """Every golden program, keyed by a readable id."""
    out: dict[str, object] = {}
    for ont in generate_corpus(**TABLE2_CORPUS):
        out[f"table2/{ont.name}"] = ont.sigma
    classify = {o.name: o for o in generate_corpus(**CLASSIFY_CORPUS)}
    for name in CLASSIFY_PROGRAMS:
        out[f"classify/{name}"] = classify[name].sigma
    return out


def witness_digest(witness) -> str | None:
    if witness is None:
        return None
    digest = hashlib.sha256()
    parts = (
        sorted(str(a) for a in witness.K),
        sorted(str(a) for a in witness.J),
        sorted(f"{v}={t!r}" for v, t in witness.h1.items()),
        sorted(f"{v}={t!r}" for v, t in witness.h2.items()),
    )
    for part in parts:
        for line in part:
            digest.update(line.encode("utf-8"))
            digest.update(b"\x00")
        digest.update(b"\x01")
    return digest.hexdigest()


def run_record(engine: WitnessEngine, method: str) -> list:
    decision = getattr(engine, method)()
    return [
        decision.edge,
        decision.exact,
        engine.budget.steps,
        witness_digest(decision.witness),
    ]


def record_one(sigma) -> dict[str, list[list]]:
    """``"i>j"`` -> one record per run, in :data:`RUNS` order."""
    deps = list(sigma)
    fulls = tuple(d for d in deps if d.is_full)
    out: dict[str, list[list]] = {}
    for i, r1 in enumerate(deps):
        for j, r2 in enumerate(deps):
            if not may_fire(r1, r2):
                continue
            out[f"{i}>{j}"] = [
                run_record(WitnessEngine(r1, r2, (), "standard"), "precedes"),
                run_record(WitnessEngine(r1, r2, fulls, "standard"), "fires"),
                run_record(WitnessEngine(r1, r2, (), "oblivious"), "precedes"),
            ]
    return out


def record_all() -> dict:
    return {
        "fields": list(FIELDS),
        "runs": list(RUNS),
        "programs": {name: record_one(s) for name, s in programs().items()},
    }


def dump(data: dict) -> str:
    """JSON with one line per pair, so a diff names the pair that moved."""
    lines = ["{"]
    lines.append(f' "fields": {json.dumps(data["fields"])},')
    lines.append(f' "runs": {json.dumps(data["runs"])},')
    lines.append(' "programs": {')
    progs = sorted(data["programs"].items())
    for p, (name, pairs) in enumerate(progs):
        lines.append(f"  {json.dumps(name)}: {{")
        items = list(pairs.items())
        for k, (pair, runs) in enumerate(items):
            comma = "," if k + 1 < len(items) else ""
            lines.append(f"   {json.dumps(pair)}: {json.dumps(runs)}{comma}")
        lines.append("  }" + ("," if p + 1 < len(progs) else ""))
    lines.append(" }")
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def no_scale_override(monkeypatch):
    # ``generate_corpus`` reads REPRO_SCALE; the golden draw must not.
    monkeypatch.delenv("REPRO_SCALE", raising=False)


def test_witness_engines_match_golden(no_scale_override):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert want["fields"] == list(FIELDS) and want["runs"] == list(RUNS)
    progs = programs()
    assert sorted(progs) == sorted(want["programs"])
    mismatched = []
    for name, sigma in progs.items():
        got = record_one(sigma)
        expected = want["programs"][name]
        assert sorted(got) == sorted(expected), name
        for pair, runs in got.items():
            for run, g, w in zip(RUNS, runs, expected[pair]):
                if g != w:
                    mismatched.append(f"{name} {pair} {run}: {g} != {w}")
    assert not mismatched, mismatched[:20]


if __name__ == "__main__":
    os.environ.pop("REPRO_SCALE", None)
    GOLDEN.write_text(dump(record_all()), encoding="utf-8")
    print(f"wrote {GOLDEN}")
