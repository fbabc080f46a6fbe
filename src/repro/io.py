"""Serialisation: dependency sets and instances to/from JSON.

The text format of :mod:`repro.model.parser` is the human-facing syntax;
the JSON format here is the machine-facing one (stable field names, easy
to diff, round-trips nulls exactly).  Used to snapshot generated corpora
and chase results.

Schema (informal)::

    dependency set:  {"dependencies": [{"kind": "tgd"|"egd", ...}, ...]}
    tgd:             {"kind": "tgd", "label": str, "body": [atom, ...],
                      "head": [atom, ...], "existential": [str, ...]}
    egd:             {"kind": "egd", "label": str, "body": [atom, ...],
                      "lhs": str, "rhs": str}
    atom:            {"predicate": str, "args": [term, ...]}
    term:            {"var": str} | {"const": value} | {"null": int}
    instance:        {"facts": [atom, ...]}
"""

from __future__ import annotations

import json
from typing import Any

from .model.atoms import Atom
from .model.columnar import ColumnarInstance
from .model.dependencies import EGD, TGD, AnyDependency, DependencySet
from .model.terms import Constant, Null, Term, Variable


class SerialisationError(ValueError):
    """Raised on malformed JSON payloads."""


# -- terms --------------------------------------------------------------------


def term_to_json(t: Term) -> dict:
    """One term → its single-key JSON object."""
    if isinstance(t, Variable):
        return {"var": t.name}
    if isinstance(t, Constant):
        return {"const": t.value}
    if isinstance(t, Null):
        return {"null": t.label}
    raise SerialisationError(f"cannot serialise term {t!r}")


def term_from_json(data: dict) -> Term:
    """Inverse of :func:`term_to_json`."""
    if not isinstance(data, dict) or len(data) != 1:
        raise SerialisationError(f"bad term payload: {data!r}")
    if "var" in data:
        return Variable(data["var"])
    if "const" in data:
        return Constant(data["const"])
    if "null" in data:
        return Null(int(data["null"]))
    raise SerialisationError(f"bad term payload: {data!r}")


# -- atoms --------------------------------------------------------------------


def atom_to_json(atom: Atom) -> dict:
    """One atom → JSON."""
    return {
        "predicate": atom.predicate,
        "args": [term_to_json(t) for t in atom.args],
    }


def atom_from_json(data: dict) -> Atom:
    """Inverse of :func:`atom_to_json`."""
    try:
        return Atom(
            data["predicate"], [term_from_json(t) for t in data["args"]]
        )
    except (KeyError, TypeError) as exc:
        raise SerialisationError(f"bad atom payload: {data!r}") from exc


# -- dependencies --------------------------------------------------------------


def dependency_to_json(dep: AnyDependency) -> dict:
    """One TGD/EGD → JSON (kind-tagged)."""
    if isinstance(dep, TGD):
        return {
            "kind": "tgd",
            "label": dep.label,
            "body": [atom_to_json(a) for a in dep.body],
            "head": [atom_to_json(a) for a in dep.head],
            "existential": [v.name for v in dep.existential],
        }
    return {
        "kind": "egd",
        "label": dep.label,
        "body": [atom_to_json(a) for a in dep.body],
        "lhs": dep.lhs.name,
        "rhs": dep.rhs.name,
    }


def dependency_from_json(data: dict) -> AnyDependency:
    """Inverse of :func:`dependency_to_json`."""
    try:
        kind = data["kind"]
        body = [atom_from_json(a) for a in data["body"]]
        if kind == "tgd":
            return TGD(
                body,
                [atom_from_json(a) for a in data["head"]],
                existential=[Variable(n) for n in data.get("existential", [])],
                label=data.get("label", ""),
            )
        if kind == "egd":
            return EGD(
                body,
                Variable(data["lhs"]),
                Variable(data["rhs"]),
                label=data.get("label", ""),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerialisationError(f"bad dependency payload: {data!r}") from exc
    raise SerialisationError(f"unknown dependency kind {data.get('kind')!r}")


# -- top level -------------------------------------------------------------------


def dependencies_to_json(sigma: DependencySet) -> dict:
    """A dependency set → JSON."""
    return {"dependencies": [dependency_to_json(d) for d in sigma]}


def dependencies_from_json(data: dict) -> DependencySet:
    """Inverse of :func:`dependencies_to_json`."""
    try:
        payload = data["dependencies"]
    except (KeyError, TypeError) as exc:
        raise SerialisationError("missing 'dependencies' key") from exc
    return DependencySet(dependency_from_json(d) for d in payload)


def instance_to_json(inst: ColumnarInstance) -> dict:
    """An instance → JSON (facts sorted for stable diffs)."""
    return {"facts": [atom_to_json(f) for f in sorted(inst, key=str)]}


def instance_from_json(data: dict) -> ColumnarInstance:
    """Inverse of :func:`instance_to_json`."""
    try:
        payload = data["facts"]
    except (KeyError, TypeError) as exc:
        raise SerialisationError("missing 'facts' key") from exc
    return ColumnarInstance(atom_from_json(a) for a in payload)


# -- JSONL ---------------------------------------------------------------------


def jsonl_dumps(record: dict) -> str:
    """One record → one compact JSON line (no newline appended).

    Keys are sorted so identical records always serialise identically —
    the batch result cache (:mod:`repro.batch.cache`) relies on this for
    stable diffs of its on-disk log.
    """
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if "\n" in text:  # only possible via exotic payloads; keep lines atomic
        raise SerialisationError("JSONL records must serialise to one line")
    return text


def iter_jsonl(text: str) -> Any:
    """Yield ``(line_number, record_or_None)`` for each non-blank line.

    Malformed lines — truncated tails of an interrupted writer, garbage
    from a corrupted disk — yield ``None`` instead of raising, so a
    reader can count and skip them while keeping every intact record
    before *and after* the damage.
    """
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            yield i, None
            continue
        yield i, record if isinstance(record, dict) else None


def dumps(obj: DependencySet | ColumnarInstance, indent: int | None = 2) -> str:
    """JSON text for a dependency set or an instance."""
    if isinstance(obj, DependencySet):
        return json.dumps(dependencies_to_json(obj), indent=indent)
    if isinstance(obj, ColumnarInstance):
        return json.dumps(instance_to_json(obj), indent=indent)
    raise SerialisationError(f"cannot serialise {type(obj).__name__}")


def loads(text: str) -> DependencySet | ColumnarInstance:
    """Inverse of :func:`dumps` (dispatches on the top-level key)."""
    data: Any = json.loads(text)
    if isinstance(data, dict) and "dependencies" in data:
        return dependencies_from_json(data)
    if isinstance(data, dict) and "facts" in data:
        return instance_from_json(data)
    raise SerialisationError("expected a 'dependencies' or 'facts' object")
