"""Databases, and the chase-failure exception.

An *instance* is a set of facts (atoms over constants and labelled nulls);
a *database* is an instance containing only constants (Section 2).  Both
are :class:`~.columnar.ColumnarInstance` objects — the one mutable fact
store (DESIGN.md §1/§5/§10), exported publicly as ``repro.Instance``.
This module holds the database constructors and the ``J = ⊥`` signal.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .atoms import Atom
from .columnar import ColumnarInstance
from .terms import Constant, Null, Variable


class InconsistencyError(Exception):
    """Raised when an EGD step would equate two distinct constants.

    This is the ``J = ⊥`` case of Definition 1(2a): the chase sequence fails.
    """


def database(*facts: Atom) -> ColumnarInstance:
    """Build a database, checking that no nulls appear."""
    inst = ColumnarInstance(facts)
    if not inst.is_database:
        raise ValueError("databases may not contain labelled nulls")
    return inst


def instance_from_tuples(rows: Mapping[str, Iterable[tuple]]) -> ColumnarInstance:
    """Build an instance from ``{"R": [(a, b), ...], ...}``.

    Python values become constants; :class:`Null` / :class:`Constant`
    instances are used as-is.  Example::

        instance_from_tuples({"N": [("a",)], "E": [("a", "b")]})
    """
    inst = ColumnarInstance()
    for pred, tuples in rows.items():
        for row in tuples:
            args = [
                t if isinstance(t, (Constant, Null)) else Constant(t) for t in row
            ]
            if any(isinstance(t, Variable) for t in args):
                raise ValueError("facts may not contain variables")
            inst.add(Atom(pred, args))
    return inst
