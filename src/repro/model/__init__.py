"""Relational model substrate: terms, atoms, dependencies, instances, parser."""

from .atoms import (
    Atom,
    Position,
    apply_mapping,
    atoms_constants,
    atoms_nulls,
    atoms_terms,
    atoms_variables,
)
from .columnar import ColumnarInstance, Savepoint
from .dependencies import EGD, TGD, AnyDependency, Dependency, DependencySet, dependency_set
from .instances import InconsistencyError, database, instance_from_tuples
from .parser import (
    ParseError,
    parse_dependencies,
    parse_dependency,
    parse_facts,
    to_text,
)
from .schema import Schema
from .terms import (
    Constant,
    GroundTerm,
    Null,
    NullFactory,
    Term,
    Variable,
    constants,
    fresh_null,
    variables,
)

#: The public name of the one mutable fact store: the same class object.
Instance = ColumnarInstance

__all__ = [
    "Atom",
    "Position",
    "apply_mapping",
    "atoms_constants",
    "atoms_nulls",
    "atoms_terms",
    "atoms_variables",
    "EGD",
    "TGD",
    "AnyDependency",
    "Dependency",
    "DependencySet",
    "dependency_set",
    "ColumnarInstance",
    "InconsistencyError",
    "Instance",
    "Savepoint",
    "database",
    "instance_from_tuples",
    "ParseError",
    "parse_dependencies",
    "parse_dependency",
    "parse_facts",
    "to_text",
    "Schema",
    "Constant",
    "GroundTerm",
    "Null",
    "NullFactory",
    "Term",
    "Variable",
    "constants",
    "fresh_null",
    "variables",
]
