"""Every dependency set and database appearing in the paper's examples.

These are the ground truth for the test suite and for the Figure 1 /
expressivity benches.  Names follow the paper: ``sigma_1`` is Σ1 of
Example 1, etc.
"""

from __future__ import annotations

from ..model.columnar import ColumnarInstance
from ..model.dependencies import DependencySet
from ..model.parser import parse_dependencies, parse_facts


def sigma_1() -> DependencySet:
    """Σ1 (Example 1): EGD r3 rescues an otherwise non-terminating pair.

    In CTstd∃ (enforce r1 then r3) but not CTstd∀ (alternating r1, r2
    forever).  Example 12 runs Adn∃ on it: Acyc = true.
    """
    return parse_dependencies(
        """
        r1: N(x) -> exists y. E(x, y)
        r2: E(x, y) -> N(y)
        r3: E(x, y) -> x = y
        """
    )


def db_1() -> ColumnarInstance:
    """D = {N(a)} used throughout Examples 1–5."""
    return parse_facts('N("a")')


def sigma_3() -> DependencySet:
    """Σ3 (Example 3): two existential TGDs; universal-model example."""
    return parse_dependencies(
        """
        r1: P(x, y) -> exists z. E(x, z)
        r2: Q(x, y) -> exists z. E(z, y)
        """
    )


def db_3() -> ColumnarInstance:
    """D = {P(a,b), Q(c,d)} of Example 3."""
    return parse_facts('P("a", "b") Q("c", "d")')


def sigma_6() -> DependencySet:
    """Σ6 (Example 6): one TGD separating standard/semi-oblivious/oblivious."""
    return parse_dependencies("r: E(x, y) -> exists z. E(x, z)")


def db_6() -> ColumnarInstance:
    """D = {E(a,b)} of Examples 6/7."""
    return parse_facts('E("a", "b")')


def sigma_8() -> DependencySet:
    """Σ8 (Example 8): all chase sequences terminate, yet no
    substitution-free simulation of it has even one terminating sequence
    (Theorem 2's incompleteness witness)."""
    return parse_dependencies(
        """
        r1: A(x) & B(x) -> C(x)
        r2: C(x) -> exists y. A(x) & B(y)
        r3: C(x) -> exists y. A(y) & B(x)
        r4: A(x) & A(y) -> x = y
        r5: B(x) & B(y) -> x = y
        """
    )


def db_8() -> ColumnarInstance:
    """A one-fact database activating Σ8."""
    return parse_facts('C("a")')


def sigma_10() -> DependencySet:
    """Σ10 (Example 10): the TGD part is terminating for every variant,
    adding the EGD removes every terminating sequence.  Example 13 runs
    Adn∃ on it: Acyc = false."""
    return parse_dependencies(
        """
        r1: N(x) -> exists y, z. E(x, y, z)
        r2: E(x, y, y) -> N(y)
        r3: E(x, y, z) -> y = z
        """
    )


def db_10() -> ColumnarInstance:
    """D = {N(a)} of Example 10."""
    return parse_facts('N("a")')


def sigma_11() -> DependencySet:
    """Σ11 (Example 11 / Figure 1): semi-stratified but not stratified."""
    return parse_dependencies(
        """
        r1: N(x) -> exists y. E(x, y)
        r2: E(x, y) -> N(y)
        r3: E(x, y) -> E(y, x)
        """
    )


def db_11() -> ColumnarInstance:
    """D = {N(a)} of Example 11."""
    return parse_facts('N("a")')


#: Figure 1 ground truth: edges of the chase graph G(Σ11) and the firing
#: graph Gf(Σ11), as (label, label) pairs.
FIGURE1_CHASE_EDGES = {("r1", "r2"), ("r1", "r3"), ("r2", "r1"), ("r3", "r2")}
FIGURE1_FIRING_EDGES = {("r1", "r2"), ("r1", "r3"), ("r3", "r2")}


def all_paper_sets() -> dict[str, DependencySet]:
    """Every named dependency set of the paper, keyed by its name."""
    return {
        "sigma_1": sigma_1(),
        "sigma_3": sigma_3(),
        "sigma_6": sigma_6(),
        "sigma_8": sigma_8(),
        "sigma_10": sigma_10(),
        "sigma_11": sigma_11(),
    }
