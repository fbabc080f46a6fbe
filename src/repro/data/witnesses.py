"""Witness families for the termination-class relationships of Table 1.

Each entry packages a dependency set, a database, and the claim it
witnesses.  The Table 1 bench re-verifies every claim empirically with the
chase explorer (bounded exhaustive exploration of the nondeterminism) and
the chase runners.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model.columnar import ColumnarInstance
from ..model.dependencies import DependencySet
from ..model.parser import parse_dependencies, parse_facts
from .paper import db_1, db_10, db_11, sigma_1, sigma_10, sigma_11


@dataclass(frozen=True)
class Claim:
    """One membership/non-membership claim to verify empirically."""

    variant: str          # "standard" | "oblivious" | "semi_oblivious" | "core"
    quantifier: str       # "all" | "exists"
    member: bool          # claimed membership of sigma in CT^variant_quantifier


@dataclass(frozen=True)
class WitnessCase:
    """A dependency set + database + the claims it witnesses."""

    name: str
    description: str
    sigma: DependencySet
    database: ColumnarInstance
    claims: tuple[Claim, ...]


def sigma_std_all_not_sobl_exists() -> DependencySet:
    """∈ CTstd∀ \\ CTsobl∃ (TGD-only).

    The head is always satisfiable from the body (take z = x), so the
    standard chase never fires; the semi-oblivious chase keys triggers on
    the frontier {y} and generates fresh frontier values forever.
    """
    return parse_dependencies("r: E(x, y) -> exists z. E(y, z) & E(z, y)")


def witness_cases() -> list[WitnessCase]:
    """All Table 1 witnesses with their claims."""
    return [
        WitnessCase(
            name="sigma_1",
            description=(
                "Σ1 (Example 1): with EGDs, ∃-termination without "
                "∀-termination for standard, oblivious and semi-oblivious "
                "chase — witnesses CTc∀ ⊊ CTc∃ (row 1/2/6 of Table 1) and "
                "the A-sides of the three incomparability claims"
            ),
            sigma=sigma_1(),
            database=db_1(),
            claims=(
                Claim("standard", "exists", True),
                Claim("standard", "all", False),
                Claim("oblivious", "exists", True),
                Claim("oblivious", "all", False),
                Claim("semi_oblivious", "exists", True),
                Claim("semi_oblivious", "all", False),
            ),
        ),
        WitnessCase(
            name="sigma_6",
            description=(
                "Σ6 (Example 6): TGD-only set in CTsobl∀ but not CTobl∃ — "
                "the B-side of CTobl∃ ∦ CTsobl∀"
            ),
            sigma=parse_dependencies("r: E(x, y) -> exists z. E(x, z)"),
            database=parse_facts('E("a", "b")'),
            claims=(
                Claim("standard", "all", True),
                Claim("semi_oblivious", "all", True),
                Claim("oblivious", "exists", False),
            ),
        ),
        WitnessCase(
            name="mirror_pair",
            description=(
                "E(x,y) → ∃z E(y,z) ∧ E(z,y): in CTstd∀ (the head is always "
                "witnessed by the body) but not CTsobl∃ nor CTobl∃ — the "
                "B-side of CTsobl∃ ∦ CTstd∀ and CTobl∃ ∦ CTstd∀"
            ),
            sigma=sigma_std_all_not_sobl_exists(),
            database=parse_facts('E("a", "a")'),
            claims=(
                Claim("standard", "all", True),
                Claim("semi_oblivious", "exists", False),
                Claim("oblivious", "exists", False),
            ),
        ),
        WitnessCase(
            name="sigma_11",
            description=(
                "Σ11 (Example 11): TGD-only set in CTstd∃ but not CTstd∀ — "
                "witnesses CTstd∀ ⊊ CTstd∃ already for TGDs"
            ),
            sigma=sigma_11(),
            database=db_11(),
            claims=(
                Claim("standard", "exists", True),
                Claim("standard", "all", False),
            ),
        ),
        WitnessCase(
            name="sigma_10",
            description=(
                "Σ10 (Example 10): adding an EGD removes every terminating "
                "sequence, while the TGD part alone is in CTstd∀ — EGDs cut "
                "both ways (Section 4)"
            ),
            sigma=sigma_10(),
            database=db_10(),
            claims=(Claim("standard", "exists", False),),
        ),
    ]
