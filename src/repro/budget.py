"""Resource budgets and cooperative cancellation.

Every potentially non-terminating analysis in the system — the Adn∃
adornment saturation, chase runs, Skolem saturation (MFA/MSA), witness
enumeration, chase-sequence exploration — consumes one shared notion of
resource budget.  A :class:`Budget` bounds up to three dimensions:

* **steps** — abstract units of work (loop iterations, unification
  attempts, homomorphism checks; each call site decides what one step
  means, the point is only that the count is finite and monotone);
* **facts** — size of a materialised result (instance facts, adorned
  records), for loops whose iterations are cheap but whose state grows;
* **wall clock** — milliseconds since the budget was started, the
  catch-all for divergence shapes the other two dimensions miss.

Exhaustion is a *verdict*, not an exception escape: ``charge`` returns
``False`` once the budget is blown and the caller unwinds normally,
returning its best partial answer flagged ``exact=False`` together with
the :class:`BudgetExhausted` record saying which dimension blew.  No
analysis raises to report exhaustion — see DESIGN.md §2 for why.

A :class:`Cancellation` token provides cooperative early termination:
sharing one token across several budgets (a budget's
:meth:`~Budget.child` budgets share its token) lets a controller revoke
all of them at once; the workers observe it at their next ``charge``.

Budgets nest: a child budget created with :meth:`Budget.child` has its
own limits but also charges its parent, so a per-call allowance (say, one
witness-engine pair) still counts against the enclosing per-criterion
budget and observes its deadline and cancellation.

An *ambient* budget can be installed for a dynamic scope with
:func:`budget_scope`; deep call chains (criterion → oracle → witness
engine) pick it up via :func:`current_budget` without threading a
parameter through every layer.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

#: How many step-charges may pass between wall-clock / cancellation
#: checks.  Clock reads are ~100ns but charge sits in the hottest loops
#: of the witness engine, so we only look up every N charges.
_CLOCK_STRIDE = 128


class Cancellation:
    """A cooperative cancellation token shared between budgets."""

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "live"
        return f"Cancellation({state})"


@dataclass(frozen=True)
class BudgetExhausted:
    """The verdict recorded when a budget dimension blows.

    ``dimension`` is one of ``"steps"``, ``"facts"``, ``"wall_ms"`` or
    ``"cancelled"``; ``spent`` is the consumption observed at exhaustion
    time and ``limit`` the configured bound (None for cancellation).
    """

    dimension: str
    spent: float
    limit: float | None

    def __str__(self) -> str:
        if self.dimension == "cancelled":
            return "cancelled"
        return f"{self.dimension} exhausted ({self.spent:g} of {self.limit:g})"


class Budget:
    """A multi-dimensional, non-raising resource budget.

    All dimensions are optional; a budget with no limits (and no
    cancellation) never exhausts.  ``charge``/``charge_facts`` return
    ``True`` while work may continue and ``False`` — permanently — once
    any dimension blows.
    """

    __slots__ = (
        "max_steps",
        "max_facts",
        "max_ms",
        "cancellation",
        "parent",
        "steps",
        "facts",
        "_start",
        "_exhausted",
        "_until_clock_check",
    )

    def __init__(
        self,
        max_steps: int | None = None,
        max_facts: int | None = None,
        max_ms: float | None = None,
        cancellation: Cancellation | None = None,
        parent: "Budget | None" = None,
    ) -> None:
        self.max_steps = max_steps
        self.max_facts = max_facts
        self.max_ms = max_ms
        self.cancellation = cancellation
        self.parent = parent
        self.steps = 0
        self.facts = 0
        self._start = time.monotonic()
        self._exhausted: BudgetExhausted | None = None
        self._until_clock_check = 0

    @classmethod
    def unlimited(cls) -> "Budget":
        return cls()

    def child(
        self,
        max_steps: int | None = None,
        max_facts: int | None = None,
        max_ms: float | None = None,
    ) -> "Budget":
        """A sub-budget with its own limits that also charges ``self``."""
        return Budget(
            max_steps=max_steps,
            max_facts=max_facts,
            max_ms=max_ms,
            cancellation=self.cancellation,
            parent=self,
        )

    # -- charging ----------------------------------------------------------

    def charge(self, n: int = 1) -> bool:
        """Consume ``n`` steps; False once the budget is exhausted."""
        if self._exhausted is not None:
            return False
        self.steps += n
        if self.max_steps is not None and self.steps > self.max_steps:
            self._exhausted = BudgetExhausted("steps", self.steps, self.max_steps)
            return False
        # The clock-check countdown consumes n, not 1: a bulk charge
        # covers n units of work, so bulk-charging loops must hit the
        # stride-gated wall-clock/cancellation checks as often per unit
        # of work as unit-charging ones.
        self._until_clock_check -= n
        if self._until_clock_check <= 0:
            self._until_clock_check = _CLOCK_STRIDE
            if not self._check_slow():
                return False
        if self.parent is not None and not self.parent.charge(n):
            self._exhausted = self.parent._exhausted
            return False
        return True

    def charge_facts(self, n: int = 1) -> bool:
        """Consume ``n`` facts; False once the budget is exhausted."""
        if self._exhausted is not None:
            return False
        self.facts += n
        if self.max_facts is not None and self.facts > self.max_facts:
            self._exhausted = BudgetExhausted("facts", self.facts, self.max_facts)
            return False
        # See charge(): the countdown consumes n, not 1.
        self._until_clock_check -= n
        if self._until_clock_check <= 0:
            self._until_clock_check = _CLOCK_STRIDE
            if not self._check_slow():
                return False
        if self.parent is not None and not self.parent.charge_facts(n):
            self._exhausted = self.parent._exhausted
            return False
        return True

    def _check_slow(self) -> bool:
        """The stride-gated checks: cancellation and wall clock."""
        if self.cancellation is not None and self.cancellation.cancelled:
            self._exhausted = BudgetExhausted("cancelled", 0, None)
            return False
        if self.max_ms is not None:
            elapsed = (time.monotonic() - self._start) * 1000.0
            if elapsed > self.max_ms:
                self._exhausted = BudgetExhausted("wall_ms", elapsed, self.max_ms)
                return False
        return True

    # -- inspection --------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True while work may continue (forces the slow checks)."""
        if self._exhausted is not None:
            return False
        if not self._check_slow():
            return False
        if self.parent is not None and not self.parent.ok:
            self._exhausted = self.parent._exhausted
            return False
        return True

    @property
    def exhausted(self) -> BudgetExhausted | None:
        return self._exhausted

    @property
    def exact(self) -> bool:
        """True iff the budget never blew: results are not truncated."""
        return self._exhausted is None

    def elapsed_ms(self) -> float:
        return (time.monotonic() - self._start) * 1000.0

    def __repr__(self) -> str:
        state = str(self._exhausted) if self._exhausted else "ok"
        return (
            f"Budget(steps={self.steps}/{self.max_steps}, "
            f"facts={self.facts}/{self.max_facts}, "
            f"ms={self.elapsed_ms():.0f}/{self.max_ms}, {state})"
        )


# -- ambient budget ---------------------------------------------------------

_AMBIENT: ContextVar[Budget | None] = ContextVar("repro_ambient_budget", default=None)


def current_budget() -> Budget | None:
    """The budget installed for the current dynamic scope, if any."""
    return _AMBIENT.get()


@contextmanager
def budget_scope(budget: Budget | None) -> Iterator[Budget | None]:
    """Install ``budget`` as the ambient budget for the ``with`` body.

    Deeply nested consumers (the witness engine behind a criterion's
    firing oracle, the saturation loop behind MFA) call
    :func:`current_budget` and link their local budgets to it, so one
    scope bounds an entire analysis without parameter threading.
    """
    token = _AMBIENT.set(budget)
    try:
        yield budget
    finally:
        _AMBIENT.reset(token)


def coerce_budget(
    budget: "Budget | int | None",
    default_steps: int | None = None,
    link_ambient: bool = True,
) -> Budget:
    """Normalise the common ``budget`` parameter shapes.

    ``None`` becomes a fresh budget limited to ``default_steps``;
    an ``int`` is a step limit (the historical calling convention of the
    witness engine); a :class:`Budget` passes through untouched.  Fresh
    budgets are parented to the ambient budget when one is installed.
    """
    if isinstance(budget, Budget):
        return budget
    steps = budget if budget is not None else default_steps
    parent = current_budget() if link_ambient else None
    if parent is not None:
        return parent.child(max_steps=steps)
    return Budget(max_steps=steps)
