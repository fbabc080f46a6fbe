"""Chase strategies: how the next applicable trigger is picked.

The standard chase picks nondeterministically among applicable steps;
different choices yield different sequences (Example 1).  A strategy is a
callable receiving the list of pending triggers and returning the index of
the one to fire (see :data:`Strategy` for what each element answers).

``full_first`` is the strategy behind the paper's existential-termination
results: full dependencies (full TGDs and EGDs) never create new nulls, so
saturating them before firing existential TGDs gives EGDs the chance to
merge nulls away — exactly how Σ1 of Example 1 and Σ11 of Example 11 obtain
terminating sequences.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Sequence

Strategy = Callable[[Sequence[Any]], int]
"""A strategy: ``pick(pending) -> index``.

``pending`` is the runner's list of pending triggers in discovery order
(each discovery batch in canonical order; see
:mod:`repro.chase.runner`).  It may hold triggers that turn out no
longer applicable — the runner drops such a pick and asks again.  Every
element answers

* ``.dependency`` — the dependency of Σ the trigger would fire, and
* ``.assignment`` — its body homomorphism as ``(variable, image)``
  pairs in variable-name order, built on demand (cheap to skip, so
  strategies that only read ``.dependency`` cost nothing extra).

The runner's elements are :class:`~repro.chase.step.PendingTrigger`;
a :class:`~repro.chase.step.Trigger` answers the same two, so a strategy
works on either.  A strategy must not mutate the list.
"""


def fifo(triggers: Sequence[Any]) -> int:
    """Fire the oldest discovered applicable trigger."""
    return 0


def lifo(triggers: Sequence[Any]) -> int:
    """Fire the most recently discovered applicable trigger."""
    return len(triggers) - 1


def full_first(triggers: Sequence[Any]) -> int:
    """Prefer full dependencies (EGDs and full TGDs) over existential TGDs.

    Among full dependencies, EGDs win (merging early keeps instances small).
    The first trigger of the best rank is picked, so the scan stops at the
    first EGD.
    """
    best, best_rank = 0, _rank(triggers[0])
    if best_rank == 0:
        return 0
    for i, t in enumerate(triggers):
        dep = t.dependency
        if dep.is_egd:
            return i
        if best_rank == 2 and dep.is_full:
            best, best_rank = i, 1
    return best


def egd_first(triggers: Sequence[Any]) -> int:
    """Prefer EGDs, then anything."""
    for i, t in enumerate(triggers):
        if t.dependency.is_egd:
            return i
    return 0


def existential_first(triggers: Sequence[Any]) -> int:
    """Adversarial strategy: prefer null-creating steps (used in tests to
    find non-terminating sequences)."""
    for i, t in enumerate(triggers):
        if t.dependency.is_existential:
            return i
    return 0


def _rank(trigger: Any) -> int:
    dep = trigger.dependency
    if dep.is_egd:
        return 0
    if dep.is_full:
        return 1
    return 2


def random_strategy(seed: int) -> Strategy:
    """A reproducible random strategy."""
    rng = random.Random(seed)

    def pick(triggers: Sequence[Any]) -> int:
        return rng.randrange(len(triggers))

    return pick


NAMED_STRATEGIES: dict[str, Strategy] = {
    "fifo": fifo,
    "lifo": lifo,
    "full_first": full_first,
    "egd_first": egd_first,
    "existential_first": existential_first,
}


def resolve_strategy(strategy: "Strategy | str") -> Strategy:
    """Accept a strategy callable or one of the registered names."""
    if callable(strategy):
        return strategy
    try:
        return NAMED_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; known: {sorted(NAMED_STRATEGIES)}"
        ) from None
