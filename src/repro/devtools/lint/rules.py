"""The shipped rules: DESIGN.md §1–§7 as AST checks.

Each rule names the design section it guards; DESIGN.md §8 carries the
inverse map.  Rules are deliberately *syntactic* — they ask "does this
loop contain a budget poll", not "is this loop bounded" — so a bounded
loop in a patrolled module carries a one-line suppression stating *why*
it is bounded, which is exactly the reviewable artefact the prose
invariant never produced.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Iterator

from .framework import Finding, ModuleSource, Rule, register

# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------

_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _walk_same_scope(nodes: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statement subtrees without descending into nested functions.

    A closure *defined* inside a loop is not *executed* by the loop, so a
    budget poll (or a raise) inside one proves nothing about the
    enclosing scope.
    """
    stack: list[ast.AST] = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _NESTED_SCOPES):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _handler_names(type_node: ast.expr | None) -> set[str]:
    """The exception class names an ``except`` clause catches."""
    if type_node is None:
        return set()
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    names: set[str] = set()
    for n in nodes:
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def _is_call_to(node: ast.AST, owner: str, attr: str) -> bool:
    """Is ``node`` a call spelled ``owner.attr(...)``?"""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == owner
    )


# ---------------------------------------------------------------------------
# budget-loop (§2)
# ---------------------------------------------------------------------------

#: Attribute reads/calls that count as observing the budget machinery:
#: ``budget.charge()`` / ``charge_facts()``, the ``ok`` property, a
#: cancellation token's ``cancelled`` — plus any ``charge*``-named
#: helper (e.g. the adornment driver's stride-batched ``_charge_batched``).
#: Hot loops that hoist the bound method out of the loop body for speed
#: (``charge = budget.charge`` before a plan-replay loop) poll through a
#: *bare name* instead of an attribute; those count too.
_BUDGET_POLLS = {"ok", "cancelled"}


def _poll_name(name: str) -> bool:
    return name in _BUDGET_POLLS or name.lstrip("_").startswith("charge")


def _polls_budget(body: list[ast.stmt]) -> bool:
    for n in _walk_same_scope(body):
        if isinstance(n, ast.Attribute) and _poll_name(n.attr):
            return True
        if (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and _poll_name(n.func.id)
        ):
            return True
    return False


def _calls_itself(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for n in _walk_same_scope(func.body):
        if isinstance(n, ast.Call):
            callee = n.func
            if isinstance(callee, ast.Name) and callee.id == func.name:
                return True
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr == func.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("self", "cls")
            ):
                return True
    return False


@register
class BudgetLoopRule(Rule):
    """Every loop in a divergence-prone module must observe the budget.

    The §2 contract: each potentially unbounded analysis loop charges a
    :class:`repro.budget.Budget` (or polls a ``Cancellation`` token) per
    iteration, so a step/wall-clock limit always terminates it.  Bounded
    loops in these modules carry a suppression whose justification states
    the bound — making boundedness a reviewed claim instead of a hope.
    """

    name = "budget-loop"
    section = "§2"
    summary = (
        "while loops and recursive functions in chase/adornment/witness/"
        "explorer modules must charge a Budget or poll a Cancellation token"
    )
    include = (
        "*src/repro/chase/*.py",
        "*src/repro/core/adornment.py",
        "*src/repro/firing/witness.py",
    )

    def check(self, mod: ModuleSource) -> Iterator[Finding]:
        assert mod.tree is not None
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.While) and not _polls_budget(node.body):
                yield mod.finding(
                    node,
                    self.name,
                    "while loop neither charges a Budget nor polls a "
                    "Cancellation token (DESIGN.md §2); charge per iteration "
                    "or suppress with the boundedness argument",
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _calls_itself(node) and not _polls_budget(node.body):
                    yield mod.finding(
                        node,
                        self.name,
                        f"recursive function '{node.name}' never charges a "
                        "Budget or polls a Cancellation token (DESIGN.md §2)",
                    )


# ---------------------------------------------------------------------------
# swallowed-control-exception (§2)
# ---------------------------------------------------------------------------

#: Exception classes that carry control flow the §2 contract depends on.
#: ``BudgetExhausted``/``Cancellation`` are verdict types today, but any
#: handler naming them is either dead or a soundness bug in the making;
#: ``CoreBudgetExceeded``/``KeyboardInterrupt`` are the live control
#: exceptions (core search cutoff, the batch engine's SIGINT drain).
_CONTROL_EXCEPTIONS = {
    "BudgetExhausted",
    "Cancellation",
    "CoreBudgetExceeded",
    "KeyboardInterrupt",
}
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _is_trivial_body(body: list[ast.stmt]) -> bool:
    """Only ``pass``/``continue``/docstring — pure suppression."""
    return all(
        isinstance(stmt, (ast.Pass, ast.Continue))
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        for stmt in body
    )


@register
class SwallowedControlExceptionRule(Rule):
    """No handler may silently eat budget/cancellation control flow.

    The PR 2 unsoundness class: exhaustion suppressed on the way up gets
    misreported as a completed (and therefore trusted) analysis.  A
    handler naming a control exception must re-raise or convert it into a
    recorded verdict (any non-trivial body); a broad ``except
    Exception``/``BaseException`` must re-raise, because it would eat
    whatever control flow unwinds through it.
    """

    name = "swallowed-control-exception"
    section = "§2"
    summary = (
        "except clauses must not suppress BudgetExhausted/Cancellation-"
        "style control flow without re-raising or recording a verdict"
    )

    def check(self, mod: ModuleSource) -> Iterator[Finding]:
        assert mod.tree is not None
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue  # bare except is its own rule
            names = _handler_names(node.type)
            reraises = any(
                isinstance(n, ast.Raise) for n in _walk_same_scope(node.body)
            )
            control = names & _CONTROL_EXCEPTIONS
            if control and not reraises and _is_trivial_body(node.body):
                yield mod.finding(
                    node,
                    self.name,
                    f"handler swallows {', '.join(sorted(control))} without "
                    "re-raising or recording a verdict (DESIGN.md §2)",
                )
            elif names & _BROAD_EXCEPTIONS and not reraises:
                yield mod.finding(
                    node,
                    self.name,
                    f"broad 'except {', '.join(sorted(names & _BROAD_EXCEPTIONS))}' "
                    "without a re-raise can eat budget-exhaustion and "
                    "cancellation control flow (DESIGN.md §2); narrow it or "
                    "re-raise",
                )


# ---------------------------------------------------------------------------
# instance-encapsulation (§1/§5)
# ---------------------------------------------------------------------------

#: The fact store's private columns, term table, copy-on-write marks,
#: delta log and undo machinery (DESIGN.md §5/§10).
_INSTANCE_PRIVATES = {
    "_stores", "_terms", "_owned", "_cow",
    "_log", "_undo", "_sp_stack", "_undo_len", "_log_len",
}


@register
class InstanceEncapsulationRule(Rule):
    """Only the fact store and the compiled-plan executor touch instance
    innards.

    The §1 index/delta-log lockstep and the §5 undo-log discipline hold
    because every mutation goes through ``add``/``discard``/
    ``merge_terms``; out-of-band access to a column, cell or log could
    desynchronise them silently.  Access through ``self`` is exempt — a
    foreign class's own ``_log`` attribute is its own business.
    """

    name = "instance-encapsulation"
    section = "§1/§5"
    summary = (
        "instance private column/log/undo attributes are off limits "
        "outside repro/model/columnar.py and the plan executor"
    )
    include = ("*src/repro/*.py",)
    exclude = (
        "*repro/model/columnar.py",
        "*repro/matching/plans.py",
    )

    def check(self, mod: ModuleSource) -> Iterator[Finding]:
        assert mod.tree is not None
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _INSTANCE_PRIVATES
                and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                )
            ):
                yield mod.finding(
                    node,
                    self.name,
                    f"access to instance private '{node.attr}' outside "
                    "repro/model/columnar.py and the plan executor "
                    "(DESIGN.md §1/§5); use the public accessors",
                )


# ---------------------------------------------------------------------------
# backend-dispatch (§1)
# ---------------------------------------------------------------------------

#: The matching backend's switch and its context variable (DESIGN.md §1).
_BACKEND_NAMES = {"get_backend", "using_backend", "_backend"}


@register
class BackendDispatchRule(Rule):
    """Only ``repro.matching`` reads or switches the matching backend.

    §1: a consumer calls one matching entry point per job, and that entry
    point dispatches on the active backend; a consumer that branches on
    the backend itself grows a second path of its own.  Tests pick a
    backend with ``using_backend`` and are not patrolled.
    """

    name = "backend-dispatch"
    section = "§1"
    summary = (
        "only repro/matching/ may reference get_backend, using_backend "
        "or _backend"
    )
    include = ("*src/repro/*.py",)
    exclude = ("*src/repro/matching/*.py",)

    def check(self, mod: ModuleSource) -> Iterator[Finding]:
        assert mod.tree is not None
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in _BACKEND_NAMES:
                yield mod.finding(
                    node, self.name,
                    f"'{name}' outside repro/matching/ (DESIGN.md §1); call "
                    "a matching entry point, which dispatches itself",
                )


# ---------------------------------------------------------------------------
# fork-safety (§7)
# ---------------------------------------------------------------------------


@register
class ForkSafetyRule(Rule):
    """SQLite connections live behind the pid-guarded ``_Handle`` only.

    The §7 contract: the batch engine forks worker processes while the
    parent holds the store open, so a connection created anywhere but
    lazily inside ``repro/store/sqlite.py``'s handle — in particular a
    module-level connection, which every forked child would inherit and
    share — corrupts the parent's WAL.  Tests that open a read-only
    inspection connection suppress with that justification.
    """

    name = "fork-safety"
    section = "§7"
    summary = (
        "sqlite3.connect only inside repro/store/sqlite.py; never a "
        "module-level or fork-shared connection"
    )

    _ALLOWED = ("*src/repro/store/sqlite.py",)

    def check(self, mod: ModuleSource) -> Iterator[Finding]:
        assert mod.tree is not None
        allowed = any(fnmatch.fnmatch(mod.path, p) for p in self._ALLOWED)
        # Module-level connections are unsafe even inside the store
        # module: every forked worker would inherit the handle.
        # ``_walk_same_scope`` over the module body visits exactly the
        # code executed at import time (including class bodies) while
        # skipping function bodies, which run later.
        module_level: set[tuple[int, int]] = set()
        for sub in _walk_same_scope(mod.tree.body):
            if _is_call_to(sub, "sqlite3", "connect") or (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "connect"
            ):
                module_level.add((sub.lineno, sub.col_offset))
                yield mod.finding(
                    sub,
                    self.name,
                    "module-level SQLite connection is shared across "
                    "fork (DESIGN.md §7); open connections lazily "
                    "behind the pid-guarded handle",
                )
        if allowed:
            return
        for node in ast.walk(mod.tree):
            if _is_call_to(node, "sqlite3", "connect") and \
                    (node.lineno, node.col_offset) not in module_level:
                yield mod.finding(
                    node,
                    self.name,
                    "sqlite3.connect outside repro/store/sqlite.py "
                    "(DESIGN.md §7); go through the store's pid-guarded "
                    "handle",
                )


# ---------------------------------------------------------------------------
# determinism (§4/§6)
# ---------------------------------------------------------------------------

#: Call targets whose output lands on disk or in a cache key.
_SINK_NAMES = {"stable_hash", "record_identity", "jsonl_dumps"}
_SINK_ATTRS = {"dumps", "sha256", "sha1", "md5", "blake2b", "blake2s"}

#: Instance accessors (and builtins) that produce genuinely
#: unordered sets.  Dict views are excluded: dict iteration is
#: insertion-ordered, which deterministic construction preserves.
_SET_RETURNING_ATTRS = {"nulls", "predicates", "constants", "domain"}


def _is_sink_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name):
        return node.func.id in _SINK_NAMES
    if isinstance(node.func, ast.Attribute):
        return node.func.attr in _SINK_ATTRS
    return False


def _is_setlike(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in _SET_RETURNING_ATTRS:
            return True
    return False


def _unsorted_setlike(node: ast.AST, protected: bool, out: list[ast.AST]) -> None:
    """Collect set-like expressions not shielded by a ``sorted(...)``."""
    if not protected and _is_setlike(node):
        out.append(node)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("sorted", "min", "max", "len", "sum")
    ):
        protected = True
    for child in ast.iter_child_nodes(node):
        _unsorted_setlike(child, protected, out)


@register
class DeterminismRule(Rule):
    """Fingerprint/canonical-key/identity code must be order- and
    environment-independent.

    Cache keys and stored identities (§4, §6) are on-disk artefacts: the
    same program must produce byte-identical keys across processes, hash
    seeds and machines.  Set iteration order, ``time``, unseeded
    ``random``, ``id()`` and the salted builtin ``hash()`` all break
    that, silently — a wrong key is just a cache miss until it is a
    wrong verdict served to the wrong program.
    """

    name = "determinism"
    section = "§4/§6"
    summary = (
        "no unsorted set iteration feeding hashes/serialisation, no "
        "time/unseeded random/id()/builtin hash() in identity code"
    )
    include = (
        "*src/repro/batch/fingerprint.py",
        "*src/repro/homomorphism/cores.py",
        "*src/repro/store/query.py",
    )

    def check(self, mod: ModuleSource) -> Iterator[Finding]:
        assert mod.tree is not None
        for node in ast.walk(mod.tree):
            yield from self._forbidden_call(mod, node)
            if _is_sink_call(node):
                bad: list[ast.AST] = []
                assert isinstance(node, ast.Call)
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    _unsorted_setlike(arg, False, bad)
                for expr in bad:
                    yield mod.finding(
                        expr,
                        self.name,
                        "unsorted set iteration feeds a hash/serialisation "
                        "sink (DESIGN.md §4); wrap it in sorted(...)",
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)) and \
                    _is_setlike(node.iter):
                if any(_is_sink_call(n) for n in _walk_same_scope(node.body)):
                    yield mod.finding(
                        node,
                        self.name,
                        "loop over an unordered set drives a hash/"
                        "serialisation sink (DESIGN.md §4); iterate "
                        "sorted(...)",
                    )

    def _forbidden_call(self, mod: ModuleSource, node: ast.AST) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        if isinstance(node.func, ast.Name) and node.func.id in ("id", "hash"):
            yield mod.finding(
                node,
                self.name,
                f"builtin {node.func.id}() is process-dependent and must "
                "not reach identity code (DESIGN.md §4)",
            )
        elif isinstance(node.func, ast.Attribute) and \
                isinstance(node.func.value, ast.Name):
            owner, attr = node.func.value.id, node.func.attr
            if owner == "time":
                yield mod.finding(
                    node,
                    self.name,
                    f"time.{attr}() in identity code makes keys "
                    "time-dependent (DESIGN.md §4)",
                )
            elif owner == "random":
                yield mod.finding(
                    node,
                    self.name,
                    f"unseeded random.{attr}() in identity code "
                    "(DESIGN.md §4); use a seeded Random instance — "
                    "elsewhere",
                )


# ---------------------------------------------------------------------------
# bare-except (repo-wide)
# ---------------------------------------------------------------------------


@register
class BareExceptRule(Rule):
    """``except:`` catches SystemExit/KeyboardInterrupt and every control
    exception at once; name what you mean (repo-wide hygiene, and the §2
    backstop: a bare except is the broadest possible swallow)."""

    name = "bare-except"
    section = "§2"
    summary = "no bare 'except:' anywhere in the repository"

    def check(self, mod: ModuleSource) -> Iterator[Finding]:
        assert mod.tree is not None
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield mod.finding(
                    node,
                    self.name,
                    "bare 'except:' swallows every exception including "
                    "control flow; name the exception classes",
                )


# ---------------------------------------------------------------------------
# columnar-boundary (§10)
# ---------------------------------------------------------------------------


@register
class ColumnarBoundaryRule(Rule):
    """No ``Atom`` construction inside the plan executor.

    The columnar backend's whole point is that plan execution moves only
    interned term ids (§10's boundary-materialisation rule): facts become
    ``Atom`` objects at representation boundaries (parsing, rendering,
    fingerprints, witness extraction), never on the matching hot path.
    An ``Atom(...)`` call appearing in ``matching/plans.py`` is a sign a
    boundary leaked into the executor; if one is genuinely needed (a new
    boundary helper living in this module), suppress with a justification.
    """

    name = "columnar-boundary"
    section = "§10"
    summary = (
        "matching/plans.py builds no Atom objects — plan execution stays "
        "on interned term ids; materialise at boundaries only"
    )
    include = ("*src/repro/matching/plans.py",)

    def check(self, mod: ModuleSource) -> Iterator[Finding]:
        assert mod.tree is not None
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Atom"
            ):
                yield mod.finding(
                    node,
                    self.name,
                    "Atom(...) constructed inside the plan executor; "
                    "matching/plans.py must stay on interned term ids "
                    "(DESIGN.md §10 boundary-materialisation rule)",
                )
