"""The shared analysis-artifact substrate (DESIGN.md §6).

The termination criteria form one hierarchy over shared machinery —
affected positions, the position graphs, the chase/firing graphs, and
above all the firing relation whose edges are decided by expensive
witness-engine chase probes — yet each criterion historically re-derived
every artifact for itself (SR, IR and CStr each rebuilt the oblivious
chase graph; Safety, SR and IR each recomputed the affected positions;
AC and LS each ran the full adornment rewriting).

:class:`AnalysisContext` computes each artifact **once per program** and
shares it everywhere: a lazy, memoized store that every
:meth:`~repro.criteria.base.TerminationCriterion.check` receives and
consults instead of rebuilding its own.  The classification portfolio
creates one context per program and passes it to every criterion
(``backend="shared"``); a criterion checked on its own creates a private
context, which degenerates to per-criterion memoization.  The
``"isolated"`` portfolio backend, which shares nothing across criteria,
is the recompute oracle the differential suite pins the shared path
against.

The context's firing-decision cache reaches nested analyses by argument
only: the Adn∃ and AC rewritings wire their oracles to it, and LS's Σα,
Adn∃-C's Σµ and IR's components are analysed over it, so one portfolio
run probes each firing pair at most once.  There is no ambient cache:
whoever builds a context or an oracle decides what it shares.

A context is confined to the thread that made it; the portfolio makes
one per classify call.

Budgets and memoization
-----------------------

Criteria run under per-criterion budgets, so an artifact built while a
budget is ambient may be cut short — and a truncated artifact is not a
function of the program alone (it depends on how much the interrupted
criterion had already spent).  The store therefore memoizes an artifact
only when it is **deterministic**: the ambient budget (if any) had not
blown by the time the build finished, and the artifact's own exhaustion
marker is clear.  A non-memoized build returns its (truncated, flagged)
value to the requesting criterion only; the next requester rebuilds
under its own budget.  Firing-edge decisions follow the same rule one
level down, inside :class:`~repro.firing.relations.DecisionCache`.
"""

from __future__ import annotations

from typing import Any, Callable

from ..budget import current_budget
from ..firing.relations import DecisionCache, FiringOracle, Memo
from ..model.dependencies import DependencySet


def _ambient_ok() -> bool:
    """Did the build just finished run to completion, reproducibly?

    True when no ambient budget is installed or the installed one never
    blew: every oracle probe underneath then either completed or was
    truncated by its deterministic per-pair allowance, and every
    saturation loop ran to its fixpoint (or its deterministic cap).
    """
    budget = current_budget()
    return budget is None or budget.exhausted is None


class AnalysisContext(Memo):
    """Lazy, memoized, cancellation-aware artifact store for one program.

    Artifact accessors either return the memoized value (a *hit*) or
    build it (a *miss*), memoizing only deterministic builds — see the
    module docstring.  ``decisions`` is the firing-edge
    :class:`~repro.firing.relations.DecisionCache` every oracle handed
    out by :meth:`oracle` shares, and the one nested analyses receive by
    argument (the Adn∃/AC oracles, LS's Σα, Adn∃-C's Σµ, IR's
    components); a fresh cache when not given.
    """

    def __init__(
        self,
        sigma: DependencySet,
        decisions: DecisionCache | None = None,
    ) -> None:
        super().__init__()
        self.sigma = sigma
        self.decisions = decisions if decisions is not None else DecisionCache()

    # -- the memoization core ------------------------------------------------

    def _get(
        self,
        key: tuple,
        build: Callable[[], Any],
        deterministic: Callable[[Any], bool] | None = None,
    ) -> Any:
        """Memoized build of one artifact.

        ``deterministic`` vetoes memoization for values whose own
        exhaustion markers show truncation (on top of the ambient-budget
        gate that applies to every artifact).
        """

        def build_checked() -> tuple[Any, bool]:
            value = build()
            cacheable = _ambient_ok() and (
                deterministic is None or deterministic(value)
            )
            return value, cacheable

        return self._get_or_build(key, build_checked)

    # -- position-level artifacts ---------------------------------------------

    def affected_positions(self) -> set:
        """The affected positions of Σ (Safety, SR and IR all need them)."""

        def build() -> set:
            from ..criteria.safety import affected_positions

            return affected_positions(self.sigma)

        return self._get(("affected",), build)

    def dependency_graph(self):
        """WA's position dependency graph."""

        def build():
            from ..criteria.weak_acyclicity import dependency_graph

            return dependency_graph(self.sigma)

        return self._get(("dependency_graph",), build)

    def propagation_graph(self):
        """Safety's propagation graph over the affected positions."""

        def build():
            from ..criteria.safety import propagation_graph

            return propagation_graph(
                self.sigma, affected=self.affected_positions()
            )

        return self._get(("propagation_graph",), build)

    # -- firing-level artifacts -------------------------------------------------

    def oracle(self, step_variant: str) -> FiringOracle:
        """A fresh oracle wired to the shared decision cache.

        Oracles are deliberately *not* memoized: they are cheap shells
        around the shared :class:`DecisionCache` (which is where every
        expensive probe lands exactly once), while their per-oracle
        ``ever_inexact`` flag must stay per-consumer so one criterion's
        truncated probes never mark another criterion's verdict
        approximate.
        """
        return FiringOracle(
            self.sigma, step_variant=step_variant, decisions=self.decisions
        )

    def chase_graph(self, step_variant: str = "standard"):
        """``(G(Σ), exact)`` under the given chase-step variant."""

        def build():
            from ..firing.graphs import chase_graph

            oracle = self.oracle(step_variant)
            graph = chase_graph(self.sigma, oracle)
            return graph, not oracle.ever_inexact

        return self._get(("chase_graph", step_variant), build)

    def firing_graph(self):
        """``(Gf(Σ), exact)`` — Definition 2's graph, standard steps."""

        def build():
            from ..firing.graphs import firing_graph

            oracle = self.oracle("standard")
            graph = firing_graph(self.sigma, oracle)
            return graph, not oracle.ever_inexact

        return self._get(("firing_graph",), build)

    def firing_sccs(self) -> tuple:
        """The SCC decomposition of Gf(Σ), as a tuple of frozensets."""

        def build() -> tuple:
            import networkx as nx

            graph, _ = self.firing_graph()
            return tuple(
                frozenset(scc) for scc in nx.strongly_connected_components(graph)
            )

        return self._get(("firing_sccs",), build)

    def restriction_graph(self):
        """``(graph, exact)``: the oblivious chase graph restricted to
        null-propagating edges — the precedence structure SR and IR share."""

        def build():
            from ..criteria.restriction import null_propagating_subgraph
            from ..firing.graphs import oblivious_chase_graph

            oracle = self.oracle("oblivious")
            graph = null_propagating_subgraph(
                self.sigma,
                oblivious_chase_graph(self.sigma, oracle=oracle),
                affected=self.affected_positions(),
            )
            return graph, not oracle.ever_inexact

        return self._get(("restriction_graph",), build)

    # -- rewriting / simulation artifacts -----------------------------------------

    def simulated(self) -> DependencySet:
        """Σ with EGDs lifted through the substitution-free simulation
        (Σ itself when TGD-only) — the input every TGD-only criterion
        (SwA, AC, LS, MFA, MSA) analyses."""

        def build() -> DependencySet:
            if not self.sigma.egds:
                return self.sigma
            from ..simulation.substitution_free import (
                substitution_free_simulation,
            )

            return substitution_free_simulation(self.sigma)

        return self._get(("simulated",), build)

    def skolem_rules(self) -> tuple:
        """The semi-oblivious Skolemised rules of the (simulated) TGD set —
        MFA and MSA both saturate over them."""

        def build() -> tuple:
            from ..chase.skolem import skolemise

            return tuple(skolemise(self.simulated(), variant="semi_oblivious"))

        return self._get(("skolem_rules",), build)

    def critical_instance(self):
        """A fresh copy of the critical instance of the (simulated) set.

        The template is memoized; callers get a copy because the MFA/MSA
        saturations mutate their instance in place.
        """

        def build():
            from ..chase.skolem import critical_instance

            return critical_instance(self.simulated())

        return self._get(("critical_instance",), build).copy()

    def ac_rewriting(self):
        """The AC adornment rewriting of the (simulated) TGD set — shared
        by the AC criterion and LS (whose Σα it c-stratifies)."""

        def build():
            from ..core.adornment import ac_rewriting

            return ac_rewriting(self.simulated(), decisions=self.decisions)

        return self._get(
            ("ac_rewriting",), build, deterministic=lambda r: r.exhausted is None
        )

    def adn_result(self):
        """``Adn∃(Σ)`` — SAC's artifact (and Adn∃-C combinations')."""

        def build():
            from ..core.adornment import adn_exists

            return adn_exists(self.sigma, decisions=self.decisions)

        return self._get(
            ("adn_exists",), build, deterministic=lambda r: r.exhausted is None
        )

    # -- introspection --------------------------------------------------------------

    def stats(self) -> dict:
        """Artifact and firing-decision cache statistics (``--stats``)."""
        total = self.hits + self.misses
        artifacts = {
            "entries": len(self._values),
            "hits": self.hits,
            "misses": self.misses,
            "uncached_builds": self.uncached_builds,
            "hit_rate": self.hits / total if total else 0.0,
        }
        return {"artifacts": artifacts, "decisions": self.decisions.stats()}

    def __repr__(self) -> str:
        return (
            f"AnalysisContext({len(self.sigma)} deps, "
            f"{len(self._values)} artifacts, "
            f"{len(self.decisions)} decisions)"
        )
