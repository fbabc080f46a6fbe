"""Pair enumeration for the chase and firing graphs.

The graph builders enumerate candidate pairs from a body-predicate index
and the oracle gates every query with ``may_fire`` before it builds a
witness engine.  These tests pin that the shortcut changes nothing and
costs no more than it should:

* the graphs equal an all-pairs reference built from the per-pair
  ``decide_precedes``/``decide_fires`` functions — edge sets and edge
  order — on the Table 1 witnesses, the paper examples and a corpus
  slice with EGD programs;
* ``firing_graph`` builds one engine per pair that passes ``may_fire``
  and none for the rest;
* the oracle reports the pairs it ruled out without a probe;
* ``classify`` keeps no parsed dependency alive once it returns.
"""

import gc
import weakref

import networkx as nx
import pytest

from repro.analysis.classify import classify
from repro.data import all_paper_sets
from repro.data.witnesses import witness_cases
from repro.firing import (
    FiringOracle,
    WitnessEngine,
    chase_graph,
    decide_fires,
    decide_precedes,
    firing_graph,
    oblivious_chase_graph,
)
from repro.firing.relations import DecisionCache
from repro.firing.witness import may_fire
from repro.generators import generate_corpus
from repro.model import EGD, TGD, parse_dependencies, parse_dependency


def _programs():
    for case in witness_cases():
        yield f"table1:{case.name}", case.sigma
    for name, sigma in all_paper_sets().items():
        yield f"paper:{name}", sigma
    for onto in generate_corpus(tests_scale=0.05, max_size=12):
        yield f"corpus:{onto.name}", onto.sigma


PROGRAMS = list(_programs())


def _reference(sigma, decide) -> nx.DiGraph:
    """The all-pairs construction the graph builders replace."""
    g = nx.DiGraph()
    g.add_nodes_from(sigma)
    for r1 in sigma:
        for r2 in sigma:
            if decide(r1, r2).edge:
                g.add_edge(r1, r2)
    return g


def _same_graph(built: nx.DiGraph, reference: nx.DiGraph) -> None:
    assert list(built.nodes()) == list(reference.nodes())
    assert list(built.edges()) == list(reference.edges())


def test_slice_includes_egd_programs():
    assert any(
        name.startswith("corpus:") and sigma.egds for name, sigma in PROGRAMS
    )


@pytest.mark.parametrize("name,sigma", PROGRAMS, ids=[n for n, _ in PROGRAMS])
class TestGraphsMatchAllPairs:
    def test_chase_graph(self, name, sigma):
        _same_graph(chase_graph(sigma), _reference(sigma, decide_precedes))

    def test_firing_graph(self, name, sigma):
        fulls = tuple(d for d in sigma if d.is_full)
        _same_graph(
            firing_graph(sigma),
            _reference(sigma, lambda r1, r2: decide_fires(r1, r2, fulls)),
        )

    def test_oblivious_chase_graph(self, name, sigma):
        _same_graph(
            oblivious_chase_graph(sigma),
            _reference(
                sigma,
                lambda r1, r2: decide_precedes(r1, r2, step_variant="oblivious"),
            ),
        )


def _corpus_program():
    onto = generate_corpus(tests_scale=0.05, max_size=12)[2]
    assert onto.sigma.egds, "the pinned program must mix in an EGD"
    return onto.sigma


def test_firing_graph_builds_one_engine_per_candidate_pair(monkeypatch):
    sigma = _corpus_program()
    built = []
    original = WitnessEngine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[:2])
        original(self, *args, **kwargs)

    monkeypatch.setattr(WitnessEngine, "__init__", counting_init)
    firing_graph(sigma)
    candidates = [(r1, r2) for r1 in sigma for r2 in sigma if may_fire(r1, r2)]
    assert len(candidates) < len(sigma) ** 2
    assert len(built) == len(candidates)
    assert set(built) == set(candidates)


def test_oracle_counts_prefiltered_pairs():
    sigma = _corpus_program()
    candidates = sum(1 for r1 in sigma for r2 in sigma if may_fire(r1, r2))
    cache = DecisionCache()
    firing_graph(sigma, FiringOracle(sigma, decisions=cache))
    stats = cache.stats()
    assert stats["prefiltered"] == len(sigma) ** 2 - candidates
    assert stats["hits"] + stats["misses"] == candidates
    # A gated query is answered without touching the shared cache, and
    # a repeat of it counts once per oracle.
    r1 = next(r for r in sigma if r.is_tgd)
    r2 = next(r for r in sigma if not may_fire(r1, r))
    cache = DecisionCache()
    oracle = FiringOracle(sigma, decisions=cache)
    assert not oracle.fires(r1, r2)
    assert not oracle.precedes(r1, r2)
    assert len(cache) == 0
    assert cache.stats()["prefiltered"] == 1
    assert not oracle.ever_inexact


def test_oracle_renames_each_dependency_once_per_suffix(monkeypatch):
    sigma = _corpus_program()
    renames = []
    for cls in (TGD, EGD):
        original = cls.rename_variables

        def counting(self, suffix, _original=original):
            renames.append((self.label, suffix))
            return _original(self, suffix)

        monkeypatch.setattr(cls, "rename_variables", counting)
    firing_graph(sigma)
    assert len(renames) == len(set(renames))
    # r1 as "1", r2 as "2" and the i-th full dependency as "f{i}".
    assert len(renames) <= 2 * len(sigma) + len(sigma.full)


def test_equal_dependencies_with_distinct_labels_rename_apart():
    # Dependency.__eq__ ignores labels; the rename memo must not.
    a = parse_dependency("a: N(x) -> exists y. E(x, y)")
    b = parse_dependency("b: N(x) -> exists y. E(x, y)")
    assert a == b and a.label != b.label
    oracle = FiringOracle([a, b])
    assert oracle._rename(a, "1").label == "a"
    assert oracle._rename(b, "1").label == "b"


def test_classify_keeps_no_dependency_alive():
    # Predicates no other test uses: a memo keyed by equality would
    # otherwise hold an equal dependency from an earlier test instead.
    sigma = parse_dependencies(
        "r1: Kept(x) -> exists y. Alive(x, y)\n"
        "r2: Alive(x, y) -> Kept(y)\n"
        "r3: Alive(x, y) -> x = y\n"
    )
    refs = [weakref.ref(d) for d in sigma]
    report = classify(sigma)
    assert report.results
    del sigma, report
    gc.collect()
    assert all(ref() is None for ref in refs)
