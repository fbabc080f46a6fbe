"""Tests of the benchmark's own machinery: tracing, restoration, counts
and seeded inputs.  Each runs a workload over a few of its cheapest
inputs, so the whole module takes seconds."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for _path in (SRC, HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import bench_trace as bt  # noqa: E402
import bench_workloads as bw  # noqa: E402

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)

#: The layers each workload must reach (a wrapper that silently stopped
#: matching its target would leave its layer at zero).
BUSY_LAYERS = {
    "classify_portfolio": ("parser", "context", "criteria", "firing", "witness", "adn"),
    "table2_batch": ("parser", "fingerprint", "store", "batch", "adn", "runner", "matching"),
    "explore_deep": ("parser", "explorer", "explorer.memo_key", "matching", "columnar"),
}


def small_inputs(workload: str, seed: int = 1) -> list[bw.Item]:
    items = bw.make_inputs(workload, seed)
    if workload == "explore_deep":
        # The deep program and one wide witness, with small state caps.
        return [
            dataclasses.replace(it, params={**it.params, "max_states": cap})
            for it, cap in ((items[0], 12), (items[1], 20))
        ]
    return items[:2] if workload == "classify_portfolio" else items[:3]


def traced_pass(workload: str, items: list, workdir) -> tuple[bt.Recorder, bw.PassResult]:
    rec = bt.Recorder()
    with bt.traced(rec):
        with rec.span(bt.ROOT_LAYER):
            result = bw.RUNNERS[workload](items, str(workdir), bw.OpTimer(False))
    return rec, result


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_self_times_sum_to_traced_wall(workload, tmp_path):
    rec, result = traced_pass(workload, small_inputs(workload), tmp_path)
    fig = bt.figures(rec)
    assert {bt.layer_of(name) for name in rec.names} <= set(bt.LAYERS)
    total_ms = sum(fig[bt.SELF_METRIC[layer]] for layer in bt.LAYERS)
    assert total_ms == pytest.approx(fig["trace.traced_wall_s"] * 1000.0, rel=1e-9)
    for layer in BUSY_LAYERS[workload]:
        assert fig[bt.SELF_METRIC[layer]] > 0.0, layer
    if workload != "explore_deep":  # explore ran with smaller state caps
        expected = {k: EXPECTED[workload][k] for k in result.outputs}
        assert bw.wrong_outputs(expected, result.outputs) == []


def test_wrappers_are_restored(tmp_path):
    workload = "classify_portfolio"
    items = small_inputs(workload)[:1]
    rec = bt.Recorder()
    with bt.traced(rec) as patches:
        with rec.span(bt.ROOT_LAYER):
            traced_out = bw.RUNNERS[workload](items, str(tmp_path), bw.OpTimer(False)).outputs
        saved = patches.saved
    assert saved
    for owner, attr, original in saved:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner}.{attr} still wrapped"
    spans = len(rec.names)
    untraced_out = bw.RUNNERS[workload](items, str(tmp_path), bw.OpTimer(False)).outputs
    assert len(rec.names) == spans
    assert untraced_out == traced_out


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_counts_repeat_across_traced_runs(workload, tmp_path):
    items = small_inputs(workload, seed=7)
    first, _ = traced_pass(workload, items, tmp_path / "a")
    second, _ = traced_pass(workload, small_inputs(workload, seed=7), tmp_path / "b")
    assert bt.count_figures(first) == bt.count_figures(second)
    assert bt.count_figures(first)["parser.calls"] > 0


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_seed_changes_inputs(workload):
    one = bw.make_inputs(workload, 1)
    assert one == bw.make_inputs(workload, 1)
    other = bw.make_inputs(workload, 2)
    assert [it.id for it in other] == [it.id for it in one]
    assert all(a.program != b.program for a, b in zip(one, other))
    original = bw.make_inputs(workload, None)
    assert all(a.program != b.program for a, b in zip(one, original))


def test_refuses_environment_that_changes_the_workload(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "explore_deep", "--seed", "1", "--seconds", "1"])
    assert exc.value.code == 2
