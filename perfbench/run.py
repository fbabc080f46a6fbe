"""End-to-end benchmark of the termination analyser.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload classify_portfolio --seed 1 \
        --seconds 25 --trace 0

Workloads (closed loop, one caller, ``jobs=1``; see ``README.md``):

* ``classify_portfolio`` — text → ``parse_dependencies`` → ``classify``
  with all 13 criteria and the shared analysis context;
* ``table2_batch`` — the Section 7 / Table 2(b) experiment: a cold
  ``evaluate_corpus`` (Adn∃ + chase ground truth) into a fresh sqlite
  cache, then warm re-runs served from it;
* ``explore_deep`` — ``explore_chase`` on a deep divergent program and on
  branchy Table 1 witnesses over grown databases.

A run repeats *passes* of its workload until ``--seconds`` have elapsed
and checks every output against ``expected.json``.  With ``--trace 0`` it
reports the end-to-end metrics of untraced passes.  With ``--trace 1`` it
alternates untraced and traced passes (see ``bench_trace.py``) and reports
per-layer self times and counters plus the tracing overhead; the spans of
the last traced pass are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: Settings a user could change from the environment; any of them set
#: would silently change the workload (``generate_corpus`` reads
#: ``REPRO_SCALE``, the columnar store ``REPRO_COLUMNAR_KERNELS``), so the
#: benchmark refuses to run.
FORBIDDEN_ENV = ("REPRO_SCALE", "REPRO_JOBS", "REPRO_CACHE_DIR",
                 "REPRO_CHASE_STEPS", "REPRO_COLUMNAR_KERNELS")
#: Native thread pools are capped so the process stays within 2 threads.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: The string hash seed is pinned so that hash-ordered iteration repeats.
PINNED_ENV = {"PYTHONHASHSEED": "0", **{k: "1" for k in THREAD_ENV}}
#: Linux personality flag that turns address-space randomisation off.
ADDR_NO_RANDOMIZE = 0x0040000

#: Untraced end-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_max_ms": "ms",
    "peak_rss_mb": "MB",
}

#: The modules whose import is set-up time.
IMPORTS = ("repro", "repro.analysis.classify", "repro.batch.engine",
           "repro.chase.explorer")


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_repro() -> None:
    """Import the checkout's ``repro``, never an installed copy."""
    import importlib

    if not os.path.isdir(os.path.join(SRC, "repro")):
        _fail(f"no repro package under {SRC}")
    sys.path.insert(0, SRC)
    for name in IMPORTS:
        importlib.import_module(name)
    origin = os.path.abspath(sys.modules["repro"].__file__)
    if not origin.startswith(SRC + os.sep):
        _fail(f"imported repro from {origin}, not from {SRC}")


def _import_seconds() -> float:
    """Seconds a fresh interpreter needs to import the analyser."""
    import subprocess

    code = (
        "import importlib, sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); "
        "[importlib.import_module(m) for m in sys.argv[2:]]; "
        "print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, SRC, *IMPORTS],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _aslr_state() -> str:
    import ctypes

    try:
        current = ctypes.CDLL(None).personality(0xFFFFFFFF)
    except (OSError, AttributeError):
        return "unknown"
    return "off" if current != -1 and current & ADDR_NO_RANDOMIZE else "on"


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settings() -> dict:
    """Every setting the workloads depend on, as run."""
    import bench_workloads as bw
    from repro.matching import get_backend
    from repro.model import kernels

    return {
        "matching_backend": get_backend(),
        "classify_backend": "shared",
        "jobs": 1,
        "chase_steps": bw.CHASE_STEPS,
        "corpus_seed": bw.CORPUS_SEED,
        "classify_corpus": bw.CLASSIFY_CORPUS,
        "table2_corpus": bw.TABLE2_CORPUS,
        "warm_reruns": bw.WARM_RERUNS,
        "explore_deep_max_states": bw.DEEP_MAX_STATES,
        "columnar_kernels": kernels.describe(),
        "python": sys.version.split()[0],
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "aslr": _aslr_state(),
    }


class Tally:
    """Operations attempted and failed across a run's passes."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.wrong: set[str] = set()

    def record(self, result) -> None:
        import bench_workloads as bw

        wrong = bw.wrong_outputs(self.expected, result.outputs)
        self.attempted += result.ops
        self.failed += len(wrong)
        self.wrong.update(wrong)

    def crashed(self, ops: int) -> None:
        self.attempted += ops
        self.failed += ops


def _one_pass(workload: str, items: list, workdir: str, tally: Tally, calibrated: bool):
    """One pass, its outputs checked; None if it raised."""
    import bench_workloads as bw

    try:
        result = bw.RUNNERS[workload](items, workdir, bw.OpTimer(calibrated))
    except Exception:  # a crash is a failed pass, counted and reported
        import traceback

        traceback.print_exc(file=sys.stderr)
        tally.crashed(len(items))
        return None
    tally.record(result)
    return result


def pass_figures(workload: str, result, normalised: bool) -> dict[str, float]:
    """Wall time and item rate of one pass, from its operation times."""
    import bench_workloads as bw

    op_ms = result.op_ms(normalised)
    return {
        "wall_s": sum(sum(v) for v in op_ms.values()) / 1000.0,
        "items_per_s": result.items / (bw.primary_ms(workload, op_ms) / 1000.0),
    }


def end_to_end(workload: str, results: list, setup_s: float,
               normalised: bool = True) -> dict[str, float]:
    per_pass = [pass_figures(workload, r, normalised) for r in results]
    per_op: dict[str, list[float]] = {}
    for r in results:
        for op, times in r.op_ms(normalised).items():
            per_op.setdefault(op, []).extend(times)
    return {
        "setup_s": setup_s,
        "wall_s": median([p["wall_s"] for p in per_pass]),
        "items_per_s": median([p["items_per_s"] for p in per_pass]),
        "op_p50_ms": median([t for times in per_op.values() for t in times]),
        "op_max_ms": max(median(times) for times in per_op.values()),
        "peak_rss_mb": _peak_rss_mb(),
    }


def layer_metrics(workload: str, traced: list, untraced: list) -> dict[str, float]:
    """Per-layer figures (medians over the traced passes) and the tracing
    overhead (speed-normalised traced over untraced pass walls)."""
    import bench_trace as bt

    per_pass = [bt.figures(rec) for rec, _ in traced]
    units = bt.figure_units()
    out = {
        # Counters are exact: take the first traced pass's.
        name: per_pass[0][name] if unit == "count" else median([p[name] for p in per_pass])
        for name, unit in units.items()
        if name in per_pass[0]
    }
    out["trace.untraced_wall_s"] = median(
        [pass_figures(workload, r, False)["wall_s"] for r in untraced]
    )
    traced_norm = median([rec.durations()[0] * factor for rec, factor in traced])
    untraced_norm = median([pass_figures(workload, r, True)["wall_s"] for r in untraced])
    out["trace.overhead_ratio"] = traced_norm / untraced_norm
    return out


def print_layer_table(metrics: dict[str, float]) -> None:
    import bench_trace as bt

    wall_ms = metrics["trace.traced_wall_s"] * 1000.0
    print(f"per-layer self time (median of traced passes; traced wall "
          f"{wall_ms:.1f} ms)")
    print(f"{'layer':<18} {'self ms':>10} {'% wall':>7}")
    total = 0.0
    for layer in bt.LAYERS:
        ms = metrics[bt.SELF_METRIC[layer]]
        total += ms
        print(f"{layer:<18} {ms:>10.1f} {100.0 * ms / wall_ms:>6.1f}%")
    print(f"{'sum':<18} {total:>10.1f} {100.0 * total / wall_ms:>6.1f}%")
    print(f"tracing overhead (speed-normalised): {metrics['trace.overhead_ratio']:.3f}; "
          f"raw traced {metrics['trace.traced_wall_s']:.3f} s, untraced "
          f"{metrics['trace.untraced_wall_s']:.3f} s")
    units = bt.figure_units()
    for name, value in metrics.items():
        if not name.endswith("self_ms"):
            print(f"  {name:<34} {value:>14.4f} {units[name]}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _import_repro()
    import bench_trace as bt
    import bench_workloads as bw

    if workload not in bw.WORKLOADS:
        _fail(f"unknown workload {workload!r}; known: {', '.join(bw.WORKLOADS)}")
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)[workload]
    sets = settings()
    if sets["matching_backend"] != "columnar":
        _fail(f"matching backend is {sets['matching_backend']}, expected columnar")
    os.makedirs(OUT_DIR, exist_ok=True)

    # Set-up, timed several times: importing the analyser (in fresh
    # interpreters), generating and rendering the inputs, and making the
    # run's scratch directory.  setup_s is the sum of the two medians,
    # normalised to the reference speed like every other time.  The
    # calibration loop runs a few times first: its first runs in a fresh
    # interpreter are slower than the rest.
    for _ in range(5):
        bw.calibrate()
    before = bw.calibrate()
    imports = [_import_seconds() for _ in range(3)]
    setups, workdir = [], ""
    for _ in range(5):
        if workdir:
            os.rmdir(workdir)
        t0 = time.perf_counter()
        items = bw.make_inputs(workload, seed)
        workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
        setups.append(time.perf_counter() - t0)
    raw_setup_s = median(imports) + median(setups)
    setup_s = raw_setup_s * bw.CALIBRATION_REF_S / ((before + bw.calibrate()) / 2.0)

    print(f"workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("settings " + json.dumps(sets, sort_keys=True))

    tally = Tally(expected)
    untraced: list = []
    traced: list = []  # (recorder, speed factor around the pass)
    deadline = time.perf_counter() + seconds
    try:
        while True:
            result = _one_pass(workload, items, workdir, tally, calibrated=True)
            if result is not None:
                untraced.append(result)
            if trace:
                rec = bt.Recorder()
                before = bw.calibrate()
                with bt.traced(rec):
                    with rec.span(bt.ROOT_LAYER):
                        result = _one_pass(workload, items, workdir, tally, calibrated=False)
                after = bw.calibrate()
                if result is not None:
                    traced.append((rec, bw.CALIBRATION_REF_S / ((before + after) / 2.0)))
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = [pass_figures(workload, r, False)["wall_s"] for r in untraced]
    print("raw pass walls (s): untraced " + " ".join(f"{w:.3f}" for w in raw)
          + ("; traced " + " ".join(f"{rec.durations()[0]:.3f}" for rec, _ in traced)
             if trace else ""))
    if tally.wrong:
        print("wrong outputs: " + ", ".join(sorted(tally.wrong)), file=sys.stderr)
    print(f"wrong_outputs {tally.failed} (of {tally.attempted} operations)")
    if not untraced or (trace and not traced):
        _fail("every pass failed", code=1)

    if trace:
        counts = [bt.count_figures(rec) for rec, _ in traced]
        if any(c != counts[0] for c in counts):
            print("warning: counters differ between traced passes", file=sys.stderr)
        figures = layer_metrics(workload, traced, untraced)
        print_layer_table(figures)
        metrics = bt.report(figures)
        units = bt.per_layer_units()
        path = os.path.join(OUT_DIR, f"trace-{workload}.tsv")
        traced[-1][0].write(path, {"workload": workload, "seed": seed, "settings": sets})
        print(f"spans of the last traced pass: {path}")
    else:
        metrics = end_to_end(workload, untraced, setup_s)
        raw_metrics = end_to_end(workload, untraced, raw_setup_s, normalised=False)
        units = END_TO_END
        print(f"{len(untraced)} passes x {untraced[0].ops} operations; items_per_s "
              f"counts {bw.ITEM_UNIT[workload]}; times normalised to the "
              f"reference speed (raw in brackets)")
        for name, value in metrics.items():
            print(f"{name:<14} {value:>14.4f} {units[name]:<4} [{raw_metrics[name]:.4f}]")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the "
                                     "termination analyser.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bad = [k for k in FORBIDDEN_ENV if os.environ.get(k) is not None]
    if bad:
        _fail(f"refusing to run with {', '.join(bad)} set: it changes the workload")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


def _disable_aslr() -> bool:
    """Turn address-space randomisation off for the next exec; True if
    that changed anything.

    The classification portfolio iterates sets of identity-hashed
    objects, so how much matching and forking it does depends on object
    addresses: with randomisation on, ``matching.calls`` and
    ``columnar.forks`` differ by about 1% from process to process.
    """
    import ctypes

    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return False
    current = personality(0xFFFFFFFF)
    if current == -1 or current & ADDR_NO_RANDOMIZE:
        return False
    return personality(current | ADDR_NO_RANDOMIZE) != -1


if __name__ == "__main__":
    # The hash seed and the address-space layout are fixed when the
    # interpreter starts, so pinning them means re-executing in place.
    if _disable_aslr() or any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **PINNED_ENV})
    sys.path.insert(0, HERE)
    sys.exit(main())
