"""Regenerate ``expected.json`` with the reference arms.

Run from the root of a checkout::

    python3 perfbench/make_expected.py

Every workload runs once over its *original* (un-renamed) inputs under
the naive matching backend (``using_backend("naive")``), with the
classification portfolio on its ``isolated`` backend (no shared
artifacts, no shared firing decisions).  The benchmark itself runs the
default path (columnar matching, shared context) over seed-specific
isomorphs of the same inputs and must reproduce these outputs exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def reference_outputs(workload: str, workdir: str) -> dict:
    import bench_workloads as bw
    from repro.analysis.classify import classify
    from repro.chase.explorer import explore_chase
    from repro.matching import using_backend
    from repro.model.parser import parse_dependencies, parse_facts

    items = bw.make_inputs(workload, seed=None)
    with using_backend("naive"):
        if workload == "classify_portfolio":
            return {
                it.id: bw.classify_output(
                    classify(parse_dependencies(it.program), jobs=1, backend="isolated")
                )
                for it in items
            }
        if workload == "table2_batch":
            return bw.table2_output(bw._evaluate(items, os.path.join(workdir, "cache")))
        return {
            it.id: bw.explore_output(
                explore_chase(parse_facts(it.facts), parse_dependencies(it.program),
                              **it.params)
            )
            for it in items
        }


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import bench_workloads as bw

    out = {}
    workdir = tempfile.mkdtemp(prefix="expected-", dir=ROOT)
    try:
        for workload in bw.WORKLOADS:
            out[workload] = reference_outputs(workload, workdir)
            print(f"{workload}: {len(out[workload])} outputs", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
