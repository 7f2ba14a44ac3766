"""Self-test of the benchmark harness.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks the span self-time arithmetic on a synthetic span tree, then runs
all three workloads at a tiny size, untraced and traced, and asserts that
each run passes its correctness gates and emits every metric that
``BENCHMARK.json`` names, with the unit it declares.  Exits non-zero on
the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
from spans import Span, SpanTree, covered, percentile  # noqa: E402


def check_span_arithmetic() -> None:
    # run [0, 10]: compile [0, 1]; execute [2, 9] with engine
    # [3, 4] (holding a recalibrate [3.5, 4]), submit [5, 6], wait [6, 8.5].
    spans = [
        Span(1, None, "grasp.run", 0.0, 10.0),
        Span(2, 1, "core.compile", 0.0, 1.0),
        Span(3, 1, "core.execute", 2.0, 9.0),
        Span(4, 3, "core.engine", 3.0, 4.0),
        Span(5, 4, "core.engine", 3.5, 4.0),
        Span(6, 3, "process.submit", 5.0, 6.0),
        Span(7, 3, "process.wait", 6.0, 8.5),
    ]
    tree = SpanTree(spans)
    assert tree.self_time(tree.by_id[1]) == 10.0 - 1.0 - 7.0
    assert tree.self_time(tree.by_id[3]) == 7.0 - 1.0 - 1.0 - 2.5
    assert tree.self_time(tree.by_id[4]) == 0.5
    assert [s.sid for s in tree.outermost("core.engine")] == [4]
    parts = tree.accounting(tree.by_id[1])
    assert parts["compile"] == 1.0 and parts["engine"] == 1.0
    assert parts["submit"] == 1.0 and parts["wait"] == 2.5
    assert parts["executor_self"] == 2.5
    assert parts["accounted"] == 8.0 and parts["wall"] == 10.0
    # Overlapping and out-of-range intervals count once, clipped.
    assert covered([(1, 3), (2, 4), (8, 12)], 0, 10) == 5.0
    assert percentile([5, 1, 3, 2, 4], 50) == 3
    assert percentile(list(range(1, 101)), 99) == 99
    assert percentile([], 99) == 0.0


def tiny(spec: harness.WorkloadSpec) -> harness.WorkloadSpec:
    # Pipeline calibration consumes one item per node of the 32-node grid.
    return dataclasses.replace(
        spec, farm_tasks=2 if spec.farm == "bulk" else 12,
        sweep_points=200, pipeline_items=40)


def check_workloads() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    for workload, spec in harness.WORKLOADS.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            outcome = harness.run_workload(workload, seed=7, seconds=0.0,
                                           trace=trace, spec=tiny(spec))
            label = f"{workload} trace={int(trace)}"
            assert outcome.correct, f"{label}: gates failed {outcome.errors}"
            assert outcome.failed == 0 and outcome.attempted > 0, label
            line = json.loads(harness.result_line(outcome))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            emitted = line["metrics"]
            for metric in declared[key]:
                name = metric["name"]
                assert name in emitted, f"{label}: {name} not emitted"
                assert emitted[name]["unit"] == metric["unit"], \
                    f"{label}: {name} unit {emitted[name]['unit']}"
            assert set(emitted) == {m["name"] for m in declared[key]}, label
            if trace:
                shm = emitted["process.bytes_shm"]["value"]
                assert (shm > 0) == (spec.farm == "bulk"), \
                    f"{label}: process.bytes_shm={shm}"
            print(f"ok {label}: {len(emitted)} metrics")


def main() -> int:
    check_span_arithmetic()
    print("ok span arithmetic")
    check_workloads()
    return 0


if __name__ == "__main__":
    sys.exit(main())
