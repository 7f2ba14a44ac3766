"""End-to-end GRASP benchmark: one workload per invocation.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload farm-fine --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
and traced rounds alternately and prints the per-layer metrics, the span
report and the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run
whose correctness gates fail exits with code 1; a checkout without the
``src/repro`` package exits with code 2.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Hard stop well inside the 180 s a run may take: dump every thread's
#: stack and exit non-zero instead of hanging.
WATCHDOG_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["farm-fine", "farm-bulk", "grid-sim"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no GRASP sources at {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    sys.path.insert(0, SRC)
    from harness import result_line, run_workload

    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps({"run_record": outcome.record}))
    for line in outcome.report:
        print(f"# {line}")
    for error in outcome.errors:
        print(f"perfbench: gate failed: {error}", file=sys.stderr)
    print(result_line(outcome), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
