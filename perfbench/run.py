"""End-to-end benchmark of the chiplet-actuary cost model.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cold-cost, serve-cost, serve-mixed, explore (README.md).
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the layer suite (every layer, spans around the public functions of
each) and prints every per-layer metric plus the tracing overhead.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run from the root of a checkout; exits non-zero without a result when
the program is not there.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pb_common import (  # noqa: E402
    SRC,
    BenchError,
    WORK_ROOT,
    make_work_dir,
    pin_threads,
    program_present,
    use_checkout_tmp,
)

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms": "ms",
    "rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold-cost", "serve-cost", "serve-mixed",
                                 "explore"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not program_present():
        print("error: no chiplet-actuary program (src/repro) in this "
              "directory; run from the root of a checkout", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    work = make_work_dir(f"{args.workload}-{'trace' if args.trace else 'run'}")
    use_checkout_tmp(work)
    try:
        if args.trace:
            import pb_layers

            outcome = pb_layers.run_suite(args.seed, args.seconds, work)
            units = pb_layers.UNITS
        else:
            import pb_workloads

            outcome = pb_workloads.WORKLOADS[args.workload](
                args.seed, args.seconds, work
            )
            units = UNITS
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for problem in outcome["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in outcome["metrics"].items():
        print(f"{name:34s} {value:14.4f} {units[name]}")
    print(f"attempted {outcome['attempted']}, failed {outcome['failed']}")
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
