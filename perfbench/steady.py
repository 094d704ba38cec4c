"""Steadiness check: run workloads repeatedly, one seed per run, and
print each end-to-end metric's run-to-run spread next to its bound.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

The spread is the distance between the first and third quartile of the
runs' values (`statistics.quantiles(values, n=4)`) as a share of their
median; the bound is the metric's `bound` in BENCHMARK.json.  The share
of failed operations must be identical in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: {proc.stderr.strip()}", flush=True)
    return result


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in config["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    steady = True
    for workload in args.workload or [w["name"] for w in config["workloads"]]:
        results = [
            run_once(workload, seed, config["run_seconds"])
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: correct={correct} failed shares={sorted(shares)}")
        steady &= correct and len(shares) == 1
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= bound / 3 else (
                "WIDE" if spread <= bound or name == "setup_s" else "OVER")
            if verdict == "OVER":
                steady = False
            print(f"  {name:10s} median {med:12.4f}  spread {spread:7.4f}"
                  f"  bound {bound:5.3f}  {verdict}  "
                  f"[{', '.join(f'{v:.4g}' for v in values)}]")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
