"""Run every workload of BENCHMARK.json and print its metrics, with units.

    python3 perfbench/report.py [--seeds K] [--first-seed N] [--trace]
                                [--workload NAME ...]

Run it from the root of a checkout.  For each workload it runs the
benchmark's command once per seed (K seeds from N on), for the benchmark's
``run_seconds``, and prints, for every metric, the median over the seeds.
With two or more seeds it also prints every run's value and the spread (the
distance between the first and third quartiles as a share of the median)
next to the metric's bound, which is how a benchmark is judged steady.  ``fail_ratio`` is printed beside ``ok_ratio``:
failed operations, known failures included, over attempted ones.  With
--trace it runs the traced command and prints the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: bool) -> dict:
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(
        [*args, "--trace", str(int(trace))], cwd=ROOT, capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else None


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    for workload in args.workload or names:
        results = [run_once(bench["command"], workload, s, bench["run_seconds"], args.trace) for s in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{workload}: seeds {seeds.start}..{seeds.stop - 1}, correct={correct},"
              f" {attempted} operations attempted, {failed} new failures")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            line = f"  {name:<40} {statistics.median(values):>14.6g} {first['unit']:<6}"
            share = spread(values)
            if share is not None:
                line += f" spread {share:.4f}"
                if bounds.get(name) is not None:
                    line += f" (bound {bounds[name]}, a third of it {bounds[name] / 3:.4f})"
            print(line)
            if len(values) > 1 and not name.endswith("_ratio"):
                print("  " + " " * 40 + " " + " ".join(f"{v:.4g}" for v in values))
            if name == "ok_ratio":
                print(f"  {'fail_ratio':<40} {1 - statistics.median(values):>14.6g} ratio")
    return 0


if __name__ == "__main__":
    sys.exit(main())
