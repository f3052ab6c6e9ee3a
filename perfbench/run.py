"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``longcycles`` from ``src/``
and reads the workload names and metric units from ``BENCHMARK.json``.
Every repetition of the workload runs in a fresh interpreter
(``perfbench/worker.py``), so the library's in-process caches start cold, as
in a user's session, and nothing is warmed up first.  A run makes a fixed
number of repetitions: S seconds over the workload's nominal cost of one
repetition (``REPETITION_S``), at least MIN_ROUNDS.  The on-disk cache is
pointed at an empty temporary directory and the library is called with
``cache_dir=None``.

Every time is scaled to a reference host speed by the ticks each worker
times during its job and after its set-up (``speed.py``).  With
``--trace 0`` the metrics are the end-to-end ones, each the median over the
repetitions:
run_s (the timed job), setup_s (from spawn until ``import longcycles``
returns, over every repetition and SETUP_SAMPLES more spawns), peak_rss_mb,
and ok_ratio (operations that passed over operations attempted; an operation
is one exact check or one probe).  With ``--trace 1`` untraced and traced
repetitions alternate, half as many of each; the metrics are the medians of
the per-layer numbers over the traced repetitions, and trace.overhead_s, the
traced median run_s less the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
new failures only: a probe that fails as it did when the benchmark was
defined is counted in ok_ratio but not there.  The exit code is 0 when the
run was measured, 1 when a worker failed, 2 when there is nothing to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import Checks
from speed import scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

# Nominal seconds of one repetition, spawn, speed ticks and checks included,
# on a quiet 2-CPU host.  They fix how many repetitions a run of S seconds
# makes; the count never depends on how fast the host is during the run.
REPETITION_S = {"pairs-n8": 5.5, "verify-n7": 10.0, "formulas-large": 4.2, "pairs-n8-w2": 3.2}
MIN_ROUNDS = 3
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 120


class WorkerError(RuntimeError):
    pass


def _spawn(args: list[str], env: dict[str, str]) -> tuple[float, dict]:
    """Run the worker; return seconds from spawn to its ready line, and the
    JSON object on its last line."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    ) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or ready.strip() != "ready" or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return setup_s, json.loads(lines[-1])


def _scaled(value: float, unit: str, factor: float) -> float:
    """A per-layer number measured now, in reference-speed terms."""
    if unit in ("s", "ms"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def measure(workload: str, seed: int, seconds: int, trace: bool, env: dict[str, str], units: dict[str, str]) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES):
        setup_s, result = _spawn(["setup"], env)
        setups.append(setup_s * scale(result["setup_tick_s"]))
    rounds = max(MIN_ROUNDS, round(seconds / REPETITION_S[workload]))
    if trace:
        rounds = max(2, -(-rounds // 2))
    samples: dict[str, list[float]] = {"run_s": [], "wall run_s": [], "tick_s": [], "peak_rss_mb": []}
    traced: dict[str, list[float]] = {"run_s": []} if trace else {}
    checks = Checks()
    start = time.perf_counter()
    for _ in range(rounds):
        for flag in ("0", "1") if trace else ("0",):
            setup_s, result = _spawn([workload, str(seed), flag], env)
            setups.append(setup_s * scale(result["setup_tick_s"]))
            factor = scale(result["tick_s"])
            checks.merge(result["checks"])
            if result["probes"]:
                checks.merge(_spawn(["probes"], env)[1]["checks"])
            if flag == "1":
                traced["run_s"].append(result["run_s"] * factor)
                for name, value in result["layers"].items():
                    traced.setdefault(name, []).append(_scaled(value, units[name], factor))
                continue
            samples["run_s"].append(result["run_s"] * factor)
            samples["wall run_s"].append(result["run_s"])
            samples["tick_s"].append(result["tick_s"])
            samples["peak_rss_mb"].append(result["rss_mb"])
    elapsed = time.perf_counter() - start
    samples["setup_s"] = setups

    versions = result["versions"]
    print(
        f"perfbench {workload} seed={seed} trace={int(trace)}: {rounds} rounds in {elapsed:.1f} s;"
        f" nproc={os.cpu_count()} python={platform.python_version()}"
        f" numpy={versions['numpy']} longcycles={versions['longcycles']}"
    )
    for name, values in [*samples.items(), *(("traced " + k, v) for k, v in traced.items())]:
        print(
            f"  {name:<44} median {statistics.median(values):.6g} {units.get(name.split()[-1], 's')}"
            f"  (min {min(values):.6g}, max {max(values):.6g}, n={len(values)})"
        )
    new_failures = checks.failed - checks.known
    print(
        f"  operations: {checks.attempted} attempted, {checks.failed} failed"
        f" ({checks.known} known when the benchmark was defined, {new_failures} new)"
    )
    for message in checks.messages:
        print(f"  FAIL {message}")

    if trace:
        metrics = {name: statistics.median(values) for name, values in traced.items() if name != "run_s"}
        metrics["trace.overhead_s"] = statistics.median(traced["run_s"]) - statistics.median(samples["run_s"])
    else:
        metrics = {name: statistics.median(samples[name]) for name in ("run_s", "setup_s", "peak_rss_mb")}
        metrics["ok_ratio"] = (checks.attempted - checks.failed) / checks.attempted
    return {
        "correct": new_failures == 0,
        "attempted": checks.attempted,
        "failed": new_failures,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "longcycles" / "__init__.py").is_file():
        print(f"perfbench: no longcycles package under {SRC}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="cache-", dir=HERE) as cache_dir:
        path = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
            LONGCYCLES_CACHE_DIR=cache_dir,
        )
        try:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace), env, units)
        except WorkerError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
