"""Tests of the benchmark's own checks and plumbing.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import speed
import workloads
from checks import Checks
from longcycles import IntegerPartition, even_factorization_count, pairs_by_type
from longcycles.oracle import CountTable, OracleResult, format_type_key
from longcycles.verify import IdentityReport, VerifyRun
from spans import Tracer
from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _type_table(corrupt: str | None = None) -> workloads.PairsOutput:
    counts = {}
    for lam in workloads._partitions(workloads.PAIRS_N):
        key = format_type_key(lam)
        counts[key] = pairs_by_type(IntegerPartition(lam)) + (key == corrupt)
    base = OracleResult(n=8, query={}, tables={"cycle_type": CountTable(counts)}, total=0)
    return workloads.PairsOutput(base, {}, {}, {})


def test_type_table_from_closed_forms_passes_and_matches_pinned_digest():
    checks = Checks()
    workloads.pairs_w2_check(None, _type_table(), checks)
    assert (checks.attempted, checks.failed) == (23, 0)


def test_corrupted_type_table_entry_is_a_failed_operation():
    checks = Checks()
    workloads.pairs_w2_check(None, _type_table(corrupt="4+2+1+1"), checks)
    assert checks.failed == 2  # the entry and the digest
    assert any(m.startswith("cycle_type 4+2+1+1:") for m in checks.messages)


def test_corrupted_report_is_a_failed_operation():
    run_ = VerifyRun(
        reports=[IdentityReport("split_long", "n=2", 1, 1), IdentityReport("split_long", "n=3", 2, 3)],
        audit=[],
    )
    checks = Checks()
    workloads.verify_check(None, run_, checks)
    assert checks.attempted == 5
    # the bad report, the report count, the audit count and the digest
    assert checks.failed == 4
    assert "split_long @ n=3: got 2, want 3" in checks.messages


def test_raising_reference_is_a_failed_operation():
    checks = Checks()
    checks.equal("boom", 1, lambda: 1 // 0)
    assert (checks.attempted, checks.failed) == (1, 1)
    assert checks.messages == ["boom: ZeroDivisionError: integer division or modulo by zero"]


def test_malformed_output_fails_its_checks():
    checks = Checks()
    # no table for the composition (8): the check raises part-way through
    checks.guard("checks of pairs-n8", lambda: workloads.pairs_check([(8,)], _type_table(), checks))
    assert checks.attempted == 24 and checks.failed == 1
    assert checks.messages[-1].startswith("checks of pairs-n8: KeyError")


def test_unexpected_probe_exception_fails_without_stopping_the_run():
    def probe():
        raise RuntimeError("unexpected")

    checks = Checks()
    checks.probe("p", probe, known="IndexError")
    checks.probe("q", lambda: None)
    assert (checks.attempted, checks.failed, checks.known) == (2, 1, 0)
    assert checks.messages == ["probe p: RuntimeError"]


def test_probe_failing_as_recorded_is_known():
    checks = Checks()
    checks.probe("p", lambda: "no exception", known="no exception")
    assert (checks.failed, checks.known) == (1, 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_polynomial_reference_matches_the_library(n):
    for lam in workloads._partitions(n):
        if (n - len(lam)) % 2 == 0:
            assert workloads._factorizations_by_polynomial(lam) == even_factorization_count(
                IntegerPartition(lam)
            )


def test_self_time_subtracts_children():
    tracer = Tracer(True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
        with tracer.span("inner"):
            sum(range(10000))
    outer, first, second = tracer.spans
    assert first.parent == second.parent == 0
    assert tracer.self_time("outer") == pytest.approx(outer.duration - first.duration - second.duration)
    assert tracer.self_time("inner") == pytest.approx(first.duration + second.duration)


def test_untraced_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("a"):
        tracer.count("c")
    assert tracer.spans == [] and tracer.counts == {}


def test_every_workload_and_layer_of_benchmark_json_is_measured():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(workloads.WORKLOADS) == sorted(run.REPETITION_S) == sorted(names)
    layers = {**workloads.layer_metrics(Tracer(True)), "trace.overhead_s": 0.0}
    assert sorted(layers) == sorted(m["name"] for m in BENCHMARK["per_layer"])


def test_sampler_ticks_during_the_job_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler()
    with sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert 3 <= len(sampler.samples) <= 0.3 / speed.PERIOD_S + 1
    assert sampler.mean() > 0
    sampler.run(2)
    assert len(sampler.samples) >= 5


def test_layer_numbers_scale_with_their_unit():
    assert run._scaled(2.0, "s", 0.5) == 1.0
    assert run._scaled(2.0, "ms", 0.5) == 1.0
    assert run._scaled(2.0, "1/s", 0.5) == 4.0
    assert run._scaled(2.0, "count", 0.5) == 2.0


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "cache-*"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pairs-n8", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
