"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py probes
    python3 perfbench/worker.py WORKLOAD SEED TRACE

The worker prints ``ready`` as soon as ``import longcycles`` has returned, so
the parent can time set-up from spawn to that line.  It then samples the
host's speed (``speed.py``); ``setup`` stops there.  ``probes`` runs the
robustness probes in a process whose caches are cold.  Otherwise the worker
makes the workload's inputs from SEED, times the job (traced when TRACE is 1)
while sampling the host's speed, reads its peak resident memory, runs the
untimed exact checks, and prints one JSON line with the results.
``longcycles`` must be importable, e.g. through PYTHONPATH.
"""

import sys

import longcycles  # set-up time is measured until this import returns


def main(argv: list[str]) -> int:
    print("ready", flush=True)
    # Imported after the signal, so that set-up time is the library's alone.
    import json
    import resource
    import time

    import numpy
    from speed import EDGE_TICKS, SpeedSampler

    edge = SpeedSampler()
    edge.run(EDGE_TICKS)
    setup_tick_s = edge.mean()
    if argv == ["setup"]:
        print(json.dumps({"setup_tick_s": setup_tick_s}))
        return 0
    from checks import Checks
    from probes import run_probes
    from spans import Tracer
    from workloads import WORKLOADS, layer_metrics

    checks = Checks()
    if argv == ["probes"]:
        run_probes(checks)
        print(json.dumps({"checks": checks.to_dict()}))
        return 0
    name, seed, trace = argv
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(int(seed))
    tracer = Tracer(trace == "1")
    if workload.sampled:
        sampler = SpeedSampler()
        with sampler:
            start = time.perf_counter()
            output = workload.job(inputs, tracer)
            run_s = time.perf_counter() - start
        tick_s = sampler.mean()
    else:
        start = time.perf_counter()
        output = workload.job(inputs, tracer)
        run_s = time.perf_counter() - start
        edge.run(EDGE_TICKS)
        tick_s = edge.mean()
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the largest of the
    # pool's worker processes, which have all been joined by now.
    rss_mb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
    checks.guard(f"checks of {name}", lambda: workload.check(inputs, output, checks))
    result = {
        "run_s": run_s,
        "tick_s": tick_s,
        "setup_tick_s": setup_tick_s,
        "rss_mb": rss_mb,
        "checks": checks.to_dict(),
        "layers": layer_metrics(tracer) if tracer.enabled else None,
        "probes": workload.probes,
        "versions": {"longcycles": longcycles.__version__, "numpy": numpy.__version__},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
