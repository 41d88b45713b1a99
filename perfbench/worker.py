"""One repetition of one workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace 0|1]
                                [--size full|tiny] [--spans PATH] [--setup-only]

Imports numpy and the package from ``src/`` of the checkout that holds this
file, then prints ``{"ready": ...}`` for set-up timing (``time.monotonic``,
which every process on the machine shares).  Unless ``--setup-only`` is
given it then runs the workload once, timed, reads the peak resident memory
(and, when traced, the size of the per-prime caches), runs the correctness gate outside the timed region, and prints one JSON line
with the timing, memory, operation counts and, when traced, the per-layer
metrics.  Exit code 0 means the repetition ran, whatever the gate found;
any other exit code means it could not run.
"""

import time  # noqa: I001 - first, so nothing else counts as set-up

import argparse
import json
import os
import resource
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(1, HERE)

import numpy  # noqa: E402,F401
import stmoments  # noqa: E402
import stmoments.verify  # noqa: E402,F401

READY = time.monotonic()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans", default=None, help="file for the traced run's spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    package_dir = os.path.dirname(os.path.abspath(stmoments.__file__))
    if os.path.dirname(package_dir) != SRC:
        print(f"stmoments imported from {package_dir}, not from {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"ready": READY}))
        return 0

    from workloads import WORKLOADS, Outcome

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed, args.size)
    outcome = Outcome(workload.operations(inputs))
    tracer = None
    result = None
    raised = None
    start = time.perf_counter()
    try:
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            with tracer.installed():
                result = tracer.root(workload.run, inputs)
        else:
            result = workload.run(inputs)
    except Exception:  # a failed operation is counted, not fatal
        raised = traceback.format_exc()
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cache_entries = None
    if tracer is not None:
        from tracing import arith_cache_entries

        cache_entries = arith_cache_entries()  # before the gate fills the caches too

    if raised is None:
        try:
            outcome = workload.gate(inputs, result)
        except Exception:  # a result the gate cannot read is a failed result
            raised = traceback.format_exc()
    if raised is not None:
        outcome = outcome.fail_all(raised.strip().splitlines()[-1])
        print(raised, file=sys.stderr)
    report = {
        "ready": READY,
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:20],
    }
    if tracer is not None:
        from tracing import largest_self_time, per_layer_metrics, write_spans

        report["layers"] = per_layer_metrics(tracer.spans, tracer.counters, cache_entries)
        report["largest_self"] = largest_self_time(tracer.spans)
        if args.spans:
            write_spans(args.spans, tracer.spans, {k: report[k] for k in ("wall_s", "layers", "largest_self")})
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
