"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition of the workload runs in a
fresh process (`worker.py`), so caches start cold as they do for a user of
the command line.  Repetitions run one after another until the next one
would end after S seconds (at least MIN_REPS of them).

With ``--trace 0`` the last line of output is the result with the
end-to-end metrics: medians over the repetitions of the workload's wall
time, the set-up time (process start until numpy and the package are
imported; repetitions are topped up with import-only processes to
MIN_SETUP_SAMPLES samples) and the peak resident memory.  With ``--trace 1``
untraced and traced repetitions alternate, the result carries the per-layer
metrics of the traced ones (medians) and ``trace.overhead_s``, and the spans
of the last traced repetition go to ``perfbench/out/``.

The exit code is 0 when a result was printed, whatever the correctness gate
found; ``correct`` and ``failed`` report that.  A repetition that cannot run
at all (no package in ``src/``, a crash, a timeout) ends the run with exit
code 1 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

MIN_REPS = 2  # untraced; a traced run makes at least one untraced/traced pair
MIN_SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # every run must end within 180 s


class RepFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[dict, float, float]:
    """Run one worker; return its last JSON line, its set-up time and its
    total duration."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - start, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"worker {' '.join(args)} did not finish in time") from exc
    end = time.monotonic()
    if proc.returncode != 0:
        raise RepFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["ready"] - start, end - start


def repeat(seconds: float, deadline: float, min_rounds: int, one_round) -> None:
    """Call one_round() at least min_rounds times, then until the next call
    would end after `seconds`."""
    start = time.monotonic()
    durations: list[float] = []
    while True:
        t0 = time.monotonic()
        one_round()
        durations.append(time.monotonic() - t0)
        expected_end = time.monotonic() + statistics.median(durations)
        if expected_end > deadline or (len(durations) >= min_rounds and expected_end - start > seconds):
            return


def load_spec() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")

    def one_round():
        report, setup, _ = spawn(base + ["--trace", "0"], deadline)
        plain.append(report)
        setups.append(setup)
        if trace:
            report, _, _ = spawn(base + ["--trace", "1", "--spans", spans_path], deadline)
            traced.append(report)

    repeat(seconds, deadline, 1 if trace else MIN_REPS, one_round)
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(base + ["--setup-only"], deadline)[1])

    reports = plain + traced
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for r in reports:
        for problem in r["problems"]:
            print(f"gate: {problem}")
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer" if trace else "end_to_end"]}
    if trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        largest = traced[-1]["largest_self"]
        print(f"largest self time: {largest[0]} {largest[1]:.3f} s; spans in {os.path.relpath(spans_path, ROOT)}")
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    print(f"{workload} seed {seed}: wall_s of {len(plain)} untraced repetitions "
          f"{[round(r['wall_s'], 3) for r in plain]}, {len(traced)} traced, {len(setups)} set-up samples")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stmoments benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stmoments", "__init__.py")):
        print("no src/stmoments here: run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    workload_names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in workload_names:
        print(f"unknown workload {args.workload!r}; choose from {workload_names}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RepFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
