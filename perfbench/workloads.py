"""The four benchmark workloads: inputs from a seed, the timed operation and
the correctness gate that runs after it.

Each workload is a `Workload` with three functions:

* ``prepare(seed, size)`` builds the inputs (outside the timed region);
* ``run(inputs)`` is the timed region, the calls a user of the package makes
  (through the modules' attributes, so that a traced run sees them);
* ``gate(inputs, result)`` checks the result against independent routes and
  recorded values and returns an `Outcome` (outside the timed region).

``size`` is ``"full"`` for the benchmark and ``"tiny"`` for the smoke tests.
The box, x and interval family of every workload are fixed because they set
the work; the seed only picks the interval angles of the two sweep workloads
and the pairs their gate checks against the per-curve route.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from stmoments import moments_engine, verify
from stmoments.arith_curves import CurveParams, Interval, count_in_interval
from stmoments.moments_engine import MomentPlan, Profile
from stmoments.st_approx import st_measure

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# Seed 0 gives I = [0, 2] (alpha = 0, beta = pi/2), the interval of the
# ROADMAP baseline; its sweep grids have recorded digests in expected.json.
DEFAULT_SEED = 0
ORACLE_PAIRS = 24
REL_TOL = 1e-12


@dataclass
class Outcome:
    """Operations attempted and failed in one repetition, with reasons."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail_all(self, reason: str) -> "Outcome":
        return Outcome(self.attempted, self.attempted, self.problems + [reason])


@dataclass(frozen=True)
class Workload:
    """A named workload; BENCHMARK.json and README.md say why each exists."""

    name: str
    prepare: Callable[[int, str], dict]
    run: Callable[[dict], Any]
    gate: Callable[[dict, Any], Outcome]
    operations: Callable[[dict], int]


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def close(a: float, b: float, scale: float = 0.0) -> bool:
    """a == b to within REL_TOL of max(|a|, |b|, scale)."""
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


# ---------------------------------------------------------------------------
# sweep workloads
# ---------------------------------------------------------------------------

SWEEP_SIZES = {
    # x, half box.  "full" sets the work; "tiny" only exercises the code.
    "sweep-deep": {"full": (3000.0, 50), "tiny": (200.0, 6)},
    "sweep-wide": {"full": (500.0, 1000), "tiny": (100.0, 60)},
}


def seeded_interval(seed: int) -> Interval:
    if seed == DEFAULT_SEED:
        return Interval(0.0, math.pi / 2)
    rng = random.Random(seed)
    alpha = rng.uniform(0.0, math.pi / 2)
    beta = min(math.pi, alpha + rng.uniform(math.pi / 4, math.pi / 2))
    return Interval(alpha, beta)


def oracle_pairs(seed: int, A: int, B: int) -> list[tuple[int, int]]:
    """Seeded admissible pairs plus the box corners and the two axes."""
    rng = random.Random(f"oracle-{seed}")
    fixed = [(-A, -B), (A, B), (-A, B), (A, -B), (0, B), (A, 0)]
    drawn = [(rng.randint(-A, A), rng.randint(-B, B)) for _ in range(ORACLE_PAIRS)]
    return [(a, b) for a, b in fixed + drawn if 4 * a ** 3 + 27 * b ** 2 != 0]


def prepare_sweep(name: str, seed: int, size: str) -> dict:
    x, half = SWEEP_SIZES[name][size]
    return {
        "name": name,
        "size": size,
        "seed": seed,
        "x": x,
        "A": half,
        "B": half,
        "interval": seeded_interval(seed),
        "pairs": oracle_pairs(seed, half, half),
    }


def grid_digest(counts: np.ndarray, admissible: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(counts, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(admissible, dtype=np.uint8).tobytes())
    return h.hexdigest()


def check_grid(inputs: dict, grid: tuple) -> list[str]:
    """Problems with one (a_vals, b_vals, counts, admissible, pi_tilde) grid:
    shape, admissible mask, the per-curve route on the oracle pairs and, for
    the default seed, the digest recorded in expected.json."""
    a_vals, b_vals, counts, admissible, _ = grid
    A, B, x, iv = inputs["A"], inputs["B"], inputs["x"], inputs["interval"]
    if counts.shape != (2 * A + 1, 2 * B + 1):
        return [f"counts shape {counts.shape} != {(2 * A + 1, 2 * B + 1)}"]
    problems = []
    delta = 4 * np.arange(-A, A + 1)[:, None] ** 3 + 27 * np.arange(-B, B + 1)[None, :] ** 2
    if not np.array_equal(admissible, delta != 0):
        problems.append("admissible mask differs from Delta != 0")
    if not (np.array_equal(a_vals, np.arange(-A, A + 1)) and np.array_equal(b_vals, np.arange(-B, B + 1))):
        problems.append("box axes differ from -A..A, -B..B")
    for a, b in inputs["pairs"]:
        want = count_in_interval(CurveParams(a, b), x, iv)
        got = int(counts[a + A, b + B])
        if got != want:
            problems.append(f"counts[{a}, {b}] = {got}, per-curve route gives {want}")
    if inputs["seed"] == DEFAULT_SEED:
        digest = grid_digest(counts, admissible)
        want = load_expected()[inputs["name"]][inputs["size"]]["digest"]
        if digest != want:
            problems.append(f"grid digest {digest[:12]} != recorded {want[:12]}")
    return problems


def reference_grid(inputs: dict) -> tuple[tuple, list[str]]:
    """The grid the gate checks the statistics against, and its problems.

    The statistics functions return only statistics, so the gate computes
    the grid once more after the timed region and checks it with
    `check_grid` before it trusts it.
    """
    grid = moments_engine.family_error_grid(inputs["x"], inputs["A"], inputs["B"], inputs["interval"])
    return grid, check_grid(inputs, grid)


def moment_problems(plan: MomentPlan, report, grid: tuple) -> list[str]:
    """The reported moments against the same sums taken from the grid."""
    _, _, counts, admissible, pi_tilde = grid
    errors = (counts - pi_tilde * st_measure(plan.interval))[admissible]
    norm = 4.0 * plan.A * plan.B
    problems = []
    if report.pi_tilde != pi_tilde or [r.t for r in report.results] != list(plan.t_list):
        problems.append("moment report does not match its plan")
    for r in report.results:
        want = float((errors ** r.t).sum()) / norm
        if not close(r.empirical, want, float((np.abs(errors) ** r.t).sum()) / norm):
            problems.append(f"moment t={r.t}: {r.empirical!r} != {want!r}")
    return problems


def deep_plan(inputs: dict) -> MomentPlan:
    return MomentPlan(x=inputs["x"], A=inputs["A"], B=inputs["B"], interval=inputs["interval"], t_list=(1, 2))


def run_deep(inputs: dict):
    return moments_engine.family_moments(deep_plan(inputs))


def gate_deep(inputs: dict, report) -> Outcome:
    grid, problems = reference_grid(inputs)
    problems += moment_problems(deep_plan(inputs), report, grid)
    return Outcome(1, int(bool(problems)), problems)


def wide_plan(inputs: dict) -> MomentPlan:
    return MomentPlan(x=inputs["x"], A=inputs["A"], B=inputs["B"], interval=inputs["interval"], t_list=(1, 2, 3, 4))


WIDE_Y = 3.0


def run_wide(inputs: dict):
    plan = wide_plan(inputs)
    report = moments_engine.family_moments(plan)
    sample = moments_engine.clt_histogram(plan)
    exceptions = moments_engine.almost_all_report(plan, y=WIDE_Y, profile=Profile.HYPOTHESES)
    return report, sample, exceptions


def clt_problems(plan: MomentPlan, sample, grid: tuple) -> list[str]:
    a_vals, b_vals, counts, admissible, pi_tilde = grid
    mu = st_measure(plan.interval)
    errors = (counts - pi_tilde * mu)[admissible]
    problems = []
    if not np.array_equal(sample.counts, counts[admissible]):
        problems.append("CLT sample counts differ from the grid")
    if not np.array_equal(sample.errors, errors):
        problems.append("CLT sample errors differ from the grid")
    aa, bb = np.meshgrid(a_vals, b_vals, indexing="ij")
    if not (np.array_equal(sample.a, aa[admissible]) and np.array_equal(sample.b, bb[admissible])):
        problems.append("CLT sample pairs differ from the admissible pairs")
    standardized = errors / math.sqrt(pi_tilde * (mu - mu * mu))
    if not np.allclose(sample.standardized, standardized, rtol=REL_TOL, atol=0.0):
        problems.append("CLT standardized sample differs from the grid")
    if not close(sample.mean, float(standardized.mean()), 1.0) or not close(sample.variance, float(standardized.var())):
        problems.append(f"CLT mean/variance {sample.mean!r}/{sample.variance!r} off")
    if int(sample.bin_counts.sum()) != sample.size or not 0.0 < sample.ks < 1.0:
        problems.append(f"CLT histogram total {int(sample.bin_counts.sum())} or KS {sample.ks!r} out of range")
    return problems


def almost_all_problems(report, grid: tuple, interval: Interval) -> list[str]:
    _, _, counts, admissible, pi_tilde = grid
    errors = np.abs((counts - pi_tilde * st_measure(interval))[admissible])
    exceptions = int((errors > WIDE_Y * report.threshold).sum())
    if (report.exceptions, report.total) != (exceptions, int(errors.size)):
        return [f"almost-all {report.exceptions}/{report.total} != {exceptions}/{errors.size} from the grid"]
    return []


def gate_wide(inputs: dict, result) -> Outcome:
    """Three operations; a bad reference grid fails all three."""
    report, sample, exceptions = result
    plan = wide_plan(inputs)
    grid, shared = reference_grid(inputs)
    per_op = [
        moment_problems(plan, report, grid),
        clt_problems(plan, sample, grid),
        almost_all_problems(exceptions, grid, plan.interval),
    ]
    problems = shared + [p for op in per_op for p in op]
    failed = 3 if shared else sum(1 for op in per_op if op)
    return Outcome(3, failed, problems)


# ---------------------------------------------------------------------------
# soft diagnostics
# ---------------------------------------------------------------------------

SOFT_SIZES = {"full": {}, "tiny": {"x": 200.0, "half_box": 6, "clt_half_box": 7}}


def prepare_soft(seed: int, size: str) -> dict:
    return {"size": size, "kwargs": SOFT_SIZES[size]}


def run_soft(inputs: dict) -> dict:
    return verify.soft_diagnostics(**inputs["kwargs"])


def to_json_value(value):
    if isinstance(value, tuple):
        return [to_json_value(v) for v in value]
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    return value


def soft_problems(got: dict, want: dict) -> list[str]:
    """Integers and keys exactly, floats to within REL_TOL relative."""
    if sorted(got) != sorted(want):
        return [f"keys {sorted(got)} != {sorted(want)}"]
    problems = []
    for key, w in want.items():
        g = to_json_value(got[key])
        g_items, w_items = (g, w) if isinstance(w, list) else ([g], [w])
        if len(g_items) != len(w_items):
            problems.append(f"{key}: {g!r} != {w!r}")
            continue
        for gi, wi in zip(g_items, w_items):
            ok = gi == wi if isinstance(wi, int) else isinstance(gi, float) and close(gi, wi)
            if not ok:
                problems.append(f"{key}: {g!r} != recorded {w!r}")
                break
    return problems


def gate_soft(inputs: dict, result: dict) -> Outcome:
    problems = soft_problems(result, load_expected()["soft-diagnostics"][inputs["size"]])
    return Outcome(1, int(bool(problems)), problems)


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

SUITE_CHECKS = {"arith": 21, "classnum": 4, "trace": 4, "family": 3, "bs": 20, "pipeline": 5}
IDENTITY_SIZES = {"full": tuple(SUITE_CHECKS), "tiny": ("arith", "family")}


def prepare_identity(seed: int, size: str) -> dict:
    return {"suites": IDENTITY_SIZES[size]}


def identity_operations(inputs: dict) -> int:
    return sum(SUITE_CHECKS[s] for s in inputs["suites"])


def run_identity(inputs: dict) -> list[str]:
    lines: list[str] = []
    verify.run_suites(list(inputs["suites"]), printer=lines.append)
    return lines


def gate_identity(inputs: dict, lines: list[str]) -> Outcome:
    """Every check of every suite prints PASS, and each suite runs all of its
    checks; a missing check counts as failed."""
    seen = {s: 0 for s in inputs["suites"]}
    outcome = Outcome(identity_operations(inputs))
    suite = None
    for line in lines:
        if line.startswith("== suite "):
            suite = line[len("== suite "):]
        elif line.startswith(("PASS", "FAIL")) and suite in seen:
            seen[suite] += 1
            if line.startswith("FAIL"):
                outcome.failed += 1
                outcome.problems.append(line)
    for s, n in seen.items():
        if n != SUITE_CHECKS[s]:
            outcome.problems.append(f"suite {s} ran {n} checks, expected {SUITE_CHECKS[s]}")
            outcome.failed += max(SUITE_CHECKS[s] - n, 0)
    outcome.failed = min(outcome.failed, outcome.attempted)
    return outcome


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-deep",
            lambda seed, size: prepare_sweep("sweep-deep", seed, size),
            run_deep,
            gate_deep,
            lambda inputs: 1,
        ),
        Workload(
            "sweep-wide",
            lambda seed, size: prepare_sweep("sweep-wide", seed, size),
            run_wide,
            gate_wide,
            lambda inputs: 3,
        ),
        Workload(
            "soft-diagnostics",
            prepare_soft,
            run_soft,
            gate_soft,
            lambda inputs: 1,
        ),
        Workload(
            "identity-suites",
            prepare_identity,
            run_identity,
            gate_identity,
            identity_operations,
        ),
    )
}
