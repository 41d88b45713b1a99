"""Per-layer tracing from outside the package.

`Tracer.installed()` replaces module-level functions of `stmoments` with
wrappers that record a span per call (name, start, end, parent) in memory,
and puts every original back when the block ends, also after an exception.
A function imported by name into other modules (``from .arith_curves import
_trace_rows``) is replaced there too, since the caller looks it up through its
own module.  `per_layer_metrics` turns the spans and counters into the
benchmark's per-layer metrics; a layer's self time is its span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

ROOT = "workload"


def _count_rows(counters, args, kwargs, result):
    counters["arith_curves.trace_rows.rows"] += len(args[1])


def _count_pair_primes(counters, args, kwargs, result):
    counts, pi_tilde = result[2], result[4]
    counters["moments_engine.family_error_grid.pair_primes"] += counts.size * pi_tilde


def _count_max_n(counters, args, kwargs, result):
    key = "classnumbers.build_hurwitz_table.max_n"
    counters[key] = max(counters[key], result.max_n)


def _count_store_hit(counters, args, kwargs):
    store, k, p = args[:3]
    counters["hecke.trace_store.calls"] += 1
    counters["hecke.trace_store.hits"] += (k, p) in store._traces


@dataclass(frozen=True)
class Layer:
    """One traced function: span name, owner (module or class) and attribute."""

    span: str
    owner: str
    attr: str
    after: Callable | None = None
    before: Callable | None = None


LAYERS = (
    Layer("arith_curves.primes_in_window", "stmoments.arith_curves", "primes_in_window"),
    Layer("arith_curves.trace_rows", "stmoments.arith_curves", "_trace_rows", after=_count_rows),
    Layer("arith_curves.singular_pairs", "stmoments.arith_curves", "_singular_pairs"),
    Layer("arith_curves.classify_singular", "stmoments.arith_curves", "_classify_singular"),
    Layer("arith_curves.ap_table", "stmoments.arith_curves", "ap_table"),
    Layer("arith_curves.curve_ap", "stmoments.arith_curves", "curve_ap"),
    Layer("moments_engine.family_error_grid", "stmoments.moments_engine", "family_error_grid",
          after=_count_pair_primes),
    Layer("moments_engine.box_prime_data", "stmoments.moments_engine", "_box_prime_data"),
    Layer("moments_engine.stats", "stmoments.moments_engine", "family_moments"),
    Layer("moments_engine.stats", "stmoments.moments_engine", "clt_histogram"),
    Layer("moments_engine.stats", "stmoments.moments_engine", "almost_all_report"),
    Layer("moments_engine.expansion", "stmoments.moments_engine", "moment_via_expansion"),
    Layer("moments_engine.expansion", "stmoments.moments_engine", "psum_moment_direct"),
    Layer("st_approx.coeffs", "stmoments.st_approx", "exact_st_coeffs"),
    Layer("st_approx.coeffs", "stmoments.st_approx", "sandwich_coeffs"),
    Layer("st_approx.sandwich_error_bound", "stmoments.st_approx", "sandwich_error_bound"),
    Layer("classnumbers.build_hurwitz_table", "stmoments.classnumbers", "build_hurwitz_table",
          after=_count_max_n),
    Layer("hecke.miller_basis", "stmoments.hecke", "miller_basis"),
    Layer("hecke.traces_via_birch", "stmoments.hecke", "traces_via_birch"),
    Layer("hecke.trace_store", "stmoments.hecke:TraceStore", "trace", before=_count_store_hit),
    Layer("family_averages.s0_brute", "stmoments.family_averages", "s0_brute"),
    Layer("family_averages.s_grid_brute", "stmoments.family_averages", "s_grid_brute"),
)

SUITE_NAMES = ("arith", "classnum", "trace", "family", "bs", "pipeline")

PER_LAYER_METRICS = (
    ("arith_curves.trace_rows.calls", "count"),
    ("arith_curves.trace_rows.rows", "count"),
    ("arith_curves.trace_rows.s", "s"),
    ("arith_curves.singular_pairs.calls", "count"),
    ("arith_curves.singular_pairs.s", "s"),
    ("arith_curves.classify_singular.calls", "count"),
    ("arith_curves.classify_singular.s", "s"),
    ("arith_curves.cache_entries", "count"),
    ("arith_curves.primes_in_window.calls", "count"),
    ("arith_curves.primes_in_window.s", "s"),
    ("arith_curves.ap_table.calls", "count"),
    ("arith_curves.ap_table.s", "s"),
    ("arith_curves.curve_ap.calls", "count"),
    ("arith_curves.curve_ap.s", "s"),
    ("moments_engine.family_error_grid.calls", "count"),
    ("moments_engine.family_error_grid.pair_primes", "count"),
    ("moments_engine.family_error_grid.self_s", "s"),
    ("moments_engine.box_prime_data.self_s", "s"),
    ("moments_engine.stats.self_s", "s"),
    ("moments_engine.expansion.s", "s"),
    ("st_approx.coeffs.calls", "count"),
    ("st_approx.coeffs.s", "s"),
    ("st_approx.sandwich_error_bound.s", "s"),
    ("classnumbers.build_hurwitz_table.s", "s"),
    ("classnumbers.build_hurwitz_table.max_n", "count"),
    ("hecke.miller_basis.calls", "count"),
    ("hecke.miller_basis.s", "s"),
    ("hecke.traces_via_birch.s", "s"),
    ("hecke.trace_store.hit_ratio", "1"),
    ("family_averages.s0_brute.s", "s"),
    ("family_averages.s_grid_brute.s", "s"),
    *((f"verify.suite.{name}.s", "s") for name in SUITE_NAMES),
    ("trace.overhead_s", "s"),
)


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls) if cls else module


@dataclass
class Tracer:
    """Spans as [name, start, end, parent index] rows, plus named counters."""

    clock: Callable[[], float] = time.perf_counter
    spans: list[list] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        spans, stack, counters, clock = self.spans, self._stack, self.counters, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(counters, args, kwargs)
            row = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                row[2] = clock()
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        patches: list[tuple[Any, str, Any]] = []  # (owner, attribute or key, original)

        def patch(owner, key, new):
            if isinstance(owner, dict):
                patches.append((owner, key, owner[key]))
                owner[key] = new
            else:
                patches.append((owner, key, getattr(owner, key)))
                setattr(owner, key, new)

        try:
            for layer in LAYERS:
                owner = _resolve(layer.owner)
                original = getattr(owner, layer.attr)
                wrapped = self.wrap(layer.span, original, layer.before, layer.after)
                patch(owner, layer.attr, wrapped)
                if isinstance(owner, type):
                    continue
                for module in _package_modules():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patch(module, attr, wrapped)
            suites = importlib.import_module("stmoments.verify").SUITES
            for name in list(suites):
                patch(suites, name, self.wrap(f"verify.suite.{name}", suites[name]))
            yield self
        finally:
            for owner, key, original in reversed(patches):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    def root(self, fn: Callable, *args):
        """Call fn under the root span, so unattributed time has a home."""
        return self.wrap(ROOT, fn)(*args)


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and
            (name == "stmoments" or name.startswith("stmoments."))]


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds (outermost spans of the name
    only, so recursion is not counted twice) and self seconds."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        t = totals[name]
        t["calls"] += 1
        t["self_s"] += own
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            t["s"] += end - start
    return dict(totals)


def per_layer_metrics(spans: list[list], counters: Counter, cache_entries: int) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, which needs an
    untraced run to compare with."""
    totals = layer_totals(spans)
    store_calls = counters["hecke.trace_store.calls"]
    special = {
        "arith_curves.cache_entries": cache_entries,
        "hecke.trace_store.hit_ratio": counters["hecke.trace_store.hits"] / store_calls if store_calls else 0.0,
    }
    out = {}
    for name, _ in PER_LAYER_METRICS:
        layer, _, kind = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif name == "trace.overhead_s":
            continue
        elif kind == "calls":
            out[name] = totals.get(layer, {}).get(kind, 0)
        elif kind in ("s", "self_s"):
            out[name] = totals.get(layer, {}).get(kind, 0.0)
        else:
            out[name] = counters[name]
    return out


def largest_self_time(spans: list[list]) -> tuple[str, float]:
    """The layer (root excluded) with the largest total self time."""
    totals = {k: v["self_s"] for k, v in layer_totals(spans).items() if k != ROOT}
    if not totals:
        return ROOT, 0.0
    name = max(totals, key=totals.get)
    return name, totals[name]


def arith_cache_entries() -> int:
    from stmoments import arith_curves

    return sum(f.cache_info().currsize for f in (arith_curves._legendre_table, arith_curves._sqrt_lists))


def write_spans(path: str, spans: list[list], summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"summary": summary, "spans": [dict(zip(("name", "start", "end", "parent"), s)) for s in spans]}, fh)
        fh.write("\n")
