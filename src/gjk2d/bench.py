"""Timing harness producing per-call statistics in a fixed CSV layout.

Each (algorithm, regime) cell is measured by timing whole passes over the
regime's case list with a monotonic clock and dividing by the case count,
after warm-up passes. Statistics (mean/p50/p99) are taken over the
repetition samples; cyclic GC is suspended during timed passes so
collection pauses do not land in individual samples (the query loops
allocate no reference cycles, so refcounting still frees everything).
On machines with scheduler noise p50 is the stable column; the mean can
absorb multi-millisecond stalls. Iteration and support-call counters are
averaged over one extra untimed pass. Runs are single-threaded so
per-call numbers stay meaningful; absolute values are
environment-dependent, only the CSV structure is deterministic.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable, List, Sequence

from .baseline import sat_intersects
from .datasets import PairCase, Regime, group_by_regime
from .gjk import distance, intersects

class Algorithm(Enum):
    DISTANCE_GJK = "DistanceGjk"
    DISTANCE_GJK_HCS = "DistanceGjkHcs"
    BINARY_GJK = "BinaryGjk"
    BINARY_GJK_HCS = "BinaryGjkHcs"
    SAT = "Sat"


@dataclass(frozen=True)
class BenchRecord:
    algorithm: Algorithm
    regime: Regime
    vertex_count: int
    mean_ns: float
    p50_ns: float
    p99_ns: float
    mean_iterations: float
    mean_support_calls: float


# The CSV header: one column per record field, in field order.
CSV_COLUMNS = tuple(f.name for f in fields(BenchRecord))


def _runner(algorithm: Algorithm):
    if algorithm is Algorithm.DISTANCE_GJK:
        return lambda p, q: distance(p, q, use_hill_climbing=False)
    if algorithm is Algorithm.DISTANCE_GJK_HCS:
        return lambda p, q: distance(p, q, use_hill_climbing=True)
    if algorithm is Algorithm.BINARY_GJK:
        return lambda p, q: intersects(p, q, use_hill_climbing=False)
    if algorithm is Algorithm.BINARY_GJK_HCS:
        return lambda p, q: intersects(p, q, use_hill_climbing=True)
    return sat_intersects


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    pos = fraction * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def run_benchmark(
    cases: Iterable[PairCase],
    algorithms: Sequence[Algorithm],
    repetitions: int = 20,
    warmup: int = 5,
) -> List[BenchRecord]:
    """Benchmark the given algorithms over each regime slice of ``cases``.

    Each distinct algorithm is timed once, in the order given. Returns
    records sorted by algorithm then regime name, one per non-empty slice;
    pass only one regime's cases to measure that regime alone.
    ``ValueError`` when ``repetitions`` is below 1 or ``warmup`` is
    negative.
    """
    if repetitions < 1 or warmup < 0:
        raise ValueError(f"need repetitions >= 1 and warmup >= 0, got {repetitions}, {warmup}")
    groups = group_by_regime(cases)
    records = []
    for algorithm in dict.fromkeys(algorithms):
        fn = _runner(algorithm)
        for regime in Regime:
            pairs = [(c.p, c.q) for c in groups[regime]]
            if not pairs:
                continue
            vertex_count = len(pairs[0][0])
            sink = [None]  # keeps results referenced so calls stay honest
            for _ in range(warmup):
                for p, q in pairs:
                    sink[0] = fn(p, q)
            samples = []
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                for _ in range(repetitions):
                    t0 = time.perf_counter_ns()
                    for p, q in pairs:
                        sink[0] = fn(p, q)
                    samples.append((time.perf_counter_ns() - t0) / len(pairs))
            finally:
                if gc_was_enabled:
                    gc.enable()
            samples.sort()
            if algorithm is Algorithm.SAT:
                mean_iter = 0.0
                mean_support = 0.0
            else:
                total_iter = 0
                total_support = 0
                for p, q in pairs:
                    result = fn(p, q)
                    total_iter += result.iterations
                    total_support += result.support_calls
                mean_iter = total_iter / len(pairs)
                mean_support = total_support / len(pairs)
            records.append(
                BenchRecord(
                    algorithm=algorithm,
                    regime=regime,
                    vertex_count=vertex_count,
                    mean_ns=sum(samples) / len(samples),
                    p50_ns=_percentile(samples, 0.50),
                    p99_ns=_percentile(samples, 0.99),
                    mean_iterations=mean_iter,
                    mean_support_calls=mean_support,
                )
            )
    records.sort(key=lambda r: (r.algorithm.value, r.regime.value))
    return records


def records_to_csv(records: Sequence[BenchRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(
            f"{r.algorithm.value},{r.regime.value},{r.vertex_count},"
            f"{r.mean_ns:.2f},{r.p50_ns:.2f},{r.p99_ns:.2f},"
            f"{r.mean_iterations:.3f},{r.mean_support_calls:.3f}"
        )
    return "\n".join(lines) + "\n"


def gnuplot_script(csv_path: str) -> str:
    """Companion gnuplot script plotting mean times per regime from the CSV."""
    return f"""\
# Plot mean per-call times from the benchmark CSV.
# Usage: gnuplot -p this_script.gp
set datafile separator ','
set key autotitle columnhead outside
set style data histogram
set style histogram clustered
set style fill solid 0.8 border -1
set ylabel 'mean ns per call'
set xlabel 'algorithm / regime'
set xtics rotate by -35
plot '{csv_path}' using 4:xtic(sprintf('%s %s', strcol(1), strcol(2))) notitle
"""
