#!/usr/bin/env python3
"""Layered, host-normalized benchmark of the gjk2d package.

Run from the repository root:

    python3 perfbench/run.py --workload small-polys --seed 7 --seconds 12 --trace 0

Each workload is a set of three-regime datasets made by ``gjk2d gen``
(called in-process through ``gjk2d.cli.main``) from ``--seed``. Queries
run single-threaded and closed-loop: each call is issued only after the
previous one returns. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` is a separate run that prints the per-layer metrics
measured with spans and replays (see ``spans.py`` and ``replay.py``).
Every timing is host-normalized (see ``hostref.py``). Every answer is
checked against the independent oracles of ``gjk2d.baseline`` outside
the timed passes. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import replay  # noqa: E402
from hostref import REF_NOMINAL_NS, HostClock  # noqa: E402
from spans import Tracer  # noqa: E402

# distance-vs-oracle acceptance band, the same as `gjk2d check`
REL_TOL = 1e-7
ABS_TOL = 1e-9
QUERY_BLOCK = 64  # queries per timed block between reference-kernel samples
SETUP_REPEATS = 5
MIN_ROUNDS = 3  # minimum query passes and pipeline sweeps per run


@dataclass(frozen=True)
class Workload:
    sizes: Tuple[int, ...]  # polygon vertex counts
    chunks: int  # datasets per vertex count
    cases: int  # cases per regime in each dataset
    pipeline_chunks: int  # datasets per vertex count re-made by timed gen/check
    query_share: float  # share of the timed loop given to distance/intersects


# Why each workload exists is recorded in README.md. Every workload
# reports every metric, so each also times a share of the other side.
WORKLOADS = {
    "small-polys": Workload((4, 6, 8), chunks=40, cases=5, pipeline_chunks=8, query_share=0.65),
    "large-polys": Workload((32, 48, 64), chunks=125, cases=1, pipeline_chunks=8, query_share=0.65),
    "gen-check": Workload((24,), chunks=170, cases=2, pipeline_chunks=40, query_share=0.3),
}


@dataclass(frozen=True)
class Chunk:
    n: int
    seed: int
    path: str


class Program:
    """The gjk2d modules under ./src, imported from the current directory."""

    def __init__(self) -> None:
        src = os.path.join(os.getcwd(), "src")
        if not os.path.isfile(os.path.join(src, "gjk2d", "__init__.py")):
            raise SystemExit(
                "perfbench: no gjk2d sources under ./src; run from the repository root"
            )
        sys.path.insert(0, src)
        self.api = importlib.import_module("gjk2d")
        self.cli = importlib.import_module("gjk2d.cli")
        self.datasets = importlib.import_module("gjk2d.datasets")
        self.gjk = importlib.import_module("gjk2d.gjk")


class RetryCounter(logging.Handler):
    """Counts the regeneration warnings of the gjk2d.datasets logger."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record) -> None:
        self.count += 1


def run_cli(main: Callable, argv: List[str]) -> int:
    """Call the CLI entry point in-process with its standard output captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def gen_argv(chunk: Chunk, cases: int, out: str) -> List[str]:
    return ["gen", "--vertices", str(chunk.n), "--cases", str(cases),
            "--seed", str(chunk.seed), out]


@contextlib.contextmanager
def gc_off():
    """Cyclic GC off, as in ``gjk2d.bench``: query calls make no reference
    cycles, so a collection landing in one would time other code's garbage."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def item_medians(repeats: Sequence[Sequence[float]]) -> List[float]:
    """Per-item median over repeats, given one sequence of item values per repeat."""
    return [median(values) for values in zip(*repeats)]


def tail(values: Sequence[float]) -> str:
    """The highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for pct, label in ((99.9, "p99.9"), (99, "p99"), (95, "p95"), (90, "p90"), (75, "p75")):
        if n * (100 - pct) / 100 >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]
            return f"{label} {q:.6g}"
    return f"max {max(values):.6g}"


class Run:
    def __init__(self, program: Program, workload: Workload, seed: int, seconds: int, work: str):
        self.g = program
        self.w = workload
        self.seconds = seconds
        self.clock = HostClock()
        self.attempted = 0
        self.failed = 0
        self.lines: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.exact: Dict[str, float] = {}
        self.chunks: List[Chunk] = []
        self.pipeline: List[Chunk] = []
        for n in workload.sizes:
            for j in range(workload.chunks):
                chunk = Chunk(n, seed * 1_000_003 + j, os.path.join(work, f"n{n}-{j}.jsonl"))
                self.chunks.append(chunk)
                if j < workload.pipeline_chunks:
                    self.pipeline.append(chunk)
        self.sweep_path = os.path.join(work, "sweep.jsonl")

    # ---- inputs -------------------------------------------------------

    def make_inputs(self) -> None:
        """Generate the workload's datasets with `gjk2d gen` (not timed)."""
        logger = logging.getLogger(self.g.datasets.__name__)
        counter = RetryCounter()
        logger.addHandler(counter)
        try:
            for chunk in self.chunks:
                if run_cli(self.g.cli.main, gen_argv(chunk, self.w.cases, chunk.path)) != 0:
                    raise SystemExit(f"perfbench: gjk2d gen failed for seed {chunk.seed}")
        finally:
            logger.removeHandler(counter)
        self.exact["datasets.retries"] = counter.count
        self.cases = []
        for chunk in self.chunks:
            self.cases.extend(self.g.datasets.read_dataset(chunk.path)[1])
        self.pairs = [(c.p, c.q) for c in self.cases]
        self.blocks = [self.pairs[i : i + QUERY_BLOCK] for i in range(0, len(self.pairs), QUERY_BLOCK)]
        self.expected = {}
        for chunk in self.pipeline:
            with open(chunk.path, "rb") as fh:
                self.expected[chunk.path] = fh.read()
        h = hashlib.sha256()
        for case in self.cases:
            record = [case.regime.value, case.seed,
                      self.g.api.polygon_to_jsonable(case.p), self.g.api.polygon_to_jsonable(case.q)]
            h.update(json.dumps(record).encode())
        self.fingerprint = h.hexdigest()[:16]

    def gate(self) -> None:
        """Check every answer against the baseline oracles; record exact counters."""
        api = self.g.api
        n = len(self.cases)
        tally: Dict[str, float] = {}
        for member in api.Termination:
            tally[f"gjk.termination.{member.value}"] = 0
        for member in api.CollisionExit:
            tally[f"gjk.exit.{member.value}"] = 0
        calls_d = calls_i = iters_d = iters_i = 0
        disagree = 0
        for case in self.cases:
            self.attempted += 3
            if not api.verify_regime(case):
                self.failed += 1
            ref = api.oracle_distance(case.p, case.q).distance
            res = api.distance(case.p, case.q)
            if abs(res.distance - ref) > REL_TOL * max(1.0, ref) + ABS_TOL:
                self.failed += 1
            hit = api.intersects(case.p, case.q)
            if hit.colliding != api.sat_intersects(case.p, case.q):
                # exact touching is a numerical knife edge, as in `gjk2d check`
                if case.regime is api.Regime.TOUCHING:
                    disagree += 1
                else:
                    self.failed += 1
            calls_d += res.support_calls
            calls_i += hit.support_calls
            iters_d += res.iterations
            iters_i += hit.iterations
            tally[f"gjk.termination.{res.termination.value}"] += 1
            tally[f"gjk.exit.{hit.exit.value}"] += 1
        self.exact.update(tally)
        self.exact["support.calls_per_distance"] = calls_d / n
        self.exact["support.calls_per_intersects"] = calls_i / n
        self.exact["gjk.iterations_per_distance"] = iters_d / n
        self.exact["gjk.iterations_per_intersects"] = iters_i / n
        self.exact["gjk.max_iterations_exits"] = (
            tally.get("gjk.termination.MaxIterations", 0) + tally.get("gjk.exit.MaxIterations", 0)
        )
        self.exact["gjk.touching_binary_disagree"] = disagree

    # ---- timed work ---------------------------------------------------

    def query_pass(self, fn: Callable, lat: Optional[array] = None) -> Tuple[float, int]:
        """One closed-loop pass over every pair, GC off: (nominal ns, raw ns)."""
        with gc_off():
            pc = time.perf_counter_ns
            clock = self.clock
            norm = 0.0
            raw = 0
            k = 0
            clock.resync()
            for block in self.blocks:
                first = k
                start = pc()
                if lat is None:
                    for p, q in block:
                        fn(p, q)
                else:
                    for p, q in block:
                        t0 = pc()
                        fn(p, q)
                        lat[k] = pc() - t0
                        k += 1
                dt = pc() - start
                s = clock.scale()
                norm += dt * s
                raw += dt
                if lat is not None:
                    for j in range(first, k):
                        lat[j] *= s
            return norm, raw

    def pipeline_sweep(self, main: Callable) -> Tuple[List[float], List[float]]:
        """`gjk2d gen` then `gjk2d check` on each pipeline dataset, GC on.

        Returns the nominal ns of every gen call and of every check call.
        """
        pc = time.perf_counter_ns
        clock = self.clock
        gen_ns: List[float] = []
        check_ns: List[float] = []
        for chunk in self.pipeline:
            clock.resync()
            t0 = pc()
            gen_code = run_cli(main, gen_argv(chunk, self.w.cases, self.sweep_path))
            gen_ns.append((pc() - t0) * clock.scale())
            t0 = pc()
            check_code = run_cli(main, ["check", self.sweep_path])
            check_ns.append((pc() - t0) * clock.scale())
            self.attempted += 2
            with open(self.sweep_path, "rb") as fh:
                same = fh.read() == self.expected[chunk.path]
            self.failed += (gen_code != 0 or not same) + (check_code != 0)
        return gen_ns, check_ns

    def timed_loop(self, seconds: float, do_query: Callable, do_sweep: Callable) -> None:
        """Alternate query passes and pipeline sweeps in the workload's time shares."""
        share = self.w.query_share
        spent_q = spent_s = 0.0
        nq = ns = 0
        deadline = time.perf_counter() + seconds
        while True:
            if time.perf_counter() >= deadline:
                if nq >= MIN_ROUNDS and ns >= MIN_ROUNDS:
                    break
                want_query = nq < MIN_ROUNDS
            else:
                want_query = spent_q <= share * (spent_q + spent_s)
            t0 = time.perf_counter()
            if want_query:
                do_query()
                nq += 1
                spent_q += time.perf_counter() - t0
            else:
                do_sweep()
                ns += 1
                spent_s += time.perf_counter() - t0

    # ---- end-to-end run -----------------------------------------------

    def setup_cost(self) -> List[float]:
        """Nominal seconds to load every dataset through read_dataset, per repeat, GC on."""
        read = self.g.datasets.read_dataset
        pc = time.perf_counter_ns
        totals = []
        for _ in range(SETUP_REPEATS):
            self.clock.resync()
            total = 0.0
            for chunk in self.chunks:
                t0 = pc()
                read(chunk.path)
                total += (pc() - t0) * self.clock.scale()
            totals.append(total / 1e9)
        return totals

    def end_to_end(self) -> None:
        api = self.g.api
        n = len(self.pairs)
        setups = self.setup_cost()
        # warm every timed path once, then take the workload's peak memory
        self.query_pass(api.distance)
        self.query_pass(api.intersects)
        self.pipeline_sweep(self.g.cli.main)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # per repeat: one latency per pair / one duration per dataset, nominal ns
        dist_lat: List[array] = []
        inter_lat: List[array] = []
        gen_calls: List[List[float]] = []
        check_calls: List[List[float]] = []

        def do_query():
            for fn, lats in ((api.distance, dist_lat), (api.intersects, inter_lat)):
                lat = array("d", bytes(8 * n))
                self.query_pass(fn, lat)
                lats.append(lat)

        def do_sweep():
            gen_ns, check_ns = self.pipeline_sweep(self.g.cli.main)
            gen_calls.append(gen_ns)
            check_calls.append(check_ns)

        self.timed_loop(self.seconds, do_query, do_sweep)

        # Each item's cost is its median over the repeats, which drops the
        # repeats that a slow spell of the host hit harder than the
        # reference kernel; throughput is the item count over their sum.
        self.put("setup_s", median(setups), "s",
                 f"median of {len(setups)} loads of {n} cases; max {max(setups):.6g}")
        for name, lats in (("distance", dist_lat), ("intersects", inter_lat)):
            per_pair = item_medians(lats)
            self.put(f"{name}_qps", n * 1e9 / sum(per_pair), "q/s",
                     f"{n} pairs, each the median of {len(lats)} calls")
            self.put(f"{name}_p50_us", median(per_pair) / 1000.0, "us", f"over {n} pairs")
            self.put(f"{name}_p99_us", statistics.quantiles(per_pair, n=100, method="inclusive")[98] / 1000.0, "us",
                     f"over {n} pairs; {tail([v / 1000.0 for v in per_pair])}")
        sweep_cases = 3 * self.w.cases * len(self.pipeline)
        for name, calls in (("gen", gen_calls), ("check", check_calls)):
            self.put(f"{name}_cases_per_s", sweep_cases * 1e9 / sum(item_medians(calls)), "cases/s",
                     f"{len(self.pipeline)} datasets of {3 * self.w.cases} cases, "
                     f"each the median of {len(calls)} calls")
        raw_ref = self.clock.raw_ref_ns
        self.lines.append(f"reference kernel: median {median(raw_ref):.6g} ns raw over "
                          f"{len(raw_ref)} samples, {tail(raw_ref)}; nominal {REF_NOMINAL_NS:.6g} ns")
        self.put("peak_rss_mb", peak_rss_mb, "MB", "after set-up, checks and one pass of each kind")

    # ---- traced run ---------------------------------------------------

    def traced(self) -> None:
        budget_end = time.perf_counter() + self.seconds
        missing = self.trace_pipeline()
        query_end = time.perf_counter() + 0.5 * max(budget_end - time.perf_counter(), 0.0)
        qtr = self.trace_queries(query_end)
        with gc_off():
            self.replays(qtr.captures)
        self.put("host.ref_ns", median(self.clock.raw_ref_ns), "ns",
                 f"raw reference-kernel call, median of {len(self.clock.raw_ref_ns)}")
        for name, value in self.exact.items():
            self.put(name, value, "count", "exact")
        missing += qtr.missing
        if missing:
            self.lines.append("missing patch points: " + ", ".join(missing))

    def trace_pipeline(self) -> List[str]:
        """One traced gen/check sweep: spans where gjk2d.cli and gjk2d.datasets
        call other layers. Returns the patch points that no longer exist."""
        api = self.g.api
        cli, ds = self.g.cli, self.g.datasets
        pipeline_patches = [
            (cli, "generate_dataset", "datasets.generate_dataset", None),
            (cli, "write_dataset", "datasets.write_dataset", None),
            (cli, "read_dataset", "datasets.read_dataset", None),
            (cli, "verify_regime", "datasets.verify_regime", None),
            (cli, "oracle_distance", "baseline.oracle_distance", None),
            (cli, "sat_intersects", "baseline.sat_intersects", None),
            (cli, "distance", "gjk.distance", None),
            (cli, "intersects", "gjk.intersects", None),
            (ds, "make_pair", lambda spec, regime, *a, **k: f"datasets.make_pair.{regime.value}", None),
            (ds, "oracle_distance", "baseline.oracle_distance", None),
            (ds, "sat_intersects", "baseline.sat_intersects", None),
            (ds, "cso_contains_origin", "baseline.cso_contains_origin", None),
            (ds, "distance", "gjk.distance", None),
            (ds, "ConvexPolygon", "geometry.polygon_build", None),
            (ds, "polygon_from_jsonable", "geometry.polygon_build", None),
            (ds, "apply_transform", "geometry.apply_transform", None),
            (ds, "contains_point", "geometry.contains_point", None),
            (ds, "polygon_to_jsonable", "geometry.polygon_to_jsonable", None),
        ]
        ptr = Tracer(pipeline_patches)
        traced_main = ptr.wrap("cli.main", cli.main)
        ref_mark = len(self.clock.raw_ref_ns)
        with ptr:
            self.pipeline_sweep(traced_main)
        pscale = REF_NOMINAL_NS / median(self.clock.raw_ref_ns[ref_mark:])
        sweep_cases = 3 * self.w.cases * len(self.pipeline)
        layers = ("cli.", "datasets.", "baseline.", "gjk.", "geometry.")
        pipeline_total = sum(ptr.self_ns(prefix) for prefix in layers)
        # a missing patch point would fold its layer into its caller's share
        for layer in ("baseline", "datasets", "geometry") if not ptr.missing else ():
            self.put(f"{layer}.self_share", ptr.self_ns(layer + ".") / pipeline_total, "fraction",
                     f"of `gjk2d gen` + `gjk2d check` self time over {sweep_cases} cases")
        self.put_span(ptr, "baseline.oracle_distance_us", "baseline.oracle_distance", pscale)
        self.put_span(ptr, "baseline.cso_contains_origin_us", "baseline.cso_contains_origin", pscale)
        for regime in api.Regime:
            self.put_span(ptr, f"datasets.make_pair_us.{regime.value}",
                          f"datasets.make_pair.{regime.value}", pscale)
        for metric, span in (("datasets.write_us_per_case", "datasets.write_dataset"),
                             ("datasets.read_us_per_case", "datasets.read_dataset")):
            stats = ptr.stats.get(span)
            if stats is not None:
                self.put(metric, stats.total_ns * pscale / 1000.0 / sweep_cases, "us",
                         f"{stats.calls} calls over {sweep_cases} cases")
        self.put_span(ptr, "geometry.polygon_build_us", "geometry.polygon_build", pscale)
        self.put_span(ptr, "geometry.apply_transform_us", "geometry.apply_transform", pscale)
        return ptr.missing

    def trace_queries(self, query_end: float) -> Tracer:
        """Alternate untraced and traced query passes until ``query_end``.

        The first traced pass captures the arguments the replays use.
        """
        api = self.g.api
        n = len(self.pairs)
        gm = self.g.gjk
        qtr = Tracer([
            (gm, "_cso_support_xy", "support.cso", "cso"),
            (gm, "initial_direction", "support.initial_direction", None),
            (gm, "s1d", "subdistance.s1d", "s1d"),
            (gm, "s2d", "subdistance.s2d", "s2d"),
        ])
        traced_fns = (qtr.wrap("gjk.distance", api.distance),
                      qtr.wrap("gjk.intersects", api.intersects))
        raw_plain: Dict[str, List[int]] = {"distance": [], "intersects": []}
        ratios: List[float] = []
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < query_end:
            untraced = 0.0
            for name, fn in (("distance", api.distance), ("intersects", api.intersects)):
                norm, raw = self.query_pass(fn)
                untraced += norm
                raw_plain[name].append(raw)
            qtr.capturing = rounds == 0
            with qtr:
                traced_ns = sum(self.query_pass(fn)[0] for fn in traced_fns)
            qtr.capturing = False
            ratios.append(traced_ns / untraced)
            rounds += 1
        self.put("trace.overhead_frac", median(ratios) - 1.0, "fraction",
                 f"traced over untraced query passes, median of {rounds} pairs")
        for name in ("distance", "intersects"):
            self.put(f"host.{name}_qps_wall", n * 1e9 / median(raw_plain[name]), "q/s",
                     f"raw wall clock, median of {rounds} passes")
        query_layers = ("gjk.", "support.", "subdistance.")
        query_total = sum(qtr.self_ns(prefix) for prefix in query_layers)
        for layer in ("support", "subdistance", "gjk") if not qtr.missing else ():
            self.put(f"{layer}.self_share", qtr.self_ns(layer + ".") / query_total, "fraction",
                     f"of distance + intersects self time, {rounds} traced passes")
        queries = 2 * n * rounds
        for layer in ("s1d", "s2d"):
            stats = qtr.stats.get(f"subdistance.{layer}")
            if stats is not None:
                self.exact[f"subdistance.{layer}_calls"] = stats.calls / queries
        return qtr

    def replays(self, caps: Dict[str, List[Tuple[int, tuple]]]) -> None:
        """Replay captured and per-pair arguments through the public functions."""
        api = self.g.api
        n = len(self.pairs)
        clock = self.clock
        if caps.get("cso"):
            seqs = replay.support_sequences(caps["cso"])
            ladder = replay.support_ladder(api, seqs, self.w.sizes, clock)
            for size, (brute_ns, climb_ns) in ladder.items():
                self.put(f"support.brute_ns.n{size}", brute_ns, "ns", "replayed directions")
                self.put(f"support.climb_ns.n{size}", climb_ns, "ns", "replayed directions")
            for i, kind in enumerate(("brute", "climb")):
                self.put(f"support.{kind}_ns", statistics.fmean(c[i] for c in ladder.values()), "ns",
                         f"mean over vertex counts {list(ladder)}")
            args = [(p, q, api.Vec2(dx, dy), warm) for _, (p, q, dx, dy, warm) in caps["cso"]]
            self.put("support.cso_us", replay.call_cost(api.cso_support, args, clock) / 1000.0, "us",
                     f"cso_support over {len(args)} captured calls")
        self.put("support.initial_direction_us",
                 replay.call_cost(api.initial_direction, self.pairs, clock) / 1000.0, "us",
                 f"over {n} pairs")
        for layer in ("s1d", "s2d"):
            if caps.get(layer):
                args = [a for _, a in caps[layer]]
                self.put(f"subdistance.{layer}_us",
                         replay.call_cost(getattr(api, layer), args, clock) / 1000.0, "us",
                         f"over {len(args)} captured calls")
        if caps.get("s2d"):
            self.region_codes([a for _, a in caps["s2d"]])
        self.put("baseline.sat_us", replay.call_cost(api.sat_intersects, self.pairs, clock) / 1000.0,
                 "us", f"over {n} pairs")

    def region_codes(self, triangles: List[tuple]) -> None:
        api = self.g.api
        by_code: Dict[int, List[tuple]] = {}
        degenerate = 0
        for args in triangles:
            a, b, c = args
            try:
                code = api.compute_barycode(a.w, b.w, c.w)[0]
            except api.DegenerateTriangle:
                degenerate += 1
                continue
            by_code.setdefault(code, []).append(args)
        for code in range(8):
            self.exact[f"subdistance.region_code.{code}"] = len(by_code.get(code, ()))
        self.exact["subdistance.degenerate"] = degenerate
        for code, args in sorted(by_code.items()):
            cost = replay.call_cost(api.s2d, args, self.clock)
            self.lines.append(f"s2d replay, region code {code}: {cost:.6g} ns over {len(args)} calls")

    # ---- output -------------------------------------------------------

    def put(self, name: str, value: float, unit: str, detail: str) -> None:
        self.metrics[name] = (value, unit)
        self.lines.append(f"{name:<34} {value:>14.6g} {unit:<8} {detail}")

    def put_span(self, tracer: Tracer, metric: str, span: str, scale: float) -> None:
        per_call = tracer.per_call_ns(span)
        if per_call is not None:
            self.put(metric, per_call * scale / 1000.0, "us",
                     f"{tracer.stats[span].calls} traced calls")


def expected_metrics(trace: bool) -> List[str]:
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    program = Program()
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
    try:
        run = Run(program, WORKLOADS[args.workload], args.seed, args.seconds, work)
        run.make_inputs()
        run.gate()
        if args.trace:
            run.traced()
        else:
            run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = expected_metrics(bool(args.trace))
    missing = [name for name in wanted if name not in run.metrics]
    counters = json.dumps(sorted(run.exact.items())).encode()
    print(f"workload {args.workload} seed {args.seed}: {len(run.cases)} pairs, "
          f"vertex counts {list(run.w.sizes)}")
    print(f"fingerprint {run.fingerprint}")
    print(f"counters {hashlib.sha256(counters).hexdigest()[:16]}")
    for line in run.lines:
        print(line)
    print(f"error_rate {run.failed / run.attempted:.6g} ({run.failed} wrong of {run.attempted} checked)")
    if missing:
        print("missing metrics: " + ", ".join(missing))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": run.metrics[name][0], "unit": run.metrics[name][1]}
            for name in wanted
            if name in run.metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
