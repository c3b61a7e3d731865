#!/usr/bin/env python3
"""Record what gjk2d's queries do and how long they take, in one JSON file.

Run from anywhere; the program measured is the ``src/gjk2d`` of the
repository this script sits in:

    python3 tools/bench_record.py --out BENCH_42.json --against DIR

DIR is another checkout, for example ``git archive`` of the parent commit
unpacked. The file has three sections:

- ``host``: ``python -VV``, the platform, the CPU count, the load average
  at the start and at the end, and the commit with a flag for
  uncommitted changes under ``src``. Each program's ``src/gjk2d`` is
  named by a hash of its files.
- ``work``: one cell per ``perfbench/run.py`` workload (its ``WORKLOADS``
  at ``--seed``, the pairs its ``gjk2d gen`` calls make), regime and
  query, with hill climbing: the mean support calls and the mean CPython
  opcodes per query, keyed by interpreter. Both are deterministic: two
  runs on one interpreter write the same bytes. Opcodes are counted with
  ``sys.settrace`` and ``frame.f_trace_opcodes``; they see the work done
  in Python only, so a cost inside one C call, such as building a tuple,
  counts as one opcode whatever it takes.
- ``time``: for the same cells, and for each workload's whole query mix
  (regime ``all``), the p50 and the IQR of per-query ns over ``ROUNDS``
  rounds, with cyclic GC off (``gjk2d.bench.gc_paused``). A round times
  one pass over each cell's pairs. The rounds are shared by ``PROCESSES``
  fresh processes, run one after another. With ``--against DIR``, each
  of them also imports DIR's ``src/gjk2d`` under another package name and
  times both programs on each block of pairs back to back
  (``time_rounds``), and each cell gets the ratio of p50s (this program
  over DIR's) and the rounds this program won; a tie counts for neither.

``tests/test_bench_record.py`` runs ``work_section`` on a tiny spec.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUERIES = ("distance", "intersects")
BLOCK = 64  # pairs per timed block, as perfbench's QUERY_BLOCK
PROCESSES = 8  # timing workers; an even count, so each import order runs alike
ROUNDS = 48  # timed rounds per cell, ROUNDS // PROCESSES per worker


def load_program(src: Path, name: str):
    """The ``gjk2d`` package under ``src``, imported as package ``name``."""
    init = src / "gjk2d" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def perfbench_workloads() -> dict:
    """``perfbench/run.py``'s ``WORKLOADS``, read from the file itself."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclasses look their module up
    spec.loader.exec_module(run)
    return run.WORKLOADS


def workload_pairs(program, workload, seed: int) -> dict:
    """``{regime value: [(p, q), ...]}`` of the pairs a perfbench run of
    ``workload`` at ``seed`` queries: one ``gjk2d gen`` dataset per vertex
    count and chunk, chunk j seeded ``seed * 1_000_003 + j`` as there."""
    datasets = importlib.import_module(program.__name__ + ".datasets")
    pairs = {regime.value: [] for regime in datasets.Regime}
    for n in workload.sizes:
        for j in range(workload.chunks):
            spec = datasets.DatasetSpec(n, workload.cases, seed * 1_000_003 + j)
            for case in datasets.generate_dataset(spec):
                pairs[case.regime.value].append((case.p, case.q))
    return pairs


def query_functions(program) -> dict:
    gjk = importlib.import_module(program.__name__ + ".gjk")
    return {
        "distance": lambda p, q: gjk.distance(p, q, use_hill_climbing=True),
        "intersects": lambda p, q: gjk.intersects(p, q, use_hill_climbing=True),
    }


def count_opcodes(fn, pairs) -> int:
    """CPython opcodes executed by ``fn(p, q)`` over ``pairs``, in every frame it opens."""
    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return on_opcode

    sys.settrace(on_call)
    try:
        for p, q in pairs:
            fn(p, q)
    finally:
        sys.settrace(None)
    return count


def work_section(program, workloads: dict, seed: int) -> dict:
    """Mean support calls and opcodes per hill-climbing query, per cell."""
    queries = query_functions(program)
    cells = []
    for name, workload in workloads.items():
        for regime, pairs in workload_pairs(program, workload, seed).items():
            for query in QUERIES:
                fn = queries[query]
                calls = sum(fn(p, q).support_calls for p, q in pairs)
                cells.append({
                    "workload": name,
                    "regime": regime,
                    "query": query,
                    "pairs": len(pairs),
                    "support_calls": round(calls / len(pairs), 4),
                    "opcodes": round(count_opcodes(fn, pairs) / len(pairs), 2),
                })
    interpreter = f"{sys.implementation.name}-{platform.python_version()}"
    return {"interpreter": interpreter, "cells": cells}


def time_pass(fn, pairs) -> int:
    """ns taken by one pass of ``fn`` over ``pairs``."""
    t0 = time.perf_counter_ns()
    for p, q in pairs:
        fn(p, q)
    return time.perf_counter_ns() - t0


def spread(samples) -> dict:
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"p50_ns": round(q2, 1), "iqr_ns": round(q3 - q1, 1)}


def time_rounds(sources: list, seed: int, rounds: int, first: int) -> list:
    """One worker's share of the rounds: per-query ns per cell and program.

    ``sources`` lists ``(src directory, package name)``, this program
    first; the program at index ``first`` is imported, and its pairs are
    made, before the other's. A round passes over a cell's pairs in blocks
    of ``BLOCK``, each block run by every program back to back, in an
    order that turns over from one block to the next and from one round
    to the next, so a change in the host's speed lands on both alike.
    Returns ``(workload, regime, query, pairs, samples)`` per cell, where
    ``samples[i]`` holds program i's per-query ns, one per round.
    """
    order = [first] + [i for i in range(len(sources)) if i != first]
    programs = [None] * len(sources)
    for i in order:
        programs[i] = load_program(Path(sources[i][0]), sources[i][1])
    cells = []
    for name, workload in perfbench_workloads().items():
        inputs = [None] * len(programs)
        for i in order:
            inputs[i] = workload_pairs(programs[i], workload, seed)
        for other in inputs[1:]:
            for regime, pairs in other.items():
                if [vertex_rings(pair) for pair in pairs] != [
                    vertex_rings(pair) for pair in inputs[0][regime]
                ]:
                    raise SystemExit(f"bench_record: {name} {regime}: the programs' pairs differ")
        for query in QUERIES:
            fns = [query_functions(program)[query] for program in programs]
            for regime in inputs[0]:
                sides = [pairs[regime] for pairs in inputs]
                cells.append((name, regime, query, fns, sides))
    samples = [[[] for _ in programs] for _ in cells]
    for _, _, _, fns, sides in cells:
        for fn, pairs in zip(fns, sides):
            time_pass(fn, pairs)  # warm-up
    # gc_paused from this tree's gjk2d, which the loop above imported
    with importlib.import_module(sources[0][1] + ".bench").gc_paused():
        for r in range(rounds):
            for cell, (_, _, _, fns, sides) in zip(samples, cells):
                count = len(sides[0])
                totals = [0] * len(programs)
                for b, lo in enumerate(range(0, count, BLOCK)):
                    for i in order if (r + b) % 2 == 0 else order[::-1]:
                        totals[i] += time_pass(fns[i], sides[i][lo : lo + BLOCK])
                for i, total in enumerate(totals):
                    cell[i].append(total / count)
    return [
        (name, regime, query, len(sides[0]), cell)
        for (name, regime, query, _, sides), cell in zip(cells, samples)
    ]


def time_section(sources: list, seed: int) -> dict:
    """p50 and IQR of per-query ns per cell, over ``ROUNDS`` rounds shared by
    ``PROCESSES`` fresh worker processes, run one at a time.

    In one process the program imported second ran up to about 4% faster
    than an identical copy imported first, so the workers take turns over
    which program they import first. With two programs each cell also gets
    ``ratio`` and ``won``.
    """
    context = multiprocessing.get_context("spawn")
    pooled = None
    for w in range(PROCESSES):
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            part = pool.submit(
                time_rounds, sources, seed, ROUNDS // PROCESSES, w % len(sources)
            ).result()
        if pooled is None:
            pooled = part
        else:
            for cell, (_, _, _, _, samples) in zip(pooled, part):
                for mine, more in zip(cell[4], samples):
                    mine.extend(more)
    out = [timed_cell(*cell) for cell in pooled]
    # A workload's whole mix: each round's regime passes, weighted by pairs.
    for name in dict.fromkeys(cell[0] for cell in pooled):
        for query in QUERIES:
            mixed = [
                (count, samples)
                for n, _, q, count, samples in pooled
                if n == name and q == query
            ]
            total = sum(count for count, _ in mixed)
            per_program = [
                [sum(count * samples[i][r] for count, samples in mixed) / total
                 for r in range(ROUNDS)]
                for i in range(len(sources))
            ]
            out.append(timed_cell(name, "all", query, total, per_program))
    return {"rounds": ROUNDS, "processes": PROCESSES, "block": BLOCK, "gc": "off", "cells": out}


def vertex_rings(pair):
    return [(poly.xs, poly.ys) for poly in pair]


def timed_cell(name, regime, query, pairs, sides) -> dict:
    cell = {"workload": name, "regime": regime, "query": query, "pairs": pairs}
    cell.update(spread(sides[0]))
    if len(sides) > 1:
        ours, theirs = sides
        against = spread(theirs)
        cell["against_p50_ns"] = against["p50_ns"]
        cell["against_iqr_ns"] = against["iqr_ns"]
        cell["ratio"] = round(statistics.median(ours) / statistics.median(theirs), 4)
        cell["won"] = f"{sum(a < b for a, b in zip(ours, theirs))}/{len(ours)}"
    return cell


def source_hash(src: Path) -> str:
    """sha256 over the package's ``.py`` files, by name and content, in name order."""
    h = hashlib.sha256()
    for path in sorted((src / "gjk2d").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--against", help="checkout whose src/gjk2d is timed alongside")
    parser.add_argument("--seed", type=int, default=7, help="perfbench workload seed")
    args = parser.parse_args(argv)

    load_start = os.getloadavg()
    sources = [(str(ROOT / "src"), "gjk2d")]
    if args.against:
        src = Path(args.against) / "src"
        if not (src / "gjk2d" / "__init__.py").is_file():
            parser.error(f"no src/gjk2d under {args.against}")
        sources.append((str(src), "gjk2d_against"))
    timed = time_section(sources, args.seed)
    workloads = perfbench_workloads()
    work = work_section(load_program(ROOT / "src", "gjk2d"), workloads, args.seed)
    host = {
        "python": f"Python {sys.version}".replace("\n", " "),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        "commit": git("rev-parse", "HEAD"),
        "src_uncommitted": bool(git("status", "--porcelain", "--", "src")),
        "src_sha256": {
            role: source_hash(Path(src))
            for role, (src, _) in zip(("this", "against"), sources)
        },
        "seed": args.seed,
        "workloads": {
            name: {"sizes": list(w.sizes), "chunks": w.chunks, "cases": w.cases}
            for name, w in workloads.items()
        },
    }
    record = {"host": host, "work": work, "time": timed}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=1) + "\n")
    for cell in timed["cells"]:
        line = f"{cell['workload']:12} {cell['regime']:9} {cell['query']:10} p50 {cell['p50_ns']:9.1f} ns"
        if "ratio" in cell:
            line += f"  ratio {cell['ratio']:.3f}  won {cell['won']}"
        print(line)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
