"""Replay microbenchmarks over arguments captured during a traced query pass.

Each replay calls a public gjk2d function directly, in batches timed
with the host clock, and reports nominal ns per call (see ``hostref``).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

BATCH = 50
ROUNDS = 3
SEQUENCES_PER_SIZE = 300  # captured queries replayed at each vertex count


def timed_batches(run: Callable[[Sequence], int], items: Sequence, clock, batch: int = BATCH) -> float:
    """Nominal ns per operation of ``run`` over ``items``, median of ROUNDS.

    ``run(batch)`` performs the work for one batch and returns how many
    operations it made.
    """
    clock_ns = time.perf_counter_ns
    batches = [items[i : i + batch] for i in range(0, len(items), batch)]
    per_round = []
    for _ in range(ROUNDS):
        total = 0.0
        ops = 0
        clock.resync()
        for chunk in batches:
            t0 = clock_ns()
            ops += run(chunk)
            dt = clock_ns() - t0
            total += dt * clock.scale()
        per_round.append(total / max(ops, 1))
    return statistics.median(per_round)


def support_sequences(captured: List[Tuple[int, tuple]]):
    """Group captured ``_cso_support_xy`` calls into per-query direction lists."""
    seqs: Dict[int, list] = {}
    for query_id, args in captured:
        p, q, dx, dy = args[0], args[1], args[2], args[3]
        entry = seqs.get(query_id)
        if entry is None:
            entry = seqs[query_id] = (p, q, [])
        entry[2].append((dx, dy))
    return list(seqs.values())


def support_ladder(g, seqs, sizes: Sequence[int], clock) -> Dict[int, Tuple[float, float]]:
    """Brute-force vs hill-climbing support cost at each of the workload's vertex counts.

    Each captured query sequence replays its own directions on its own
    polygons. The climb starts from the previous answer, as the query
    loop's warm start does; the first answer of each sequence is found by
    brute force outside the timed region.
    """
    Vec2 = g.Vec2
    brute = g.support_brute
    climb = g.support_hill_climb
    out = {}
    for n in sizes:
        jobs = []
        own = [(p, q, dirs) for p, q, dirs in seqs if len(p) == n and len(q) == n]
        for p, q, dirs in own[:SEQUENCES_PER_SIZE]:
            for poly, sign in ((p, 1.0), (q, -1.0)):
                vecs = [Vec2(sign * dx, sign * dy) for dx, dy in dirs]
                jobs.append((poly, vecs, brute(poly, vecs[0]).index))
        if not jobs:
            continue

        def run_brute(batch):
            ops = 0
            for poly, vecs, _ in batch:
                for d in vecs:
                    brute(poly, d)
                ops += len(vecs)
            return ops

        def run_climb(batch):
            ops = 0
            for poly, vecs, start in batch:
                i = start
                for d in vecs[1:]:
                    i = climb(poly, d, i).index
                ops += len(vecs) - 1
            return ops

        out[n] = (
            timed_batches(run_brute, jobs, clock),
            timed_batches(run_climb, jobs, clock),
        )
    return out


def call_cost(fn: Callable, arg_lists: Sequence[tuple], clock) -> float:
    """Nominal ns per call of ``fn(*args)`` over the captured argument lists."""

    def run(batch):
        for args in batch:
            fn(*args)
        return len(batch)

    return timed_batches(run, list(arg_lists), clock, batch=4 * BATCH)
