"""Session fixtures and the layer-recording helpers.

The full six-count dataset grid and the per-case evaluation sweep are
expensive, so they are built once per session and reused by every
criterion that needs them. ``recorded_layers`` traces a query through
the layers ``gjk2d.gjk`` looks up at call time, ``descent_trace`` reads
the query's |v| after each step from that record, ``split_queries`` cuts
a record of many queries into one per query, and ``second_portal_step``
says whether a query took the portal pass's second step. The inputs the
tests share, and the soundness check each pair family must pass, are in
``corpora.py``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import pytest

import gjk2d.gjk
from gjk2d.baseline import oracle_distance
from gjk2d.datasets import DatasetSpec, PairCase, generate_dataset
from gjk2d.gjk import CollisionResult, DistanceResult, distance, intersects

VERTEX_COUNTS = (4, 8, 12, 16, 20, 24)
CASES_PER_REGIME = 1000
DATASET_SEED = 20240811

# corpora's asserts report their operands, as the test modules' do
pytest.register_assert_rewrite("corpora")


# The layers the query loop calls through ``gjk2d.gjk`` module globals; a
# query calls one of the two support layers, by ``use_hill_climbing``.
SUPPORT_LAYERS = ("_cso_support_xy", "_cso_scan_xy")
LOOP_LAYERS = SUPPORT_LAYERS + ("initial_direction", "s1d", "s2d")


@contextmanager
def recorded_layers() -> Iterator[List[Tuple[str, tuple, object]]]:
    """Rebind the loop's layers on ``gjk2d.gjk`` to record every call.

    Yields a list that receives ``(name, args, result)`` for each call, in
    call order; the original layers are back on exit.
    """
    calls: List[Tuple[str, tuple, object]] = []

    def recording(name, fn):
        def wrapper(*args):
            out = fn(*args)
            calls.append((name, args, out))
            return out

        return wrapper

    originals = {name: getattr(gjk2d.gjk, name) for name in LOOP_LAYERS}
    for name, fn in originals.items():
        setattr(gjk2d.gjk, name, recording(name, fn))
    try:
        yield calls
    finally:
        for name, fn in originals.items():
            setattr(gjk2d.gjk, name, fn)


def descent_trace(calls) -> List[float]:
    """|v| after each step of one recorded ``distance`` query.

    The first entry is |w| of the query's first support point, the loop's
    first v; then one entry per ``s1d`` or ``s2d`` solve, computed as the
    loop squares its v, so every entry is bit for bit the loop's |v|.
    """
    trace = []
    for name, _, out in calls:
        if name == "s1d" or name == "s2d":
            _, _, vx, vy = out
        elif name in SUPPORT_LAYERS and not trace:
            vx, vy = out[0], out[1]
        else:
            continue
        trace.append(math.sqrt(vx * vx + vy * vy))
    return trace


def split_queries(calls) -> List[list]:
    """One record per query from a record of many: each query makes
    exactly one ``initial_direction`` call, its first."""
    queries: List[list] = []
    for call in calls:
        if call[0] == "initial_direction":
            queries.append([])
        queries[-1].append(call)
    return queries


def second_portal_step(calls) -> bool:
    """Whether one recorded query took the portal pass's second step.

    Every other path solves before its third support call: the portal
    pass that falls through solves the segment (w1, w2), and a first pass
    along -w1 solves (w1, w2) in the loop. Only the second portal step
    makes its third support call first.
    """
    supports = 0
    for name, _, _ in calls:
        if name in SUPPORT_LAYERS:
            supports += 1
            if supports == 3:
                return True
        elif name == "s1d" or name == "s2d":
            return False
    return False


@dataclass
class CaseEval:
    case: PairCase
    oracle: float
    sat: bool
    dist: DistanceResult
    coll: CollisionResult
    trace: List[float]


@pytest.fixture(scope="session")
def full_datasets() -> Dict[int, List[PairCase]]:
    datasets = {}
    for n in VERTEX_COUNTS:
        spec = DatasetSpec(
            vertex_count=n, cases_per_regime=CASES_PER_REGIME, seed=DATASET_SEED
        )
        datasets[n] = generate_dataset(spec)
    return datasets


@pytest.fixture(scope="session")
def case_evaluations(full_datasets) -> Dict[int, List[CaseEval]]:
    evaluations: Dict[int, List[CaseEval]] = {}
    for n, cases in full_datasets.items():
        rows = []
        for case in cases:
            report = oracle_distance(case.p, case.q)
            with recorded_layers() as calls:
                dist = distance(case.p, case.q)
            coll = intersects(case.p, case.q)
            rows.append(
                CaseEval(
                    case=case,
                    oracle=report.distance,
                    sat=report.distance == 0.0,
                    dist=dist,
                    coll=coll,
                    trace=descent_trace(calls),
                )
            )
        evaluations[n] = rows
    return evaluations
