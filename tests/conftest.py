"""Session fixtures and inputs shared by the acceptance suite.

The full six-count dataset grid and the per-case evaluation sweep are
expensive, so they are built once per session and reused by every
criterion that needs them. ``sweep_triangles`` rebuilds criterion 3's
triangle set, which the exact oracle check samples too.
``recorded_layers`` traces a query through the layers ``gjk2d.gjk``
looks up at call time, ``descent_trace`` reads the query's |v| after
each step from that record, ``split_queries`` cuts a record of many
queries into one per query, and ``second_portal_step`` says whether a
query took the portal pass's second step. ``vertex`` builds a simplex
vertex, so the tests name its layout in one place. ``starts`` lists a polygon's
eight recorded climb starts and ``nearest_extremes`` names where a cold
climb may start. ``symmetric_regular_ring`` builds regular polygons
whose axis-parallel edges tie exactly, and ``tie_rectangles`` integer
rectangles whose edges do.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import pytest

import gjk2d.gjk
from gjk2d.baseline import oracle_distance
from gjk2d.datasets import DatasetSpec, PairCase, generate_dataset
from gjk2d.geometry import ConvexPolygon
from gjk2d.gjk import CollisionResult, DistanceResult, distance, intersects
from gjk2d.support import SimplexVertex

VERTEX_COUNTS = (4, 8, 12, 16, 20, 24)
CASES_PER_REGIME = 1000
DATASET_SEED = 20240811
TRIANGLE_SWEEP_SEED = 987654
TRIANGLE_SWEEP_SIZE = 100_000


def sweep_triangles():
    """Criterion 3's triangles: three uniform points in [-10, 10]**2 each."""
    rng = random.Random(TRIANGLE_SWEEP_SEED)
    return [
        [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
        for _ in range(TRIANGLE_SWEEP_SIZE)
    ]


def vertex(x, y, ip=0, iq=0) -> SimplexVertex:
    """Simplex vertex at w = (x, y), from polygon vertices ``ip`` and ``iq``."""
    return SimplexVertex(x, y, ip, iq)


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


# A polygon's eight recorded climb starts in ring order, and their directions.
START_NAMES = (
    "bottom", "lower_right", "right", "upper_right", "top", "upper_left", "left", "lower_left"
)
_H = math.sqrt(0.5)
START_DIRECTIONS = (
    (0.0, -1.0), (_H, -_H), (1.0, 0.0), (_H, _H),
    (0.0, 1.0), (-_H, _H), (-1.0, 0.0), (-_H, -_H),
)


def starts(poly) -> Tuple[int, ...]:
    """A polygon's eight recorded climb starts, in ``START_NAMES`` order."""
    return tuple(getattr(poly, name) for name in START_NAMES)


def nearest_extremes(p, q, ux, uy) -> List[Tuple[int, int]]:
    """Every start pair of a cold climb of P along u and of Q along -u.

    Each polygon starts at the recorded start whose direction, an axis or
    a diagonal, has the largest dot with its climb direction. On a sector
    edge, 22.5 degrees off an axis, two dots tie to within rounding, so
    either start may be taken.
    """

    def nearest(poly, dx, dy):
        dots = [ax * dx + ay * dy for ax, ay in START_DIRECTIONS]
        least = max(dots) - 1e-12 * math.hypot(dx, dy)
        return [s for s, dot in zip(starts(poly), dots) if dot >= least]

    return [(ip, iq) for ip in nearest(p, ux, uy) for iq in nearest(q, -ux, -uy)]


def tie_rectangles(count=4000, seed=5):
    """Pairs of integer axis-aligned rectangles, each ring at a random start."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        pair = []
        for _ in range(2):
            x, y = rng.randint(-10, 10), rng.randint(-10, 10)
            w, h = rng.randint(1, 10), rng.randint(1, 10)
            ring = [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
            start = rng.randrange(4)
            pair.append(ConvexPolygon(ring[start:] + ring[:start]))
        pairs.append(tuple(pair))
    return pairs


def symmetric_regular_ring(n, half_step):
    """Unit regular n-gon, n a multiple of 8, with a vertex at angle 0 or,
    with ``half_step``, an edge across it. The first octant is mirrored
    through the square's symmetries, so every axis-parallel edge ties
    exactly. Vertex 0 is the first at or above angle 0."""
    octant = []
    for k in range(n // 8 + 1):
        twice = 2 * k + (1 if half_step else 0)
        if 4 * twice > n:
            break
        if 4 * twice == n:
            h = math.sqrt(0.5)
            octant.append((h, h))
        else:
            t = twice * math.pi / n
            octant.append((math.cos(t), math.sin(t)))
    ring = set()
    for x, y in octant:
        for a, b in ((x, y), (y, x)):
            for sx in (1.0, -1.0):
                for sy in (1.0, -1.0):
                    ring.add((sx * a + 0.0, sy * b + 0.0))
    ring = sorted(ring, key=lambda v: math.atan2(v[1], v[0]) % (2 * math.pi))
    assert len(ring) == n
    return ring


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
