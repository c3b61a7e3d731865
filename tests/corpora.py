"""The test inputs that more than one test uses, each defined once.

Every family of polygon pairs a query test runs on, every builder two
test modules need, and ``assert_sound``, the soundness check each pair
family must pass, with ``check_band``, ``gjk2d check``'s distance band.
Each family builds the same pairs in the same order on every call.
``conftest.py`` holds the session fixtures and the layer-recording
helpers, and an input one test module alone uses stays in that module;
``test_corpora.py`` checks both rules.
"""

from __future__ import annotations

import math
import random

from gjk2d.baseline import oracle_distance
from gjk2d.cli import ABS_TOL, REL_TOL
from gjk2d.datasets import DatasetSpec, Regime, derive_case_seed, make_pair, random_convex_polygon
from gjk2d.geometry import ConvexPolygon, apply_transform
from gjk2d.gjk import CollisionExit, Termination, distance, intersects
from gjk2d.support import SimplexVertex

from oracle_utils import vertices

UNIT_SQUARE = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
FAR_SQUARE = ConvexPolygon([(3, 0), (4, 0), (4, 1), (3, 1)])
TOUCH_SQUARE = ConvexPolygon([(1, 0), (2, 0), (2, 1), (1, 1)])

TRIANGLE_SWEEP_SEED = 987654
TRIANGLE_SWEEP_SIZE = 100_000


def vertex(x, y, ip=0, iq=0) -> SimplexVertex:
    """Simplex vertex at w = (x, y), from polygon vertices ``ip`` and ``iq``."""
    return SimplexVertex(x, y, ip, iq)


def sweep_triangles():
    """Criterion 3's triangles: three uniform points in [-10, 10]**2 each."""
    rng = random.Random(TRIANGLE_SWEEP_SEED)
    return [
        [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
        for _ in range(TRIANGLE_SWEEP_SIZE)
    ]


def regular_polygon(n, center=(0.0, 0.0), phase=0.0):
    """Regular n-gon of circumradius 1, vertex 0 at angle ``phase``."""
    cx, cy = center
    return ConvexPolygon(
        (cx + math.cos(phase + 2 * math.pi * k / n), cy + math.sin(phase + 2 * math.pi * k / n))
        for k in range(n)
    )


def rectangle(x, y, w, h):
    return ConvexPolygon([(x, y), (x + w, y), (x + w, y + h), (x, y + h)])


def random_placed(rng, n, span):
    """A generated n-gon at a random angle, moved up to ``span`` along each axis."""
    poly = random_convex_polygon(n, rng)
    return apply_transform(
        poly, rng.uniform(0, 7), rng.uniform(-span, span), rng.uniform(-span, span)
    )


def random_pairs(seed, count):
    """``count`` pairs of placed 4-, 8- or 16-gons within 1 of the origin."""
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(random_placed(rng, rng.choice([4, 8, 16]), 1.0) for _ in range(2))


def random_pair(rng, n=None, span=3.0, m=None):
    """An n-gon and an m-gon, both generated before either is placed within
    ``span`` of the origin; n is drawn from 3 to 24 when None, m is n when None."""
    n = n or rng.choice([3, 4, 8, 12, 16, 20, 24])
    a = random_convex_polygon(n, rng)
    b = random_convex_polygon(m or n, rng)
    p = apply_transform(a, rng.uniform(0, 7), rng.uniform(-span, span), rng.uniform(-span, span))
    q = apply_transform(b, rng.uniform(0, 7), rng.uniform(-span, span), rng.uniform(-span, span))
    return p, q


def regime_cases(n, count, seed, regimes):
    """The first ``count`` ``make_pair`` n-gon cases of each regime in
    ``regimes``, regime by regime, each from the case seed
    ``generate_dataset`` derives for it."""
    spec = DatasetSpec(n, count, seed)
    return [
        make_pair(spec, regime, derive_case_seed(seed, n, regime, i))
        for regime in regimes
        for i in range(count)
    ]


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


def tie_regular_polygons():
    """Regular 8- to 64-gons with a copy centred on each half-axis, at
    distances that keep them apart, touching or overlapping."""
    pairs = []
    for n in range(8, 65, 8):
        for half_step in (False, True):
            ring = symmetric_regular_ring(n, half_step)
            p = ConvexPolygon(ring)
            for gap in (3.0, 2.0, 1.0, 0.5):
                for cx, cy in ((gap, 0.0), (0.0, gap), (-gap, 0.0), (0.0, -gap)):
                    pairs.append((p, ConvexPolygon((x + cx, y + cy) for x, y in ring)))
    return pairs


def thin_pairs(count, seed):
    """Long thin polygons near short ones: P - Q is long and thin, so the
    origin often lies beside it, where the portal call separates."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        a = random_convex_polygon(rng.choice([4, 8, 16]), rng)
        b = random_convex_polygon(rng.choice([4, 8, 16]), rng)
        a = ConvexPolygon((8 * x, 0.5 * y) for x, y in zip(a.xs, a.ys))
        p = apply_transform(a, rng.uniform(0, 7), 0.0, 0.0)
        q = apply_transform(b, rng.uniform(0, 7), rng.uniform(-5, 5), rng.uniform(-5, 5))
        pairs.append((p, q))
    return pairs


def touching_pairs(count, sizes, seed=5):
    """The first ``count`` touching ``make_pair`` cases of each size: their
    first portal point often lands short of the contact."""
    return [
        (case.p, case.q)
        for n in sizes
        for case in regime_cases(n, count, seed, (Regime.TOUCHING,))
    ]


def portal_corpus(touching=40, sizes=(24, 64)):
    """The pairs that reach both portal steps: axis-aligned rectangles
    with tied support values, thin pairs whose portal call often
    separates, and the first ``touching`` touching pairs of each size,
    whose first portal point often lands short of the contact."""
    return tie_rectangles(1000) + thin_pairs(300, 5) + touching_pairs(touching, sizes)


def extremes_corpus():
    """Generated 3- to 128-gons; rectangles and regular n-gons at every ring start."""
    rng = random.Random(47)
    polys = [random_convex_polygon(n, rng) for n in (3, 4, 5, 7, 12, 24, 48, 128)]
    rings = [
        [(0, 0), (3, 0), (3, 1), (0, 1)],
        [(-2, -5), (1, -5), (1, 4), (-2, 4)],
    ]
    rings += [vertices(regular_polygon(n)) for n in (3, 4, 6, 8)]
    for ring in rings:
        for start in range(len(ring)):
            polys.append(ConvexPolygon(ring[start:] + ring[:start]))
    return polys


def cold_start_corpus():
    """Pairs from ``extremes_corpus`` and the symmetric regular rings at
    every ring start, each polygon with itself and with the next."""
    polys = extremes_corpus()
    rings = [symmetric_regular_ring(n, half) for n in (8, 16) for half in (False, True)]
    for ring in rings:
        for start in range(len(ring)):
            polys.append(ConvexPolygon(ring[start:] + ring[:start]))
    polys += [ConvexPolygon(symmetric_regular_ring(64, half)) for half in (False, True)]
    return [(p, p) for p in polys] + list(zip(polys, polys[1:] + polys[:1]))


def parallel_edge_pairs():
    """Translated copies of one regular 4-, 6- or 8-gon, and integer
    rectangles: edges are parallel, so support points are often
    collinear with the simplex."""
    rng = random.Random(73)
    pairs = []
    for _ in range(150):
        n = rng.choice([4, 6, 8])
        phase = rng.choice([0.0, math.pi / n])
        offset = (rng.randint(-3, 3), rng.randint(-3, 3))
        pairs.append((regular_polygon(n, (0, 0), phase), regular_polygon(n, offset, phase)))
    for _ in range(150):
        p, q = (
            rectangle(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3), rng.randint(1, 3))
            for _ in range(2)
        )
        pairs.append((p, q))
    return pairs


def check_band(oracle):
    """The largest |distance - oracle| that ``gjk2d check`` accepts."""
    return REL_TOL * max(1.0, oracle) + ABS_TOL


def assert_sound(p, q, judge_binary=True, use_hill_climbing=True, scale=1.0):
    """Judge both queries on (p, q) against ``oracle_distance``.

    Neither query ends at the iteration cap (``distance`` ends Converged
    or ContainsOrigin), ``distance`` is within ``check_band`` of the
    oracle in units of ``scale``, and, with ``judge_binary``,
    ``intersects`` gives the oracle's verdict; leave it off on the
    touching knife edge. Returns the oracle's report and the two results,
    for tighter checks.
    """
    report = oracle_distance(p, q)
    result = distance(p, q, use_hill_climbing=use_hill_climbing)
    assert result.termination in (Termination.CONVERGED, Termination.CONTAINS_ORIGIN)
    band = check_band(report.distance / scale) * scale
    assert abs(result.distance - report.distance) <= band
    collision = intersects(p, q, use_hill_climbing=use_hill_climbing)
    assert collision.exit is not CollisionExit.MAX_ITERATIONS
    if judge_binary:
        assert collision.colliding == report.intersecting
    return report, result, collision
