import math
import random
from types import SimpleNamespace
from typing import List, Tuple

import pytest

from gjk2d.datasets import random_convex_polygon
from gjk2d.geometry import ConvexPolygon, Vec2
from gjk2d.support import (
    SimplexVertex,
    _argmax_index,
    _cso_scan_xy,
    _cso_support_xy,
    cso_support,
    initial_direction,
    support_brute,
    support_hill_climb,
)

from corpora import (
    FAR_SQUARE,
    UNIT_SQUARE,
    cold_start_corpus,
    extremes_corpus,
    rectangle,
    regular_polygon,
    symmetric_regular_ring,
    tie_rectangles,
)
from oracle_utils import convex_hull, dot, sub, vertices


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


class TestSupportBrute:
    def test_axis_tie_takes_first_index(self):
        res = support_brute(UNIT_SQUARE, Vec2(1, 0))
        assert res.point == Vec2(1, 0)
        assert res.index == 1

    def test_unique_argmax(self):
        res = support_brute(UNIT_SQUARE, Vec2(1, 1))
        assert res.point == Vec2(1, 1)
        assert res.index == 2

    def test_zero_direction_returns_index_zero(self):
        res = support_brute(UNIT_SQUARE, Vec2(0, 0))
        assert res.index == 0
        assert res.point == Vec2(0, 0)

    def test_positive_homogeneity(self):
        rng = random.Random(11)
        for _ in range(500):
            poly = random_convex_polygon(rng.choice([3, 4, 7, 12]), rng)
            d = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1))
            base = dot(support_brute(poly, d).point, d)
            for c in (0.5, 2.0, 7.25):
                scaled = support_brute(poly, Vec2(c * d.x, c * d.y))
                assert dot(scaled.point, d) == base


class TestSupportHillClimb:
    def test_start_at_optimum_stays(self):
        res = support_hill_climb(UNIT_SQUARE, Vec2(1, 1), start=2)
        assert res.index == 2

    def test_antipodal_start_on_regular_24gon(self):
        poly = regular_polygon(24)
        direction = Vec2(1, 0)
        brute = support_brute(poly, direction)
        climbed = support_hill_climb(poly, direction, start=12)
        # derived check: enumerate all 24 vertices for the true maximum
        best = max(dot(v, direction) for v in vertices(poly))
        assert dot(brute.point, direction) == best
        assert dot(climbed.point, direction) == best
        assert climbed.index == 0  # vertex nearest angle zero

    def test_tie_on_square_matches_brute_value(self):
        res = support_hill_climb(UNIT_SQUARE, Vec2(1, 0), start=3)
        assert dot(res.point, Vec2(1, 0)) == 1.0
        assert res.index in (1, 2)

    def test_argmax_value_equivalence_bulk(self):
        rng = random.Random(99)
        for _ in range(10_000):
            n = rng.choice([3, 4, 6, 9, 16, 24])
            poly = random_convex_polygon(n, rng)
            d = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            start = rng.randrange(n)
            hc = support_hill_climb(poly, d, start)
            br = support_brute(poly, d)
            assert dot(hc.point, d) == dot(br.point, d)


def first_maximizer_reached(poly, d, start):
    """The first vertex of maximal dot a strict-improvement walk from ``start``
    reaches, in exact arithmetic: forward when the next vertex is strictly
    better, backward otherwise."""
    vals = [dot(v, d) for v in vertices(poly)]
    n, top = len(vals), max(vals)
    step = 1 if vals[(start + 1) % n] > vals[start] else -1
    i = start
    while vals[i] != top:
        i = (i + step) % n
    return i


def lattice_polygons(rng, count):
    """Integer rectangles and hulls of random integer points: exact dots, exact ties."""
    for _ in range(count):
        x, y = rng.randint(-5, 5), rng.randint(-5, 5)
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        yield rectangle(x, y, w, h)
        hull = convex_hull((rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(12))
        if len(hull) >= 3:
            yield ConvexPolygon(hull)


def edge_normals(poly):
    """Outward normal (dy, -dx) of every edge of a CCW polygon, and the axes."""
    verts = vertices(poly)
    n = len(verts)
    normals = [
        Vec2(verts[(i + 1) % n][1] - verts[i][1], verts[i][0] - verts[(i + 1) % n][0])
        for i in range(n)
    ]
    return normals + [Vec2(1, 0), Vec2(0, 1), Vec2(-1, 0), Vec2(0, -1)]


class TestHillClimbWalk:
    # support_hill_climb holds the standalone walk. It is the reference for
    # the two cold climbs that _cso_support_xy runs inline (TestColdStart),
    # and cso_support given a start pair is two calls of it.

    def test_every_start_reaches_the_brute_value(self):
        rng = random.Random(12)
        for _ in range(300):
            poly = random_convex_polygon(rng.choice([3, 4, 5, 8, 16, 24, 64]), rng)
            dx, dy = rng.uniform(-2, 2), rng.uniform(-2, 2)
            best = dot(vertices(poly)[_argmax_index(poly.xs, poly.ys, dx, dy)], (dx, dy))
            for start in range(len(poly)):
                i = support_hill_climb(poly, Vec2(dx, dy), start).index
                assert dot(vertices(poly)[i], (dx, dy)) == best

    def test_exact_ties_stop_on_the_first_tied_vertex_reached(self):
        rng = random.Random(13)
        ties = 0
        for poly in lattice_polygons(rng, 150):
            for d in edge_normals(poly):
                vals = [dot(v, d) for v in vertices(poly)]
                best = vals[_argmax_index(poly.xs, poly.ys, d.x, d.y)]
                ties += vals.count(best) > 1
                for start in range(len(poly)):
                    i = support_hill_climb(poly, d, start).index
                    assert vals[i] == best
                    assert i == first_maximizer_reached(poly, d, start)
        assert ties > 500

    def test_zero_or_nan_direction_returns_start(self):
        nan = float("nan")
        poly = random_convex_polygon(9, random.Random(14))
        for dx, dy in ((0.0, 0.0), (-0.0, 0.0), (nan, nan), (nan, 1.0), (1.0, nan)):
            for start in range(len(poly)):
                assert support_hill_climb(poly, Vec2(dx, dy), start).index == start


class TestCsoSupport:
    def test_same_square_pair(self):
        # derived: enumerate every vertex difference and take the first argmax
        d = Vec2(1, 0)
        diffs = [
            (sub(p, q), ip, iq)
            for ip, p in enumerate(vertices(UNIT_SQUARE))
            for iq, q in enumerate(vertices(UNIT_SQUARE))
        ]
        best = max(dot(w, d) for w, _, _ in diffs)
        res = cso_support(UNIT_SQUARE, UNIT_SQUARE, d)
        assert dot(res.w, d) == best
        assert res.w == Vec2(1, 0)
        verts = vertices(UNIT_SQUARE)
        assert res.w == sub(verts[res.ip], verts[res.iq])

    def test_translation_adds_to_support(self):
        res = cso_support(FAR_SQUARE, UNIT_SQUARE, Vec2(1, 0))
        assert res.w.x == 4.0  # 1 + 3

    def test_zero_direction_uses_first_vertices(self):
        # the brute-force scan; a cold climb stays at its starts
        wx, wy, ip, iq = _cso_scan_xy(UNIT_SQUARE, UNIT_SQUARE, 0.0, 0.0, None)
        assert ip == 0 and iq == 0
        assert (wx, wy) == (0.0, 0.0)

    def test_public_wrappers_reject_a_start_that_is_not_a_vertex(self):
        # A negative index would wrap to the ring's end and walk on to
        # another negative one; n would read past the end.
        d = Vec2(-1.0, -0.1)
        for warm in ((-1, -1), (-1, 0), (0, -1), (4, 0), (0, 4), (7, 7)):
            with pytest.raises(ValueError):
                cso_support(UNIT_SQUARE, UNIT_SQUARE, d, warm=warm)
        for start in (-1, -4, 4, 5):
            with pytest.raises(ValueError):
                support_hill_climb(UNIT_SQUARE, d, start)
        for i in range(4):
            assert support_hill_climb(UNIT_SQUARE, d, i).point == Vec2(0.0, 0.0)
            res = cso_support(UNIT_SQUARE, UNIT_SQUARE, d, warm=(i, 3 - i))
            assert 0 <= res.ip < 4 and 0 <= res.iq < 4

    def test_zero_or_nan_direction_keeps_the_start_pair(self):
        nan = float("nan")
        rng = random.Random(43)
        p = random_convex_polygon(7, rng)
        q = random_convex_polygon(5, rng)
        for dx, dy in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (nan, nan), (nan, 1.0), (1.0, nan)):
            for i in range(len(p)):
                for j in range(len(q)):
                    res = cso_support(p, q, Vec2(dx, dy), (i, j))
                    assert res == (p.xs[i] - q.xs[j], p.ys[i] - q.ys[j], i, j)

    def test_w_equals_p_minus_q_exactly(self):
        rng = random.Random(5)
        for _ in range(300):
            a = random_convex_polygon(rng.choice([3, 5, 8]), rng)
            b = random_convex_polygon(rng.choice([3, 5, 8]), rng)
            d = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1))
            res = cso_support(a, b, d)
            assert res.w == sub(vertices(a)[res.ip], vertices(b)[res.iq])

    def test_minkowski_antisymmetry_exact(self):
        rng = random.Random(17)
        for _ in range(1000):
            a = random_convex_polygon(rng.choice([3, 4, 8, 13]), rng)
            b = random_convex_polygon(rng.choice([3, 4, 8, 13]), rng)
            d = Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
            fwd = _cso_scan_xy(a, b, d.x, d.y, None)
            rev = _cso_scan_xy(b, a, -d.x, -d.y, None)
            assert (fwd[0], fwd[1]) == (-rev[0], -rev[1])
            # the sector rule is odd in d (zero aside), so a cold climb
            # starts at mirrored starts
            fwd = cso_support(a, b, d)
            rev = cso_support(b, a, Vec2(-d.x, -d.y))
            assert fwd.w == Vec2(-rev.w.x, -rev.w.y)
            # mirrored warm starts keep the identity exact on the climb path
            fwd2 = cso_support(a, b, d, warm=(fwd.ip, fwd.iq))
            rev2 = cso_support(b, a, Vec2(-d.x, -d.y), warm=(fwd.iq, fwd.ip))
            assert fwd2.w == Vec2(-rev2.w.x, -rev2.w.y)


def two_climbs(p, q, dx, dy, pair):
    """The support from the start pair ``(ip, iq)`` as two ``support_hill_climb``
    calls: P along d, Q along -d."""
    ip = support_hill_climb(p, Vec2(dx, dy), pair[0]).index
    iq = support_hill_climb(q, Vec2(-dx, -dy), pair[1]).index
    return (p.xs[ip] - q.xs[iq], p.ys[ip] - q.ys[iq], ip, iq)


class TestSimplexVertexLayout:
    def test_fields_are_flat(self):
        assert SimplexVertex._fields == ("wx", "wy", "ip", "iq")

    def test_w_is_the_point_as_a_vec2(self):
        rng = random.Random(45)
        p = random_convex_polygon(6, rng)
        q = random_convex_polygon(9, rng)
        for warm in (None, (0, 0), (3, 5)):
            v = cso_support(p, q, Vec2(0.3, -1.7), warm)
            assert type(v) is SimplexVertex and type(v.w) is Vec2
            assert v.w == Vec2(v.wx, v.wy)
            # the scan's plain tuple holds the same fields
            flat = _cso_scan_xy(p, q, 0.3, -1.7, warm)
            v = SimplexVertex(*flat)
            assert type(v.w) is Vec2 and v.w == Vec2(flat[0], flat[1])

    def test_cso_support_is_the_flat_call(self):
        # cold, the loop's inline climb; from a start pair, two climbs
        rng = random.Random(46)
        for _ in range(200):
            p = random_convex_polygon(rng.randint(3, 16), rng)
            q = random_convex_polygon(rng.randint(3, 16), rng)
            d = Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            pair = (rng.randrange(len(p)), rng.randrange(len(q)))
            cold = cso_support(p, q, d)
            warm = cso_support(p, q, d, pair)
            for v in (cold, warm):
                assert type(v) is SimplexVertex and type(v.w) is Vec2
            assert cold == _cso_support_xy(p, q, d.x, d.y, None)
            assert warm == two_climbs(p, q, d.x, d.y, pair)


def extremes(poly):
    """The four axis starts: ``bottom``, ``right``, ``top``, ``left``."""
    return starts(poly)[::2]


class TestExtremes:
    # ConvexPolygon records eight vertex indices that cold climbs start
    # from; any start reaches the support value.

    def test_bottom_and_top_are_the_left_ends_of_the_lowest_and_highest_edges(self):
        for poly in extremes_corpus():
            ring = vertices(poly)
            n = len(ring)
            assert all(0 <= i < n and type(i) is int for i in starts(poly))
            assert ring[poly.bottom] == min(ring, key=lambda v: (v[1], v[0]))
            assert ring[poly.top] == min(ring, key=lambda v: (-v[1], v[0]))
            # the right-hand starts lie in order on the ring from bottom up
            # to top, the left-hand ones on the way back down to bottom
            up = (poly.top - poly.bottom) % n
            along = [(i - poly.bottom) % n for i in starts(poly)]
            assert along[:5] == sorted(along[:5]) and along[4] == up
            back = [a or n for a in along[4:]] + [n]
            assert back == sorted(back)

    def test_every_start_of_a_triangle_or_quad_is_a_vertex(self):
        rng = random.Random(49)
        for _ in range(300):
            ring = vertices(random_convex_polygon(rng.choice([3, 4]), rng))
            for start in range(len(ring)):
                poly = ConvexPolygon(ring[start:] + ring[:start])
                assert all(0 <= i < len(ring) and type(i) is int for i in starts(poly))

    def test_axis_parallel_edges_start_at_their_lower_or_left_end(self):
        for start in range(4):
            ring = [(0, 0), (3, 0), (3, 1), (0, 1)]
            poly = ConvexPolygon(ring[start:] + ring[:start])
            at = [vertices(poly)[i] for i in extremes(poly)]
            assert at == [(0, 0), (3, 0), (0, 1), (0, 0)]

    def test_a_climb_from_each_extreme_reaches_the_brute_value(self):
        rng = random.Random(48)
        directions = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 1.0), (1.0, -1.0)]
        for _ in range(4000 - len(directions)):
            t = rng.uniform(0.0, 2.0 * math.pi)
            directions.append((math.cos(t), math.sin(t)))
        for poly in extremes_corpus():
            xs, ys = poly.xs, poly.ys
            ring = starts(poly)
            # P climbs along d from the four starts from bottom to upper
            # right, Q along -d from the four opposite ones: each start in
            # one role, over directions of both signs
            pairs = [(ring[k], ring[k + 4]) for k in range(4)]
            for dx, dy in directions:
                _, _, bp, bq = _cso_scan_xy(poly, poly, dx, dy, None)
                top = xs[bp] * dx + ys[bp] * dy
                low = xs[bq] * dx + ys[bq] * dy
                for pair in pairs:
                    _, _, ip, iq = two_climbs(poly, poly, dx, dy, pair)
                    assert xs[ip] * dx + ys[ip] * dy == top
                    assert xs[iq] * dx + ys[iq] * dy == low


_TAN = math.sqrt(2.0) - 1.0
AXES = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (-0.0, 2.0), (3.0, -0.0)]
DIAGONALS = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]
# the eight sector edges, 22.5 degrees either side of each axis
SECTOR_EDGES = [
    (sx * a, sy * b) for a, b in ((1.0, _TAN), (_TAN, 1.0)) for sx in (1.0, -1.0) for sy in (1.0, -1.0)
]
ZEROS = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]
NANS = [(math.nan, math.nan), (math.nan, 1.0), (1.0, math.nan)]


class ReadLog:
    """A coordinate sequence that logs the index of every read."""

    def __init__(self, values):
        self.values = values
        self.reads = []

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        self.reads.append(i)
        return self.values[i]


def logged(poly):
    """A stand-in for ``poly`` whose ``xs`` logs the climb's reads."""
    return SimpleNamespace(
        xs=ReadLog(poly.xs), ys=poly.ys, **{name: getattr(poly, name) for name in START_NAMES}
    )


class TestColdStart:
    # A cold climb starts at P's recorded start nearest d and Q's nearest
    # -d, the start every call of the query loop relies on, and walks as
    # support_hill_climb does from there.

    def test_cold_climb_reads_the_nearest_extremes_first(self):
        # The first vertex each climb reads is its start, so a wrong start
        # shows on untied input too. It also costs ring steps: on a regular
        # 256-gon the nearest start is at most a sixteenth of a turn, 16
        # steps, from the answer, and the climb reads at most 4 more: the
        # start, a failed step each way and the answer's coordinates.
        rng = random.Random(51)
        ring = ConvexPolygon(symmetric_regular_ring(256, False))
        polys = [random_convex_polygon(n, rng) for n in (3, 8, 24, 64, 128)] + [ring]
        for p, q in zip(polys, polys[1:] + polys[:1]):
            for _ in range(100):
                t = rng.uniform(0.0, 2.0 * math.pi)
                dx, dy = math.cos(t), math.sin(t)
                lp, lq = logged(p), logged(q)
                res = _cso_support_xy(lp, lq, dx, dy, None)
                pair = (lp.xs.reads[0], lq.xs.reads[0])
                assert pair in nearest_extremes(p, q, dx, dy)
                assert res == _cso_support_xy(p, q, dx, dy, None)
                assert res == two_climbs(p, q, dx, dy, pair)
                for poly, log in ((p, lp), (q, lq)):
                    if poly is ring:
                        assert len(log.xs.reads) <= 256 // 16 + 4

    def test_cold_climb_starts_at_the_nearest_extremes(self):
        rng = random.Random(50)
        directions = AXES + DIAGONALS + SECTOR_EDGES + [(0.0, 0.0)]
        for _ in range(150):
            t = rng.uniform(0.0, 2.0 * math.pi)
            directions.append((math.cos(t), math.sin(t)))
        edge = 0
        for p, q in cold_start_corpus():
            for dx, dy in directions:
                pairs = nearest_extremes(p, q, dx, dy)
                edge += len(pairs) > 1
                climbs = [two_climbs(p, q, dx, dy, pair) for pair in pairs]
                assert _cso_support_xy(p, q, dx, dy, None) in climbs
        assert edge > 0


def sector_corpus():
    """Generated 3- to 128-gons, integer rectangles, and symmetric regular
    8- to 256-gons with a vertex or an edge across each axis."""
    rng = random.Random(52)
    polys = [random_convex_polygon(n, rng) for n in (3, 3, 4, 4, 5, 6, 8, 12, 16, 32, 64, 128)]
    polys += [p for pair in tie_rectangles(count=20, seed=53) for p in pair]
    polys += [
        ConvexPolygon(symmetric_regular_ring(n, half))
        for n in (8, 16, 32, 64, 128, 256)
        for half in (False, True)
    ]
    return polys


class TestSectorChoice:
    # A cold climb picks its start by the 45-degree sector of d; whatever
    # the sector, it must reach the brute-force support value.

    def test_cold_climb_reaches_the_brute_value(self):
        edges = [(dx, math.nextafter(dy, bound)) for dx, dy in SECTOR_EDGES for bound in (0.0, 2.0)]
        edges += [(math.nextafter(dx, bound), dy) for dx, dy in SECTOR_EDGES for bound in (0.0, 2.0)]
        directions = AXES + DIAGONALS + SECTOR_EDGES + edges + ZEROS + NANS

        def same(a, b):
            return a == b or (math.isnan(a) and math.isnan(b))

        polys = sector_corpus()
        for p, q in list(zip(polys, polys)) + list(zip(polys, polys[1:] + polys[:1])):
            for dx, dy in directions:
                _, _, bp, bq = _cso_scan_xy(p, q, dx, dy, None)
                _, _, ip, iq = _cso_support_xy(p, q, dx, dy, None)
                assert 0 <= ip < len(p) and 0 <= iq < len(q)
                assert same(p.xs[ip] * dx + p.ys[ip] * dy, p.xs[bp] * dx + p.ys[bp] * dy)
                assert same(q.xs[iq] * dx + q.ys[iq] * dy, q.xs[bq] * dx + q.ys[bq] * dy)
                if (dx, dy) in ZEROS or math.isnan(dx) or math.isnan(dy):
                    # every sector test fails, and no vertex improves
                    assert (ip, iq) == (p.right, q.left)


class TestInitialDirection:
    def test_centroid_difference(self):
        assert initial_direction(UNIT_SQUARE, FAR_SQUARE) == Vec2(-3.0, 0.0)

    def test_identical_polygons_fall_back_to_unit_x(self):
        assert initial_direction(UNIT_SQUARE, UNIT_SQUARE) == Vec2(1.0, 0.0)

    def test_first_vertex_fallback(self):
        # same centroid, different vertex order: the zero centroid difference
        # is a point of P - Q, so the fixed direction serves; the first
        # vertices are not consulted
        rotated = ConvexPolygon([(1, 0), (1, 1), (0, 1), (0, 0)])
        assert rotated.centroid == UNIT_SQUARE.centroid
        assert initial_direction(UNIT_SQUARE, rotated) == Vec2(1.0, 0.0)

    def test_shared_first_vertex_uses_centroids(self):
        tri = ConvexPolygon([(0, 0), (2, 0), (0, 2)])
        other = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
        expected = sub(tri.centroid, other.centroid)
        assert initial_direction(tri, other) == expected
