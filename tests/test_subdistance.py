import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from gjk2d.geometry import Vec2
import gjk2d.subdistance
from gjk2d.subdistance import DegenerateTriangle, compute_barycode, s1d, s2d

from conftest import sweep_triangles, vertex
from oracle_utils import (
    ORIGIN,
    TRIANGLE_ORACLE_ERROR,
    barycentric_of_origin,
    exact_origin_inside_triangle,
    exact_segment_distance_sq,
    exact_triangle_distance_sq,
    origin_inside_triangle,
    point_segment_distance,
    reference_s2d,
    triangle_distance_to_origin,
)


def sv(x, y):
    """Simplex vertex whose originating vertex indices are irrelevant here."""
    return vertex(x, y)


def random_sv(rng, lo=-10.0, hi=10.0):
    return sv(rng.uniform(lo, hi), rng.uniform(lo, hi))


def check_lambdas(result):
    verts, lams, vx, vy = result
    assert all(l >= 0.0 for l in lams)
    assert sum(lams) == pytest.approx(1.0, abs=1e-12)
    rx = sum(l * v.w.x for l, v in zip(lams, verts))
    ry = sum(l * v.w.y for l, v in zip(lams, verts))
    assert rx == pytest.approx(vx, abs=1e-12)
    assert ry == pytest.approx(vy, abs=1e-12)


def norm(result):
    """|v| of a solve's closest point."""
    return math.hypot(*result[2:])


def pinned_triangles():
    """Seeded random, integer-grid and collinear triangles: every region code."""
    rng = random.Random(2024)
    for _ in range(3000):
        yield [(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(3)]
    # exact region boundaries, ties and exactly collinear triples
    for _ in range(3000):
        yield [(float(rng.randint(-3, 3)), float(rng.randint(-3, 3))) for _ in range(3)]
    for _ in range(1000):
        px, py = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        dx, dy = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        yield [(px + t * dx, py + t * dy) for t in (rng.uniform(-5.0, 5.0) for _ in range(3))]


def thin_triangles(rng, count):
    """Triangles whose doubled area is 1-4e-12 of their largest sub-area.

    The third vertex sits on the line through the first two, then moves
    off it by the height that gives that area; the order is shuffled.
    1e-12 is the relative threshold below which ``compute_barycode`` once
    called a triangle collinear; the literal keeps the same triangles,
    whose sub-area signs are still at the mercy of rounding.
    """
    for _ in range(count):
        ax, ay, bx, by = (rng.uniform(-10.0, 10.0) for _ in range(4))
        ex, ey = bx - ax, by - ay
        length = math.hypot(ex, ey)
        t = rng.uniform(-2.0, 3.0)
        cx, cy = ax + t * ex, ay + t * ey
        largest = max(abs(bx * cy - by * cx), abs(cx * ay - cy * ax), abs(ax * by - ay * bx))
        h = rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 4.0) * 1e-12 * largest / length
        tri = [(ax, ay), (bx, by), (cx - h * ey / length, cy + h * ex / length)]
        rng.shuffle(tri)
        yield tri


# Three points within rounding of one line through the origin: the total
# computes to 5.6e-17 while every sub-area has the other sign or is 0.
CODE_ZERO = (
    Vec2(-0.12458543603282414, -0.048757531054061325),
    Vec2(1.815851342065918, 0.7106482990275966),
    Vec2(0.32052690731327654, 0.12544083108455653),
)


# Points at about t = -4.3, -0.39 and +3.9 along a line through the origin,
# off it by rounding. The signs read code 4 at a, and a's dot product with
# the edge toward b picks (a, b), whose nearest point b is 0.39 away; the
# exact distance is 4.2e-17. The signs are within their rounding bound.
NEAR_LINE_CODE_4 = (
    Vec2(-3.200737522742568, 2.9274494623825227),
    Vec2(-0.28733084365007816, 0.2627977201481354),
    Vec2(2.898198753906718, -2.6507423128942103),
)


# Points 1.3, 1.5 and 4.0 from the origin along a line through it, the last
# on the other side, off it by rounding. The signs read code 7, whose
# barycentric coordinates compute to (2, 4, -5) and would put the closest
# point 28.7 away; the exact distance is 7.2e-17. The signs are within
# their rounding bound.
NEAR_LINE_CODE_7 = (
    Vec2(1.0433534227949752, 0.7525837242211275),
    Vec2(1.2086513452628327, 0.8718151594941593),
    Vec2(-3.2690994259336614, -2.3580418361283915),
)


def near_line_triangles(rng, count):
    """Triangles within 1e-17..1e-8 of a line through the origin; some reach code 0."""
    for _ in range(count):
        dx, dy = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        e = 10.0 ** rng.uniform(-17.0, -8.0)
        yield [
            (t * dx + rng.uniform(-e, e), t * dy + rng.uniform(-e, e))
            for t in (rng.uniform(-5.0, 5.0) for _ in range(3))
        ]


def tiny_far_triangles(rng, count):
    """Triangles 1e-8..1 wide (log-uniform), centred 0.5..10 from the origin."""
    for _ in range(count):
        d = rng.uniform(0.5, 10.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        cx, cy = d * math.cos(theta), d * math.sin(theta)
        w = 10.0 ** rng.uniform(-8.0, 0.0)
        yield [(cx + w * rng.uniform(-0.5, 0.5), cy + w * rng.uniform(-0.5, 0.5)) for _ in range(3)]


class TestS1d:
    def test_perpendicular_foot_inside_segment(self):
        res = s1d(sv(1, -1), sv(1, 1))
        verts, lambdas, vx, vy = res
        assert len(verts) == 2
        assert lambdas == pytest.approx([0.5, 0.5])
        assert (vx, vy) == (1.0, 0.0)
        check_lambdas(res)

    def test_origin_in_first_vertex_region(self):
        verts, lambdas, vx, vy = s1d(sv(1, 1), sv(2, 2))
        assert len(verts) == 1
        assert lambdas == [1.0]
        assert (vx, vy) == (1.0, 1.0)

    def test_origin_in_second_vertex_region(self):
        verts, _, vx, vy = s1d(sv(2, 2), sv(1, 1))
        assert (vx, vy) == (1.0, 1.0)
        assert len(verts) == 1

    def test_interior_foot_against_segment_oracle(self):
        # derived: the clamped projection gives distance 4 at (0, 4)
        assert point_segment_distance(ORIGIN, (-3, 4), (2, 4)) == pytest.approx(4.0)
        res = s1d(sv(-3, 4), sv(2, 4))
        _, lambdas, vx, vy = res
        assert vx == pytest.approx(0.0, abs=1e-12)
        assert vy == pytest.approx(4.0)
        assert lambdas == pytest.approx([0.4, 0.6])
        check_lambdas(res)

    def test_coincident_endpoints_return_vertex(self):
        verts, _, vx, vy = s1d(sv(1, 1), sv(1, 1))
        assert len(verts) == 1
        assert (vx, vy) == (1.0, 1.0)

    def test_random_segments_match_oracle(self):
        rng = random.Random(3)
        for _ in range(2000):
            a, b = random_sv(rng), random_sv(rng)
            res = s1d(a, b)
            expected = point_segment_distance(ORIGIN, a.w, b.w)
            assert norm(res) == pytest.approx(expected, abs=1e-9)
            check_lambdas(res)


class TestComputeBarycode:
    def test_origin_inside_gives_full_code(self):
        code, su, sv_, sw, total = compute_barycode(
            Vec2(1, 0), Vec2(-1, 1), Vec2(-1, -1)
        )
        assert code == 7
        assert total == pytest.approx(su + sv_ + sw)
        assert origin_inside_triangle((1, 0), (-1, 1), (-1, -1), strict=True)
        # triangle (0,0), (4,0), (0,4) seen from its interior point (1,1)
        code, *_ = compute_barycode(Vec2(-1, -1), Vec2(3, -1), Vec2(-1, 3))
        assert code == 7

    def test_vertex_cone_code(self):
        code, *_ = compute_barycode(Vec2(1, 0), Vec2(2, 1), Vec2(2, -1))
        assert code == 4
        u, v, w = barycentric_of_origin((1, 0), (2, 1), (2, -1))
        assert u > 0 > v and w < 0

    def test_edge_region_code(self):
        code, *_ = compute_barycode(Vec2(1, 1), Vec2(1, -1), Vec2(3, 0))
        assert code == 6
        u, v, w = barycentric_of_origin((1, 1), (1, -1), (3, 0))
        assert u > 0 and v > 0 and w < 0
        # triangle (0,0), (4,0), (0,4) seen from (5,5), outside edge bc
        code, *_ = compute_barycode(Vec2(-5, -5), Vec2(-1, -5), Vec2(-5, -1))
        assert code == 3
        # the same triangle seen from (2,0), on edge ab: not strictly inside
        code, *_ = compute_barycode(Vec2(-2, 0), Vec2(2, 0), Vec2(-2, 4))
        assert code == 6

    def test_collinear_raises(self):
        with pytest.raises(DegenerateTriangle):
            compute_barycode(Vec2(0, 1), Vec2(1, 1), Vec2(2, 1))
        # triangle (0,0), (2,2), (4,4) seen from (1,1), on its line
        with pytest.raises(DegenerateTriangle):
            compute_barycode(Vec2(-1, -1), Vec2(1, 1), Vec2(3, 3))
        # a nonzero total whose signs every sub-area contradicts: code 0
        with pytest.raises(DegenerateTriangle, match="code 0"):
            compute_barycode(*CODE_ZERO)
        # codes 4 and 7 read from signs within their rounding bound
        with pytest.raises(DegenerateTriangle, match="code 4"):
            compute_barycode(*NEAR_LINE_CODE_4)
        with pytest.raises(DegenerateTriangle, match="code 7"):
            compute_barycode(*NEAR_LINE_CODE_7)

    def test_every_code_is_exact(self):
        # Every code that compute_barycode returns, 7 included, has the
        # signs of the exact sub-areas and area; a sign it cannot fix raises.
        rng = random.Random(7)
        families = (
            pinned_triangles(),
            thin_triangles(rng, 2000),
            near_line_triangles(rng, 2000),
            tiny_far_triangles(rng, 2000),
        )
        raised = 0
        for tri in itertools.chain(*families):
            try:
                code = compute_barycode(*(Vec2(float(x), float(y)) for x, y in tri))[0]
            except DegenerateTriangle:
                raised += 1
                continue
            (ax, ay), (bx, by), (cx, cy) = ((Fraction(x), Fraction(y)) for x, y in tri)
            su, sv_, sw = bx * cy - by * cx, cx * ay - cy * ax, ax * by - ay * bx
            pos = su + sv_ + sw > 0
            assert code == ((su > 0) == pos) << 2 | ((sv_ > 0) == pos) << 1 | ((sw > 0) == pos), tri
        assert raised

    def test_zero_total_with_code_seven_still_raises(self):
        # every sub-area is 0, so every sign bit agrees with total == 0.0 and
        # the code reads 7; only the degeneracy test stops it
        for a, b, c in (
            ((0, 0), (0, 0), (0, 0)),
            ((-1, -1), (1, 1), (3, 3)),
            ((2, -1), (-4, 2), (6, -3)),
        ):
            assert a[0] * b[1] - a[1] * b[0] == 0 and b[0] * c[1] - b[1] * c[0] == 0
            with pytest.raises(DegenerateTriangle):
                compute_barycode(Vec2(*a), Vec2(*b), Vec2(*c))

    @pytest.mark.parametrize("k", [-500, -250, 0, 250, 500])
    def test_code_seven_does_not_raise_at_extreme_scales(self, k):
        # a power-of-two scale multiplies every sub-area by f*f exactly
        f = 2.0**k
        for tri in (((1, 0), (-1, 1), (-1, -1)), ((-1, -1), (3, -1), (-1, 3))):
            code, *areas = compute_barycode(*(Vec2(x, y) for x, y in tri))
            assert code == 7
            scaled = compute_barycode(*(Vec2(x * f, y * f) for x, y in tri))
            assert scaled == (7, *(area * f * f for area in areas))

    def test_code_matches_barycentric_signs(self):
        rng = random.Random(21)
        done = 0
        while done < 5000:
            a, b, c = (
                (rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)
            )
            try:
                code, *_ = compute_barycode(Vec2(*a), Vec2(*b), Vec2(*c))
            except DegenerateTriangle:
                continue
            # code 7 iff the origin is strictly inside, near boundaries too
            assert (code == 7) == origin_inside_triangle(a, b, c, strict=True)
            coords = barycentric_of_origin(a, b, c)
            # the code computation already rejected degenerate triangles
            assert coords is not None
            u, v, w = coords
            if min(abs(u), abs(v), abs(w)) < 1e-9:
                continue  # too close to a region boundary to compare signs
            assert 1 <= code <= 7
            assert code == ((u > 0) << 2 | (v > 0) << 1 | (w > 0))
            done += 1


class TestS2d:
    def test_enclosing_triangle_returns_origin(self):
        res = s2d(sv(1, 0), sv(-1, 1), sv(-1, -1))
        verts, lambdas, _, _ = res
        assert len(verts) == 3
        assert norm(res) == pytest.approx(0.0, abs=1e-15)
        # barycentric coordinates of the origin: sub-areas 2, 1, 1 over 4
        assert lambdas == pytest.approx([0.5, 0.25, 0.25])
        check_lambdas(res)

    def test_vertex_region(self):
        # right angle at the vertex: both edge solves return the vertex
        assert triangle_distance_to_origin((1, 0), (2, 1), (2, -1)) == pytest.approx(1.0)
        verts, _, vx, vy = s2d(sv(1, 0), sv(2, 1), sv(2, -1))
        assert (vx, vy) == (1.0, 0.0)
        assert [v.w for v in verts] == [Vec2(1.0, 0.0)]

    def test_vertex_region_obtuse_angle_resolves_through_edge(self):
        # derived: triangle oracle puts the minimum on edge VM at V itself
        assert triangle_distance_to_origin((0, 1), (-2, 1.5), (2, 3)) == pytest.approx(1.0)
        a, b, c = sv(0, 1), sv(-2, 1.5), sv(2, 3)
        assert compute_barycode(a.w, b.w, c.w)[0] == 4
        assert norm(s2d(a, b, c)) == pytest.approx(1.0)

    def test_vertex_region_obtuse_angle_between_edges_keeps_vertex(self):
        # derived: triangle oracle confirms the vertex carries the minimum
        assert triangle_distance_to_origin((0, 2), (-4, 2.1), (4, 2.1)) == pytest.approx(2.0)
        a, b, c = sv(0, 2), sv(-4, 2.1), sv(4, 2.1)
        assert compute_barycode(a.w, b.w, c.w)[0] == 4
        verts, _, vx, vy = s2d(a, b, c)
        assert (vx, vy) == (0.0, 2.0)
        assert len(verts) == 1

    def test_vertex_region_keeps_at_most_one_edge(self):
        # In the angle opposite a vertex, the foot of the perpendicular falls
        # inside at most one of that vertex's edges: inside both would need
        # the cosine of the angle at the vertex to exceed 1. So at code 4,
        # the one vertex region s2d solves, it solves only the edge at a
        # whose foot may lie past a; the lemma is checked at every vertex.
        edges_at = {4: (0, 1, 2), 2: (1, 0, 2), 1: (2, 0, 1)}
        rng = random.Random(2025)
        families = {"pinned": pinned_triangles(), "thin": thin_triangles(rng, 10_000)}
        for scale in (1e-6, 1.0, 1e6):
            families[scale] = [
                [(rng.uniform(-10.0, 10.0) * scale, rng.uniform(-10.0, 10.0) * scale)
                 for _ in range(3)]
                for _ in range(20_000)
            ]
        both = []
        for family, tris in families.items():
            codes = Counter()
            for tri in tris:
                tau = [sv(float(x), float(y)) for x, y in tri]
                try:
                    code = compute_barycode(*(v.w for v in tau))[0]
                except DegenerateTriangle:
                    continue
                if code not in edges_at:
                    continue
                codes[code] += 1
                i, j, k = edges_at[code]
                if len(s1d(tau[i], tau[j])[0]) == 2 and len(s1d(tau[i], tau[k])[0]) == 2:
                    both.append((family, tri))
            assert min(codes[code] for code in edges_at) >= 200, (family, codes)
        assert both == []

    def test_one_solve_per_region_code(self, monkeypatch):
        # Each code that keeps a names its simplex: one s1d call for codes
        # 4-6 and none for 7. Codes 1-3, which the loop never builds, and
        # every triangle compute_barycode rejects take the three-edge solve.
        calls = []

        def counting(a, b):
            calls.append(None)
            return s1d(a, b)

        monkeypatch.setattr(gjk2d.subdistance, "s1d", counting)
        rng = random.Random(2026)
        families = {
            "pinned": pinned_triangles(),
            "thin": thin_triangles(rng, 10_000),
            "near-line": near_line_triangles(rng, 3000),
            "random": [[(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(3)]
                       for _ in range(5000)],
        }
        for family, tris in families.items():
            codes = Counter()
            for tri in tris:
                a, b, c = (sv(float(x), float(y)) for x, y in tri)
                try:
                    code = compute_barycode(a.w, b.w, c.w)[0]
                except DegenerateTriangle:
                    code = "rejected"
                codes[code] += 1
                calls.clear()
                s2d(a, b, c)
                assert len(calls) == {7: 0, 6: 1, 5: 1, 4: 1}.get(code, 3), (family, tri)
            assert all(codes[code] for code in range(1, 7)), (family, codes)
            if family != "random":
                assert codes["rejected"], (family, codes)

    def test_near_line_triangles_match_exact_distance(self):
        # Three points within rounding of one line through the origin give
        # sub-area signs that are noise. A code read from them could name
        # an edge far from the origin, or an enclosure whose barycentric
        # point is far from it; compute_barycode rejects it, and the
        # nearest of the three edges is right.
        for points in (NEAR_LINE_CODE_4, NEAR_LINE_CODE_7):
            got = s2d(*(sv(p.x, p.y) for p in points))
            tri = [tuple(p) for p in points]
            assert len(got[0]) < 3
            assert within_oracle_error(math.hypot(got[2], got[3]), exact_triangle_distance_sq(*tri), *tri)
        off = []
        enclosing = 0
        for tri in near_line_triangles(random.Random(1), 5000):
            verts, _, vx, vy = s2d(*(sv(x, y) for x, y in tri))
            enclosing += len(verts) == 3
            if not within_oracle_error(math.hypot(vx, vy), exact_triangle_distance_sq(*tri), *tri):
                off.append(tri)
        assert enclosing > 500
        assert off == []

    def test_tiny_far_triangles_match_exact_distance(self):
        # Sub-areas of absolute coordinates round by about 1e-16 * |b| * |c|,
        # more than the doubled area of a triangle this small this far out,
        # and once named the wrong edge; edge-relative ones round by 1e-16
        # times an edge length times the distance.
        tol = Fraction(1, 10**12)
        off = []
        for tri in tiny_far_triangles(random.Random(5), 10_000):
            res = s2d(*(sv(x, y) for x, y in tri))
            exact_sq = exact_triangle_distance_sq(*tri)
            got_sq = Fraction(res[2]) ** 2 + Fraction(res[3]) ** 2
            if not (1 - tol) ** 2 * exact_sq <= got_sq <= (1 + tol) ** 2 * exact_sq:
                off.append(tri)
        assert off == []

    def test_edge_region(self):
        assert triangle_distance_to_origin((1, 1), (1, -1), (3, 0)) == pytest.approx(1.0)
        verts, lambdas, vx, vy = s2d(sv(1, 1), sv(1, -1), sv(3, 0))
        assert (vx, vy) == (1.0, 0.0)
        assert len(verts) == 2
        assert lambdas == pytest.approx([0.5, 0.5])

    def test_collinear_points_keep_the_nearest_edge(self):
        res = s2d(sv(0, 1), sv(2, 1), sv(4, 1))
        assert norm(res) == pytest.approx(1.0)
        check_lambdas(res)

    def test_results_are_pinned(self):
        # sha256 over every answer's kept vertices, lambdas and closest point,
        # bit for bit; the sets reach all seven region codes and collinear
        # triangles
        h = hashlib.sha256()
        codes = Counter()
        for tri in pinned_triangles():
            a, b, c = (vertex(x, y, i, i) for i, (x, y) in enumerate(tri))
            try:
                codes[compute_barycode(a.w, b.w, c.w)[0]] += 1
            except DegenerateTriangle:
                codes["degenerate"] += 1
            verts, lambdas, vx, vy = s2d(a, b, c)
            answer = ([v.ip for v in verts], [l.hex() for l in lambdas], vx.hex(), vy.hex())
            h.update(repr(answer).encode())
        assert set(codes) == {1, 2, 3, 4, 5, 6, 7, "degenerate"}
        assert h.hexdigest() == "71b579c93302fd2372cc6bf4a16dfcef86580221b73b8ae1e9842d1cd26d179e"

    def test_matches_reference_bit_for_bit(self):
        # the dispatch through compute_barycode that s2d inlines
        tris = list(pinned_triangles())
        # zero totals and collinear triples, code 7 included
        tris += [
            [(0, 0), (0, 0), (0, 0)],
            [(-1, -1), (1, 1), (3, 3)],
            [(2, -1), (-4, 2), (6, -3)],
            [(0, 1), (1, 1), (2, 1)],
            [(1, 0), (1, 0), (2, 5)],
            list(CODE_ZERO),
        ]
        # power-of-two scales, where code 7 must not read as degenerate
        for k in (-500, -250, -30, 30, 250, 500):
            for tri in (((1, 0), (-1, 1), (-1, -1)), ((-1, -1), (3, -1), (-1, 3)),
                        ((1, 1), (1, -1), (3, 0)), ((0, 2), (-4, 2.1), (4, 2.1))):
                tris.append([(x * 2.0**k, y * 2.0**k) for x, y in tri])
        # every placement of -0.0 over the zero coordinates
        for base in (((1, 0), (-1, 1), (-1, -1)), ((0, 1), (2, 0), (2, 1)),
                     ((0, 0), (1, 0), (0, 1)), ((0, 1), (0, 2), (0, 3))):
            flat = [float(v) for point in base for v in point]
            zeros = [i for i, v in enumerate(flat) if v == 0.0]
            for signs in itertools.product((0.0, -0.0), repeat=len(zeros)):
                for i, z in zip(zeros, signs):
                    flat[i] = z
                tris.append([(flat[0], flat[1]), (flat[2], flat[3]), (flat[4], flat[5])])
        for tri in tris:
            a, b, c = (vertex(float(x), float(y), i, i) for i, (x, y) in enumerate(tri))
            verts, lambdas, vx, vy = s2d(a, b, c)
            ref_verts, ref_lambdas, ref_vx, ref_vy = reference_s2d(a, b, c)
            assert len(verts) == len(ref_verts)
            assert all(v is r for v, r in zip(verts, ref_verts))
            assert [l.hex() for l in lambdas] == [l.hex() for l in ref_lambdas]
            assert (vx.hex(), vy.hex()) == (ref_vx.hex(), ref_vy.hex())

    def test_matches_triangle_oracle_bulk(self):
        rng = random.Random(12)
        for _ in range(20_000):
            a, b, c = (random_sv(rng) for _ in range(3))
            res = s2d(a, b, c)
            expected = triangle_distance_to_origin(a.w, b.w, c.w)
            assert norm(res) == pytest.approx(expected, abs=1e-9)

    def test_lambda_validity_bulk(self):
        rng = random.Random(13)
        for _ in range(5000):
            res = s2d(*(random_sv(rng) for _ in range(3)))
            check_lambdas(res)

    def test_orientation_independence(self):
        rng = random.Random(14)
        for _ in range(5000):
            a, b, c = (random_sv(rng) for _ in range(3))
            d1 = norm(s2d(a, b, c))
            d2 = norm(s2d(a, c, b))
            assert d1 == pytest.approx(d2, abs=1e-12)

    def test_returned_support_is_minimal(self):
        rng = random.Random(15)
        checked = 0
        while checked < 2000:
            a, b, c = (random_sv(rng) for _ in range(3))
            res = s2d(a, b, c)
            kept = res[0]
            if len(kept) == 1:
                continue  # nothing to drop against
            full = norm(res)
            margins = []
            for drop in range(len(kept)):
                rest = [v for i, v in enumerate(kept) if i != drop]
                if len(rest) == 1:
                    d = math.hypot(*rest[0].w)
                else:
                    d = point_segment_distance(ORIGIN, rest[0].w, rest[1].w)
                margins.append(d - full)
            if min(margins) < 1e-9:
                continue  # boundary tie; either support set is valid there
            assert all(m > 1e-9 for m in margins)
            checked += 1


def within_oracle_error(got, exact_sq, *points):
    """|got - sqrt(exact_sq)| <= TRIANGLE_ORACLE_ERROR * max|coordinate|.

    Decided in ``Fraction`` arithmetic by comparing squares, so no
    rounding enters the check itself.
    """
    bound = Fraction(TRIANGLE_ORACLE_ERROR) * max(abs(Fraction(c)) for p in points for c in p)
    got = Fraction(got)
    return max(got - bound, 0) ** 2 <= exact_sq <= (got + bound) ** 2


class TestFloatOraclesAgainstExact:
    """The float oracles above stay within their derived error bound."""

    def test_hand_segments(self):
        for a, b, want_sq in (
            ((3.0, 4.0), (3.0, 4.0), 25),  # zero-length segment
            ((1.0, 1.0), (3.0, 1.0), 2),  # foot clamped at t = 0
            ((3.0, 1.0), (1.0, 1.0), 2),  # foot clamped at t = 1
            ((-3.0, 4.0), (2.0, 4.0), 16),  # interior foot
            ((-1.0, 0.0), (1.0, 0.0), 0),  # origin on the segment
        ):
            assert exact_segment_distance_sq(ORIGIN, a, b) == want_sq
            assert within_oracle_error(
                point_segment_distance(ORIGIN, a, b), Fraction(want_sq), a, b
            )

    def test_hand_triangles(self):
        # origin on an edge, at a vertex and inside; then nearest a vertex,
        # an edge, and the apex of an obtuse vertex region
        for tri, want_sq in (
            (((-1.0, 0.0), (1.0, 0.0), (0.0, 1.0)), 0),
            (((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), 0),
            (((1.0, 0.0), (-1.0, 1.0), (-1.0, -1.0)), 0),
            (((1.0, 0.0), (2.0, 1.0), (2.0, -1.0)), 1),
            (((1.0, 1.0), (1.0, -1.0), (3.0, 0.0)), 1),
            (((0.0, 2.0), (-4.0, 2.1), (4.0, 2.1)), 4),
        ):
            assert exact_triangle_distance_sq(*tri) == want_sq
            got = triangle_distance_to_origin(*tri)
            if want_sq == 0:
                assert exact_origin_inside_triangle(*tri) and got == 0.0
            else:
                assert within_oracle_error(got, Fraction(want_sq), *tri)

    def test_sweep_sample(self):
        # a seeded 1,000-triangle sample of criterion 3's sweep
        tris = random.Random(17).sample(sweep_triangles(), 1000)
        inside = 0
        for tri in tris:
            got = triangle_distance_to_origin(*tri)
            if exact_origin_inside_triangle(*tri):
                inside += 1
                assert got == 0.0
            else:
                assert within_oracle_error(got, exact_triangle_distance_sq(*tri), *tri)
        assert 0 < inside < len(tris)


class TestPointInTriangle:
    """Code 7 of ``compute_barycode`` is the strict point-in-triangle test."""

    def test_matches_half_plane_oracle(self):
        rng = random.Random(61)
        for _ in range(2000):
            tri = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
            p = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            shifted = [(x - p[0], y - p[1]) for x, y in tri]
            expected = origin_inside_triangle(*shifted, strict=True)
            try:
                code, *_ = compute_barycode(*(Vec2(*v) for v in shifted))
            except DegenerateTriangle:
                assert not expected  # a collinear triangle has no interior
                continue
            assert (code == 7) == expected
