import random

import pytest

from gjk2d.geometry import Vec2
from gjk2d.subdistance import (
    DegenerateTriangle,
    compute_barycode,
    cone_region,
    s1d,
    s2d,
)
from gjk2d.support import SimplexVertex

from oracle_utils import (
    barycentric_of_origin,
    origin_inside_triangle,
    segment_distance_to_origin,
    triangle_distance_to_origin,
)


def sv(x, y):
    """Simplex vertex whose originating support points are irrelevant here."""
    return SimplexVertex(Vec2(x, y), Vec2(x, y), Vec2(0.0, 0.0), 0, 0)


def random_sv(rng, lo=-10.0, hi=10.0):
    return sv(rng.uniform(lo, hi), rng.uniform(lo, hi))


def check_lambdas(result):
    lams = result.lambdas
    assert all(l >= 0.0 for l in lams)
    assert sum(lams) == pytest.approx(1.0, abs=1e-12)
    rx = sum(l * v.w.x for l, v in zip(lams, result.verts))
    ry = sum(l * v.w.y for l, v in zip(lams, result.verts))
    assert rx == pytest.approx(result.v.x, abs=1e-12)
    assert ry == pytest.approx(result.v.y, abs=1e-12)


class TestS1d:
    def test_perpendicular_foot_inside_segment(self):
        res = s1d(sv(1, -1), sv(1, 1))
        assert len(res.verts) == 2
        assert res.lambdas == pytest.approx([0.5, 0.5])
        assert res.v == Vec2(1.0, 0.0)
        check_lambdas(res)

    def test_origin_in_first_vertex_region(self):
        res = s1d(sv(1, 1), sv(2, 2))
        assert len(res.verts) == 1
        assert res.lambdas == [1.0]
        assert res.v == Vec2(1.0, 1.0)

    def test_origin_in_second_vertex_region(self):
        res = s1d(sv(2, 2), sv(1, 1))
        assert res.v == Vec2(1.0, 1.0)
        assert len(res.verts) == 1

    def test_interior_foot_against_segment_oracle(self):
        # derived: grid + refinement oracle gives distance 4 at (0, 4)
        assert segment_distance_to_origin((-3, 4), (2, 4)) == pytest.approx(4.0)
        res = s1d(sv(-3, 4), sv(2, 4))
        assert res.v.x == pytest.approx(0.0, abs=1e-12)
        assert res.v.y == pytest.approx(4.0)
        assert res.lambdas == pytest.approx([0.4, 0.6])
        check_lambdas(res)

    def test_coincident_endpoints_return_vertex(self):
        res = s1d(sv(1, 1), sv(1, 1))
        assert len(res.verts) == 1
        assert res.v == Vec2(1.0, 1.0)

    def test_random_segments_match_oracle(self):
        rng = random.Random(3)
        for _ in range(2000):
            a, b = random_sv(rng), random_sv(rng)
            res = s1d(a, b)
            expected = segment_distance_to_origin(tuple(a.w), tuple(b.w))
            assert res.v.norm() == pytest.approx(expected, abs=1e-9)
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


class TestConeRegion:
    def tau(self, v, m, n):
        return (sv(*v), sv(*m), sv(*n))

    def test_right_angle_keeps_vertex(self):
        res = cone_region(self.tau((1, 0), (2, 1), (2, -1)), 0)
        assert res.v == Vec2(1.0, 0.0)
        assert len(res.verts) == 1

    def test_obtuse_angle_resolves_through_edge(self):
        # derived: triangle oracle puts the minimum on edge VM at V itself
        assert triangle_distance_to_origin((0, 1), (-2, 1.5), (2, 3)) == pytest.approx(1.0)
        res = cone_region(self.tau((0, 1), (-2, 1.5), (2, 3)), 0)
        assert res.v.norm() == pytest.approx(1.0)

    def test_obtuse_angle_between_edges_keeps_vertex(self):
        # derived: triangle oracle confirms the vertex carries the minimum
        assert triangle_distance_to_origin((0, 2), (-4, 2.1), (4, 2.1)) == pytest.approx(2.0)
        res = cone_region(self.tau((0, 2), (-4, 2.1), (4, 2.1)), 0)
        assert res.v == Vec2(0.0, 2.0)
        assert len(res.verts) == 1


class TestS2d:
    def test_enclosing_triangle_returns_origin(self):
        res = s2d(sv(1, 0), sv(-1, 1), sv(-1, -1))
        assert len(res.verts) == 3
        assert res.v.norm() == pytest.approx(0.0, abs=1e-15)
        # barycentric coordinates of the origin: sub-areas 2, 1, 1 over 4
        assert res.lambdas == pytest.approx([0.5, 0.25, 0.25])
        check_lambdas(res)

    def test_vertex_region(self):
        assert triangle_distance_to_origin((1, 0), (2, 1), (2, -1)) == pytest.approx(1.0)
        res = s2d(sv(1, 0), sv(2, 1), sv(2, -1))
        assert res.v == Vec2(1.0, 0.0)
        assert [v.w for v in res.verts] == [Vec2(1.0, 0.0)]

    def test_edge_region(self):
        assert triangle_distance_to_origin((1, 1), (1, -1), (3, 0)) == pytest.approx(1.0)
        res = s2d(sv(1, 1), sv(1, -1), sv(3, 0))
        assert res.v == Vec2(1.0, 0.0)
        assert len(res.verts) == 2
        assert res.lambdas == pytest.approx([0.5, 0.5])

    def test_collinear_points_fall_back_to_best_edge(self):
        res = s2d(sv(0, 1), sv(2, 1), sv(4, 1))
        assert res.v.norm() == pytest.approx(1.0)
        check_lambdas(res)

    def test_matches_triangle_oracle_bulk(self):
        rng = random.Random(12)
        for _ in range(20_000):
            a, b, c = (random_sv(rng) for _ in range(3))
            res = s2d(a, b, c)
            expected = triangle_distance_to_origin(
                tuple(a.w), tuple(b.w), tuple(c.w), grid=512
            )
            assert res.v.norm() == pytest.approx(expected, abs=1e-9)

    def test_lambda_validity_bulk(self):
        rng = random.Random(13)
        for _ in range(5000):
            res = s2d(*(random_sv(rng) for _ in range(3)))
            check_lambdas(res)

    def test_orientation_independence(self):
        rng = random.Random(14)
        for _ in range(5000):
            a, b, c = (random_sv(rng) for _ in range(3))
            d1 = s2d(a, b, c).v.norm()
            d2 = s2d(a, c, b).v.norm()
            assert d1 == pytest.approx(d2, abs=1e-12)

    def test_returned_support_is_minimal(self):
        rng = random.Random(15)
        checked = 0
        while checked < 2000:
            a, b, c = (random_sv(rng) for _ in range(3))
            res = s2d(a, b, c)
            kept = res.verts
            if len(kept) == 1:
                continue  # nothing to drop against
            full = res.v.norm()
            margins = []
            for drop in range(len(kept)):
                rest = [v for i, v in enumerate(kept) if i != drop]
                if len(rest) == 1:
                    d = rest[0].w.norm()
                else:
                    d = segment_distance_to_origin(tuple(rest[0].w), tuple(rest[1].w))
                margins.append(d - full)
            if min(margins) < 1e-9:
                continue  # boundary tie; either support set is valid there
            assert all(m > 1e-9 for m in margins)
            checked += 1


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
