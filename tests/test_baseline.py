import ast
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gjk2d.baseline
from gjk2d.baseline import cso_contains_origin, oracle_distance, sat_intersects
from gjk2d.datasets import Regime
from gjk2d.geometry import ConvexPolygon, Vec2, apply_transform

from corpora import (
    FAR_SQUARE,
    TOUCH_SQUARE,
    UNIT_SQUARE,
    random_placed,
    rectangle,
    regime_cases,
)
from oracle_utils import (
    brute_cso_contains_origin,
    brute_oracle_distance,
    convex_hull,
    cso_origin_clearance,
    exact_sat_intersects,
    point_segment_distance,
)


class TestSatIntersects:
    def test_distant_squares(self):
        assert not sat_intersects(UNIT_SQUARE, FAR_SQUARE)

    def test_identical_squares(self):
        assert sat_intersects(UNIT_SQUARE, UNIT_SQUARE)

    def test_shared_edge_counts_as_intersecting(self):
        assert sat_intersects(UNIT_SQUARE, TOUCH_SQUARE)

    def test_agrees_with_explicit_difference_hull(self):
        rng = random.Random(51)
        hits = 0
        for _ in range(2000):
            p = random_placed(rng, rng.choice([3, 4, 6, 8]), 1.5)
            q = random_placed(rng, rng.choice([3, 4, 6, 8]), 1.5)
            sat = sat_intersects(p, q)
            closed = oracle_distance(p, q).intersecting
            assert sat == closed
            hits += sat
        # the sweep must exercise both outcomes to mean anything
        assert 0 < hits < 2000


class TestExactSatIntersects:
    """``oracle_utils.exact_sat_intersects``: the closed-intersection truth."""

    def test_squares(self):
        assert exact_sat_intersects(UNIT_SQUARE, UNIT_SQUARE)
        assert exact_sat_intersects(UNIT_SQUARE, TOUCH_SQUARE)
        assert not exact_sat_intersects(UNIT_SQUARE, FAR_SQUARE)

    def test_one_ulp_either_side_of_contact(self):
        for x, hit in ((math.nextafter(1.0, 2.0), False), (math.nextafter(1.0, 0.0), True)):
            q = ConvexPolygon([(x, 0), (2, 0), (2, 1), (x, 1)])
            assert exact_sat_intersects(UNIT_SQUARE, q) is hit

    def test_follows_the_regime_off_contact(self):
        for case in regime_cases(8, 20, 1, (Regime.DISTANT, Regime.OVERLAP)):
            assert exact_sat_intersects(case.p, case.q) is (case.regime is Regime.OVERLAP)

    def test_oracle_containment_is_nearer_the_truth_than_float_sat(self):
        # On exact-touching pairs the origin lies on the boundary of P - Q
        # up to rounding; `gjk2d check` judges the binary query by the
        # oracle's closed containment because it rounds that call less
        # often than the float SAT does.
        sat_wrong = oracle_wrong = 0
        for n, count in ((4, 60), (8, 60), (24, 20)):
            for case in regime_cases(n, count, 1, (Regime.TOUCHING,)):
                truth = exact_sat_intersects(case.p, case.q)
                closed = oracle_distance(case.p, case.q).intersecting
                sat_wrong += sat_intersects(case.p, case.q) is not truth
                oracle_wrong += closed is not truth
        assert oracle_wrong < sat_wrong, (oracle_wrong, sat_wrong)


class TestPointSegmentDistance:
    def test_perpendicular_foot(self):
        assert point_segment_distance(Vec2(0, 0), Vec2(1, -1), Vec2(1, 1)) == 1.0

    def test_clamps_to_endpoint(self):
        d = point_segment_distance(Vec2(0, 0), Vec2(1, 1), Vec2(2, 2))
        assert d == pytest.approx(math.sqrt(2.0))

    def test_point_on_segment(self):
        assert point_segment_distance(Vec2(0, 4), Vec2(-3, 4), Vec2(2, 4)) == 0.0

    def test_degenerate_segment(self):
        assert point_segment_distance(Vec2(0, 0), Vec2(3, 4), Vec2(3, 4)) == 5.0


class TestOracleDistance:
    def test_facing_edge_gap(self):
        report = oracle_distance(UNIT_SQUARE, FAR_SQUARE)
        assert report.distance == 2.0
        assert report.depth == 0.0

    def test_vertex_against_edge_interior(self):
        offset = rectangle(3, 0.5, 1, 1)
        report = oracle_distance(UNIT_SQUARE, offset)
        assert report.distance == 2.0

    def test_vertex_to_vertex_gap(self):
        a = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
        b = ConvexPolygon([(3, 0), (4, 0), (3, 1)])
        report = oracle_distance(a, b)
        assert report.distance == 2.0

    def test_overlap_reports_zero(self):
        report = oracle_distance(UNIT_SQUARE, UNIT_SQUARE)
        assert report.distance == 0.0
        assert report.intersecting

    def test_symmetry_exact(self):
        rng = random.Random(52)
        for _ in range(500):
            p = random_placed(rng, rng.choice([3, 5, 9]), 2.0)
            q = random_placed(rng, rng.choice([3, 5, 9]), 2.0)
            assert (
                oracle_distance(p, q).distance == oracle_distance(q, p).distance
            )

    def test_positive_iff_sat_disjoint(self):
        rng = random.Random(53)
        for _ in range(1000):
            p = random_placed(rng, rng.choice([3, 4, 8]), 1.5)
            q = random_placed(rng, rng.choice([3, 4, 8]), 1.5)
            report = oracle_distance(p, q)
            assert (report.distance > 0.0) == (not sat_intersects(p, q))
            assert (report.distance == 0.0) == report.intersecting


class TestCsoContainsOrigin:
    def test_strict_inside_for_overlapping_interiors(self):
        assert cso_contains_origin(UNIT_SQUARE, UNIT_SQUARE)

    def test_touching_is_boundary_only(self):
        corner = rectangle(1, 1, 1, 1)
        for q in (TOUCH_SQUARE, corner):
            report = oracle_distance(UNIT_SQUARE, q)
            assert (report.intersecting, report.distance, report.depth) == (True, 0.0, 0.0)
            assert not cso_contains_origin(UNIT_SQUARE, q)
        # the corner pair one ulp apart on both axes: P - Q has its corner
        # at (-ulp, -ulp), exactly, so no edge holds the origin any more
        x = math.nextafter(1.0, 2.0)
        apart = ConvexPolygon([(x, x), (2, x), (2, 2), (x, 2)])
        report = oracle_distance(UNIT_SQUARE, apart)
        assert (report.intersecting, report.distance, report.depth) == (
            False,
            math.sqrt(2.0) * (x - 1.0),
            0.0,
        )
        assert not cso_contains_origin(UNIT_SQUARE, apart)

    def test_distant_pair_excluded(self):
        assert not cso_contains_origin(UNIT_SQUARE, FAR_SQUARE)


class TestPenetrationDepth:
    """``OracleReport.depth``: how far the origin lies inside P - Q."""

    def test_squares(self):
        assert oracle_distance(UNIT_SQUARE, UNIT_SQUARE).depth == 1.0
        assert oracle_distance(UNIT_SQUARE, TOUCH_SQUARE).depth == 0.0
        shifted = rectangle(0.75, 0.25, 1, 1)
        assert oracle_distance(UNIT_SQUARE, shifted).depth == 0.25
        assert oracle_distance(shifted, UNIT_SQUARE).depth == 0.25

    @pytest.mark.parametrize("e", [1e-20, 6.8e-14], ids=["rounds-to-zero", "rounds-to-noise"])
    def test_tiny_edge_against_large_coordinates(self, e):
        # P - Q vertices near 1000 are spaced 1.1e-13 apart, so the P - Q
        # edge from P's tiny edge rounds to zero length or to direction
        # (1, 1), whose line passes through the origin
        p = ConvexPolygon([(0, 0), (2 * e, e), (1000, 700), (0, 1000)])
        q = ConvexPolygon([(2000, 0), (1000, 1000), (0, 0), (1000, -1000)])
        assert oracle_distance(p, q).intersecting
        depth = cso_origin_clearance(p, q)
        assert depth == pytest.approx(150 * math.sqrt(2), rel=1e-12)
        assert abs(oracle_distance(p, q).depth - depth) <= 1e-12 * depth
        assert abs(oracle_distance(q, p).depth - depth) <= 1e-12 * depth


class TestConvexHullHelper:
    def test_drops_interior_and_collinear_points(self):
        hull = convex_hull([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, 0)])
        assert [(v.x, v.y) for v in hull] == [(0, 0), (2, 0), (2, 2), (0, 2)]

    def test_output_is_valid_polygon(self):
        rng = random.Random(54)
        for _ in range(200):
            pts = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(30)]
            hull = convex_hull(pts)
            poly = ConvexPolygon(hull)
            for x, y in pts:
                from gjk2d.geometry import contains_point

                assert contains_point(poly, Vec2(x, y), tolerance=1e-9)


def lattice_polygon(points):
    """Hull of integer points as a polygon, or None when it is degenerate."""
    hull = convex_hull(points)
    return ConvexPolygon(hull) if len(hull) >= 3 else None


def assert_matches_brute(p, q):
    """The linear oracles agree with the brute O(n*m) references.

    Returns the linear ``OracleReport``.
    """
    assert cso_contains_origin(p, q) == brute_cso_contains_origin(p, q, strict=True)
    report = oracle_distance(p, q)
    assert report.intersecting == brute_cso_contains_origin(p, q)
    brute = brute_oracle_distance(p, q)
    d = report.distance
    assert abs(d - brute.distance) <= 1e-12 * max(1.0, brute.distance)
    assert oracle_distance(q, p).distance == d
    assert abs(report.depth - brute.depth) <= 1e-12 * max(1.0, brute.depth)
    return report


class TestAgainstBruteReferences:
    SIZES = (3, 4, 5, 8, 24, 64)

    def test_random_pairs_of_every_size(self):
        rng = random.Random(55)
        overlaps = []
        for n in self.SIZES:
            for m in self.SIZES:
                for _ in range(6 if max(n, m) == 64 else 25):
                    p = random_placed(rng, n, 1.5)
                    q = random_placed(rng, m, 1.5)
                    report = assert_matches_brute(p, q)
                    overlaps.append(report.distance == 0.0)
        assert any(overlaps) and not all(overlaps)

    def test_identical_translated_and_reflected_copies(self):
        rng = random.Random(56)
        for n in self.SIZES:
            for _ in range(5):
                p = random_placed(rng, n, 1.0)
                shift = (rng.uniform(-3, 3), rng.uniform(-3, 3))
                reflected = ConvexPolygon([(-x, -y) for x, y in zip(p.xs, p.ys)])
                for q in (
                    p,
                    apply_transform(p, 0.0, *shift),
                    reflected,
                    apply_transform(reflected, 0.0, *shift),
                ):
                    assert_matches_brute(p, q)
                assert cso_contains_origin(p, p)

    def test_lattice_pairs_with_exact_ties_and_contacts(self):
        # Integer coordinates keep every difference exact, so parallel edge
        # pairs tie exactly and shared edges or vertices touch exactly.
        rng = random.Random(57)
        for _ in range(300):
            p = lattice_polygon(
                [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 12))]
            )
            if p is None:
                continue
            dx, dy = rng.randint(-9, 9), rng.randint(-9, 9)
            for q in (
                ConvexPolygon([(x + dx, y + dy) for x, y in zip(p.xs, p.ys)]),
                ConvexPolygon([(dx - x, dy - y) for x, y in zip(p.xs, p.ys)]),
            ):
                assert_matches_brute(p, q)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=20),
        st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=20),
    )
    def test_hypothesis_lattice_pairs(self, p_points, q_points):
        p = lattice_polygon(p_points)
        q = lattice_polygon(q_points)
        if p is not None and q is not None:
            assert_matches_brute(p, q)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(SIZES),
        st.sampled_from(SIZES),
        st.floats(0.0, 3.0),
    )
    def test_hypothesis_random_pairs(self, seed, n, m, span):
        rng = random.Random(seed)
        assert_matches_brute(random_placed(rng, n, span), random_placed(rng, m, span))

    def test_touching_cases(self):
        for n in self.SIZES:
            for case in regime_cases(n, 4 if n < 64 else 2, 58, (Regime.TOUCHING,)):
                assert_matches_brute(case.p, case.q)


def test_oracles_are_independent_of_the_gjk_modules():
    tree = ast.parse(Path(gjk2d.baseline.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    forbidden = {"gjk", "subdistance", "support"}
    for name in imported:
        assert not forbidden & set(name.split(".")), name
