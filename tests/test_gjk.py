import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gjk2d.gjk
from gjk2d.baseline import oracle_distance, sat_intersects
from gjk2d.datasets import (
    DatasetSpec,
    Regime,
    derive_case_seed,
    make_pair,
    random_convex_polygon,
)
from gjk2d.geometry import (
    ConvexPolygon,
    Transform2,
    Vec2,
    apply_transform,
    contains_point,
)
from gjk2d.gjk import (
    CollisionExit,
    Termination,
    distance,
    intersects,
    witness_points,
)
from gjk2d.support import SimplexVertex

UNIT_SQUARE = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
FAR_SQUARE = ConvexPolygon([(3, 0), (4, 0), (4, 1), (3, 1)])


def random_pair(rng, n=None, span=3.0, m=None):
    n = n or rng.choice([3, 4, 8, 12, 16, 20, 24])
    a = random_convex_polygon(n, rng)
    b = random_convex_polygon(m or n, rng)
    ta = Transform2(rng.uniform(0, 7), Vec2(rng.uniform(-span, span), rng.uniform(-span, span)))
    tb = Transform2(rng.uniform(0, 7), Vec2(rng.uniform(-span, span), rng.uniform(-span, span)))
    return apply_transform(ta, a), apply_transform(tb, b)


def scaled(poly, factor):
    return ConvexPolygon((x * factor, y * factor) for x, y in poly.vertices)


class TestQueryConstants:
    def test_defaults(self):
        assert gjk2d.gjk._EPSILON == 1e-10
        assert gjk2d.gjk._MAX_ITERATIONS == 64
        for query in (distance, intersects):
            assert inspect.signature(query).parameters["use_hill_climbing"].default is True


class TestDistance:
    def test_axis_aligned_gap(self):
        res = distance(UNIT_SQUARE, FAR_SQUARE)
        assert res.distance == pytest.approx(2.0, abs=1e-12)
        assert res.witness_p.x == pytest.approx(1.0, abs=1e-12)
        assert res.witness_q.x == pytest.approx(3.0, abs=1e-12)
        assert (res.witness_p - res.witness_q).norm() == pytest.approx(2.0, abs=1e-12)

    def test_identical_squares_overlap(self):
        res = distance(UNIT_SQUARE, UNIT_SQUARE)
        assert res.distance == 0.0
        assert res.termination in (Termination.CONTAINS_ORIGIN, Termination.SIMPLEX_FULL)
        assert res.separating_vector == Vec2(0.0, 0.0)

    def test_result_invariants_on_random_pairs(self):
        rng = random.Random(31)
        for _ in range(2000):
            p, q = random_pair(rng)
            res = distance(p, q)
            oracle = oracle_distance(p, q).distance
            assert abs(res.distance - oracle) <= 1e-7 * max(1.0, oracle) + 1e-9
            assert res.distance == pytest.approx(
                res.separating_vector.norm(), abs=1e-12
            )
            if res.distance > 0:
                assert (res.witness_p - res.witness_q).norm() == pytest.approx(
                    res.distance, abs=1e-9
                )
            assert contains_point(p, res.witness_p, tolerance=1e-9)
            assert contains_point(q, res.witness_q, tolerance=1e-9)

    def test_monotone_descent(self):
        rng = random.Random(32)
        for _ in range(500):
            p, q = random_pair(rng)
            trace = []
            distance(p, q, norm_trace=trace)
            for earlier, later in zip(trace, trace[1:]):
                assert later <= earlier + 1e-12

    def test_symmetry(self):
        rng = random.Random(33)
        for _ in range(500):
            p, q = random_pair(rng)
            assert abs(distance(p, q).distance - distance(q, p).distance) <= 1e-9

    def test_rigid_invariance(self):
        rng = random.Random(34)
        for _ in range(300):
            p, q = random_pair(rng)
            base = distance(p, q).distance
            t = Transform2(rng.uniform(0, 7), Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5)))
            moved = distance(apply_transform(t, p), apply_transform(t, q)).distance
            assert abs(moved - base) <= 1e-7

    def test_hill_climbing_agrees_with_brute(self):
        rng = random.Random(35)
        for _ in range(500):
            p, q = random_pair(rng)
            assert distance(p, q, use_hill_climbing=False).distance == pytest.approx(
                distance(p, q, use_hill_climbing=True).distance, abs=1e-9
            )

    def test_max_iterations_reports_state(self, monkeypatch):
        rng = random.Random(36)
        p, q = random_pair(rng)
        while distance(p, q).iterations < 3:
            p, q = random_pair(rng)
        monkeypatch.setattr(gjk2d.gjk, "_MAX_ITERATIONS", 1)
        res = distance(UNIT_SQUARE, FAR_SQUARE)
        assert res.iterations == 1
        assert res.termination in (Termination.MAX_ITERATIONS, Termination.CONVERGED)
        assert res.distance >= 0.0
        # a pair that needs more iterations stops at the cap with its estimate
        res = distance(p, q)
        assert res.iterations == 1
        assert res.termination is Termination.MAX_ITERATIONS
        assert res.distance >= oracle_distance(p, q).distance


class TestIntersects:
    def test_distant_pair_exits_by_separating_hyperplane(self):
        res = intersects(UNIT_SQUARE, FAR_SQUARE)
        assert not res.colliding
        assert res.exit is CollisionExit.SEPARATING_HYPERPLANE
        assert res.support_calls <= distance(UNIT_SQUARE, FAR_SQUARE).support_calls

    def test_identical_squares_collide(self):
        res = intersects(UNIT_SQUARE, UNIT_SQUARE)
        assert res.colliding

    def test_exit_invariants(self):
        rng = random.Random(41)
        for _ in range(2000):
            p, q = random_pair(rng)
            res = intersects(p, q)
            sat = sat_intersects(p, q)
            oracle = oracle_distance(p, q).distance
            if res.exit is CollisionExit.SEPARATING_HYPERPLANE:
                assert not res.colliding
                assert oracle > 0.0
            if res.exit is CollisionExit.VERTICAL_ANGLE_ENCLOSURE:
                assert res.colliding
                assert sat
            if res.exit is CollisionExit.SUBDISTANCE_ENCLOSURE:
                assert res.colliding
            # binary agreement outside the touching knife edge
            if oracle == 0.0 or oracle > 1e-9:
                assert res.colliding == sat

    def test_vertical_angle_exit_occurs(self):
        # overlapping pairs should sometimes trigger the wedge exit; make
        # sure the code path is actually exercised
        rng = random.Random(42)
        seen = False
        for _ in range(500):
            p, q = random_pair(rng, span=0.5)
            res = intersects(p, q)
            if res.exit is CollisionExit.VERTICAL_ANGLE_ENCLOSURE:
                seen = True
                break
        assert seen

    def test_never_more_support_calls_than_distance(self):
        rng = random.Random(43)
        for hcs in (True, False):
            for _ in range(1000):
                p, q = random_pair(rng)
                assert (
                    intersects(p, q, use_hill_climbing=hcs).support_calls
                    <= distance(p, q, use_hill_climbing=hcs).support_calls
                )

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 256),
        st.integers(3, 256),
        st.sampled_from(["random", "identical", "translated"]),
        st.booleans(),
    )
    def test_hypothesis_support_bound_and_sat_agreement(
        self, seed, n, m, kind, hill_climbing
    ):
        rng = random.Random(seed)
        p, q = random_pair(rng, n, span=1.5, m=m)
        if kind == "identical":
            q = p
        elif kind == "translated":
            dx, dy = rng.uniform(-3, 3), rng.uniform(-3, 3)
            q = ConvexPolygon((x + dx, y + dy) for x, y in p.vertices)
        res = intersects(p, q, use_hill_climbing=hill_climbing)
        assert res.support_calls <= distance(p, q, use_hill_climbing=hill_climbing).support_calls
        oracle = oracle_distance(p, q).distance
        if oracle == 0.0 or oracle > 1e-9:
            assert res.colliding == sat_intersects(p, q)


class TestScale:
    @pytest.fixture(scope="class")
    def eight_gon_cases(self):
        spec = DatasetSpec(vertex_count=8, cases_per_regime=200, seed=5)
        return [
            make_pair(spec, regime, derive_case_seed(5, 8, regime, i))
            for regime in Regime
            for i in range(200)
        ]

    @pytest.mark.parametrize("factor", [1e-9, 1e-6])
    def test_small_scales_converge_to_the_oracle(self, eight_gon_cases, factor):
        # the answer scales with the input: relative error measured against
        # the polygons' size, which is about `factor`
        worst = 0.0
        for case in eight_gon_cases:
            p, q = scaled(case.p, factor), scaled(case.q, factor)
            res = distance(p, q)
            assert res.termination is not Termination.MAX_ITERATIONS
            worst = max(worst, abs(res.distance - oracle_distance(p, q).distance))
        assert worst <= 1e-7 * factor


class TestTouchingClassifier:
    def test_band_classification(self):
        # contact reads as a distance within 1e-9 of zero
        assert distance(UNIT_SQUARE, UNIT_SQUARE).distance <= 1e-9
        assert distance(UNIT_SQUARE, FAR_SQUARE).distance > 1e-9
        touching = ConvexPolygon([(1, 0), (2, 0), (2, 1), (1, 1)])
        assert distance(UNIT_SQUARE, touching).distance <= 1e-9


class TestWitnessPoints:
    def test_single_vertex(self):
        sv = SimplexVertex(Vec2(1, 2), Vec2(4, 5), Vec2(3, 3), 0, 0)
        wp, wq = witness_points([sv], [1.0])
        assert wp == Vec2(4, 5)
        assert wq == Vec2(3, 3)

    def test_symmetric_combination(self):
        a = SimplexVertex(Vec2(0, 0), Vec2(0, 0), Vec2(0, 0), 0, 0)
        b = SimplexVertex(Vec2(2, 2), Vec2(4, 0), Vec2(2, -2), 1, 1)
        wp, wq = witness_points([a, b], [0.5, 0.5])
        assert wp == Vec2(2, 0)
        assert wq == Vec2(1, -1)

    def test_difference_reconstructs_separating_vector(self):
        rng = random.Random(44)
        for _ in range(500):
            p, q = random_pair(rng)
            res = distance(p, q)
            if res.distance == 0.0:
                continue
            diff = res.witness_p - res.witness_q
            assert diff.x == pytest.approx(res.separating_vector.x, abs=1e-12)
            assert diff.y == pytest.approx(res.separating_vector.y, abs=1e-12)
