import hashlib
import inspect
import math
import random
from collections import Counter
from enum import Enum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gjk2d.gjk
import gjk2d.support
from gjk2d.baseline import oracle_distance, sat_intersects
from gjk2d.datasets import DatasetSpec, Regime, generate_dataset, random_convex_polygon
from gjk2d.geometry import (
    ConvexPolygon,
    PolygonError,
    Vec2,
    apply_transform,
    contains_point,
)
from gjk2d.gjk import (
    CollisionExit,
    CollisionResult,
    DistanceResult,
    Termination,
    distance,
    intersects,
    witness_points,
)
from gjk2d.subdistance import DegenerateTriangle, compute_barycode

from conftest import (
    SUPPORT_LAYERS,
    descent_trace,
    recorded_layers,
    second_portal_step,
    split_queries,
)
from corpora import (
    FAR_SQUARE,
    TOUCH_SQUARE,
    UNIT_SQUARE,
    assert_sound,
    check_band,
    parallel_edge_pairs,
    portal_corpus,
    random_pair,
    rectangle,
    regime_cases,
    regular_polygon,
    tie_rectangles,
    tie_regular_polygons,
    vertex,
)
from oracle_utils import exact_sat_intersects, reference_witness_points, sub, vertices


def scaled(poly, factor):
    return ConvexPolygon((x * factor, y * factor) for x, y in zip(poly.xs, poly.ys))


class TestQueryConstants:
    def test_defaults(self):
        assert gjk2d.gjk._EPSILON == 1e-10
        assert gjk2d.gjk._MAX_ITERATIONS == 64
        # the queries take no option but the paper's two variants; a trace
        # is read by rebinding the loop's layers (conftest.recorded_layers)
        for query in (distance, intersects):
            params = inspect.signature(query).parameters
            assert list(params) == ["p_poly", "q_poly", "use_hill_climbing"]
            assert params["use_hill_climbing"].default is True


class TestDistance:
    def test_axis_aligned_gap(self):
        res = distance(UNIT_SQUARE, FAR_SQUARE)
        assert res.distance == pytest.approx(2.0, abs=1e-12)
        assert res.witness_p.x == pytest.approx(1.0, abs=1e-12)
        assert res.witness_q.x == pytest.approx(3.0, abs=1e-12)
        assert math.dist(res.witness_p, res.witness_q) == pytest.approx(2.0, abs=1e-12)

    def test_identical_squares_overlap(self):
        res = distance(UNIT_SQUARE, UNIT_SQUARE)
        assert res.distance == 0.0
        assert res.termination is Termination.CONTAINS_ORIGIN
        assert res.separating_vector == Vec2(0.0, 0.0)

    def test_result_invariants_on_random_pairs(self):
        rng = random.Random(31)
        for _ in range(2000):
            p, q = random_pair(rng)
            res = distance(p, q)
            oracle = oracle_distance(p, q).distance
            assert abs(res.distance - oracle) <= check_band(oracle)
            assert res.distance == pytest.approx(
                math.hypot(*res.separating_vector), abs=1e-12
            )
            if res.distance > 0:
                assert math.dist(res.witness_p, res.witness_q) == pytest.approx(
                    res.distance, abs=1e-9
                )
            assert contains_point(p, res.witness_p, tolerance=1e-9)
            assert contains_point(q, res.witness_q, tolerance=1e-9)

    def test_monotone_descent(self):
        rng = random.Random(32)
        for _ in range(500):
            p, q = random_pair(rng)
            with recorded_layers() as calls:
                distance(p, q)
            trace = descent_trace(calls)
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
            motion = (rng.uniform(0, 7), rng.uniform(-5, 5), rng.uniform(-5, 5))
            moved = distance(apply_transform(p, *motion), apply_transform(q, *motion)).distance
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

    def test_every_triangle_solve_keeps_the_new_point(self, monkeypatch):
        # The loop's s2d(w, a, b) gets w, found along -v with v the closest
        # point of (a, b), and GJK's lemma puts w in the new minimum
        # simplex: every answer holds it, and every certified code is 4 to
        # 7, the only ones s2d solves. A three-vertex answer is code 7,
        # whose v is exactly the origin, so ContainsOrigin ends the query
        # and no simplex is ever full, however tight the tolerance: the
        # last set runs at 1e-14, where touching pair 115 has an
        # uncertified code 7 whose barycentric point lies farther from the
        # origin than 1e-14 * max|w|. The portal corpus holds
        # tie_rectangles(1000). The hand pair's portal triangle misses the
        # origin, so both queries reach the triangle solve.
        generated = [
            (case.p, case.q)
            for n in (3, 4, 6, 8, 16, 32, 64)
            for case in generate_dataset(DatasetSpec(n, 20, 5))
        ]
        sets = {
            "generated": generated,
            "portal": portal_corpus(),
            "hand": [(UNIT_SQUARE, ConvexPolygon([(0.8, 1.1), (0.9, 0.9), (2.5, 0.3)]))],
            "tight": [(case.p, case.q) for case in generate_dataset(DatasetSpec(64, 116, 11))],
        }
        for k in (-280, 280):
            factor = 2.0**k
            sets[k] = [(scaled(p, factor), scaled(q, factor)) for p, q in generated]
        codes = Counter()
        for name, pairs in sets.items():
            with monkeypatch.context() as m:
                if name == "tight":
                    m.setattr(gjk2d.gjk, "_EPSILON", 1e-14)
                with recorded_layers() as recorded:
                    for p, q in pairs:
                        list(queries(p, q))
            solves = [(args, out) for layer, args, out in recorded if layer == "s2d"]
            assert solves, name
            for (w, a, b), (verts, _, vx, vy) in solves:
                assert any(v is w for v in verts), (name, w, a, b)
                try:
                    code = compute_barycode(w.w, a.w, b.w)[0]
                except DegenerateTriangle:
                    code = "rejected"
                assert code in (4, 5, 6, 7, "rejected"), (name, w, a, b)
                assert len(verts) < 3 or (vx, vy) == (0.0, 0.0), (name, w, a, b)
                codes[code] += 1
        assert all(codes[code] for code in (4, 5, 6, 7)), codes

    def test_tight_epsilon_never_fills_the_simplex(self, monkeypatch):
        # The public side of the invariant above: a triangle solve keeps
        # three vertices only for a certified code 7 and then answers
        # v = 0, so ContainsOrigin ends the query however tight the
        # tolerance, and no query reports SimplexFull. An uncertified
        # code 7 on touching pair 115 of this set has a barycentric point
        # farther from the origin than 1e-14 * max|w|.
        monkeypatch.setattr(gjk2d.gjk, "_EPSILON", 1e-14)
        for case in generate_dataset(DatasetSpec(64, 116, 11)):
            for hcs in (True, False):
                res = distance(case.p, case.q, use_hill_climbing=hcs)
                assert res.termination is not Termination.SIMPLEX_FULL, (case.seed, hcs)


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

    def test_first_support_exit_is_exactly_sound(self):
        # An exit after zero iterations is a test on the first support point
        # alone: the separating test, which on contact pairs may only fire
        # where the exact rational SAT finds the pair disjoint, or the
        # ContainsOrigin test, which fires only on a point exactly at the
        # origin, where the exact SAT finds the pair intersecting. The exact
        # SAT runs only on the pairs that exit there.
        fired = {CollisionExit.SEPARATING_HYPERPLANE: 0, CollisionExit.SUBDISTANCE_ENCLOSURE: 0}
        for n, count in ((4, 60), (8, 60), (24, 20), (64, 20)):
            for case in regime_cases(n, count, 1, (Regime.TOUCHING, Regime.OVERLAP)):
                with recorded_layers() as recorded:
                    res = intersects(case.p, case.q)
                if res.iterations == 0:
                    assert res.exit in fired, res
                    fired[res.exit] += 1
                    if res.exit is CollisionExit.SEPARATING_HYPERPLANE:
                        assert not res.colliding
                        assert not exact_sat_intersects(case.p, case.q), (n, case.seed)
                    else:
                        first = next(out for name, _, out in recorded if name in SUPPORT_LAYERS)
                        assert (first[0], first[1]) == (0.0, 0.0)
                        assert res.colliding
                        assert exact_sat_intersects(case.p, case.q), (n, case.seed)
        assert all(fired.values()), fired

    @pytest.mark.parametrize("n", [4, 8, 24, 64])
    def test_distant_pairs_exit_on_the_first_support_point(self, n):
        for case in regime_cases(n, 30, 6, Regime):
            for hcs in (True, False):
                res = intersects(case.p, case.q, use_hill_climbing=hcs)
                dist = distance(case.p, case.q, use_hill_climbing=hcs)
                assert res.support_calls <= dist.support_calls
                assert res.support_calls == res.iterations + 1
                if case.regime is Regime.DISTANT:
                    assert res.exit is CollisionExit.SEPARATING_HYPERPLANE
                    assert (res.support_calls, res.iterations) == (1, 0)
                    assert not res.colliding

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
            q = ConvexPolygon((x + dx, y + dy) for x, y in zip(p.xs, p.ys))
        res = intersects(p, q, use_hill_climbing=hill_climbing)
        assert res.support_calls <= distance(p, q, use_hill_climbing=hill_climbing).support_calls
        oracle = oracle_distance(p, q).distance
        if oracle == 0.0 or oracle > 1e-9:
            assert res.colliding == sat_intersects(p, q)


def portal_calls(p, q, hcs):
    """``intersects(p, q)`` and its first three recorded layer outputs:
    ``(result, d0, w1, w2, portal)``, where ``portal`` says whether the
    second support call searched along another direction than -w1. ``w2``
    is None after one support call."""
    with recorded_layers() as recorded:
        res = intersects(p, q, use_hill_climbing=hcs)
    d0 = next(out for name, _, out in recorded if name == "initial_direction")
    calls = [(args, out) for name, args, out in recorded if name in SUPPORT_LAYERS]
    w1 = calls[0][1]
    if len(calls) == 1:
        return res, d0, w1, None, False
    args, w2 = calls[1]
    return res, d0, w1, w2, (args[2], args[3]) != (-w1[0], -w1[1])


def distance_portal_exit(p, q, hcs):
    """``distance(p, q)`` and whether it ended on a portal triangle: in
    contact with no solve, after two support calls, or three after the
    second portal step."""
    with recorded_layers() as recorded:
        res = distance(p, q, use_hill_climbing=hcs)
    solved = any(name in ("s1d", "s2d") for name, _, _ in recorded)
    contact = res.termination is Termination.CONTAINS_ORIGIN
    return res, contact and res.support_calls in (2, 3) and not solved


def reflected(u, w):
    """u reflected in the line through the origin perpendicular to w, that
    is -u reflected in the line through the origin and w."""
    scale = 2.0 * (u[0] * w[0] + u[1] * w[1]) / (w[0] * w[0] + w[1] * w[1])
    return (u[0] - scale * w[0], u[1] - scale * w[1])


def parallel(a, b):
    """a and b point the same way, to within rounding."""
    along = a[0] * b[0] + a[1] * b[1]
    return along > 0.0 and 1.0 - along / (math.hypot(*a) * math.hypot(*b)) <= 1e-12


def portal_direction(a, n, side, d0):
    """The portal step's search direction from support point a with outward
    normal n, on a portal of orientation ``side`` = cross(d0, a), and the
    branch that gives it, by the rule in ``_gjk``'s docstring: ``reflected``
    (-n reflected in the line through the origin and a, up to length) or
    ``normal`` (of the line through d0 and a, on the origin's side)."""
    cross = a[0] * n[1] - a[1] * n[0]
    if cross != 0.0 and abs(cross) >= n[0] * a[0] + n[1] * a[1]:
        return "reflected", reflected(n, a)
    if side > 0.0:
        return "normal", (d0[1] - a[1], a[0] - d0[0])
    return "normal", (a[1] - d0[1], d0[0] - a[0])


class TestPortalStep:
    # The portal step, whose rule ``_gjk``'s docstring states once: from
    # (w1, -d0) when w1 does not separate and the origin is off the line
    # through d0 and w1, then once more from (w2, m) when w2 lands short of
    # the contact, each ending both queries on its triangle when that
    # encloses the origin.

    def test_second_call_searches_along_d0_reflected_in_w1(self):
        # The second call is the first step's, (a, n) = (w1, -d0), or -w1
        # without a portal step. The third is the second step's, (a, n) =
        # (w2, m), exactly when w2 misses triangle (d0, w1, w2) on w1's side
        # of the ray from d0 through the origin, m.w2 >= 0 and w2 has its
        # own vertex pair; any other third call searches along -v of the
        # solved segment (w1, w2). After a second step, a fourth call
        # searches along -v of the solved segment (w3, w2): no third step.
        pairs = portal_corpus()
        for n in (4, 8, 24):
            pairs += [(c.p, c.q) for c in generate_dataset(DatasetSpec(n, 50, 3))]
        taken = dict.fromkeys(
            ("reflected", "normal", "minus w1", "second reflected", "second normal", "minus v"), 0
        )
        after_second = 0
        for p, q in pairs:
            for hcs in (True, False):
                for query in (distance, intersects):
                    with recorded_layers() as recorded:
                        query(p, q, use_hill_climbing=hcs)
                    d0, = [out for name, _, out in recorded if name == "initial_direction"]
                    calls = [(args, out) for name, args, out in recorded if name in SUPPORT_LAYERS]
                    if len(calls) < 2:
                        continue
                    d0x, d0y = d0
                    w1, w2 = calls[0][1], calls[1][1]
                    m = calls[1][0][2:4]
                    w1x, w1y, w2x, w2y = w1[0], w1[1], w2[0], w2[1]
                    side = d0x * w1y - d0y * w1x
                    where = (vertices(p), vertices(q), hcs, query.__name__)
                    if d0x * w1x + d0y * w1y > 0.0 or side == 0.0:
                        taken["minus w1"] += 1
                        assert m == (-w1x, -w1y), where
                        assert not second_portal_step(recorded), where
                        continue
                    branch, expected = portal_direction(w1, (-d0x, -d0y), side, d0)
                    taken[branch] += 1
                    assert (
                        parallel(m, expected) if branch == "reflected" else m == expected
                    ), where
                    turns = (side, w1x * w2y - w1y * w2x, w2x * d0y - w2y * d0x)
                    enclosed = all(t > 0.0 for t in turns) or all(t < 0.0 for t in turns)
                    short = (
                        not enclosed
                        and (turns[2] < 0.0 if side > 0.0 else turns[2] > 0.0)
                        and m[0] * w2x + m[1] * w2y >= 0.0
                        and w2[2:] != w1[2:]
                    )
                    assert second_portal_step(recorded) == short, where
                    if len(calls) < 3:
                        continue
                    u = calls[2][0][2:4]
                    if not short:
                        taken["minus v"] += 1
                        _, _, vx, vy = next(out for name, _, out in recorded if name == "s1d")
                        assert u == (-vx, -vy), where
                        continue
                    branch, expected = portal_direction(w2, m, d0x * w2y - d0y * w2x, d0)
                    taken["second " + branch] += 1
                    assert (
                        parallel(u, expected) if branch == "reflected" else u == expected
                    ), where
                    if len(calls) < 4:
                        continue
                    after_second += 1
                    args, (_, _, vx, vy) = next(
                        (args, out) for name, args, out in recorded if name == "s1d"
                    )
                    assert args == (calls[2][1], w2), where
                    assert calls[3][0][2:4] == (-vx, -vy), where
        assert all(taken.values()), taken
        assert after_second, taken

    @pytest.mark.parametrize("n, most", [(32, 2.8), (128, 4.0), (512, 5.5)])
    def test_touching_pairs_take_fewer_support_calls(self, n, most):
        # Near a touching contact the boundary of P - Q is locally a circle,
        # on which d0 reflected in w1 hits the contact itself, while the
        # normal of line (d0, w1) is nearly tangent there. When w2 still
        # lands short, the second portal step aims once more from w2. The
        # bounds sit between the two steps' 2.63 / 3.45 / 4.75 intersects
        # calls and one step's 3.00 / 4.70 / 6.33 at n = 32 / 128 / 512 (the
        # normal alone took 4.83 / 7.42 / 9.38).
        touching = regime_cases(n, 40, 5, (Regime.TOUCHING,))
        for hcs in (True, False):
            calls = 0
            for case in touching:
                _, _, hit = assert_sound(case.p, case.q, False, hcs)
                calls += hit.support_calls
                if n == 32 and not hit.colliding:
                    assert not exact_sat_intersects(case.p, case.q), case.seed
            assert calls / len(touching) <= most, hcs

    @pytest.mark.parametrize("n", [4, 8, 24, 64])
    def test_overlap_pairs_close_in_two_support_calls(self, n):
        overlap = [c for c in generate_dataset(DatasetSpec(n, 50, 3)) if c.regime is Regime.OVERLAP]
        for hcs in (True, False):
            results = [intersects(c.p, c.q, use_hill_climbing=hcs) for c in overlap]
            assert all(res.colliding for res in results)
            assert sum(res.support_calls for res in results) / len(results) <= 2.05, hcs
            results = [distance(c.p, c.q, use_hill_climbing=hcs) for c in overlap]
            assert all(res.distance == 0.0 for res in results)
            assert sum(res.support_calls for res in results) / len(results) <= 2.05, hcs

    def test_distance_ends_on_the_portal_triangle_when_intersects_does(self):
        # The enclosure tests are shared, so distance ends on a portal
        # triangle exactly when intersects ends there, on VerticalAngleEnclosure
        # with no solve: (d0, w1, w2) at iteration 1, or (d0, w2, w3) at
        # iteration 2 after the second portal step (the loop's own
        # vertical-angle test needs a solved segment). The answer is
        # contact, with barycentric witnesses of the origin in that triangle
        # that lie in their polygons and coincide.
        pairs = portal_corpus()
        for n in (4, 8, 24):
            pairs += [(c.p, c.q) for c in generate_dataset(DatasetSpec(n, 50, 3))]
        ended = {1: 0, 2: 0}
        for p, q in pairs:
            for hcs in (True, False):
                res, portal = distance_portal_exit(p, q, hcs)
                with recorded_layers() as recorded:
                    hit = intersects(p, q, use_hill_climbing=hcs)
                solved = any(name in ("s1d", "s2d") for name, _, _ in recorded)
                enclosure = hit.exit is CollisionExit.VERTICAL_ANGLE_ENCLOSURE and not solved
                assert portal == enclosure, (vertices(p), vertices(q))
                if not portal:
                    continue
                ended[res.iterations] += 1
                assert res.iterations == hit.iterations
                assert second_portal_step(recorded) == (hit.iterations == 2)
                assert res.distance == 0.0
                assert res.separating_vector is gjk2d.gjk._ZERO_VECTOR
                wp, wq = res.witness_p, res.witness_q
                assert contains_point(p, wp, tolerance=1e-9), (vertices(p), wp)
                assert contains_point(q, wq, tolerance=1e-9), (vertices(q), wq)
                assert math.hypot(wp.x - wq.x, wp.y - wq.y) <= 1e-12, (wp, wq)
        assert all(ended.values()), ended

    def test_portal_exits_are_exactly_sound(self):
        # Enclosure: the origin strictly inside (d0, w1, w2), or (d0, w2, w3)
        # after the second portal step, by exact orientations of the
        # doubles. Separation: the exact SAT finds the pair disjoint.
        pairs = portal_corpus(touching=100)
        fired = dict.fromkeys(
            (
                (step, exit)
                for step in (1, 2)
                for exit in (
                    CollisionExit.SEPARATING_HYPERPLANE, CollisionExit.VERTICAL_ANGLE_ENCLOSURE,
                )
            ),
            0,
        )
        for p, q in pairs:
            for hcs in (True, False):
                res, d0, w1, w2, portal = portal_calls(p, q, hcs)
                with recorded_layers() as recorded:
                    intersects(p, q, use_hill_climbing=hcs)
                second = second_portal_step(recorded)
                if res.iterations == 1 and res.exit is CollisionExit.VERTICAL_ANGLE_ENCLOSURE:
                    # at iteration 1 the simplex has one vertex, so only the
                    # portal's triangle test can end there this way
                    assert portal
                if not portal or (res.exit, res.iterations) not in (
                    (exit, 1 + second) for _, exit in fired
                ):
                    continue
                fired[1 + second, res.exit] += 1
                if second:
                    w3 = [out for name, _, out in recorded if name in SUPPORT_LAYERS][2]
                    corners = (d0, w2, w3)
                else:
                    corners = (d0, w1, w2)
                if res.exit is CollisionExit.VERTICAL_ANGLE_ENCLOSURE:
                    a, b, c = [(Fraction(x), Fraction(y)) for x, y, *_ in corners]
                    turns = [u[0] * v[1] - u[1] * v[0] for u, v in ((a, b), (b, c), (c, a))]
                    assert all(t > 0 for t in turns) or all(t < 0 for t in turns), corners
                    assert res.colliding
                else:
                    assert not res.colliding
                    assert not exact_sat_intersects(p, q), (vertices(p), vertices(q))
        assert all(fired.values()), fired

    def test_origin_on_the_portal_line_takes_the_minus_w1_call(self):
        # Unit squares side by side along x: d0 = (-0.5, 0) or (0.5, 0) and
        # w1 lies inside the edge of P - Q on the x axis, so the second call
        # searches along -w1 as before the portal step, and the segment
        # (w1, w2) through the origin ends both queries after two calls.
        for dx in (0.5, -0.5):
            q = rectangle(dx, 0, 1, 1)
            for hcs in (True, False):
                res, d0, w1, _, portal = portal_calls(UNIT_SQUARE, q, hcs)
                assert d0 == (-dx, 0.0) and w1[1] == 0.0, (d0, w1)
                assert not portal
                assert (res.support_calls, res.exit) == (2, CollisionExit.SUBDISTANCE_ENCLOSURE)
                dist = distance(UNIT_SQUARE, q, use_hill_climbing=hcs)
                assert (dist.support_calls, dist.termination) == (2, Termination.CONTAINS_ORIGIN)

    def test_concentric_polygons_collide(self):
        # Equal centroids make initial_direction fall back to (1, 0), which
        # is no point of these small P - Q; the origin is one, so an
        # enclosure verdict cannot be wrong, and every verdict is colliding.
        square = rectangle(-0.25, -0.25, 0.5, 0.5)
        diamond = ConvexPolygon([(0.3, 0.0), (0.0, 0.3), (-0.3, 0.0), (0.0, -0.3)])
        rng = random.Random(17)
        pairs = [(square, diamond), (diamond, square), (square, square)]
        for _ in range(50):
            a = random_convex_polygon(rng.choice([3, 4, 8, 24]), rng)
            a = ConvexPolygon((0.25 * x, 0.25 * y) for x, y in zip(a.xs, a.ys))
            pairs.append((a, a))
        ended = 0
        for p, q in pairs:
            assert gjk2d.gjk.initial_direction(p, q) == (1.0, 0.0)
            assert max(p.xs) - min(q.xs) < 1.0
            for hcs in (True, False):
                assert intersects(p, q, use_hill_climbing=hcs).colliding
                res, portal = distance_portal_exit(p, q, hcs)
                assert res.distance == 0.0
                if portal:
                    # the origin is cP - cQ itself, whatever (1, 0) says
                    ended += 1
                    assert (res.witness_p, res.witness_q) == (p.centroid, q.centroid)
        assert ended > len(pairs)


class TestSupportVariants:
    # The paper's two variants: hill-climbing support that never scans
    # (_cso_support_xy, whose cold calls climb from the polygons' starts),
    # and the scan, one _argmax_index per polygon (_cso_scan_xy).
    @pytest.mark.parametrize(
        "kwargs,scans_per_call",
        [({}, 0), ({"use_hill_climbing": False}, 2)],
        ids=["default-climbs", "brute-scans"],
    )
    def test_each_variant_uses_only_its_support(self, monkeypatch, kwargs, scans_per_call):
        scans = 0
        argmax = gjk2d.support._argmax_index

        def counting(*args):
            nonlocal scans
            scans += 1
            return argmax(*args)

        monkeypatch.setattr(gjk2d.support, "_argmax_index", counting)
        rng = random.Random(37)
        pairs = [random_pair(rng, span=1.5) for _ in range(200)]
        pairs += [(UNIT_SQUARE, UNIT_SQUARE), (UNIT_SQUARE, FAR_SQUARE)]
        support_calls = 0
        for p, q in pairs:
            support_calls += distance(p, q, **kwargs).support_calls
            support_calls += intersects(p, q, **kwargs).support_calls
        assert scans == scans_per_call * support_calls


class TestClimbStarts:
    # The loop holds no start rule: every support call passes no warm pair,
    # and a cold climb picks its own start
    # (tests/test_support.py::TestColdStart).

    def test_each_call_starts_where_the_rule_says(self):
        rng = random.Random(61)
        pairs = [random_pair(rng, span=rng.choice([0.5, 1.5, 3.0])) for _ in range(300)]
        # integer rectangles tie along the axes
        pairs += tie_rectangles(count=300, seed=62)
        for hcs in (True, False):
            calls = 0
            for p, q in pairs:
                for query in (distance, intersects):
                    with recorded_layers() as recorded:
                        res = query(p, q, use_hill_climbing=hcs)
                    support = [args for name, args, _ in recorded if name in SUPPORT_LAYERS]
                    assert len(support) == res.support_calls
                    assert all(warm is None for _, _, _, _, warm in support)
                    calls += len(support)
            assert calls > 2 * len(pairs)


class TestTieCorpus:
    # Exactly tied support vertices, where the start of a climb picks the
    # tied vertex it stops on. Mean support calls per query, with every
    # climb from the vertex pair (0, 0) and then from the previous answer:
    # rectangles 2.58275 (distance) and 1.463 (intersects), regular
    # polygons 2.0 and 1.625. The starts' tie rule may cost at most 0.1.
    VERTEX_ZERO_MEANS = {"tie_rectangles": (2.58275, 1.463), "tie_regular_polygons": (2.0, 1.625)}

    @pytest.mark.parametrize(
        "corpus", [tie_rectangles, tie_regular_polygons], ids=lambda f: f.__name__
    )
    def test_no_max_iterations_and_calls_near_the_vertex_zero_start(self, corpus):
        pairs = corpus()
        calls_d = calls_i = 0
        for p, q in pairs:
            _, d, hit = assert_sound(p, q)
            calls_d += d.support_calls
            calls_i += hit.support_calls
        want_d, want_i = self.VERTEX_ZERO_MEANS[corpus.__name__]
        assert calls_d / len(pairs) <= want_d + 0.1
        assert calls_i / len(pairs) <= want_i + 0.1


def scaled_result(res, factor):
    """``res`` with every length field multiplied by ``factor``."""
    if isinstance(res, CollisionResult):
        return res
    d, wp, wq, sv, *counters = res
    return DistanceResult(
        d * factor,
        Vec2(wp.x * factor, wp.y * factor),
        Vec2(wq.x * factor, wq.y * factor),
        Vec2(sv.x * factor, sv.y * factor),
        *counters,
    )


def queries(p, q):
    for hcs in (True, False):
        yield distance(p, q, use_hill_climbing=hcs)
        yield intersects(p, q, use_hill_climbing=hcs)


class TestScale:
    # Every exit test is relative to the query's own support points, so an
    # answer must not depend on the unit the polygons are written in.

    @pytest.fixture(scope="class")
    def eight_gon_cases(self):
        return regime_cases(8, 200, 5, Regime)

    @pytest.mark.parametrize(
        "factor", [1e-12, 1e-11, 1e-9, 1e-6, 1e6, 1e9, 1e12], ids=lambda f: f"{f:g}"
    )
    def test_small_scales_converge_to_the_oracle(self, eight_gon_cases, factor):
        # the answer scales with the input: relative error measured against
        # the polygons' size, which is about `factor`
        worst = 0.0
        for case in eight_gon_cases:
            p, q = scaled(case.p, factor), scaled(case.q, factor)
            # touching pairs sit on the knife edge where the verdict may differ
            report, res, _ = assert_sound(p, q, case.regime is not Regime.TOUCHING, scale=factor)
            worst = max(worst, abs(res.distance - report.distance))
        assert worst <= 1e-7 * factor

    @pytest.mark.parametrize("offset", [1e3, 1e6], ids=lambda t: f"{t:g}")
    def test_translations_keep_the_distance(self, eight_gon_cases, offset):
        # moving both polygons by `offset` rounds every coordinate to the
        # spacing of doubles near `offset`, about 1e-16 * offset
        worst = 0.0
        for case in eight_gon_cases[::3]:
            p = ConvexPolygon((x + offset, y - offset) for x, y in zip(case.p.xs, case.p.ys))
            q = ConvexPolygon((x + offset, y - offset) for x, y in zip(case.q.xs, case.q.ys))
            res = distance(p, q)
            assert res.termination is not Termination.MAX_ITERATIONS
            worst = max(worst, abs(res.distance - oracle_distance(case.p, case.q).distance))
        assert worst <= 1e-15 * offset

    def test_power_of_two_scaling_is_exact(self, monkeypatch):
        # multiplying by 2**k is exact, so every length in every answer
        # scales bit for bit and every counter, exit and verdict is unchanged;
        # a cap of one iteration adds MaxIterations exits, whose intersects
        # verdict is the containment test on the last v
        cases = [case for n in (3, 4, 8, 24) for case in regime_cases(n, 10, 5, Regime)]
        for cap in (64, 1):
            monkeypatch.setattr(gjk2d.gjk, "_MAX_ITERATIONS", cap)
            for case in cases:
                base = list(queries(case.p, case.q))
                for k in (-40, -20, 20, 40):
                    factor = 2.0**k
                    moved = queries(scaled(case.p, factor), scaled(case.q, factor))
                    assert list(moved) == [scaled_result(res, factor) for res in base], (cap, k)

    def test_extreme_power_of_two_scales_are_exact(self):
        # Near MAX_COORDINATE = 2**500 a product of three coordinates
        # overflows, and near 2**-300 one of four underflows, so every
        # search direction, both portal steps' reflections included, is
        # formed at degree 1 in the coordinates: each answer scales bit for
        # bit and every counter, exit and verdict is unchanged. Some of
        # these queries take the second portal step at each scale.
        second = {490: 0, -300: 0}
        for n in (4, 8, 24):
            for case in generate_dataset(DatasetSpec(n, 100, 3)):
                base = list(queries(case.p, case.q))
                for k in second:
                    factor = 2.0**k
                    with recorded_layers() as recorded:
                        moved = list(queries(scaled(case.p, factor), scaled(case.q, factor)))
                    assert moved == [scaled_result(res, factor) for res in base], (
                        k, vertices(case.p), vertices(case.q),
                    )
                    second[k] += sum(map(second_portal_step, split_queries(recorded)))
        assert all(second.values()), second

    def test_intersects_is_unchanged_by_extreme_power_of_two_scales(self):
        # Crosses of coordinates near 2**-280 are about 2**-560: their
        # product underflows to zero, so the enclosure tests compare the
        # signs of the crosses, never their product, both portal steps'
        # included. Scaling by 2**k is exact, so every verdict and every
        # support call must stay. Some of these queries take the second
        # portal step at each scale.
        second = {-280: 0, -300: 0, 280: 0}
        for n in (4, 8, 24):
            for case in generate_dataset(DatasetSpec(n, 100, 3)):
                for hcs in (True, False):
                    base = intersects(case.p, case.q, use_hill_climbing=hcs)
                    for k in second:
                        factor = 2.0**k
                        p, q = scaled(case.p, factor), scaled(case.q, factor)
                        with recorded_layers() as recorded:
                            res = intersects(p, q, use_hill_climbing=hcs)
                        assert (res.colliding, res.support_calls) == (
                            base.colliding, base.support_calls,
                        ), (k, hcs, vertices(case.p), vertices(case.q))
                        second[k] += second_portal_step(recorded)
        assert all(second.values()), second

    def test_underflowing_scales_are_rejected_or_answered(self):
        # Below about 1e-153 the turns of a unit-sized polygon fall under the
        # smallest normal double and the polygon is rejected; above it, every
        # answer must pass `gjk2d check`'s band scaled with the polygons.
        # Accepting such polygons gave wrong distances at 1e-159..1e-161.
        cases = [
            (case, oracle_distance(case.p, case.q).distance, sat_intersects(case.p, case.q))
            for n in (3, 4, 8, 24)
            for case in regime_cases(n, 20, 5, Regime)
        ]
        accepted = set()
        for e in range(140, 167):
            factor = 7e-166 if e == 166 else 10.0**-e
            for case, oracle, sat in cases:
                try:
                    p, q = scaled(case.p, factor), scaled(case.q, factor)
                except PolygonError:
                    continue
                accepted.add(e)
                err = abs(distance(p, q).distance - oracle * factor)
                assert err <= check_band(oracle) * factor, (factor, case.seed)
                if case.regime is not Regime.TOUCHING:
                    assert intersects(p, q).colliding == sat, (factor, case.seed)
        assert min(accepted) == 140 and max(accepted) < 159

    def test_parallel_edge_lattice_pairs_do_not_reach_the_cap(self):
        # translated copies of one polygon and integer rectangles have
        # parallel edges, so support points are often collinear with the
        # simplex; the progress test must still fire
        for p, q in parallel_edge_pairs():
            for hcs in (True, False):
                report, res, _ = assert_sound(p, q, False, hcs)
                assert abs(res.distance - report.distance) <= 1e-12 * max(1.0, report.distance)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["triangles", "slivers"]),
        st.integers(-60, 60),
    )
    def test_hypothesis_slivers_and_triangles_at_power_of_two_scales(self, seed, kind, k):
        rng = random.Random(seed)
        if kind == "triangles":
            p, q = random_pair(rng, 3, span=1.5)
        else:
            # squashing by a power of two keeps strict convexity exactly;
            # the rigid motions afterwards tilt the slivers apart
            squash = 2.0 ** -rng.randint(10, 24)
            p, q = (
                apply_transform(
                    ConvexPolygon(
                        (x, y * squash)
                        for x, y in vertices(random_convex_polygon(rng.randint(3, 8), rng))
                    ),
                    rng.uniform(0, 7),
                    rng.uniform(-1, 1),
                    rng.uniform(-1, 1),
                )
                for _ in range(2)
            )
        base = list(queries(p, q))
        oracle = oracle_distance(p, q).distance
        for res in base[::2]:
            assert res.termination is not Termination.MAX_ITERATIONS
            assert abs(res.distance - oracle) <= check_band(oracle)
        factor = 2.0**k
        moved = list(queries(scaled(p, factor), scaled(q, factor)))
        assert moved == [scaled_result(res, factor) for res in base]


class TestHugePolygons:
    # Huge inputs pass the shared soundness check; binary verdicts are
    # judged off the contact knife edge.
    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
    def test_generated_pairs(self, n, regime):
        case, = regime_cases(n, 1, 1, (regime,))
        assert len(case.p) == len(case.q) == n
        assert_sound(case.p, case.q, regime is not Regime.TOUCHING)

    @pytest.mark.parametrize("n", [16384, 65536])
    @pytest.mark.parametrize(
        "separation", [3.0, 2.0, 1.0], ids=["distant", "near-contact", "overlap"]
    )
    def test_regular_rings(self, n, separation):
        # Unit circumradius at random phases: centres 2 apart leave a gap of
        # at most (pi / n)**2, the two polygons' sagittas, far below 1e-6.
        rng = random.Random(n)
        phi = rng.uniform(0.0, 2 * math.pi)
        p = regular_polygon(n, (0.0, 0.0), rng.uniform(0.0, 1.0))
        center = (separation * math.cos(phi), separation * math.sin(phi))
        q = regular_polygon(n, center, rng.uniform(0.0, 1.0))
        report, _, _ = assert_sound(p, q, separation != 2.0)
        if separation == 2.0:
            assert 0.0 <= report.distance < 1e-6


class TestGolden:
    # sha256 over every field of every result of one query on the make_pair
    # cases below, with floats as float.hex: any change to an answer, a
    # counter or an exit, in the last bit, changes it. The first-support
    # separating exit moved only the intersects digest, and edge-relative
    # region codes only the witness points of ContainsOrigin answers. The
    # first-point ContainsOrigin test moved only the exact vertex contacts:
    # 22 answers per query, from Converged after two support calls to
    # ContainsOrigin (SubdistanceEnclosure) after one, every other field
    # the same. The portal step moved overlap and touching answers only:
    # 152 overlap and 58 touching distance answers (witness points and
    # counters; no distance or termination) and 160 overlap and 52
    # touching intersects answers (counters only). The distance query's own
    # exit on the portal triangle moved the 160 overlap distance answers
    # (witness points and counters; no distance or termination). Aiming
    # the portal call along d0 reflected in w1 moved 116 touching and 2
    # overlap distance answers (witness points and counters; no distance
    # or termination) and 112 touching intersects answers: counters, and
    # on one pair in both variants the verdict, from colliding to the
    # exact SAT's "apart". Certifying code 7 by the sign bounds moved 8
    # touching distance answers, in witness points only, by at most 6e-16.
    # The second portal step moved 10 touching answers of each query, in
    # counters (8 by 2 to 5 fewer support calls, 2 by 2 more) and, on 2
    # distance answers, the witness on P; no distance, verdict or exit.
    # The portal corpus (``portal_corpus`` with touching 128- and 512-gons)
    # adds the tie rectangles, and its intersects queries take the second
    # portal step 44 times over both support variants, against 10 for the
    # make_pair cases. Its digests were taken while the two portal steps
    # were still two copies of the rule in ``_gjk``.
    DIGESTS = {
        ("make_pair", "distance"): (
            "d8b46fdbcb6d28e3bcd5fd879992c011c6c023eaae77c99229223194aa61b37e"
        ),
        ("make_pair", "intersects"): (
            "1cdb833ec660ef5e9c93497d76e1e852852365b692b1be30f2a0efbece2716e3"
        ),
        ("portal", "distance"): (
            "9e2afab6f82ac40e92bc8c028e00b37e2de588a1b9db690361abd736d8c4b1f0"
        ),
        ("portal", "intersects"): (
            "798ef31f43f3948431234576d460c5bcc75ded6690ff0e7f78a529e3bd259380"
        ),
        ("portal-tiny", "distance"): (
            "c3edea79667280ea53bd93b8bc39957a0a4d8a31bdef9f34f4cd1532cdbf8a4e"
        ),
        ("portal-tiny", "intersects"): (
            "798ef31f43f3948431234576d460c5bcc75ded6690ff0e7f78a529e3bd259380"
        ),
        ("portal-huge", "distance"): (
            "e2a7e7bb42363c5e60441506d6ddd2af0316a39d6d3b22ae179ed13973834012"
        ),
        ("portal-huge", "intersects"): (
            "798ef31f43f3948431234576d460c5bcc75ded6690ff0e7f78a529e3bd259380"
        ),
    }
    # The portal corpus again, scaled by 2^-280 and by 2^480, where the
    # portal's crosses are tiny or huge and its zeros carry a sign. Every
    # test is relative, so an intersects result, which holds no length,
    # hashes as the unscaled corpus's.
    SCALES = {"portal-tiny": 2.0**-280, "portal-huge": 2.0**480}

    @staticmethod
    def _fields(value):
        if isinstance(value, float):
            yield value.hex()
        elif isinstance(value, tuple):
            for field in value:
                yield from TestGolden._fields(field)
        elif isinstance(value, Enum):
            yield value.value
        else:
            yield repr(value)

    @staticmethod
    def make_pair_cases():
        for n in (4, 8, 24, 64):
            for case in regime_cases(n, 20, 5, Regime):
                yield case.p, case.q

    @pytest.mark.parametrize(
        "corpus, query",
        [
            pytest.param("make_pair", distance, id="distance"),
            pytest.param("make_pair", intersects, id="intersects"),
            pytest.param("portal", distance, id="portal-distance"),
            pytest.param("portal", intersects, id="portal-intersects"),
            pytest.param("portal-tiny", distance, id="portal-tiny-distance"),
            pytest.param("portal-tiny", intersects, id="portal-tiny-intersects"),
            pytest.param("portal-huge", distance, id="portal-huge-distance"),
            pytest.param("portal-huge", intersects, id="portal-huge-intersects"),
        ],
    )
    def test_query_results_are_pinned(self, corpus, query):
        h = hashlib.sha256()
        for p, q in self.pairs(corpus):
            for hcs in (True, False):
                res = query(p, q, use_hill_climbing=hcs)
                h.update(" ".join(self._fields(res)).encode())
                h.update(b"\n")
        assert h.hexdigest() == self.DIGESTS[corpus, query.__name__]

    @classmethod
    def pairs(cls, corpus):
        if corpus == "make_pair":
            return cls.make_pair_cases()
        pairs = portal_corpus(touching=40, sizes=(128, 512))
        if corpus in cls.SCALES:
            factor = cls.SCALES[corpus]
            pairs = [(scaled(p, factor), scaled(q, factor)) for p, q in pairs]
        return pairs

    # sha256 over every layer call the same queries make, as
    # ``recorded_layers`` records it: the layer's name, the direction of a
    # support call or the simplex vertices of a solve, and the answer, with
    # floats as float.hex. A change that keeps every answer but moves a
    # support direction, a start or a solve changes it. Taken before the
    # warm-pair branch left ``_cso_support_xy``.
    TRACE_DIGESTS = {
        ("make_pair", "distance"): (
            "3a7394957ca436af073720d5c51e8dbcc9d5d8bbe8a368ade943743f7a9b0db5"
        ),
        ("make_pair", "intersects"): (
            "bb8a99722fc32fa1e5c9f22addd11b544d82ca927b3e9d28ab60ed6b416efe52"
        ),
        ("portal", "distance"): (
            "7d0ec374cdecec3ec6be6068bef3564c5a6209730bf80e8755e6d27e7a635082"
        ),
        ("portal", "intersects"): (
            "63b3ce21008245d49594d31b66f056af35c0c4cf718718dcc3aad698903b1d8c"
        ),
    }

    @classmethod
    def _call_fields(cls, name, args, out):
        yield name
        if name in SUPPORT_LAYERS:
            # the direction; the polygons are the query's own
            args = args[2:4]
        elif name == "initial_direction":
            args = ()
        for value in (args, out):
            if isinstance(value, tuple):
                value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
            yield from cls._fields(value)

    @pytest.mark.parametrize(
        "corpus, query",
        [
            pytest.param("make_pair", distance, id="distance"),
            pytest.param("make_pair", intersects, id="intersects"),
            pytest.param("portal", distance, id="portal-distance"),
            pytest.param("portal", intersects, id="portal-intersects"),
        ],
    )
    def test_traced_layer_calls_are_pinned(self, corpus, query):
        h = hashlib.sha256()
        for p, q in self.pairs(corpus):
            for hcs in (True, False):
                with recorded_layers() as calls:
                    query(p, q, use_hill_climbing=hcs)
                for call in calls:
                    h.update(" ".join(self._call_fields(*call)).encode())
                    h.update(b"\n")
                h.update(b"--\n")
        assert h.hexdigest() == self.TRACE_DIGESTS[corpus, query.__name__]


class TestTouchingClassifier:
    def test_band_classification(self):
        # contact reads as a distance within 1e-9 of zero
        assert distance(UNIT_SQUARE, UNIT_SQUARE).distance <= 1e-9
        assert distance(UNIT_SQUARE, FAR_SQUARE).distance > 1e-9
        assert distance(UNIT_SQUARE, TOUCH_SQUARE).distance <= 1e-9


class TestWitnessPoints:
    def test_single_vertex(self):
        p = ConvexPolygon([(4, 5), (5, 5), (4, 6)])
        q = ConvexPolygon([(3, 3), (4, 3), (3, 4)])
        sv = vertex(1, 2)
        wp, wq = witness_points(p, q, [sv], [1.0])
        assert wp == Vec2(4, 5)
        assert wq == Vec2(3, 3)

    def test_symmetric_combination(self):
        p = ConvexPolygon([(0, 0), (4, 0), (0, 4)])
        q = ConvexPolygon([(0, 0), (2, -2), (2, 2)])
        a = vertex(0, 0)
        b = vertex(2, 2, 1, 1)
        wp, wq = witness_points(p, q, [a, b], [0.5, 0.5])
        assert wp == Vec2(2, 0)
        assert wq == Vec2(1, -1)

    @staticmethod
    def bits(pair):
        # repr tells -0.0 from 0.0 and prints every float exactly
        return [repr(c) for point in pair for c in point]

    def test_matches_the_loop_fold_bit_for_bit(self):
        rng = random.Random(45)
        for _ in range(300):
            p, q = random_pair(rng)
            for size in (1, 2, 3):
                verts = [
                    vertex(0.0, 0.0, rng.randrange(len(p)), rng.randrange(len(q)))
                    for _ in range(size)
                ]
                lambdas = [rng.uniform(-0.5, 1.5) for _ in range(size)]
                got = witness_points(p, q, verts, lambdas)
                assert all(type(point) is Vec2 for point in got)
                assert self.bits(got) == self.bits(
                    reference_witness_points(p, q, verts, lambdas)
                ), (size, verts, lambdas)

    def test_negative_zero_coordinate_reads_positive_zero(self):
        # 0.0 + (-0.0) is +0.0: the fold from 0.0 drops the sign, at any size
        p = ConvexPolygon([(-0.0, -0.0), (1.0, 0.0), (0.0, 1.0)])
        q = ConvexPolygon([(-0.0, 5.0), (-1.0, 4.0), (0.0, 4.0)])
        assert [repr(c) for c in (p.xs[0], p.ys[0], q.xs[0])] == ["-0.0"] * 3
        for size in (1, 2, 3):
            verts = [vertex(0.0, 0.0, 0, 0)] * size
            lambdas = [1.0] + [0.0] * (size - 1)
            got = witness_points(p, q, verts, lambdas)
            assert self.bits(got) == self.bits(reference_witness_points(p, q, verts, lambdas))
            assert self.bits(got) == ["0.0", "0.0", "0.0", "5.0"]

    def test_difference_reconstructs_separating_vector(self):
        rng = random.Random(44)
        for _ in range(500):
            p, q = random_pair(rng)
            res = distance(p, q)
            if res.distance == 0.0:
                continue
            diff = sub(res.witness_p, res.witness_q)
            assert diff[0] == pytest.approx(res.separating_vector.x, abs=1e-12)
            assert diff[1] == pytest.approx(res.separating_vector.y, abs=1e-12)
