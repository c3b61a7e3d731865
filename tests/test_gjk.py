import hashlib
import inspect
import math
import random
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gjk2d.gjk
import gjk2d.support
from gjk2d.baseline import oracle_distance, sat_intersects
from gjk2d.cli import ABS_TOL, REL_TOL
from gjk2d.datasets import (
    DatasetSpec,
    Regime,
    derive_case_seed,
    make_pair,
    random_convex_polygon,
)
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

from conftest import (
    SUPPORT_LAYERS,
    descent_trace,
    recorded_layers,
    symmetric_regular_ring,
    tie_rectangles,
    vertex,
)
from oracle_utils import exact_sat_intersects, reference_witness_points, sub, vertices

UNIT_SQUARE = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
FAR_SQUARE = ConvexPolygon([(3, 0), (4, 0), (4, 1), (3, 1)])


def random_pair(rng, n=None, span=3.0, m=None):
    n = n or rng.choice([3, 4, 8, 12, 16, 20, 24])
    a = random_convex_polygon(n, rng)
    b = random_convex_polygon(m or n, rng)
    p = apply_transform(a, rng.uniform(0, 7), rng.uniform(-span, span), rng.uniform(-span, span))
    q = apply_transform(b, rng.uniform(0, 7), rng.uniform(-span, span), rng.uniform(-span, span))
    return p, q


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

    def test_simplex_full_exit_reports_contact(self, monkeypatch):
        # An honest triangle solve that keeps all three vertices puts v on
        # the origin, so ContainsOrigin exits first. A solver that keeps
        # the whole triangle with v far off the origin reaches SimplexFull,
        # which must report contact all the same.
        q = ConvexPolygon([(0.9, 0.2), (3, 0.1), (3, 3)])
        assert intersects(UNIT_SQUARE, q).colliding
        solves = []

        def full_triangle(w, a, b):
            solves.append(w)
            return [w, a, b], [1 / 3, 1 / 3, 1 / 3], 1.0, 0.0

        monkeypatch.setattr(gjk2d.gjk, "s2d", full_triangle)
        for hcs in (True, False):
            del solves[:]
            res = distance(UNIT_SQUARE, q, use_hill_climbing=hcs)
            assert res.termination is Termination.SIMPLEX_FULL
            assert res.distance == 0.0
            assert tuple(res.separating_vector) == (0.0, 0.0)
            hit = intersects(UNIT_SQUARE, q, use_hill_climbing=hcs)
            assert hit.exit is CollisionExit.SUBDISTANCE_ENCLOSURE
            assert hit.colliding
            assert len(solves) == 2


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
        # An exit after zero iterations is the separating test on the first
        # support point; on contact pairs it may only fire where the exact
        # rational SAT finds the pair disjoint. The exact SAT runs only on
        # the pairs that exit there.
        fired = 0
        for n, count in ((4, 60), (8, 60), (24, 20), (64, 20)):
            spec = DatasetSpec(vertex_count=n, cases_per_regime=count, seed=1)
            for regime in (Regime.TOUCHING, Regime.OVERLAP):
                for i in range(count):
                    case = make_pair(spec, regime, derive_case_seed(1, n, regime, i))
                    res = intersects(case.p, case.q)
                    if res.iterations == 0:
                        fired += 1
                        assert res.exit is CollisionExit.SEPARATING_HYPERPLANE
                        assert not exact_sat_intersects(case.p, case.q), (n, regime, i)
        assert fired > 0

    @pytest.mark.parametrize("n", [4, 8, 24, 64])
    def test_distant_pairs_exit_on_the_first_support_point(self, n):
        spec = DatasetSpec(vertex_count=n, cases_per_regime=30, seed=6)
        for regime in Regime:
            for i in range(30):
                case = make_pair(spec, regime, derive_case_seed(6, n, regime, i))
                for hcs in (True, False):
                    res = intersects(case.p, case.q, use_hill_climbing=hcs)
                    dist = distance(case.p, case.q, use_hill_climbing=hcs)
                    assert res.support_calls <= dist.support_calls
                    assert res.support_calls == res.iterations + 1
                    if regime is Regime.DISTANT:
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
            d = distance(p, q)
            hit = intersects(p, q)
            assert d.termination is not Termination.MAX_ITERATIONS
            assert hit.exit is not CollisionExit.MAX_ITERATIONS
            oracle = oracle_distance(p, q).distance
            assert abs(d.distance - oracle) <= REL_TOL * max(1.0, oracle) + ABS_TOL
            calls_d += d.support_calls
            calls_i += hit.support_calls
        want_d, want_i = self.VERTEX_ZERO_MEANS[corpus.__name__]
        assert calls_d / len(pairs) <= want_d + 0.1
        assert calls_i / len(pairs) <= want_i + 0.1


def regular_polygon(n, center, phase=0.0):
    cx, cy = center
    return ConvexPolygon(
        (cx + math.cos(phase + 2 * math.pi * k / n), cy + math.sin(phase + 2 * math.pi * k / n))
        for k in range(n)
    )


def rectangle(x, y, w, h):
    return ConvexPolygon([(x, y), (x + w, y), (x + w, y + h), (x, y + h)])


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
        spec = DatasetSpec(vertex_count=8, cases_per_regime=200, seed=5)
        return [
            make_pair(spec, regime, derive_case_seed(5, 8, regime, i))
            for regime in Regime
            for i in range(200)
        ]

    @pytest.mark.parametrize(
        "factor", [1e-12, 1e-11, 1e-9, 1e-6, 1e6, 1e9, 1e12], ids=lambda f: f"{f:g}"
    )
    def test_small_scales_converge_to_the_oracle(self, eight_gon_cases, factor):
        # the answer scales with the input: relative error measured against
        # the polygons' size, which is about `factor`
        worst = 0.0
        for case in eight_gon_cases:
            p, q = scaled(case.p, factor), scaled(case.q, factor)
            res = distance(p, q)
            assert res.termination is not Termination.MAX_ITERATIONS
            worst = max(worst, abs(res.distance - oracle_distance(p, q).distance))
            hit = intersects(p, q)
            assert hit.exit is not CollisionExit.MAX_ITERATIONS
            # touching pairs sit on the knife edge where SAT may disagree
            if case.regime is not Regime.TOUCHING:
                assert hit.colliding == sat_intersects(p, q)
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
        cases = []
        for n in (3, 4, 8, 24):
            spec = DatasetSpec(vertex_count=n, cases_per_regime=10, seed=5)
            cases += [
                make_pair(spec, regime, derive_case_seed(5, n, regime, i))
                for regime in Regime
                for i in range(10)
            ]
        for cap in (64, 1):
            monkeypatch.setattr(gjk2d.gjk, "_MAX_ITERATIONS", cap)
            for case in cases:
                base = list(queries(case.p, case.q))
                for k in (-40, -20, 20, 40):
                    factor = 2.0**k
                    moved = queries(scaled(case.p, factor), scaled(case.q, factor))
                    assert list(moved) == [scaled_result(res, factor) for res in base], (cap, k)

    def test_underflowing_scales_are_rejected_or_answered(self):
        # Below about 1e-153 the turns of a unit-sized polygon fall under the
        # smallest normal double and the polygon is rejected; above it, every
        # answer must pass `gjk2d check`'s band scaled with the polygons.
        # Accepting such polygons gave wrong distances at 1e-159..1e-161.
        cases = []
        for n in (3, 4, 8, 24):
            spec = DatasetSpec(vertex_count=n, cases_per_regime=20, seed=5)
            for regime in Regime:
                for i in range(20):
                    case = make_pair(spec, regime, derive_case_seed(5, n, regime, i))
                    oracle = oracle_distance(case.p, case.q).distance
                    cases.append((case, oracle, sat_intersects(case.p, case.q)))
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
                assert err <= (REL_TOL * max(1.0, oracle) + ABS_TOL) * factor, (factor, case.seed)
                if case.regime is not Regime.TOUCHING:
                    assert intersects(p, q).colliding == sat, (factor, case.seed)
        assert min(accepted) == 140 and max(accepted) < 159

    def test_parallel_edge_lattice_pairs_do_not_reach_the_cap(self):
        # translated copies of one polygon and integer rectangles have
        # parallel edges, so support points are often collinear with the
        # simplex; the progress test must still fire
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
        for p, q in pairs:
            oracle = oracle_distance(p, q).distance
            for hcs in (True, False):
                res = distance(p, q, use_hill_climbing=hcs)
                assert res.termination is not Termination.MAX_ITERATIONS
                assert abs(res.distance - oracle) <= 1e-12 * max(1.0, oracle)
                hit = intersects(p, q, use_hill_climbing=hcs)
                assert hit.exit is not CollisionExit.MAX_ITERATIONS

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
            assert abs(res.distance - oracle) <= 1e-7 * max(1.0, oracle) + 1e-9
        factor = 2.0**k
        moved = list(queries(scaled(p, factor), scaled(q, factor)))
        assert moved == [scaled_result(res, factor) for res in base]


class TestHugePolygons:
    # Huge inputs: every query ends on a documented exit, never the
    # iteration cap, and `distance` stays inside `gjk2d check`'s band of
    # the oracle. Binary verdicts are judged off the contact knife edge.
    @staticmethod
    def assert_answers(p, q, judge_binary):
        """The oracle's report on (p, q), once the queries are judged against it."""
        report = oracle_distance(p, q)
        result = distance(p, q)
        assert result.termination in (
            Termination.CONVERGED, Termination.SIMPLEX_FULL, Termination.CONTAINS_ORIGIN
        )
        assert abs(result.distance - report.distance) <= REL_TOL * max(1.0, report.distance) + ABS_TOL
        collision = intersects(p, q)
        assert collision.exit is not CollisionExit.MAX_ITERATIONS
        if judge_binary:
            assert collision.colliding == report.intersecting
        return report

    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
    def test_generated_pairs(self, n, regime):
        case = make_pair(DatasetSpec(n, 1, 1), regime, derive_case_seed(1, n, regime, 0))
        assert len(case.p) == len(case.q) == n
        self.assert_answers(case.p, case.q, regime is not Regime.TOUCHING)

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
        report = self.assert_answers(p, q, separation != 2.0)
        if separation == 2.0:
            assert 0.0 <= report.distance < 1e-6


class TestGolden:
    # sha256 over every field of every result of one query on the make_pair
    # cases below, with floats as float.hex: any change to an answer, a
    # counter or an exit, in the last bit, changes it. The first-support
    # separating exit moved only the intersects digest, and edge-relative
    # region codes only the witness points of ContainsOrigin answers.
    DIGESTS = {
        "distance": "1282a704cf5d2da9ff6e7876dac43228d6a91d3edd7906f8665c5fa901730549",
        "intersects": "d634c8afae0d3347c45f0c4c8de2c80e1e9ba7489f514677e7bc8b1f86cc14cf",
    }

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

    @pytest.mark.parametrize("query", [distance, intersects], ids=lambda q: q.__name__)
    def test_query_results_are_pinned(self, query):
        h = hashlib.sha256()
        for n in (4, 8, 24, 64):
            spec = DatasetSpec(vertex_count=n, cases_per_regime=20, seed=5)
            for regime in Regime:
                for i in range(20):
                    case = make_pair(spec, regime, derive_case_seed(5, n, regime, i))
                    for hcs in (True, False):
                        res = query(case.p, case.q, use_hill_climbing=hcs)
                        h.update(" ".join(self._fields(res)).encode())
                        h.update(b"\n")
        assert h.hexdigest() == self.DIGESTS[query.__name__]


class TestTouchingClassifier:
    def test_band_classification(self):
        # contact reads as a distance within 1e-9 of zero
        assert distance(UNIT_SQUARE, UNIT_SQUARE).distance <= 1e-9
        assert distance(UNIT_SQUARE, FAR_SQUARE).distance > 1e-9
        touching = ConvexPolygon([(1, 0), (2, 0), (2, 1), (1, 1)])
        assert distance(UNIT_SQUARE, touching).distance <= 1e-9


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
