import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjk2d.geometry import (
    MAX_COORDINATE,
    ConvexPolygon,
    FewerThanThreeVertices,
    NonFiniteCoordinate,
    NotCounterClockwise,
    NotStrictlyConvex,
    PolygonError,
    Vec2,
    apply_transform,
    contains_point,
    polygon_from_jsonable,
    polygon_to_jsonable,
)

from gjk2d.datasets import random_convex_polygon

from oracle_utils import (
    convex_hull,
    cross,
    dot,
    reference_validate,
    signed_area,
    sub,
    vertices,
)

UNIT_TRIANGLE = [(0, 0), (1, 0), (0, 1)]
UNIT_SQUARE_RING = [(0, 0), (1, 0), (1, 1), (0, 1)]


def star_vertex(k, n, rotation=0.3):
    angle = rotation + 2 * math.pi * k / n
    return (math.cos(angle), math.sin(angle))


class TestVectorOps:
    """The oracle helpers that the convexity, area and support assertions use."""

    def test_dot_orthogonal(self):
        assert dot(Vec2(1, 0), Vec2(0, 1)) == 0.0

    def test_dot_hand_value(self):
        assert dot(Vec2(2, 3), Vec2(4, -1)) == 5.0

    def test_dot_zero_vector(self):
        assert dot(Vec2(0, 0), Vec2(5, 7)) == 0.0

    def test_cross_unit_basis(self):
        assert cross(Vec2(1, 0), Vec2(0, 1)) == 1.0

    def test_cross_anticommutes(self):
        assert cross(Vec2(0, 1), Vec2(1, 0)) == -1.0

    def test_cross_parallel(self):
        assert cross(Vec2(2, 2), Vec2(1, 1)) == 0.0

    @given(
        st.integers(-1000, 1000),
        st.integers(-1000, 1000),
        st.integers(-1000, 1000),
        st.integers(-1000, 1000),
    )
    def test_cross_antisymmetry_exact(self, ax, ay, bx, by):
        # integer coordinates are exactly representable, so the identity is exact
        a = Vec2(float(ax), float(ay))
        b = Vec2(float(bx), float(by))
        assert cross(a, b) == -cross(b, a)


class TestValidatePolygon:
    def test_accepts_ccw_triangle(self):
        poly = ConvexPolygon(UNIT_TRIANGLE)
        assert len(poly) == 3
        assert signed_area(poly) == pytest.approx(0.5)

    def test_rejects_reversed_orientation(self):
        with pytest.raises(NotCounterClockwise):
            ConvexPolygon([(0, 0), (0, 1), (1, 0)])

    def test_rejects_collinear_triple_with_index(self):
        with pytest.raises(NotStrictlyConvex) as exc:
            ConvexPolygon([(0, 0), (1, 0), (2, 0), (0, 1)])
        assert exc.value.index == 1

    def test_rejects_too_few_vertices(self):
        with pytest.raises(FewerThanThreeVertices):
            ConvexPolygon([(0, 0), (1, 0)])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteCoordinate) as exc:
            ConvexPolygon([(0, 0), (1, 0), (float("nan"), 1)])
        assert exc.value.index == 2

    def test_rejects_reflex_vertex(self):
        with pytest.raises(NotStrictlyConvex):
            ConvexPolygon([(0, 0), (2, 0), (1, 0.1), (2, 2), (0, 2)])

    def test_rejects_duplicate_vertex(self):
        with pytest.raises(NotStrictlyConvex):
            ConvexPolygon([(0, 0), (1, 0), (1, 0), (0, 1)])

    def test_all_consecutive_crosses_positive(self):
        poly = ConvexPolygon(UNIT_SQUARE_RING)
        verts = vertices(poly)
        n = len(verts)
        for i in range(n):
            a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
            assert cross(sub(b, a), sub(c, b)) > 0.0

    def test_centroid_is_vertex_mean(self):
        poly = ConvexPolygon(UNIT_SQUARE_RING)
        assert poly.centroid == Vec2(0.5, 0.5)

    def test_centroid_sums_fold_left_on_every_python(self):
        # 1 + 1e16 rounds to 1e16, so the left fold of the x coordinates is
        # 0.0; the compensated sum() of Python 3.12 and later gives 1.0.
        verts = [(1.0, 0.0), (1e16, 1.0), (-1e16, 1.0)]
        xs = [x for x, _ in verts]
        left = 0.0
        for x in xs:
            left += x
        assert left == 0.0 and math.fsum(xs) == 1.0
        assert ConvexPolygon(verts).centroid == Vec2(left / 3, 2.0 / 3)

    @pytest.mark.parametrize("n,step", [(5, 2), (7, 2), (7, 3)])
    def test_rejects_star_polygons(self, n, step):
        # {n/step} with the vertices in star order: every turn is left and
        # the area is positive, but the edges wind around `step` times
        star = [star_vertex(k * step % n, n) for k in range(n)]
        with pytest.raises(NotStrictlyConvex):
            ConvexPolygon(star)
        ConvexPolygon(star_vertex(k, n) for k in range(n))

    @pytest.mark.parametrize(
        "vertices,index",
        [
            ([(-1e308, 0), (1e308, 0), (0, 1e308)], 0),
            ([(-2, -2), (1e308, -2), (1e308, 1e308), (-2, 1e308)], 1),
            ([(0, 0), (1, 0), (0, -(2.0**500) * (1 + 2**-52))], 2),
            # ints beyond the double range, on each axis
            ([(10**400, 0), (1, 0), (0, 1)], 0),
            ([(0, 0), (1, 0), (0, 10**400)], 2),
        ],
        ids=[
            "1e308-triangle", "1e308-square", "just-past-bound",
            "int-past-double-x", "int-past-double-y",
        ],
    )
    def test_rejects_coordinates_beyond_bound_with_index(self, vertices, index):
        with pytest.raises(NonFiniteCoordinate) as exc:
            ConvexPolygon(vertices)
        assert exc.value.index == index

    def test_accepts_coordinates_at_bound(self):
        assert MAX_COORDINATE == 2.0**500
        big = MAX_COORDINATE
        ConvexPolygon([(-big, -big), (big, -big), (big, big), (-big, big)])

    def test_first_violation_keeps_its_class_and_index(self):
        # a later non-finite vertex outranks an earlier bend, and orientation
        # outranks convexity
        with pytest.raises(NonFiniteCoordinate) as exc:
            ConvexPolygon([(0, 0), (1, 0), (2, 0), (float("nan"), 1)])
        assert exc.value.index == 3
        with pytest.raises(NotCounterClockwise):
            ConvexPolygon([(0, 0), (0, 2), (1, 1), (2, 2), (2, 0)])
        # vertices 0 and 1 are both collinear; vertex 0 is checked last
        with pytest.raises(NotStrictlyConvex) as exc:
            ConvexPolygon([(1, 0), (2, 0), (3, 0), (3, 2), (0, 2), (0, 0)])
        assert exc.value.index == 1

    def test_rejects_turns_below_the_smallest_normal_double(self):
        # every turn of this right triangle is a * a
        a = 2.0**-511
        assert a * a == sys.float_info.min
        ConvexPolygon([(0, 0), (a, 0), (0, a)])
        a = 2.0**-512
        assert 0.0 < a * a < sys.float_info.min
        with pytest.raises(NotStrictlyConvex) as exc:
            ConvexPolygon([(0, 0), (a, 0), (0, a)])
        assert exc.value.index == 1

    def test_underflowing_turn_ranks_after_other_violations(self):
        # vertex 1 turns by a subnormal t and vertex 3 is collinear: the
        # collinear vertex is reported, as it was before underflowing turns
        # were rejected
        t = 1e-310
        with pytest.raises(NotStrictlyConvex) as exc:
            ConvexPolygon([(0, 0), (1, 0), (1, t), (0.5, t), (0, t)])
        assert exc.value.index == 3

    def test_orientation_does_not_depend_on_the_distance_from_the_origin(self):
        # the rounded shoelace sum of this unit right triangle is negative
        t = 1e12
        ConvexPolygon([(t, t), (t + 1, t), (t, t + 1)])
        # at 1e16, t + 1 rounds to t and the three vertices coincide
        t = 1e16
        with pytest.raises(NotStrictlyConvex) as exc:
            ConvexPolygon([(t, t), (t + 1, t), (t, t + 1)])
        assert exc.value.index == 1

    @pytest.mark.parametrize(
        "points,error,index",
        [
            ([(0, 0), (1, 0)], FewerThanThreeVertices, None),
            ([(0, 0), (1, 0), (1, 1), (float("inf"), 1)], NonFiniteCoordinate, 3),
            ([(0, 0), (1, 0), (0, 2.0**501)], NonFiniteCoordinate, 2),
            ([(0, 0), (0, 1), (1, 0)], NotCounterClockwise, None),
            ([(0, 0), (1, 0), (2, 0), (1, 1)], NotStrictlyConvex, 1),
            ([(0, 0), (1, 0), (1, 0), (0, 1)], NotStrictlyConvex, 1),
            ([(0, 0), (2, 0), (1, 0.1), (2, 2), (0, 2)], NotStrictlyConvex, 2),
            ([star_vertex(k * 2 % 5, 5) for k in range(5)], NotStrictlyConvex, 4),
            ([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)], NotStrictlyConvex, 4),
        ],
        ids=[
            "two-vertices", "inf", "past-bound", "clockwise", "collinear",
            "duplicate", "reflex", "pentagram", "interior-point",
        ],
    )
    @pytest.mark.parametrize("form", ["tuples", "lists", "vec2", "generator"])
    def test_rejection_class_and_index_do_not_depend_on_input_form(
        self, points, error, index, form
    ):
        if form == "lists":
            points = [list(v) for v in points]
        elif form == "vec2":
            points = [Vec2(*v) for v in points]
        elif form == "generator":
            points = (v for v in points)
        with pytest.raises(error) as exc:
            ConvexPolygon(points)
        assert getattr(exc.value, "index", None) == index

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_accepts_exactly_the_rotations_of_the_hull(self, data):
        # small integer coordinates keep every turn and hull test exact
        coord = st.integers(-6, 6)
        points = data.draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=9))
        hull = [(p.x, p.y) for p in convex_hull(points)]
        if len(hull) >= 3 and data.draw(st.booleans()):
            # hull vertices in a star order, reversed, or shuffled
            m = len(hull)
            step = data.draw(st.integers(1, m - 1))
            start = data.draw(st.integers(0, m - 1))
            points = [hull[(start + k * step) % m] for k in range(m)]
            if data.draw(st.booleans()):
                points = data.draw(st.permutations(points))
        else:
            points = data.draw(st.permutations(points))
        m = len(hull)
        is_rotation = any(list(points) == hull[k:] + hull[:k] for k in range(m))
        try:
            ConvexPolygon(points)
            accepted = True
        except PolygonError:
            accepted = False
        assert accepted == is_rotation


def _generated(seed, sizes=(3, 4, 5, 8, 16, 33, 64)):
    rng = random.Random(seed)
    return [vertices(random_convex_polygon(n, rng)) for n in sizes]


def _moved(verts, angle, tx, ty):
    c, s = math.cos(angle), math.sin(angle)
    return [(x * c - y * s + tx, x * s + y * c + ty) for x, y in verts]


def _corpus_generated_moved():
    rng = random.Random(21)
    out = []
    for verts in _generated(1) + _generated(2):
        for shift in (0.0, 1.0, 1e3, 1e6, 1e9, 1e12, 1e15):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            out.append(_moved(verts, angle, shift * rng.uniform(-1, 1), shift * rng.uniform(-1, 1)))
    return out


def _corpus_far_translated():
    # 3- to 24-gons moved by 10**6..10**15 along each axis, either sign: the
    # rounded shoelace sum of many of them is negative
    rng = random.Random(1)
    out = []
    for _ in range(2000):
        verts = vertices(random_convex_polygon(rng.randint(3, 24), rng))
        tx, ty = (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(6.0, 15.0) for _ in range(2))
        out.append([(x + tx, y + ty) for x, y in verts])
    return out


def _corpus_collinear_and_reflex():
    out = []
    for verts in _generated(3, sizes=(3, 4, 6, 9)) + [UNIT_SQUARE_RING]:
        n = len(verts)
        cx = sum(x for x, _ in verts) / n
        cy = sum(y for _, y in verts) / n
        for i in range(n):
            (ax, ay), (bx, by) = verts[i], verts[(i + 1) % n]
            # a collinear midpoint and a duplicate after vertex i
            out.append(verts[: i + 1] + [((ax + bx) / 2, (ay + by) / 2)] + verts[i + 1 :])
            out.append(verts[: i + 1] + [verts[i]] + verts[i + 1 :])
            # vertex i dented toward the centroid
            dent = (cx + 0.2 * (ax - cx), cy + 0.2 * (ay - cy))
            out.append(verts[:i] + [dent] + verts[i + 1 :])
    return out


def _corpus_clockwise_and_stars():
    out = []
    for verts in _generated(4, sizes=(3, 4, 7, 20)):
        for start in range(3):
            ring = verts[start:] + verts[:start]
            out.append(ring[::-1])
    for n, step in ((5, 2), (7, 3)):
        for rotation in (0.0, 0.3, 1.1, math.pi / 2):
            star = [star_vertex(k * step % n, n, rotation) for k in range(n)]
            for start in range(n):
                ring = star[start:] + star[:start]
                out.append(ring)
                out.append(ring[::-1])
    return out


def _corpus_tiny_turns():
    out = []
    for e in (-505, -511, -512, -513, -520, -537):
        a = 2.0**e
        out.append([(0, 0), (a, 0), (0, a)])
        out.append([(0, 0), (a, 0), (a, a), (0, a)])
    t = 1e-310
    out.append([(0, 0), (1, 0), (1, t), (0.5, t), (0, t)])
    out.append([(0, 0), (1, 0), (1, t), (0, t)])
    # stars shrunk until their turns underflow: winding outranks a tiny turn
    stars = [[star_vertex(k * step % n, n) for k in range(n)] for n, step in ((5, 2), (7, 3))]
    for verts in _generated(5, sizes=(3, 5, 12, 40)) + stars:
        for scale in (1e-150, 1e-155, 1e-160, 1e-165, 2.0**-511):
            out.append([(x * scale, y * scale) for x, y in verts])
    return out


_BAD_COORDINATES = (
    float("nan"), float("inf"), float("-inf"),
    2.0**501, -(2.0**501), 2**501, 10**400, -(10**400),
)


def _corpus_bad_coordinates():
    out = []
    square = [(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)]  # vertex 1 collinear
    for verts in _generated(6, sizes=(3, 6)) + [square]:
        for i in range(len(verts)):
            for bad in _BAD_COORDINATES:
                x, y = verts[i]
                out.append(verts[:i] + [(bad, y)] + verts[i + 1 :])
                out.append(verts[:i] + [(x, bad)] + verts[i + 1 :])
                # a second bad coordinate later in the ring
                later = verts[:i] + [(bad, y)] + verts[i + 1 :]
                later[-1] = (later[-1][0], float("nan"))
                out.append(later)
    return out


def _corpus_shuffled():
    rng = random.Random(7)
    out = []
    for verts in _generated(8, sizes=(4, 5, 7)):
        for _ in range(40):
            ring = list(verts)
            rng.shuffle(ring)
            out.append(ring)
    return out


def _outcome(build, verts):
    try:
        result = build(verts)
    except PolygonError as exc:
        return type(exc), getattr(exc, "index", None)
    return result


def _turns_left_and_winds_once(xs, ys):
    """Every turn at least the smallest normal double, and the edge
    direction passes angle 0 once: the rings ``ConvexPolygon`` accepts."""
    ring = list(zip(xs, ys))
    n = len(ring)
    edges = [sub(ring[(i + 1) % n], ring[i]) for i in range(n)]
    if any(cross(edges[i], edges[(i + 1) % n]) < sys.float_info.min for i in range(n)):
        return False
    upper = [ey > 0.0 or (ey == 0.0 and ex > 0.0) for ex, ey in edges]
    return sum(upper[(i + 1) % n] and not upper[i] for i in range(n)) == 1


def _expected(verts):
    """``reference_validate``'s outcome, except that a ring it rejects as
    ``NotCounterClockwise`` is accepted when it turns left everywhere and
    winds once: such a ring is counter-clockwise, and only its rounded
    shoelace sum, far from the origin, said otherwise."""
    want = _outcome(reference_validate, verts)
    if want == (NotCounterClockwise, None):
        xs = [float(x) for x, _ in verts]
        ys = [float(y) for _, y in verts]
        if _turns_left_and_winds_once(xs, ys):
            return xs, ys
    return want


class TestValidationMatchesReference:
    """The single-pass constructor raises what the reference loop
    (``oracle_utils.reference_validate``) raises, with the same index, and
    otherwise keeps the coordinates. The one difference is orientation:
    the constructor reads it from the turns and the single wrap, so a ring
    the reference calls ``NotCounterClockwise`` only for its shoelace sum
    is accepted (``_expected``)."""

    @pytest.mark.parametrize(
        "corpus",
        [
            _corpus_generated_moved,
            _corpus_far_translated,
            _corpus_collinear_and_reflex,
            _corpus_clockwise_and_stars,
            _corpus_tiny_turns,
            _corpus_bad_coordinates,
            _corpus_shuffled,
        ],
        ids=lambda f: f.__name__[len("_corpus_"):],
    )
    def test_same_class_and_index(self, corpus):
        failures = set()
        for verts in corpus():
            want = _expected(verts)
            got = _outcome(ConvexPolygon, verts)
            if isinstance(want, tuple) and isinstance(want[0], type):
                failures.add(want[0])
                assert got == want, verts
                continue
            xs, ys = want
            assert (got.xs, got.ys) == (tuple(xs), tuple(ys))
        # every corpus exercises at least one rejection
        assert failures

    def test_far_translated_rings_turning_left_are_accepted(self):
        # both sides of _expected's exception occur: rings the reference
        # rejects for their shoelace sum alone, and rings that also fail a
        # turn and keep NotCounterClockwise
        accepted = kept = 0
        for verts in _corpus_far_translated():
            if _outcome(reference_validate, verts) == (NotCounterClockwise, None):
                if isinstance(_outcome(ConvexPolygon, verts), ConvexPolygon):
                    accepted += 1
                else:
                    kept += 1
        assert accepted > 0 and kept > 0

    _COORDINATE = st.one_of(
        st.integers(-3, 3),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([2.0**500, 2.0**501, 10**400, 1e-160, 2.0**-512]),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_COORDINATE, _COORDINATE), max_size=7))
    def test_same_class_and_index_on_arbitrary_input(self, verts):
        want = _expected(verts)
        got = _outcome(ConvexPolygon, verts)
        if isinstance(got, ConvexPolygon):
            got = [list(got.xs), list(got.ys)]
            want = list(want)
        assert got == want


class TestRepresentation:
    """A polygon is its coordinate tuples ``xs`` and ``ys`` plus the centroid,
    the smallest turn and eight climb-start vertex indices."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: [(0, 0), (3, 1), (2, 4), (-1, 2)],
            lambda: [[0, 0], [3, 1], [2, 4], [-1, 2]],
            lambda: ((0.0, 0.0), (3.0, 1.0), (2.0, 4.0), (-1.0, 2.0)),
            lambda: [Vec2(0, 0), Vec2(3, 1), Vec2(2, 4), Vec2(-1, 2)],
            lambda: ((x, y) for x, y in [(0, 0), (3, 1), (2, 4), (-1, 2)]),
        ],
        ids=["int-tuples", "int-lists", "float-tuples", "vec2", "generator"],
    )
    def test_coordinates_are_float_tuples_equal_to_the_input(self, build):
        poly = ConvexPolygon(build())
        assert poly.xs == (0.0, 3.0, 2.0, -1.0)
        assert poly.ys == (0.0, 1.0, 4.0, 2.0)
        assert type(poly.xs) is tuple and type(poly.ys) is tuple
        assert all(type(c) is float for c in poly.xs + poly.ys)
        assert len(poly) == 4
        assert poly.centroid == Vec2(1.0, 1.75)

    def test_equality_and_hash_follow_the_coordinates(self):
        a = ConvexPolygon(UNIT_SQUARE_RING)
        b = ConvexPolygon([(0.0, 0.0), [1, 0], Vec2(1, 1), (0, 1)])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert hash(a) == hash((a.xs, a.ys))
        # same xs, other ys; and the same ring started at another vertex
        assert a != ConvexPolygon([(0, 0), (1, 0), (1, 2), (0, 1)])
        assert a != ConvexPolygon(UNIT_SQUARE_RING[1:] + UNIT_SQUARE_RING[:1])
        assert a != UNIT_SQUARE_RING and a != (a.xs, a.ys)

    def test_repr_shows_the_coordinates(self):
        poly = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
        assert repr(poly) == "ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])"
        assert eval(repr(poly)) == poly

    def test_holds_no_per_vertex_copy(self):
        poly = ConvexPolygon(UNIT_SQUARE_RING)
        assert ConvexPolygon.__slots__ == (
            "xs", "ys", "centroid",
            "bottom", "lower_right", "right", "upper_right",
            "top", "upper_left", "left", "lower_left",
        )
        with pytest.raises(AttributeError):
            poly.vertices
        with pytest.raises(AttributeError):
            poly.vertices = ()

    def test_vec2_is_a_plain_record(self):
        v = Vec2(3, 4)
        assert v._fields == ("x", "y") and v == (3, 4)
        assert not hasattr(v, "norm")
        with pytest.raises(TypeError):
            v - Vec2(1, 1)


class TestTransforms:
    def test_identity_keeps_polygon(self):
        poly = ConvexPolygon(UNIT_TRIANGLE)
        assert apply_transform(poly, 0.0) == poly
        assert apply_transform(poly, 0.0, 0.0, 0.0) == poly

    def test_quarter_turn_about_origin(self):
        poly = ConvexPolygon([(1, 0), (2, 0), (1, 1)])
        moved = apply_transform(poly, math.pi / 2)
        expected = [(0, 1), (0, 2), (-1, 1)]
        for got, want in zip(vertices(moved), expected):
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_translation_shifts_vertices(self):
        poly = ConvexPolygon(UNIT_TRIANGLE)
        moved = apply_transform(poly, 0.0, 5.0, -2.0)
        for got, base in zip(vertices(moved), vertices(poly)):
            assert got == (base[0] + 5.0, base[1] - 2.0)

    @pytest.mark.parametrize(
        "motion",
        [
            (float("inf"),),
            (float("-inf"), 1.0, 1.0),
            (float("nan"),),
            (0.0, float("inf"), 0.0),
            (0.0, 0.0, float("-inf")),
            (1.0, float("nan"), 0.0),
        ],
        ids=["inf-rotation", "neg-inf-rotation", "nan-rotation", "inf-tx", "neg-inf-ty", "nan-tx"],
    )
    def test_rejects_non_finite_motion(self, motion):
        with pytest.raises(ValueError):
            apply_transform(ConvexPolygon(UNIT_TRIANGLE), *motion)

    def test_preserves_signed_area(self):
        rng = random.Random(2024)
        poly = ConvexPolygon(UNIT_SQUARE_RING)
        for _ in range(200):
            moved = apply_transform(
                poly, rng.uniform(-10, 10), rng.uniform(-100, 100), rng.uniform(-100, 100)
            )
            assert signed_area(moved) == pytest.approx(signed_area(poly), rel=1e-9)

    def test_preserves_pairwise_distances(self):
        rng = random.Random(7)
        poly = ConvexPolygon([(0, 0), (3, 1), (2, 4), (-1, 2)])
        for _ in range(50):
            moved = apply_transform(poly, rng.uniform(-7, 7), rng.uniform(-5, 5), rng.uniform(-5, 5))
            verts = vertices(poly)
            moved_verts = vertices(moved)
            for a, b, ma, mb in zip(verts, verts[1:], moved_verts, moved_verts[1:]):
                assert math.dist(a, b) == pytest.approx(math.dist(ma, mb), rel=1e-12)


class TestContainsPoint:
    def test_inside_and_outside(self):
        poly = ConvexPolygon(UNIT_SQUARE_RING)
        assert contains_point(poly, Vec2(0.5, 0.5))
        assert not contains_point(poly, Vec2(1.5, 0.5))

    def test_boundary_with_slack(self):
        poly = ConvexPolygon(UNIT_SQUARE_RING)
        just_outside = Vec2(1.0 + 1e-10, 0.5)
        assert not contains_point(poly, just_outside)
        assert contains_point(poly, just_outside, tolerance=1e-9)
        assert not contains_point(poly, Vec2(1.0, 0.5), tolerance=-1e-9)

    def test_nan_and_infinite_points_and_nan_tolerance_are_outside(self):
        # every comparison with NaN is false, so a NaN cross must fail its
        # edge test rather than pass it; on the square (inf, inf) crosses
        # every edge as NaN (0 * inf). A finite slack admits no infinite
        # point, and no slack admits a NaN.
        nan, inf = math.nan, math.inf
        points = [(nan, 0.5), (0.5, nan), (nan, nan)]
        points += [(x, y) for x in (inf, -inf, 0.5) for y in (inf, -inf, 0.5) if (x, y) != (0.5, 0.5)]
        for poly in (ConvexPolygon(UNIT_SQUARE_RING), random_convex_polygon(9, random.Random(8))):
            for tolerance in (0.0, 1e-9, -1e-9, 1e300):
                for x, y in points:
                    assert not contains_point(poly, Vec2(x, y), tolerance)
            assert contains_point(poly, Vec2(*poly.centroid), inf)
            for tolerance in (nan, -nan, -inf):
                assert not contains_point(poly, Vec2(*poly.centroid), tolerance)


class TestJsonShape:
    def test_round_trip(self):
        poly = ConvexPolygon([(0.1, 0.2), (3.7, -0.4), (1.5, 2.25)])
        assert polygon_from_jsonable(polygon_to_jsonable(poly)) == poly

    def test_rejects_malformed_object(self):
        with pytest.raises(PolygonError):
            polygon_from_jsonable({"points": []})
        with pytest.raises(PolygonError):
            polygon_from_jsonable({"vertices": [[1, 2, 3]]})
        # non-numeric coordinates name their vertex instead of escaping as
        # a bare ValueError/TypeError from float()
        for bad in ("a", None):
            with pytest.raises(PolygonError, match="vertex 1 has a non-numeric coordinate"):
                polygon_from_jsonable({"vertices": [[0, 0], [bad, 0], [1, 1]]})
        # a JSON integer beyond the double range is a number, but not a finite double
        with pytest.raises(NonFiniteCoordinate) as exc:
            polygon_from_jsonable({"vertices": [[0, 0], [10**400, 0], [1, 1]]})
        assert exc.value.index == 1

    @pytest.mark.parametrize("bad", ["0", "1e0", " 1 ", "nan", True, False])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_rejects_strings_and_booleans_naming_the_vertex(self, bad, axis):
        # float() takes each of these, so only the type test catches them
        verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
        verts[2][axis] = bad
        with pytest.raises(PolygonError, match="vertex 2 has a non-numeric coordinate"):
            polygon_from_jsonable({"vertices": verts})

    def test_first_vertex_with_a_non_number_is_named(self):
        verts = [["0", False], [True, "0"], ["1e0", " 1 "], ["0", 1]]
        with pytest.raises(PolygonError, match="vertex 0 has a non-numeric coordinate"):
            polygon_from_jsonable({"vertices": verts})
        # the constructor still converts whatever float() takes
        assert ConvexPolygon(verts) == ConvexPolygon(UNIT_SQUARE_RING)
