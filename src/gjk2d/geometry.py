"""Planar vector algebra, rigid transforms, and convex-polygon validation.

Everything downstream (support mappings, the GJK loops, the oracles, the
dataset generator) builds on the types defined here. All values are
immutable after construction and all operations are pure functions, so
unrestricted concurrent use is safe.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple


class Vec2(NamedTuple):
    """Immutable (x, y) record: a point, a direction or a translation."""

    x: float
    y: float


# Largest accepted |coordinate|: products of coordinate differences, the
# largest values any query or oracle forms, then stay far below overflow.
MAX_COORDINATE = 2.0**500
# Smallest accepted turn, the smallest normal double: below it turns and the
# queries' squared lengths, all products of coordinate differences, underflow.
_MIN_TURN = 2.0**-1022


class PolygonError(ValueError):
    """A vertex list does not describe a valid strictly convex CCW polygon."""


class FewerThanThreeVertices(PolygonError):
    def __init__(self, count: int):
        super().__init__(f"polygon needs at least 3 vertices, got {count}")
        self.count = count


class NonFiniteCoordinate(PolygonError):
    def __init__(self, index: int):
        super().__init__(
            f"vertex {index} has a coordinate that is not finite or exceeds 2**500 in magnitude"
        )
        self.index = index


class NotCounterClockwise(PolygonError):
    def __init__(self) -> None:
        super().__init__("vertices are not in counter-clockwise order")


class NotStrictlyConvex(PolygonError):
    def __init__(self, index: int):
        super().__init__(
            f"vertex {index} breaks strict convexity "
            "(collinear, reflex, or where the boundary winds around a second time)"
        )
        self.index = index


class ConvexPolygon:
    """Strictly convex polygon with counter-clockwise vertices.

    Construction validates the vertex list and raises a ``PolygonError``
    subclass on the first violation found. Every coordinate must be finite
    and at most ``MAX_COORDINATE`` in magnitude. Strict convexity means
    every consecutive vertex triple turns left by at least the smallest
    normal double and the boundary winds around once, so there are no
    duplicate or collinear vertices and no star polygons. Such a ring is
    counter-clockwise by its turns and its single wrap alone, so no area
    sum decides orientation, and a translated copy of a valid polygon
    stays valid wherever its rounded coordinates still turn left by that
    much. Only a rejected ring has its signed area computed; a negative
    one is reported as ``NotCounterClockwise`` before any convexity
    violation. The polygon is its per-axis coordinate tuples ``xs`` and
    ``ys``, the vertex centroid (each coordinate sum added left to right
    from 0.0, so the same on every Python version), and eight vertex
    indices that hill-climbing support starts from, in ring order:
    ``bottom``, ``lower_right``, ``right``, ``upper_right``, ``top``,
    ``upper_left``, ``left``, ``lower_left``. ``bottom`` and ``top`` are
    the lowest and the highest vertex (the left end of a lowest or highest
    edge). The other six split the ring from ``bottom`` up to ``top`` and
    the ring from ``top`` back down to ``bottom`` into quarters: ``right``
    and ``left`` are their middle vertices, the other four the vertices a
    quarter of each ring from its ends, all counted from ``bottom``.
    Instances are immutable.
    """

    __slots__ = (
        "xs", "ys", "centroid",
        "bottom", "lower_right", "right", "upper_right",
        "top", "upper_left", "left", "lower_left",
    )

    def __init__(self, vertices: Iterable):
        xs, ys = [], []
        try:
            for x, y in vertices:
                xs.append(float(x))
                ys.append(float(y))
        except OverflowError:
            # float() rejects an int beyond the double range; ys holds one
            # coordinate per vertex converted before the failing one.
            raise NonFiniteCoordinate(len(ys)) from None
        n = len(xs)
        if n < 3:
            raise FewerThanThreeVertices(n)
        # One pass over the triples (a, b, c) = vertices (i, i+1, i+2). Only
        # the bound check raises at once, so it reports the lowest bad index
        # even though the turn at b reads vertices not yet checked; the other
        # violations wait for the whole pass.
        hi = MAX_COORDINATE
        lo = -hi
        sx = sy = 0.0  # coordinate sums, folded left: sum() compensates from 3.12
        least = math.inf  # smallest turn so far
        wound = None  # vertex where the edge direction passes angle 0 again
        wraps = 0
        bottom = top = 0  # lowest and highest vertex, counted from 0 up to n + 1
        ax, ay, bx, by = xs[0], ys[0], xs[1], ys[1]
        ex = bx - ax
        ey = by - ay
        upper = ey > 0.0 or (ey == 0.0 and ex > 0.0)
        for i, cx, cy in zip(range(n), xs[2:] + xs[:2], ys[2:] + ys[:2]):
            # the same predicate as abs(ax) <= hi, NaN and infinities included
            if not (lo <= ax <= hi and lo <= ay <= hi):
                raise NonFiniteCoordinate(i)
            sx += ax
            sy += ay
            fx = cx - bx
            fy = cy - by
            turn = ex * fy - ey * fx
            if turn < least:
                least = turn
            # Left turns are each below pi, so the edge direction passes
            # angle 0 exactly when it moves from the lower half-plane to the
            # upper one, at the lowest vertex b, and angle pi on the way
            # back, at the highest; a convex boundary does each once.
            was_upper = upper
            upper = fy > 0.0 or (fy == 0.0 and fx > 0.0)
            if upper is not was_upper:
                if upper:
                    # b, the left end of a lowest edge
                    wraps += 1
                    bottom = i + 1
                    if wraps == 2:
                        wound = bottom if bottom < n else 0
                else:
                    # the left end of a highest edge: c when b to c runs along it
                    top = i + 2 if fy == 0.0 else i + 1
            ax = bx
            ay = by
            bx = cx
            by = cy
            ex = fx
            ey = fy
        if least < _MIN_TURN or wound is not None:
            # Turns all at least _MIN_TURN with one wrap make a CCW ring, so
            # only a rejected ring needs the orientation: the signed area,
            # which outranks a bend (a turn not strictly left), which
            # outranks winding, which outranks a turn below _MIN_TURN; the
            # rescan names the first one in loop order. Every coordinate
            # passed the bound, so every turn is finite.
            if _area2(xs, ys) < 0.0:
                raise NotCounterClockwise()
            if least <= 0.0:
                raise NotStrictlyConvex(next(j for j, t in _turns(xs, ys) if t <= 0.0))
            if wound is not None:
                raise NotStrictlyConvex(wound)
            raise NotStrictlyConvex(next(j for j, t in _turns(xs, ys) if t < _MIN_TURN))
        self.xs = tuple(xs)
        self.ys = tuple(ys)
        self.centroid = Vec2(sx / n, sy / n)
        # bottom and top are both left ends, and the other six count from
        # bottom. An exactly tied edge along an axis then starts its climb
        # at the end with the smaller other coordinate in P and in Q alike,
        # so the first support point of P - Q falls inside that edge of
        # P - Q, not at a corner.
        bottom %= n
        top %= n
        up = (top - bottom) % n
        down = n - up
        self.bottom = bottom
        self.lower_right = (bottom + up // 4) % n
        self.right = (bottom + up // 2) % n
        self.upper_right = (bottom + 3 * up // 4) % n
        self.top = top
        self.upper_left = (bottom - 3 * down // 4) % n
        self.left = (bottom - down // 2) % n
        self.lower_left = (bottom - down // 4) % n

    def __len__(self) -> int:
        return len(self.xs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConvexPolygon):
            return NotImplemented
        return self.xs == other.xs and self.ys == other.ys

    def __hash__(self) -> int:
        return hash((self.xs, self.ys))

    def __repr__(self) -> str:
        return f"ConvexPolygon({list(zip(self.xs, self.ys))!r})"


def _area2(xs, ys) -> float:
    """Twice the signed area: the shoelace sum over edges (i, i+1), folded left."""
    n = len(xs)
    area2 = 0.0
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        area2 += xs[i] * ys[j] - xs[j] * ys[i]
    return area2


def _turns(xs, ys):
    """(b, turn at b) for each consecutive vertex triple (a, b, c), in the
    order ``ConvexPolygon`` validates them: vertex 0 last."""
    n = len(xs)
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        k = j + 1 if j + 1 < n else 0
        yield j, (xs[j] - xs[i]) * (ys[k] - ys[j]) - (ys[j] - ys[i]) * (xs[k] - xs[j])


def apply_transform(
    poly: ConvexPolygon, rotation: float, tx: float = 0.0, ty: float = 0.0
) -> ConvexPolygon:
    """Rotate by ``rotation`` radians about the origin, then translate by
    ``(tx, ty)``. A non-finite argument raises ``ValueError``: ``math.cos``
    rejects an infinite angle, ``ConvexPolygon`` any non-finite result.
    """
    c = math.cos(rotation)
    s = math.sin(rotation)
    return ConvexPolygon(
        (x * c - y * s + tx, x * s + y * c + ty)
        for x, y in zip(poly.xs, poly.ys)
    )


def contains_point(poly: ConvexPolygon, point: Vec2, tolerance: float = 0.0) -> bool:
    """Point-in-convex-polygon test with a signed-distance slack.

    A positive ``tolerance`` admits points up to that distance outside the
    boundary; a negative one requires that much clearance inside. A NaN
    coordinate or tolerance is never inside: each edge test asks for the
    point on the inner side, and every comparison with NaN is false.
    """
    px, py = point
    xs, ys = poly.xs, poly.ys
    n = len(xs)
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        ex = xs[j] - xs[i]
        ey = ys[j] - ys[i]
        # signed area cross; scale slack by edge length to compare distances
        if not ex * (py - ys[i]) - ey * (px - xs[i]) >= -tolerance * math.hypot(ex, ey):
            return False
    return True


def polygon_to_jsonable(poly: ConvexPolygon) -> dict:
    """Shared JSON shape: {"vertices": [[x, y], ...]}."""
    return {"vertices": [[x, y] for x, y in zip(poly.xs, poly.ys)]}


_PAIR = (list, tuple)


def polygon_from_jsonable(obj) -> ConvexPolygon:
    """Polygon from the shared JSON shape; every coordinate is a JSON number.

    A coordinate must be an ``int`` or a ``float``: strings, booleans and
    ``null`` are rejected naming their vertex, although ``float()`` (and so
    ``ConvexPolygon``) would take some of them.
    """
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise PolygonError("polygon JSON must be an object with a 'vertices' list")
    verts = obj["vertices"]
    if not isinstance(verts, list):
        raise PolygonError("'vertices' must be a list of [x, y] pairs")
    for i, v in enumerate(verts):
        if not (isinstance(v, _PAIR) and len(v) == 2):
            raise PolygonError("'vertices' must be a list of [x, y] pairs")
        x, y = v
        # exact types: bool is an int subclass
        if not ((type(x) is float or type(x) is int) and (type(y) is float or type(y) is int)):
            bad = y if type(x) is float or type(x) is int else x
            raise PolygonError(
                f"vertex {i} has a non-numeric coordinate "
                f"({bad!r:.40} is a {type(bad).__name__})"
            )
    return ConvexPolygon(verts)
