"""Planar vector algebra, rigid transforms, and convex-polygon validation.

Everything downstream (support mappings, the GJK loops, the oracles, the
dataset generator) builds on the types defined here. All values are
immutable after construction and all operations are pure functions, so
unrestricted concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple


class Vec2(NamedTuple):
    """Immutable 2D vector with double-precision components."""

    x: float
    y: float

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def dot(a: Vec2, b: Vec2) -> float:
    return a.x * b.x + a.y * b.y


def cross(a: Vec2, b: Vec2) -> float:
    """Scalar 2D cross product a.x*b.y - a.y*b.x (z of the 3D cross)."""
    return a.x * b.y - a.y * b.x


class PolygonError(ValueError):
    """A vertex list does not describe a valid strictly convex CCW polygon."""


class FewerThanThreeVertices(PolygonError):
    def __init__(self, count: int):
        super().__init__(f"polygon needs at least 3 vertices, got {count}")
        self.count = count


class NonFiniteCoordinate(PolygonError):
    def __init__(self, index: int):
        super().__init__(f"vertex {index} has a non-finite coordinate")
        self.index = index


class NotCounterClockwise(PolygonError):
    def __init__(self) -> None:
        super().__init__("vertices are not in counter-clockwise order")


class NotStrictlyConvex(PolygonError):
    def __init__(self, index: int):
        super().__init__(
            f"vertex {index} breaks strict convexity (collinear or reflex)"
        )
        self.index = index


class ConvexPolygon:
    """Strictly convex polygon with counter-clockwise vertices.

    Construction validates the vertex list and raises a ``PolygonError``
    subclass on the first violation found. Strict convexity (every
    consecutive vertex triple turns strictly left) is required, so there
    are no duplicate or collinear vertices. Flat per-axis coordinate
    tuples and the vertex centroid are precomputed for fast support
    scans. Instances are immutable.
    """

    __slots__ = ("vertices", "xs", "ys", "centroid")

    def __init__(self, vertices: Iterable):
        verts = tuple(Vec2(float(x), float(y)) for x, y in vertices)
        n = len(verts)
        if n < 3:
            raise FewerThanThreeVertices(n)
        for i, v in enumerate(verts):
            if not (math.isfinite(v.x) and math.isfinite(v.y)):
                raise NonFiniteCoordinate(i)
        area2 = 0.0
        for i in range(n):
            a = verts[i]
            b = verts[(i + 1) % n]
            area2 += a.x * b.y - b.x * a.y
        if area2 < 0.0:
            raise NotCounterClockwise()
        for i in range(n):
            a = verts[i]
            b = verts[(i + 1) % n]
            c = verts[(i + 2) % n]
            if (b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x) <= 0.0:
                raise NotStrictlyConvex((i + 1) % n)
        self.vertices = verts
        self.xs = tuple(v.x for v in verts)
        self.ys = tuple(v.y for v in verts)
        self.centroid = Vec2(sum(self.xs) / n, sum(self.ys) / n)

    @property
    def signed_area(self) -> float:
        area2 = 0.0
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            a = verts[i]
            b = verts[(i + 1) % n]
            area2 += a.x * b.y - b.x * a.y
        return 0.5 * area2

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConvexPolygon):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"ConvexPolygon({list(self.vertices)!r})"


@dataclass(frozen=True)
class Transform2:
    """Rigid planar motion: rotation (radians) about the origin, then translation."""

    rotation: float
    translation: Vec2 = Vec2(0.0, 0.0)

    def __post_init__(self):
        if not isinstance(self.translation, Vec2):
            object.__setattr__(self, "translation", Vec2(*self.translation))
        if not math.isfinite(self.rotation):
            raise ValueError("rotation must be finite")
        if not (
            math.isfinite(self.translation.x) and math.isfinite(self.translation.y)
        ):
            raise ValueError("translation must be finite")


def apply_transform(transform: Transform2, poly: ConvexPolygon) -> ConvexPolygon:
    """Rotate then translate every vertex; orientation and convexity persist."""
    c = math.cos(transform.rotation)
    s = math.sin(transform.rotation)
    tx, ty = transform.translation
    return ConvexPolygon(
        (x * c - y * s + tx, x * s + y * c + ty)
        for x, y in zip(poly.xs, poly.ys)
    )


def contains_point(poly: ConvexPolygon, point: Vec2, tolerance: float = 0.0) -> bool:
    """Point-in-convex-polygon test with a signed-distance slack.

    A positive ``tolerance`` admits points up to that distance outside the
    boundary; a negative one requires that much clearance inside.
    """
    px, py = point
    xs, ys = poly.xs, poly.ys
    n = len(xs)
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        ex = xs[j] - xs[i]
        ey = ys[j] - ys[i]
        # signed area cross; scale slack by edge length to compare distances
        if ex * (py - ys[i]) - ey * (px - xs[i]) < -tolerance * math.hypot(ex, ey):
            return False
    return True


def polygon_to_jsonable(poly: ConvexPolygon) -> dict:
    """Shared JSON shape: {"vertices": [[x, y], ...]}."""
    return {"vertices": [[v.x, v.y] for v in poly.vertices]}


def polygon_from_jsonable(obj) -> ConvexPolygon:
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise PolygonError("polygon JSON must be an object with a 'vertices' list")
    verts = obj["vertices"]
    if not isinstance(verts, list) or not all(
        isinstance(v, (list, tuple)) and len(v) == 2 for v in verts
    ):
        raise PolygonError("'vertices' must be a list of [x, y] pairs")
    return ConvexPolygon(verts)
