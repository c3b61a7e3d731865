"""Minimum-norm subdistance over 1-, 2-, and 3-point simplices.

Given a simplex of Minkowski-difference points, these routines find the
minimal sub-simplex supporting the point closest to the origin, its
barycentric coordinates, and that closest point. The triangle case is
dispatched through a 3-bit *region code*: the plane around a triangle
splits into 7 regions by the signs of the origin's barycentric
coordinates, and each sign is recovered from whether the corresponding
sub-area cross product agrees in sign with the total. Codes 1/2/4 are
vertex cone regions, 3/5/6 are edge regions, and 7 means the triangle
encloses the origin.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from .geometry import Vec2
from .support import SimplexVertex

# Relative degeneracy threshold on the triangle's doubled signed area.
_DEGENERATE_REL = 1e-12

# Hot-path tuples skip the generated NamedTuple.__new__ frame, about half their cost.
_new = tuple.__new__


class SubdistanceResult(NamedTuple):
    """Supporting sub-simplex, its barycentric coordinates, closest point v."""

    verts: List[SimplexVertex]
    lambdas: List[float]
    v: Vec2


class DegenerateTriangle(ArithmeticError):
    """The three points are (nearly) collinear; the region code is undefined."""


def s1d(a: SimplexVertex, b: SimplexVertex) -> SubdistanceResult:
    """Closest point to the origin on segment [a.w, b.w].

    The two vertex regions are identified by the orthogonality tests
    dot(A, B-A) >= 0 (answer A) and dot(B, B-A) <= 0 (answer B); otherwise
    the foot of the perpendicular lies inside the segment and the same
    dot products yield the barycentric coordinates directly. Exactly
    coincident endpoints give dot(A, B-A) = 0, so the answer is {a}; any
    other segment is solved as it is, however short.
    """
    aw = a[0]
    bw = b[0]
    ax, ay = aw
    bx, by = bw
    ux = bx - ax
    uy = by - ay
    oa_ab = ax * ux + ay * uy
    if oa_ab >= 0.0:
        return _new(SubdistanceResult, ([a], [1.0], aw))
    ob_ab = bx * ux + by * uy
    if ob_ab <= 0.0:
        return _new(SubdistanceResult, ([b], [1.0], bw))
    total = oa_ab - ob_ab  # equals -|AB|^2; oa_ab < 0 < ob_ab makes it negative
    lam_u = -ob_ab / total
    lam_v = oa_ab / total
    v = _new(Vec2, (lam_u * ax + lam_v * bx, lam_u * ay + lam_v * by))
    return _new(SubdistanceResult, ([a, b], [lam_u, lam_v], v))


def compute_barycode(a: Vec2, b: Vec2, c: Vec2) -> Tuple[int, float, float, float, float]:
    """Region code of the origin against triangle (a, b, c).

    Returns ``(code, sigma_u, sigma_v, sigma_w, total)`` where the sigmas
    are the doubled signed sub-areas cross(b, c), cross(c, a), cross(a, b)
    and ``total`` their sum (the doubled signed area of the triangle).
    Bit 2/1/0 of the code is set iff sigma_u/sigma_v/sigma_w has the same
    strict positivity as ``total``, which encodes the sign of the
    origin's barycentric coordinate tied to vertex a/b/c. Raises
    ``DegenerateTriangle`` when ``|total|`` is at most a fixed fraction of
    the largest sub-area, i.e. the points are collinear. The threshold has
    no absolute floor, so the test reads the same at every scale.
    """
    ax, ay = a
    bx, by = b
    cx, cy = c
    su = bx * cy - by * cx
    sv = cx * ay - cy * ax
    sw = ax * by - ay * bx
    total = su + sv + sw
    scale = max(abs(su), abs(sv), abs(sw))
    if abs(total) <= _DEGENERATE_REL * scale:
        raise DegenerateTriangle(
            f"collinear simplex points (area sum {total!r} below threshold)"
        )
    pos = total > 0.0
    code = (
        (((su > 0.0) == pos) << 2)
        | (((sv > 0.0) == pos) << 1)
        | ((sw > 0.0) == pos)
    )
    return code, su, sv, sw, total


def cone_region(v: SimplexVertex, m: SimplexVertex, n: SimplexVertex) -> SubdistanceResult:
    """Resolve the vertex cone region at V of the triangle simplex (V, M, N).

    M and N are the other two vertices in simplex order. If the angle MVN
    is acute or right the answer is the vertex itself. Otherwise the
    origin may project onto one of the incident edges, detected by
    dot(V, V-M) > 0 (resp. N) and resolved by the segment routine; failing
    both tests the origin is in V's own region and the vertex answer stands.
    """
    vw = v[0]
    vx, vy = vw
    mx, my = m[0]
    nx, ny = n[0]
    mvx = vx - mx
    mvy = vy - my
    nvx = vx - nx
    nvy = vy - ny
    if mvx * nvx + mvy * nvy >= 0.0:
        return _new(SubdistanceResult, ([v], [1.0], vw))
    if vx * mvx + vy * mvy > 0.0:
        return s1d(v, m)
    if vx * nvx + vy * nvy > 0.0:
        return s1d(v, n)
    return _new(SubdistanceResult, ([v], [1.0], vw))


def _best_edge(a: SimplexVertex, b: SimplexVertex, c: SimplexVertex) -> SubdistanceResult:
    """Collinear fallback: best of the three edge subproblems.

    Ties keep the earliest edge in (a,b), (b,c), (c,a) order.
    """
    best = s1d(a, b)
    best_d = best.v.x * best.v.x + best.v.y * best.v.y
    for first, second in ((b, c), (c, a)):
        res = s1d(first, second)
        d = res.v.x * res.v.x + res.v.y * res.v.y
        if d < best_d:
            best = res
            best_d = d
    return best


def s2d(a: SimplexVertex, b: SimplexVertex, c: SimplexVertex) -> SubdistanceResult:
    """Closest point to the origin on triangle (a.w, b.w, c.w).

    Dispatches on the region code: 1/2/4 resolve the cone region at
    c/b/a, 3/5/6 drop a/b/c and fall to the segment routine, and 7 keeps
    the full simplex with the origin's barycentric coordinates (the
    closest point is then the origin itself). Collinear triangles fall
    back to the best edge result.
    """
    aw = a[0]
    bw = b[0]
    cw = c[0]
    try:
        code, su, sv, _sw, total = compute_barycode(aw, bw, cw)
    except DegenerateTriangle:
        return _best_edge(a, b, c)
    if code == 7:
        ax, ay = aw
        bx, by = bw
        cx, cy = cw
        lam_u = su / total
        lam_v = sv / total
        lam_w = 1.0 - lam_u - lam_v
        v = _new(Vec2, (
            lam_u * ax + lam_v * bx + lam_w * cx,
            lam_u * ay + lam_v * by + lam_w * cy,
        ))
        return _new(SubdistanceResult, ([a, b, c], [lam_u, lam_v, lam_w], v))
    if code == 6:
        return s1d(a, b)
    if code == 5:
        return s1d(a, c)
    if code == 3:
        return s1d(b, c)
    if code == 4:
        return cone_region(a, b, c)
    if code == 2:
        return cone_region(b, a, c)
    return cone_region(c, a, b)  # code 1

