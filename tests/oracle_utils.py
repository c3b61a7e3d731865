"""Independent geometric oracles for the test suite.

These deliberately avoid the library's solver routines: segments are
handled by the closed-form clamped projection, triangles by a closed
inside test plus the segment oracle per edge (both also in exact
``Fraction`` arithmetic, the truth the float versions' error bound is
checked against), and barycentric coordinates by a Cramer solve of the
edge-dot linear system. The brute-force Minkowski-difference references
(monotone-chain hull of all n*m vertex differences, all-pairs vertex-edge
scan) cross-check the linear-time oracles of ``gjk2d.baseline``, and the
rational separating-axis test is the exact closed-intersection truth that
the float oracles round.
"""

from __future__ import annotations

import math
from fractions import Fraction

ORIGIN = (0.0, 0.0)


def dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1]


def cross(a, b) -> float:
    """Scalar 2D cross product a.x*b.y - a.y*b.x (z of the 3D cross)."""
    return a[0] * b[1] - a[1] * b[0]


def sub(a, b):
    """Difference a - b of two points as a plain (x, y) tuple."""
    return (a[0] - b[0], a[1] - b[1])


def vertices(poly):
    """A polygon's vertex ring as a list of (x, y) tuples."""
    return list(zip(poly.xs, poly.ys))


def signed_area(poly) -> float:
    """Shoelace area of a polygon's vertex ring; positive when CCW."""
    verts = vertices(poly)
    n = len(verts)
    return 0.5 * sum(cross(verts[i], verts[(i + 1) % n]) for i in range(n))


def point_segment_distance(p, a, b) -> float:
    """Distance from p to segment [a, b] by clamped projection.

    The closed form of Ericson, *Real-Time Collision Detection* (2004),
    section 5.1.2; points are any (x, y) pairs, ``Vec2`` included.
    """
    px, py = p
    ax, ay = a
    ux = b[0] - ax
    uy = b[1] - ay
    den = ux * ux + uy * uy
    if den > 0.0:
        t = ((px - ax) * ux + (py - ay) * uy) / den
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
    else:
        t = 0.0
    dx = px - (ax + t * ux)
    dy = py - (ay + t * uy)
    return math.sqrt(dx * dx + dy * dy)


def exact_segment_distance_sq(p, a, b) -> Fraction:
    """Squared distance from p to segment [a, b] in ``Fraction`` arithmetic.

    The same clamped projection as ``point_segment_distance``, but every
    input double converts to a ``Fraction`` exactly, so the result is the
    true squared distance.
    """
    px, py, ax, ay, bx, by = (Fraction(c) for c in (*p, *a, *b))
    ux, uy = bx - ax, by - ay
    den = ux * ux + uy * uy
    t = min(max(((px - ax) * ux + (py - ay) * uy) / den, 0), 1) if den else 0
    dx, dy = px - ax - t * ux, py - ay - t * uy
    return dx * dx + dy * dy


def origin_inside_triangle(a, b, c, strict: bool = False) -> bool:
    """Half-plane test; works for either vertex orientation."""
    s1 = (b[0] - a[0]) * (0.0 - a[1]) - (b[1] - a[1]) * (0.0 - a[0])
    s2 = (c[0] - b[0]) * (0.0 - b[1]) - (c[1] - b[1]) * (0.0 - b[0])
    s3 = (a[0] - c[0]) * (0.0 - c[1]) - (a[1] - c[1]) * (0.0 - c[0])
    if strict:
        return (s1 > 0 and s2 > 0 and s3 > 0) or (s1 < 0 and s2 < 0 and s3 < 0)
    return (s1 >= 0 and s2 >= 0 and s3 >= 0) or (s1 <= 0 and s2 <= 0 and s3 <= 0)


# 32 units of roundoff (2**-53 each); see triangle_distance_to_origin.
TRIANGLE_ORACLE_ERROR = 2.0**-48


def triangle_distance_to_origin(a, b, c) -> float:
    """Distance from the origin to the closed triangle abc.

    0.0 when the closed inside test holds, else the nearest of the three
    edges by ``point_segment_distance``.

    Error bound, barring underflow. Let u = 2**-53, M the largest
    |coordinate| of a, b, c, and d the exact distance to one edge [a, b]
    with U = b - a. The computed clamped parameter t is within
    5u + 3u|a|/|U| of the exact one t*: the dot product a.U carries at
    most 3u|a||U| absolute error (the rounded U, two products, one sum),
    the quotient by |U|**2 at most 5u relative, and clamping to [0, 1]
    only shrinks the gap. So the point a + tU of the exact segment lies
    between d and d + |U||t - t*| <= d + 13*sqrt(2)*u*M from the origin.
    Forming it from the rounded U moves it by at most 5*sqrt(2)*u*M, and
    sqrt(dx*dx + dy*dy) adds 2u relative, at most 2*sqrt(2)*u*M since
    every point of the segment is within sqrt(2)*M of the origin. The
    edge distance is thus within 20*sqrt(2)*u*M (about 28.3u*M) of d to
    first order, the minimum over three edges keeps that bound, and
    ``TRIANGLE_ORACLE_ERROR`` * M = 32u*M also covers the higher-order
    terms. The bound is for the edge branch: the inside test rounds its
    cross products, so within rounding of an edge it may answer 0.0 for
    an origin just outside, where the exact distance is itself tiny.
    """
    if origin_inside_triangle(a, b, c):
        return 0.0
    return min(
        point_segment_distance(ORIGIN, a, b),
        point_segment_distance(ORIGIN, b, c),
        point_segment_distance(ORIGIN, c, a),
    )


def exact_origin_inside_triangle(a, b, c) -> bool:
    """Closed half-plane test of the origin in ``Fraction`` arithmetic."""
    (ax, ay), (bx, by), (cx, cy) = ((Fraction(x), Fraction(y)) for x, y in (a, b, c))
    sides = (ax * by - ay * bx, bx * cy - by * cx, cx * ay - cy * ax)
    return min(sides) >= 0 or max(sides) <= 0


def exact_triangle_distance_sq(a, b, c) -> Fraction:
    """Exact squared distance from the origin to the closed triangle abc.

    A triangle of zero area is the union of its edges: the inside test
    would pass for every origin on its line.
    """
    (ax, ay), (bx, by), (cx, cy) = ((Fraction(x), Fraction(y)) for x, y in (a, b, c))
    area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if area != 0 and exact_origin_inside_triangle(a, b, c):
        return Fraction(0)
    return min(
        exact_segment_distance_sq(ORIGIN, a, b),
        exact_segment_distance_sq(ORIGIN, b, c),
        exact_segment_distance_sq(ORIGIN, c, a),
    )


def barycentric_of_origin(a, b, c):
    """(u, v, w) with u*a + v*b + w*c = origin, u + v + w = 1.

    Solved through the edge-dot 2x2 system by Cramer's rule. Returns None
    for a degenerate triangle.
    """
    abx, aby = b[0] - a[0], b[1] - a[1]
    acx, acy = c[0] - a[0], c[1] - a[1]
    apx, apy = -a[0], -a[1]
    d00 = abx * abx + aby * aby
    d01 = abx * acx + aby * acy
    d11 = acx * acx + acy * acy
    d20 = apx * abx + apy * aby
    d21 = apx * acx + apy * acy
    denom = d00 * d11 - d01 * d01
    if denom <= 0.0:
        return None
    v = (d11 * d20 - d01 * d21) / denom
    w = (d00 * d21 - d01 * d20) / denom
    return 1.0 - v - w, v, w


def convex_hull(points):
    """Convex hull of arbitrary points (monotone chain), CCW, no collinear."""
    from gjk2d.geometry import Vec2

    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return [Vec2(*p) for p in pts]

    def build(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and (
                (chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])
            ) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(reversed(pts))
    return [Vec2(*p) for p in lower[:-1] + upper[:-1]]


def difference_hull(p_poly, q_poly):
    """Hull of all n*m vertex differences P[i] - Q[j]."""
    return convex_hull(
        (px - qx, py - qy)
        for px, py in zip(p_poly.xs, p_poly.ys)
        for qx, qy in zip(q_poly.xs, q_poly.ys)
    )


def brute_cso_contains_origin(p_poly, q_poly, strict: bool = False) -> bool:
    """Half-plane test of the origin against the brute difference hull.

    The hull of two valid polygons' differences always has 3+ vertices.
    """
    hull = difference_hull(p_poly, q_poly)
    n = len(hull)
    for i in range(n):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % n]
        side = (bx - ax) * (0.0 - ay) - (by - ay) * (0.0 - ax)
        if side < 0.0 or (strict and side == 0.0):
            return False
    return True


def brute_oracle_distance(p_poly, q_poly):
    """SAT for overlap, else the all-pairs vertex-edge scan, as an OracleReport.

    On overlap the depth is ``cso_origin_clearance``. For disjoint convex
    polygons the minimum distance is realized between a vertex of one and
    an edge (possibly an endpoint) of the other, so scanning all such
    pairs both ways is exact.
    """
    from gjk2d.baseline import OracleReport, sat_intersects

    if sat_intersects(p_poly, q_poly):
        return OracleReport(0.0, True, cso_origin_clearance(p_poly, q_poly))
    best_sq = math.inf
    for vxs, vys, exs, eys in (
        (p_poly.xs, p_poly.ys, q_poly.xs, q_poly.ys),
        (q_poly.xs, q_poly.ys, p_poly.xs, p_poly.ys),
    ):
        ne = len(exs)
        for i in range(ne):
            j = i + 1 if i + 1 < ne else 0
            ax = exs[i]
            ay = eys[i]
            ux = exs[j] - ax
            uy = eys[j] - ay
            den = ux * ux + uy * uy
            for px, py in zip(vxs, vys):
                t = ((px - ax) * ux + (py - ay) * uy) / den
                if t <= 0.0:
                    t = 0.0
                elif t >= 1.0:
                    t = 1.0
                dx = px - (ax + t * ux)
                dy = py - (ay + t * uy)
                d_sq = dx * dx + dy * dy
                if d_sq < best_sq:
                    best_sq = d_sq
    return OracleReport(math.sqrt(best_sq), False, 0.0)


def exact_sat_intersects(p_poly, q_poly) -> bool:
    """Closed separating-axis test in ``Fraction`` arithmetic on the input doubles.

    Every double converts to a ``Fraction`` exactly, so each edge normal
    and projection is exact and exact touching counts as intersecting:
    two convex polygons are disjoint iff one of their edge normals
    separates the projection intervals.
    """
    polys = [
        [(Fraction(x), Fraction(y)) for x, y in zip(poly.xs, poly.ys)]
        for poly in (p_poly, q_poly)
    ]
    for verts in polys:
        n = len(verts)
        for i in range(n):
            (x0, y0), (x1, y1) = verts[i], verts[(i + 1) % n]
            ax, ay = y1 - y0, x0 - x1
            dp, dq = ([x * ax + y * ay for x, y in v] for v in polys)
            if min(dp) > max(dq) or min(dq) > max(dp):
                return False
    return True


def cso_origin_clearance(p_poly, q_poly) -> float:
    """Signed distance from the origin to the Minkowski-difference hull.

    Positive inside the hull, negative outside. Built from the brute
    difference hull and the point-segment distance above, not the
    library's solvers.
    """
    from gjk2d.geometry import Vec2

    hull = difference_hull(p_poly, q_poly)
    n = len(hull)
    origin = Vec2(0.0, 0.0)
    dist = min(
        point_segment_distance(origin, hull[i], hull[(i + 1) % n]) for i in range(n)
    )
    inside = all(
        (hull[(i + 1) % n].x - hull[i].x) * (0.0 - hull[i].y)
        - (hull[(i + 1) % n].y - hull[i].y) * (0.0 - hull[i].x)
        >= 0.0
        for i in range(n)
    )
    return dist if inside else -dist



def reference_validate(vertices):
    """``(xs, ys)`` float lists of a valid polygon, else the ``PolygonError``
    that ``ConvexPolygon`` raises.

    The validation loop ``ConvexPolygon`` ran before it tracked the
    smallest turn, kept verbatim: one first-index tracker per violation,
    ``abs()`` bound tests and module-level constants. The constructor is
    tested against it for the same exception class and index on any input.
    """
    from gjk2d.geometry import (
        FewerThanThreeVertices,
        NonFiniteCoordinate,
        NotCounterClockwise,
        NotStrictlyConvex,
    )

    MAX_COORDINATE = 2.0**500
    _MIN_TURN = 2.0**-1022

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
    # violations wait for the whole area sum.
    area2 = 0.0
    bent = None  # first middle vertex whose turn is not strictly left
    wound = None  # vertex where the edge direction passes angle 0 again
    tiny = None  # first middle vertex whose turn is below _MIN_TURN
    wraps = 0
    ax, ay, bx, by = xs[0], ys[0], xs[1], ys[1]
    ex = bx - ax
    ey = by - ay
    upper = ey > 0.0 or (ey == 0.0 and ex > 0.0)
    for i in range(n):
        if not (abs(ax) <= MAX_COORDINATE and abs(ay) <= MAX_COORDINATE):
            raise NonFiniteCoordinate(i)
        j = i + 1 if i + 1 < n else 0
        k = j + 1 if j + 1 < n else 0
        cx = xs[k]
        cy = ys[k]
        area2 += ax * by - bx * ay
        fx = cx - bx
        fy = cy - by
        turn = ex * fy - ey * fx
        if not turn > 0.0 and bent is None:
            bent = j
        if not turn >= _MIN_TURN and tiny is None:
            tiny = j
        # Left turns are each below pi, so the edge direction passes
        # angle 0 exactly when it moves from the lower half-plane to the
        # upper one; a convex boundary does so once.
        was_upper = upper
        upper = fy > 0.0 or (fy == 0.0 and fx > 0.0)
        if upper and not was_upper:
            wraps += 1
            if wraps == 2:
                wound = j
        ax = bx
        ay = by
        bx = cx
        by = cy
        ex = fx
        ey = fy
    if area2 < 0.0:
        raise NotCounterClockwise()
    for index in (bent, wound, tiny):
        if index is not None:
            raise NotStrictlyConvex(index)
    return xs, ys


def reference_s2d(a, b, c):
    """``s2d`` written as a dispatch through ``compute_barycode``.

    ``compute_barycode`` (which raises on code 0, or on a code whose
    signs are within rounding of 0) and then one solve per region code,
    code 7 answering the origin itself, reading the points through
    ``.w``; the vertex-region dot products are taken as written in
    ``s2d``'s docstring. ``s2d`` is tested against it for the same vertex
    objects and bit-identical lambdas and closest point.
    """
    from gjk2d.subdistance import DegenerateTriangle, _nearer, compute_barycode, s1d

    aw = a.w
    bw = b.w
    cw = c.w
    try:
        code, su, sv, _sw, total = compute_barycode(aw, bw, cw)
    except DegenerateTriangle:
        return _nearer(_nearer(s1d(a, b), s1d(b, c)), s1d(c, a))
    ax, ay = aw
    bx, by = bw
    cx, cy = cw
    if code == 7:
        lam_u = su / total
        lam_v = sv / total
        return [a, b, c], [lam_u, lam_v, 1.0 - lam_u - lam_v], 0.0, 0.0
    if code == 6:
        return s1d(a, b)
    if code == 5:
        return s1d(a, c)
    if code == 3:
        return s1d(b, c)
    if code == 4:
        return s1d(a, b) if ax * (bx - ax) + ay * (by - ay) < 0.0 else s1d(a, c)
    if code == 2:
        return s1d(b, a) if bx * (ax - bx) + by * (ay - by) < 0.0 else s1d(b, c)
    return s1d(c, a) if cx * (ax - cx) + cy * (ay - cy) < 0.0 else s1d(c, b)  # code 1


def reference_witness_points(p_poly, q_poly, verts, lambdas):
    """``witness_points`` as a loop over the simplex: each coordinate
    folded from ``0.0``, one ``lambda * vertex`` term per simplex vertex,
    in order. ``witness_points`` unrolls this by simplex size and is
    tested against it bit for bit, signed zeros included.
    """
    px = py = qx = qy = 0.0
    for (_, _, ip, iq), lam in zip(verts, lambdas):
        px += lam * p_poly.xs[ip]
        py += lam * p_poly.ys[ip]
        qx += lam * q_poly.xs[iq]
        qy += lam * q_poly.ys[iq]
    return (px, py), (qx, qy)
