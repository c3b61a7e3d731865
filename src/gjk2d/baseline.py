"""Independently coded correctness oracles and the SAT baseline.

Nothing here touches the GJK, subdistance or support modules; equivalence
tests between the two paths are only meaningful if they share no code.
The oracles build the Minkowski difference P - Q as an explicit convex
polygon in O(n + m) by merging the edge sequences of P and -Q by angle,
then test or measure the origin against it; ``gjk2d gen`` and ``check``
judge pairs by these alone. ``sat_intersects`` is a benchmarked comparator.
The brute-force O(n*m) references the oracles replaced (all-pairs
difference hull, vertex-edge scan) cross-check them in ``tests/oracle_utils``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import ConvexPolygon


@dataclass(frozen=True)
class OracleReport:
    distance: float
    intersecting: bool
    depth: float


def sat_intersects(p_poly: ConvexPolygon, q_poly: ConvexPolygon) -> bool:
    """Separating-axis test over the edge normals of both polygons.

    Projection intervals are closed, so exact touching counts as
    intersecting. Returns False as soon as one axis separates.
    """
    pxs, pys = p_poly.xs, p_poly.ys
    qxs, qys = q_poly.xs, q_poly.ys
    np_, nq = len(pxs), len(qxs)
    for xs, ys, n in ((pxs, pys, np_), (qxs, qys, nq)):
        for i in range(n):
            j = i + 1 if i + 1 < n else 0
            # outward normal of edge i (unnormalized; scale cancels)
            ax = ys[j] - ys[i]
            ay = xs[i] - xs[j]
            lo_p = hi_p = pxs[0] * ax + pys[0] * ay
            for k in range(1, np_):
                d = pxs[k] * ax + pys[k] * ay
                if d < lo_p:
                    lo_p = d
                elif d > hi_p:
                    hi_p = d
            lo_q = hi_q = qxs[0] * ax + qys[0] * ay
            for k in range(1, nq):
                d = qxs[k] * ax + qys[k] * ay
                if d < lo_q:
                    lo_q = d
                elif d > hi_q:
                    hi_q = d
            if lo_p > hi_q or lo_q > hi_p:
                return False
    return True


def _difference_polygon(p_poly: ConvexPolygon, q_poly: ConvexPolygon):
    """CCW vertices of P - Q as ``(x, y, i, j)`` with ``(x, y) = P[i] - Q[j]``.

    The edges of P and of -Q, each started from its lowest (min y, then
    min x) vertex, are merged by angle in one pass; an exactly parallel
    pair is taken in one step, leaving no vertex inside the merged edge.
    Two valid polygons always give at least 3 vertices.
    """
    pxs, pys = p_poly.xs, p_poly.ys
    qxs, qys = q_poly.xs, q_poly.ys
    n = len(pxs)
    m = len(qxs)
    i = min(zip(pys, pxs, range(n)))[2]
    # the lowest vertex of -Q is the highest of Q
    j = max(zip(qys, qxs, range(m)))[2]
    verts = []
    taken_p = taken_q = 0
    while taken_p < n or taken_q < m:
        verts.append((pxs[i] - qxs[j], pys[i] - qys[j], i, j))
        i1 = i + 1 if i + 1 < n else 0
        j1 = j + 1 if j + 1 < m else 0
        if taken_p == n:
            turn = -1.0
        elif taken_q == m:
            turn = 1.0
        else:
            # cross of P's edge i with -Q's edge j: > 0 means P's turns first
            turn = (pxs[i1] - pxs[i]) * (qys[j] - qys[j1]) - (pys[i1] - pys[i]) * (
                qxs[j] - qxs[j1]
            )
        if turn >= 0.0:
            i = i1
            taken_p += 1
        if turn <= 0.0:
            j = j1
            taken_q += 1
    return verts


def oracle_distance(p_poly: ConvexPolygon, q_poly: ConvexPolygon) -> OracleReport:
    """Ground-truth distance: the origin against the difference polygon.

    ``intersecting`` is closed containment: the origin inside P - Q,
    boundary included, which is exactly when no edge of P - Q has the
    origin strictly outside its line. ``depth`` is then the origin's
    distance to the nearest edge line of P - Q, the shortest translation
    of Q to contact, and the distance is 0.0. Otherwise ``depth`` is 0.0
    and the distance is the minimum over the polygon's edges of the
    origin's distance to the edge.
    """
    verts = _difference_polygon(p_poly, q_poly)
    best_sq = math.inf
    ax, ay = verts[-1][0], verts[-1][1]
    for bx, by, _, _ in verts:
        ux = bx - ax
        uy = by - ay
        # Only an edge with the origin strictly outside its line can hold
        # the closest point. Coordinates are bounded by MAX_COORDINATE, so
        # every such edge gives a finite d_sq and best_sq stays inf only
        # when the origin is inside.
        if ax * uy - ay * ux < 0.0:
            t = -(ax * ux + ay * uy)
            den = ux * ux + uy * uy
            if t <= 0.0:
                d_sq = ax * ax + ay * ay
            elif t >= den:
                d_sq = bx * bx + by * by
            else:
                t /= den
                dx = ax + t * ux
                dy = ay + t * uy
                d_sq = dx * dx + dy * dy
            if d_sq < best_sq:
                best_sq = d_sq
        ax, ay = bx, by
    if best_sq == math.inf:
        pxs, pys, qxs, qys = p_poly.xs, p_poly.ys, q_poly.xs, q_poly.ys
        depth = math.inf
        ax, ay, i0, j0 = verts[-1]
        for bx, by, i1, j1 in verts:
            # Signed distance inside the CCW edge, along the input edge(s) it
            # comes from (an index that did not advance adds 0): the rounded
            # vertices can coincide, or leave only noise, when one edge is tiny.
            ux = (pxs[i1] - pxs[i0]) + (qxs[j0] - qxs[j1])
            uy = (pys[i1] - pys[i0]) + (qys[j0] - qys[j1])
            d = (ax * uy - ay * ux) / math.hypot(ux, uy)
            if d < depth:
                depth = d
            ax, ay, i0, j0 = bx, by, i1, j1
        return OracleReport(0.0, True, depth)
    return OracleReport(math.sqrt(best_sq), False, 0.0)


def cso_contains_origin(p_poly: ConvexPolygon, q_poly: ConvexPolygon) -> bool:
    """Origin strictly inside the Minkowski difference (boundary excluded).

    Half-plane-tests the origin against every edge of P - Q, built in
    O(n + m). Closed containment, boundary included, is
    ``oracle_distance(...).intersecting``.
    """
    verts = _difference_polygon(p_poly, q_poly)
    ax, ay = verts[-1][0], verts[-1][1]
    for bx, by, _, _ in verts:
        side = ax * (by - ay) - ay * (bx - ax)
        if side <= 0.0:
            return False
        ax, ay = bx, by
    return True

