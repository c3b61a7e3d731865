"""Independent geometric oracles for the test suite.

These deliberately avoid the library's solver routines: segments are
handled by a dense parameter grid plus analytic refinement inside the
bracketing cell, triangles by a closed inside test plus the segment
oracle per edge, and barycentric coordinates by a Cramer solve of the
edge-dot linear system. The brute-force Minkowski-difference references
(monotone-chain hull of all n*m vertex differences, all-pairs vertex-edge
scan) cross-check the linear-time oracles of ``gjk2d.baseline``.
"""

from __future__ import annotations

import math

GRID = 1024


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


def segment_distance_to_origin(a, b, grid: int = GRID) -> float:
    """Min over t in [0,1] of |(1-t)a + t b| by grid scan + refinement."""
    ax, ay = a
    bx, by = b
    ux, uy = bx - ax, by - ay
    best_i = 0
    best = ax * ax + ay * ay
    for i in range(1, grid + 1):
        t = i / grid
        px, py = ax + t * ux, ay + t * uy
        d = px * px + py * py
        if d < best:
            best = d
            best_i = i
    # refine inside the bracketing cell; the squared distance is a convex
    # quadratic in t, so the vertex clipped to the bracket is exact
    lo = max(0.0, (best_i - 1) / grid)
    hi = min(1.0, (best_i + 1) / grid)
    den = ux * ux + uy * uy
    if den > 0.0:
        t = -(ax * ux + ay * uy) / den
        t = min(max(t, lo), hi)
    else:
        t = 0.0
    px, py = ax + t * ux, ay + t * uy
    return math.hypot(px, py)


def origin_inside_triangle(a, b, c, strict: bool = False) -> bool:
    """Half-plane test; works for either vertex orientation."""
    s1 = (b[0] - a[0]) * (0.0 - a[1]) - (b[1] - a[1]) * (0.0 - a[0])
    s2 = (c[0] - b[0]) * (0.0 - b[1]) - (c[1] - b[1]) * (0.0 - b[0])
    s3 = (a[0] - c[0]) * (0.0 - c[1]) - (a[1] - c[1]) * (0.0 - c[0])
    if strict:
        return (s1 > 0 and s2 > 0 and s3 > 0) or (s1 < 0 and s2 < 0 and s3 < 0)
    return (s1 >= 0 and s2 >= 0 and s3 >= 0) or (s1 <= 0 and s2 <= 0 and s3 <= 0)


def triangle_distance_to_origin(a, b, c, grid: int = GRID) -> float:
    if origin_inside_triangle(a, b, c):
        return 0.0
    return min(
        segment_distance_to_origin(a, b, grid),
        segment_distance_to_origin(b, c, grid),
        segment_distance_to_origin(c, a, grid),
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
    from gjk2d.baseline import ClosestFeature, OracleReport, sat_intersects

    if sat_intersects(p_poly, q_poly):
        return OracleReport(0.0, ClosestFeature.OVERLAP, cso_origin_clearance(p_poly, q_poly))
    best_sq = math.inf
    at_endpoint = True
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
                clamped = False
                if t <= 0.0:
                    t = 0.0
                    clamped = True
                elif t >= 1.0:
                    t = 1.0
                    clamped = True
                dx = px - (ax + t * ux)
                dy = py - (ay + t * uy)
                d_sq = dx * dx + dy * dy
                if d_sq < best_sq:
                    best_sq = d_sq
                    at_endpoint = clamped
    feature = ClosestFeature.VERTEX_VERTEX if at_endpoint else ClosestFeature.VERTEX_EDGE
    return OracleReport(math.sqrt(best_sq), feature, 0.0)


def point_segment_distance(p, a, b) -> float:
    """Distance from p to segment [a, b] by clamped projection."""
    ux = b.x - a.x
    uy = b.y - a.y
    den = ux * ux + uy * uy
    if den > 0.0:
        t = ((p.x - a.x) * ux + (p.y - a.y) * uy) / den
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
    else:
        t = 0.0
    dx = p.x - (a.x + t * ux)
    dy = p.y - (a.y + t * uy)
    return math.sqrt(dx * dx + dy * dy)


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


def triangle_distance_batch(tris, grid: int = 256):
    """Vectorized triangle oracle for large sweeps; tris has shape (N, 3, 2)."""
    import numpy as np

    tris = np.asarray(tris, dtype=float)
    n = len(tris)
    out = np.empty(n)
    # closed inside test
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]

    def edge_cross(p, q):
        return (q[:, 0] - p[:, 0]) * (-p[:, 1]) - (q[:, 1] - p[:, 1]) * (-p[:, 0])

    s1, s2, s3 = edge_cross(a, b), edge_cross(b, c), edge_cross(c, a)
    inside = ((s1 >= 0) & (s2 >= 0) & (s3 >= 0)) | ((s1 <= 0) & (s2 <= 0) & (s3 <= 0))

    def edge_min(p, q):
        u = q - p
        ts = np.linspace(0.0, 1.0, grid + 1)
        best = np.full(len(p), np.inf)
        best_i = np.zeros(len(p), dtype=int)
        # chunk the grid to bound memory
        step = 64
        for start in range(0, grid + 1, step):
            chunk = ts[start : start + step]
            pts = p[:, None, :] + chunk[None, :, None] * u[:, None, :]
            d = (pts * pts).sum(axis=2)
            i = d.argmin(axis=1)
            dmin = d[np.arange(len(p)), i]
            better = dmin < best
            best = np.where(better, dmin, best)
            best_i = np.where(better, i + start, best_i)
        lo = np.clip((best_i - 1) / grid, 0.0, 1.0)
        hi = np.clip((best_i + 1) / grid, 0.0, 1.0)
        den = (u * u).sum(axis=1)
        t = np.where(den > 0, -(p * u).sum(axis=1) / np.where(den > 0, den, 1.0), 0.0)
        t = np.clip(t, lo, hi)
        pt = p + t[:, None] * u
        return np.sqrt((pt * pt).sum(axis=1))

    d = np.minimum(edge_min(a, b), np.minimum(edge_min(b, c), edge_min(c, a)))
    out = np.where(inside, 0.0, d)
    return out
