"""Minimum-norm subdistance over 1-, 2-, and 3-point simplices.

Given a simplex of Minkowski-difference points, these routines find the
minimal sub-simplex supporting the point closest to the origin, its
barycentric coordinates, and that closest point, returned flat as
``(verts, lambdas, vx, vy)``. The triangle case is dispatched through a
3-bit *region code*: the plane around a triangle splits into 7 regions
by the signs of the origin's barycentric coordinates, and each sign is
recovered from whether the corresponding sub-area cross product agrees
in sign with the total. Codes 1/2/4 are vertex regions, 3/5/6 are edge
regions, and 7 means the triangle encloses the origin.
"""

from __future__ import annotations

from typing import List, Tuple

from .support import SimplexVertex

# Relative degeneracy threshold on the triangle's doubled signed area.
_DEGENERATE_REL = 1e-12

# What every solver returns: the supporting sub-simplex (flat
# ``(wx, wy, ip, iq)`` vertices, passed through as given), its barycentric
# coordinates, and the closest point (vx, vy).
Solve = Tuple[List[SimplexVertex], List[float], float, float]


class DegenerateTriangle(ArithmeticError):
    """The three points are (nearly) collinear; the region code is undefined."""


def s1d(a: SimplexVertex, b: SimplexVertex) -> Solve:
    """Closest point to the origin on segment [a.w, b.w].

    ``a`` and ``b`` are flat ``SimplexVertex`` records, read as
    ``(wx, wy, _, _)``; the answer's sub-simplex holds them as given.

    The two vertex regions are identified by the orthogonality tests
    dot(A, B-A) >= 0 (answer A) and dot(B, B-A) <= 0 (answer B); otherwise
    the foot of the perpendicular lies inside the segment and the same
    dot products yield the barycentric coordinates directly. Exactly
    coincident endpoints give dot(A, B-A) = 0, so the answer is {a}; any
    other segment is solved as it is, however short.
    """
    ax, ay, _, _ = a
    bx, by, _, _ = b
    ux = bx - ax
    uy = by - ay
    oa_ab = ax * ux + ay * uy
    if oa_ab >= 0.0:
        return [a], [1.0], ax, ay
    ob_ab = bx * ux + by * uy
    if ob_ab <= 0.0:
        return [b], [1.0], bx, by
    total = oa_ab - ob_ab  # equals -|AB|^2; oa_ab < 0 < ob_ab makes it negative
    lam_u = -ob_ab / total
    lam_v = oa_ab / total
    return [a, b], [lam_u, lam_v], lam_u * ax + lam_v * bx, lam_u * ay + lam_v * by


def compute_barycode(
    a: Tuple[float, float], b: Tuple[float, float], c: Tuple[float, float]
) -> Tuple[int, float, float, float, float]:
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
    pos = total > 0.0
    code = (
        (((su > 0.0) == pos) << 2)
        | (((sv > 0.0) == pos) << 1)
        | ((sw > 0.0) == pos)
    )
    if abs(total) <= _DEGENERATE_REL * max(abs(su), abs(sv), abs(sw)):
        raise DegenerateTriangle(f"collinear simplex points (area sum {total!r})")
    return code, su, sv, sw, total


def _nearer(r1: Solve, r2: Solve) -> Solve:
    """The solve whose closest point is nearer the origin; a tie keeps ``r1``."""
    if r2[2] * r2[2] + r2[3] * r2[3] < r1[2] * r1[2] + r1[3] * r1[3]:
        return r2
    return r1


def s2d(a: SimplexVertex, b: SimplexVertex, c: SimplexVertex) -> Solve:
    """Closest point to the origin on triangle (a.w, b.w, c.w).

    The vertices are flat ``SimplexVertex`` records, read as
    ``(wx, wy, _, _)``; the answer's sub-simplex holds them as given.

    Dispatches on the region code, with one rule for every edge answer:
    7 keeps the full simplex with the origin's barycentric coordinates
    (the closest point is then the origin itself); 6/5/3 solve the edge
    that drops c/b/a; 4/2/1 solve the two edges at a/b/c and keep the
    nearer; a collinear triangle keeps the nearest of its three edges,
    the first of (a, b), (b, c), (c, a) on a tie. In a vertex region the
    origin lies in the angle opposite the triangle at that vertex, so at
    most one of the vertex's two edges has the foot of the perpendicular
    inside it (inside both would need the cosine of the angle at the
    vertex to exceed 1). One solve is thus the vertex itself and the
    other the vertex or that edge's foot, in either order.

    The code and the degeneracy test are ``compute_barycode``'s, computed
    inline; code 7 with a nonzero total returns before the test, which
    it would pass anyway, and a collinear triangle is recognized without
    raising.
    """
    ax, ay, _, _ = a
    bx, by, _, _ = b
    cx, cy, _, _ = c
    # compute_barycode inline: the code's three bits, and the enclosing
    # case returned before the degeneracy test.
    su = bx * cy - by * cx
    sv = cx * ay - cy * ax
    sw = ax * by - ay * bx
    total = su + sv + sw
    pos = total > 0.0
    bit_u = (su > 0.0) == pos
    bit_v = (sv > 0.0) == pos
    bit_w = (sw > 0.0) == pos
    if bit_u and bit_v and bit_w and total != 0.0:
        lam_u = su / total
        lam_v = sv / total
        lam_w = 1.0 - lam_u - lam_v
        return (
            [a, b, c],
            [lam_u, lam_v, lam_w],
            lam_u * ax + lam_v * bx + lam_w * cx,
            lam_u * ay + lam_v * by + lam_w * cy,
        )
    # A zero total is always degenerate here, so code 7 never reaches the
    # dispatch below.
    if abs(total) <= _DEGENERATE_REL * max(abs(su), abs(sv), abs(sw)):
        return _nearer(_nearer(s1d(a, b), s1d(b, c)), s1d(c, a))
    if bit_u:
        if bit_v:
            return s1d(a, b)  # code 6
        if bit_w:
            return s1d(a, c)  # code 5
        return _nearer(s1d(a, b), s1d(a, c))  # code 4
    if bit_v:
        if bit_w:
            return s1d(b, c)  # code 3
        return _nearer(s1d(b, a), s1d(b, c))  # code 2
    return _nearer(s1d(c, a), s1d(c, b))  # code 1
