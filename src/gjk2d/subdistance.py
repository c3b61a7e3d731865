"""Minimum-norm subdistance over 1-, 2-, and 3-point simplices.

Given a simplex of Minkowski-difference points, these routines find the
minimal sub-simplex supporting the point closest to the origin, its
barycentric coordinates, and that closest point, returned flat as
``(verts, lambdas, vx, vy)``. The triangle case is dispatched through a
3-bit *region code*: the plane around a triangle splits into 7 regions
by the signs of the origin's barycentric coordinates, and each sign is
recovered from whether the corresponding sub-area cross product agrees
in sign with the total. Codes 1/2/4 are vertex regions, 3/5/6 are edge
regions, and 7 means the triangle encloses the origin. A code is kept
only when its signs clear their rounding bounds; every code is then
exact and names the minimal simplex. ``s2d`` solves only the codes that
keep its first vertex, the loop's new support point, which GJK's lemma
puts in every new minimum simplex (Gilbert, Johnson & Keerthi, 1988):
4, 5 and 6 cost one solve and 7 none. Every other triangle keeps the
nearest of its three edges, which is right for any triangle.
"""

from __future__ import annotations

from typing import List, Tuple

from .support import SimplexVertex

# What every solver returns: the supporting sub-simplex (flat
# ``(wx, wy, ip, iq)`` vertices, passed through as given), its barycentric
# coordinates, and the closest point (vx, vy).
Solve = Tuple[List[SimplexVertex], List[float], float, float]

# Shewchuk's ccwerrboundA (Discrete Comput. Geom. 18(3), 1997). Each signed
# area here is p - q, p and q each a rounded difference times a coordinate
# or another rounded difference, as in his orient2d. Barring underflow it
# is within _SIGN_ERR * (|p| + |q|) of the exact value, so a magnitude at
# least that large fixes the sign. |p + q| stands for |p| + |q|: they are
# equal when p and q share a sign, and otherwise p - q cannot cancel.
_SIGN_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53


class DegenerateTriangle(ArithmeticError):
    """The code is 0, or one of the four signs is within rounding of 0."""


def s1d(a: SimplexVertex, b: SimplexVertex) -> Solve:
    """Closest point to the origin on segment [a.w, b.w].

    ``a`` and ``b`` are flat ``SimplexVertex`` records whose coordinates
    are read by index, ``a[0]`` and ``a[1]``, which costs less than
    unpacking a ``NamedTuple``; the answer's sub-simplex holds them as
    given.

    The two vertex regions are identified by the orthogonality tests
    dot(A, B-A) >= 0 (answer A) and dot(B, B-A) <= 0 (answer B); otherwise
    the foot of the perpendicular lies inside the segment and the same
    dot products yield the barycentric coordinates directly. Exactly
    coincident endpoints give dot(A, B-A) = 0, so the answer is {a}; any
    other segment is solved as it is, however short.
    """
    ax = a[0]
    ay = a[1]
    bx = b[0]
    by = b[1]
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

    Returns ``(code, sigma_u, sigma_v, sigma_w, total)``: the doubled
    signed sub-areas cross(b, c), cross(c, a), cross(a, b), formed
    edge-relatively as cross(b, c - b) and so on, so that their rounding
    scales with edge length times distance, and the doubled signed area
    cross(b - a, c - a), their sum. Bit 2/1/0 is set iff sigma_u/v/w has
    the same strict positivity as ``total``: the sign of the origin's
    barycentric coordinate for vertex a/b/c. Raises ``DegenerateTriangle``
    when the code is 0, ``total`` is within its ``_SIGN_ERR`` bound (a
    zero total always is) or a sub-area below its own. Otherwise every
    sign is exact (an exact 0 disagrees with a positive total and agrees
    with a negative one), so the code is exact, 7 included.
    """
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    pu, qu = bx * (cy - by), by * (cx - bx)
    pv, qv = cx * (ay - cy), cy * (ax - cx)
    pw, qw = ax * (by - ay), ay * (bx - ax)
    pt, qt = (by - ay) * (ax - cx), (bx - ax) * (ay - cy)
    su, sv, sw, total = pu - qu, pv - qv, pw - qw, pt - qt
    pos = total > 0.0
    code = ((su > 0.0) == pos) << 2 | ((sv > 0.0) == pos) << 1 | ((sw > 0.0) == pos)
    if (
        code == 0
        or abs(total) <= _SIGN_ERR * abs(pt + qt)
        or abs(su) < _SIGN_ERR * abs(pu + qu)
        or abs(sv) < _SIGN_ERR * abs(pv + qv)
        or abs(sw) < _SIGN_ERR * abs(pw + qw)
    ):
        raise DegenerateTriangle(f"no region code (area {total!r}, code {code})")
    return code, su, sv, sw, total


def _nearer(r1: Solve, r2: Solve) -> Solve:
    """The solve whose closest point is nearer the origin; a tie keeps ``r1``."""
    if r2[2] * r2[2] + r2[3] * r2[3] < r1[2] * r1[2] + r1[3] * r1[3]:
        return r2
    return r1


def s2d(a: SimplexVertex, b: SimplexVertex, c: SimplexVertex) -> Solve:
    """Closest point to the origin on triangle (a.w, b.w, c.w).

    The vertices are flat ``SimplexVertex`` records whose coordinates are
    read by index, as in ``s1d``, and ``_SIGN_ERR`` is bound once to a
    local; the answer's sub-simplex holds them as given. The region code
    is computed and certified inline as ``compute_barycode`` does.

    ``a`` is the loop's new support point w, found along -v with v the
    closest point of the segment (b, c), so the new minimum simplex holds
    it (GJK's lemma): the loop reaches codes 4 to 7 only. Only these are
    solved. Code 7 puts the origin in the closed triangle: it keeps the
    full simplex with the origin's barycentric coordinates and answers the
    origin itself, with no solve. 6/5 solve the edge that drops c/b. 4
    solves one edge at a. The origin then lies in the angle opposite the
    triangle there, so at most one of the two edges has the foot of the
    perpendicular inside it (both would need a cosine above 1): (a, b)
    when a dotted with b - a is negative, else (a, c).

    Every other triangle keeps the nearest of its three edges, the first
    of (a, b), (b, c), (c, a) on a tie, which is right for any triangle:
    one without a certified positive coordinate for a (codes 0 to 3), and
    one whose signs are not all beyond rounding, where a code read from
    noise could name a far edge, or an enclosure whose barycentric point
    is far off.
    """
    ax = a[0]
    ay = a[1]
    bx = b[0]
    by = b[1]
    cx = c[0]
    cy = c[1]
    abx, aby = bx - ax, by - ay
    cax, cay = ax - cx, ay - cy
    pu, qu = bx * (cy - by), by * (cx - bx)
    pv, qv = cx * cay, cy * cax
    pw, qw = ax * aby, ay * abx
    pt, qt = aby * cax, abx * cay
    su, sv = pu - qu, pv - qv
    sw, total = pw - qw, pt - qt
    pos = total > 0.0
    err = _SIGN_ERR
    if (
        (su > 0.0) != pos
        or abs(total) <= err * abs(pt + qt)
        or abs(su) < err * abs(pu + qu)
        or abs(sv) < err * abs(pv + qv)
        or abs(sw) < err * abs(pw + qw)
    ):
        return _nearer(_nearer(s1d(a, b), s1d(b, c)), s1d(c, a))
    if (sv > 0.0) == pos:
        if (sw > 0.0) == pos:
            lam_u, lam_v = su / total, sv / total
            return [a, b, c], [lam_u, lam_v, 1.0 - lam_u - lam_v], 0.0, 0.0  # code 7
        return s1d(a, b)  # code 6
    if (sw > 0.0) == pos:
        return s1d(a, c)  # code 5
    return s1d(a, b) if ax * abx + ay * aby < 0.0 else s1d(a, c)  # code 4
