"""GJK: distance query with witness extraction, and a binary collision
subroutine with two extra early exits, both run by one loop.

The loop starts from a heuristic direction, pulls Minkowski-difference
support points toward the origin, and shrinks the working simplex with
the subdistance solver. Its binary mode adds two exits, tested before
the shared ones: a separating-hyperplane test (the new support point
stays on the far side of the origin, so the shapes cannot intersect) and
a vertical-angle test (the new support point lands in the angle
vertically opposite the current 2-simplex as seen from the origin, so
the new triangle must enclose the origin). The separating test also
covers the first support point, taken against the start direction.
These two exits leave the convergence test nothing to catch, so the
binary mode does not run it.

Both modes open with the portal step of Minkowski Portal Refinement, from
the start point d0, a point of P - Q; ``_gjk``'s docstring states its rule.
The portal reads the origin's side once, and its triangle enclosing the
origin is one exit, VerticalAngleEnclosure, in both modes: the distance
mode returns it with the triangle's crosses in the portal's orientation,
and ``distance`` answers it as ContainsOrigin.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence, Tuple

from .geometry import ConvexPolygon, Vec2
from .subdistance import s1d, s2d
from .support import SimplexVertex, _cso_scan_xy, _cso_support_xy, initial_direction

# The loop's only tolerance, relative so every test reads the same at any
# scale: the support-progress test stops once v.w is within _EPSILON * |v|^2
# of |v|^2, and |v| <= _EPSILON * max|w| over the query's support points
# counts as the origin.
_EPSILON = 1e-10
# Iteration cap; a query that reaches it reports MaxIterations.
_MAX_ITERATIONS = 64

# Hot-path tuples skip the generated NamedTuple.__new__ frame, about half their cost.
_new = tuple.__new__


class Termination(Enum):
    CONVERGED = "Converged"
    # Never returned: a three-vertex solve answers v = 0, so ContainsOrigin
    # ends the query first. Kept while the benchmark counts it by name.
    SIMPLEX_FULL = "SimplexFull"
    CONTAINS_ORIGIN = "ContainsOrigin"
    MAX_ITERATIONS = "MaxIterations"


class CollisionExit(Enum):
    SEPARATING_HYPERPLANE = "SeparatingHyperplane"
    VERTICAL_ANGLE_ENCLOSURE = "VerticalAngleEnclosure"
    SUBDISTANCE_ENCLOSURE = "SubdistanceEnclosure"
    # Never returned: the binary query cannot pass the Converged test, so
    # it does not run it (``_gjk``). Kept while the benchmark counts it by
    # name.
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"


class DistanceResult(NamedTuple):
    distance: float
    witness_p: Vec2
    witness_q: Vec2
    separating_vector: Vec2
    iterations: int
    support_calls: int
    termination: Termination


class CollisionResult(NamedTuple):
    colliding: bool
    iterations: int
    support_calls: int
    exit: CollisionExit


# The loop names its exits, and ``intersects`` maps them by identity, through
# these. A dict keyed by members would hash each in Python (``Enum.__hash__``),
# and reading a member off its class goes through ``EnumType.__getattr__``.
_EXIT_SEPARATING = CollisionExit.SEPARATING_HYPERPLANE
_EXIT_VERTICAL_ANGLE = CollisionExit.VERTICAL_ANGLE_ENCLOSURE
_EXIT_SUBDISTANCE = CollisionExit.SUBDISTANCE_ENCLOSURE
_EXIT_MAX_ITERATIONS = CollisionExit.MAX_ITERATIONS
_TERM_CONVERGED = Termination.CONVERGED
_TERM_CONTAINS_ORIGIN = Termination.CONTAINS_ORIGIN
_TERM_MAX_ITERATIONS = Termination.MAX_ITERATIONS
# The separating vector of every ContainsOrigin answer; a Vec2 is
# immutable, so all of them share this one.
_ZERO_VECTOR = Vec2(0.0, 0.0)


def witness_points(
    p_poly: ConvexPolygon,
    q_poly: ConvexPolygon,
    verts: Sequence[SimplexVertex],
    lambdas: Sequence[float],
) -> Tuple[Vec2, Vec2]:
    """Witness pair (sum lambda_i * P[ip_i], sum lambda_i * Q[iq_i]) of a solved simplex.

    Each flat ``(wx, wy, ip, iq)`` simplex vertex keeps only the indices
    of its polygon vertices, so the witnesses are rebuilt from the
    polygons' coordinates here, once per query. The sum is unrolled by
    simplex size (1, 2 or 3 vertices) and reads the indices as ``v[2]``
    and ``v[3]``; each coordinate is folded from ``0.0`` left to right,
    so a ``-0.0`` term reads ``+0.0``, as a loop over the vertices gives.
    """
    pxs, pys = p_poly.xs, p_poly.ys
    qxs, qys = q_poly.xs, q_poly.ys
    a = verts[0]
    lam = lambdas[0]
    i, j = a[2], a[3]
    px = 0.0 + lam * pxs[i]
    py = 0.0 + lam * pys[i]
    qx = 0.0 + lam * qxs[j]
    qy = 0.0 + lam * qys[j]
    if len(verts) > 1:
        b = verts[1]
        lam = lambdas[1]
        i, j = b[2], b[3]
        px += lam * pxs[i]
        py += lam * pys[i]
        qx += lam * qxs[j]
        qy += lam * qys[j]
        if len(verts) > 2:
            c = verts[2]
            lam = lambdas[2]
            i, j = c[2], c[3]
            px += lam * pxs[i]
            py += lam * pys[i]
            qx += lam * qxs[j]
            qy += lam * qys[j]
    return _new(Vec2, (px, py)), _new(Vec2, (qx, qy))


def _portal_witnesses(
    p_poly: ConvexPolygon,
    q_poly: ConvexPolygon,
    ends: Sequence[tuple],
    crosses: Sequence[float],
) -> Tuple[Vec2, Vec2]:
    """Witness pair of the origin inside a portal triangle (d0, a, w).

    ``ends`` holds the triangle's support points a and w, ``(wx, wy, ip,
    iq)``. ``crosses`` holds cross(a, w), cross(w, d0) and cross(d0, a),
    as ``_gjk`` returns them in the portal's orientation, all positive;
    over their sum they are the origin's barycentric coordinates l0, l1
    and l2 against d0, a and w. Since d0 = cP - cQ, the witnesses are
    l0*cP + l1*P[ip1] + l2*P[ip2] and the same for Q. When the centroids
    are equal, d0 is ``initial_direction``'s (1, 0) fallback, but then
    cP - cQ is the origin itself, so the witnesses are cP and cQ, and no
    coordinate is formed.
    """
    pc = p_poly.centroid
    qc = q_poly.centroid
    if pc[0] == qc[0] and pc[1] == qc[1]:
        return pc, qc
    c0, c1, c2 = crosses
    total = c2 + c0 + c1
    l0, l1, l2 = c0 / total, c1 / total, c2 / total
    a, w = ends
    xs, ys = p_poly.xs, p_poly.ys
    i, j = a[2], w[2]
    px = l0 * pc[0] + l1 * xs[i] + l2 * xs[j]
    py = l0 * pc[1] + l1 * ys[i] + l2 * ys[j]
    xs, ys = q_poly.xs, q_poly.ys
    i, j = a[3], w[3]
    qx = l0 * qc[0] + l1 * xs[i] + l2 * xs[j]
    qy = l0 * qc[1] + l1 * ys[i] + l2 * ys[j]
    return _new(Vec2, (px, py)), _new(Vec2, (qx, qy))


def _gjk(p_poly: ConvexPolygon, q_poly: ConvexPolygon, hcs: bool, binary: bool) -> tuple:
    """The loop behind ``distance`` and ``intersects``.

    Returns ``(exit, iterations, verts, lambdas, vx, vy)``: the final
    simplex and its barycentric coordinates (at the distance mode's portal
    enclosure, the triangle's support points and crosses instead, below)
    and the closest point v, which ``distance`` reads only at Converged
    and MaxIterations. v counts as the origin (ContainsOrigin) once |v|^2
    <= tol_sq, ``_EPSILON**2`` times the largest |w|^2 over the query's
    support points. ``hcs`` picks the support function once:
    ``_cso_support_xy``, which climbs both polygons inline, or
    ``_cso_scan_xy``, the brute-force scan. Each climb starts cold, at
    the polygons' recorded starts nearest its direction, and the scan has
    no start; both take a fifth argument, ``None``, that they ignore.
    ``binary`` adds the SeparatingHyperplane exits and the two-vertex
    VerticalAngleEnclosure test, and drops the Converged test, which no
    binary query can pass (below); the portal's VerticalAngleEnclosure
    ends both modes, and every other exit is a ``Termination``. It makes
    ``iterations + 1`` support calls.

    The first support call searches along -d0, d0 = cP - cQ the start
    point, a point of P - Q. When w1 does not separate (d0.w1 <= 0) and
    the origin is off the line through d0 and w1 (cross(d0, w1) != 0), the
    first pass, peeled out of the loop, is the portal step of Minkowski
    Portal Refinement (Snethen, "XenoCollide: Complex Collision Made
    Simple", Game Programming Gems 7, 2008). One step goes from a support
    point a, where P - Q has the outward normal n and the portal the
    orientation side = cross(d0, a), and makes one support call along m,
    aimed at the contact:

    - While the chord from a to the origin lies within 45 degrees of the
      tangent at a, |cross(a, n)| >= n.a with cross(a, n) != 0, m is -n
      reflected in the line through the origin and a: n turned toward the
      origin's side by twice the chord angle, where the tangent-chord
      angle puts the outward normal at the origin of a circle through a
      and the origin. With r = n.a / cross(a, n), whose magnitude <= 1 is
      the tangent of the chord angle and whose sign is the origin's side,
      m = n*(1 - r*r) + t*(r + r), t being n turned a quarter
      counterclockwise; that is degree 1 in the coordinates, where a
      product form such as a**2 * conj(n) overflows near
      ``MAX_COORDINATE``. n.a >= 0 on both steps, so the gate is
      cross(a, n) >= n.a or cross(a, n) <= -n.a.
    - For a steeper chord the origin lies deep inside P - Q, and m is the
      normal of the line through d0 and a on the origin's side, which puts
      the new point w across the origin from a.

    The portal reads the origin's side once, before its first step: with
    o = 1 if side > 0 else -1, side, the crosses c1 = cross(a, w) and
    c2 = cross(w, d0) and the fallback normal are all taken times o, so
    side > 0 on both steps and no test mirrors on it; cu keeps its sign,
    which the reflection reads. In binary mode m.w < 0 separates, whatever
    m is. In both modes the origin strictly inside triangle (d0, a, w),
    0 < c1 and 0 < c2, ends the query with VerticalAngleEnclosure: w lies
    in the vertical angle opposite cone(d0, a). The binary mode returns
    ``verts`` and ``lambdas`` None, as at its separating exits, which
    ``intersects`` does not read; the distance mode returns ``verts`` the
    support points ``(a, w)`` and ``lambdas`` the crosses ``(c1, c2,
    side)``, all positive, which ``distance`` turns into witness points
    (``_portal_witnesses``). In distance mode no other exit is a
    ``CollisionExit``.

    The first step is (a, n) = (w1, -d0): the line through w1
    perpendicular to d0 is tangent to P - Q there. Where P - Q bends less
    than the circle, w2 lands short of the contact: on w1's side of the
    ray from d0 through the origin, cross(d0, w2) of the strict sign of
    cross(d0, w1), that is c2 < 0. Then, if m.w2 >= 0 and w2's vertex pair differs from w1's, the
    same block runs once more as the second step, (a, n) = (w2, m); it is
    never repeated. Otherwise, or after the second step, the segment
    ``s1d(w, a)`` of the step's two support points starts the loop, and
    w1 is dropped after a second step. The convergence test (progress, or
    a repeated vertex pair) is skipped on that pass, since w is no support
    point along -v; a repeat of a gives ``s1d`` a zero-length segment,
    which it answers with the one point. An overlap enclosed by (d0, w1,
    w2) and a distant pair run nothing of the second step. Every later
    pass searches along -v.

    The separating exit holds for any search direction; the enclosure
    needs d0 in P - Q, which the centroids give up to their rounding, far
    below the loop's tolerance. When the centroids are equal, d0 is the
    fallback (1, 0), perhaps no point of P - Q, but the origin itself is
    then one, so an enclosure verdict is still right.

    Every enclosure test compares the signs of cross products, never
    their product: the product of two crosses underflows once the
    coordinates fall below about 1e-77, and could read as zero.

    Each exit pays only for what it reads. A support point comes back as
    the plain tuple ``(wx, wy, ip, iq)``, and the exit tests run on it; it
    is wrapped as a ``SimplexVertex`` (``tuple.__new__``) only when it
    joins the simplex, so every vertex a solve receives or
    ``witness_points`` reads is one, and the binary query's deciding point
    never is. The simplex lists are built only where something reads
    them: the first one-point simplex at the ContainsOrigin exit and on
    the path that skips the portal, and otherwise by the first solve. The
    separating test also covers the first support point, against the
    start direction d0. The ContainsOrigin test also covers the one-point
    simplex, so a first support point exactly at the origin ends the
    query after one call; there it reads v_sq == 0.0, the same test,
    since eps_sq * v_sq < v_sq for any v_sq > 0. No exit before a solve
    reads ``tol_sq``, so its update follows the binary exits and the
    Converged test.

    The binary mode runs no Converged test (progress, or w's vertex pair
    already in the simplex), since it cannot pass there. The mode reaches
    that test only past the separating one, so v.w <= 0, and every path
    into the loop has found |v|^2 > tol_sq >= 0, so |v|^2 - v.w >= |v|^2
    > eps * |v|^2 in floats: no progress stop. A repeated pair in a
    one-vertex simplex is w = v exactly, and v.w is then the same float
    expression as |v|^2 > 0, so the separating exit has fired. A repeat
    of one vertex of a two-vertex simplex has cross product exactly 0
    with it, so the vertical-angle exit has fired. A three-vertex solve
    answers v = 0, which ends the query as ContainsOrigin. So a binary
    query that reaches the cap has failed the ContainsOrigin test on its
    last v, and ``intersects`` answers it not colliding.
    """
    # Layers and constants are looked up per call, not bound at import, so
    # they can be rebound; wrapping the layers is how a query is traced.
    eps = _EPSILON
    eps_sq = eps * eps
    support = _cso_support_xy if hcs else _cso_scan_xy
    solve_segment = s1d
    solve_triangle = s2d

    d0x, d0y = initial_direction(p_poly, q_poly)
    a = support(p_poly, q_poly, -d0x, -d0y, None)
    vx = a[0]
    vy = a[1]
    d0_dot_w = d0x * vx + d0y * vy
    if binary and d0_dot_w > 0.0:
        # v = w1 minimizes d0.w over P - Q, so d0 separates it from the origin.
        return _EXIT_SEPARATING, 0, None, None, vx, vy
    v_sq = vx * vx + vy * vy
    if v_sq == 0.0:
        # w1 is the origin itself, exact contact: P[ip] = Q[iq].
        return _TERM_CONTAINS_ORIGIN, 0, [_new(SimplexVertex, a)], [1.0], 0.0, 0.0
    tol_sq = eps_sq * v_sq

    k = 0
    side = d0x * vy - d0y * vx if d0_dot_w <= 0.0 else 0.0
    if side == 0.0:
        verts = [_new(SimplexVertex, a)]
        lambdas = [1.0]
    else:
        # The portal step from a = (vx, vy) with outward normal n, cu =
        # cross(a, n), dot = n.a and the portal's orientation side =
        # cross(d0, a): first from (w1, -d0), then at most once more from
        # (w2, m). The origin's side o is read once: side, c1, c2 and the
        # fallback normal are taken times o, so side > 0 on both steps; cu
        # keeps its sign for the reflection.
        nx = -d0x
        ny = -d0y
        cu = side
        dot = -d0_dot_w
        o = 1.0 if side > 0.0 else -1.0
        side *= o
        while True:
            k += 1
            if cu != 0.0 and (cu >= dot or cu <= -dot):
                # -n reflected in the line through the origin and a.
                r = dot / cu
                c = 1.0 - r * r
                s = r + r
                mx = nx * c - ny * s
                my = ny * c + nx * s
            else:
                # The normal of the line through d0 and a, on the origin's side.
                mx = o * (d0y - vy)
                my = o * (vx - d0x)
            w = support(p_poly, q_poly, mx, my, None)
            wx = w[0]
            wy = w[1]
            dot = mx * wx + my * wy
            if binary and dot < 0.0:
                # The line through the origin perpendicular to m separates.
                return _EXIT_SEPARATING, k, None, None, vx, vy
            c1 = o * (vx * wy - vy * wx)
            c2 = o * (wx * d0y - wy * d0x)
            if 0.0 < c1 and 0.0 < c2:
                # cross(d0, a), cross(a, w) and cross(w, d0) share a strict
                # sign: the origin is strictly inside (d0, a, w), and each
                # cross is twice the area of the sub-triangle opposite one
                # corner.
                if binary:
                    return _EXIT_VERTICAL_ANGLE, k, None, None, vx, vy
                return _EXIT_VERTICAL_ANGLE, k, (a, w), (c1, c2, side), 0.0, 0.0
            w_tol_sq = eps_sq * (wx * wx + wy * wy)
            if w_tol_sq > tol_sq:
                tol_sq = w_tol_sq
            # Step once more only from a w that landed short of the contact,
            # on a's side of the ray from d0 through the origin.
            if k == 2 or not (dot >= 0.0 and c2 < 0.0) or w == a:
                break
            a = w
            vx = wx
            vy = wy
            nx = mx
            ny = my
            cu = wx * my - wy * mx
            side = -c2
        # w came from m, not -v: it proves no convergence, and a repeat of a
        # gives s1d a zero-length segment, answered with that one point.
        verts, lambdas, vx, vy = solve_segment(_new(SimplexVertex, w), _new(SimplexVertex, a))
        v_sq = vx * vx + vy * vy
        if v_sq <= tol_sq:
            return _TERM_CONTAINS_ORIGIN, k, verts, lambdas, 0.0, 0.0

    while k < _MAX_ITERATIONS:
        k += 1
        w = support(p_poly, q_poly, -vx, -vy, None)
        wx = w[0]
        wy = w[1]
        v_dot_w = vx * wx + vy * wy
        if binary:
            if v_dot_w > 0.0:
                # A hyperplane through the origin perpendicular to v separates
                # the origin from the whole Minkowski difference.
                exit = _EXIT_SEPARATING
                break
            if len(verts) == 2:
                a = verts[0]
                b = verts[1]
                ca = a[0] * wy - a[1] * wx
                cb = b[0] * wy - b[1] * wx
                if ca <= 0.0 <= cb or cb <= 0.0 <= ca:
                    # w lies in the vertical angle opposite cone(a, b), so
                    # triangle (a, b, w) encloses the origin.
                    exit = _EXIT_VERTICAL_ANGLE
                    break
        elif v_sq - v_dot_w <= eps * v_sq or w in verts:
            exit = _TERM_CONVERGED
            break
        w_tol_sq = eps_sq * (wx * wx + wy * wy)
        if w_tol_sq > tol_sq:
            tol_sq = w_tol_sq
        w = _new(SimplexVertex, w)
        if len(verts) == 1:
            verts, lambdas, vx, vy = solve_segment(w, verts[0])
        else:
            verts, lambdas, vx, vy = solve_triangle(w, verts[0], verts[1])
        v_sq = vx * vx + vy * vy
        if v_sq <= tol_sq:
            exit = _TERM_CONTAINS_ORIGIN
            break
    else:
        exit = _TERM_MAX_ITERATIONS
    return exit, k, verts, lambdas, vx, vy


def distance(
    p_poly: ConvexPolygon,
    q_poly: ConvexPolygon,
    use_hill_climbing: bool = True,
) -> DistanceResult:
    """Minimum distance between two convex polygons with witness points.

    The loop terminates when the support point cannot improve the current
    estimate by more than a relative ``_EPSILON`` (Converged), when the
    closest simplex point lies within ``_EPSILON`` times the largest
    support-point norm of the origin (ContainsOrigin; a first support
    point exactly at the origin, an exact vertex contact, ends the query
    there after one support call), or at the iteration cap (MaxIterations,
    reporting the best known estimate). A three-vertex ``s2d`` answer has
    v = 0, so it ends the query as ContainsOrigin. The portal step
    (``_gjk``) also ends the query as ContainsOrigin, with no solve, when
    its triangle encloses the origin: the loop returns that as its one
    VerticalAngleEnclosure exit, with the triangle's crosses in the
    portal's orientation, and the witnesses come from the origin's
    barycentric coordinates in that triangle, formed from those crosses
    (``_portal_witnesses``). At ContainsOrigin the distance is 0.0 and
    the separating vector is one shared ``Vec2(0.0, 0.0)``, built once at
    import. A support point from a vertex pair already in the simplex is
    treated as convergence; it cannot make progress and would otherwise
    cycle. Every test is relative, so scaling both polygons by a power of
    two scales every length in the result exactly, barring underflow and
    overflow.
    ``support_calls`` counts Minkowski-difference support evaluations;
    ``use_hill_climbing`` picks hill-climbing support, each climb started
    cold from the polygons' recorded starts nearest its direction, over
    the brute-force scan (same support values).
    """
    termination, k, verts, lambdas, vx, vy = _gjk(p_poly, q_poly, use_hill_climbing, False)
    # In distance mode only the portal triangle returns this exit.
    if termination is _EXIT_VERTICAL_ANGLE:
        wp, wq = _portal_witnesses(p_poly, q_poly, verts, lambdas)
        return _new(DistanceResult, (0.0, wp, wq, _ZERO_VECTOR, k, k + 1, _TERM_CONTAINS_ORIGIN))
    wp, wq = witness_points(p_poly, q_poly, verts, lambdas)
    if termination is _TERM_CONTAINS_ORIGIN:
        return _new(DistanceResult, (0.0, wp, wq, _ZERO_VECTOR, k, k + 1, termination))
    dist = math.sqrt(vx * vx + vy * vy)
    return _new(
        DistanceResult, (dist, wp, wq, _new(Vec2, (vx, vy)), k, k + 1, termination)
    )


def intersects(
    p_poly: ConvexPolygon,
    q_poly: ConvexPolygon,
    use_hill_climbing: bool = True,
) -> CollisionResult:
    """Binary collision test: the ``distance`` loop plus two early exits.

    The separating-hyperplane exit covers every support point, the first
    one included, which can end the query after one support call and zero
    iterations; so can a first support point exactly at the origin, which
    reads as SubdistanceEnclosure. A portal triangle (``_gjk``) that
    encloses the origin reads as VerticalAngleEnclosure, so an overlapping
    pair is usually answered after two support calls and one iteration.
    The portal step and every exit other than the separating tests and
    the two-vertex vertical-angle test are shared with ``distance``, but
    for the Converged test, which no binary query can pass (``_gjk``), so
    this never performs more support evaluations than ``distance`` on the
    same input and ``use_hill_climbing`` setting. A query that reaches the
    iteration cap ends MaxIterations, not colliding: its last
    ContainsOrigin test failed. ``CollisionExit.CONVERGED`` is never
    returned.
    """
    exit, k, _, _, _, _ = _gjk(p_poly, q_poly, use_hill_climbing, True)
    if exit is _EXIT_SEPARATING:
        colliding = False
    elif exit is _EXIT_VERTICAL_ANGLE:
        colliding = True
    elif exit is _TERM_CONTAINS_ORIGIN:
        exit = _EXIT_SUBDISTANCE
        colliding = True
    else:
        # MaxIterations: the last ContainsOrigin test failed on the last v.
        exit = _EXIT_MAX_ITERATIONS
        colliding = False
    return _new(CollisionResult, (colliding, k, k + 1, exit))
