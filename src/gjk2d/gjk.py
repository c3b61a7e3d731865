"""GJK: distance query with witness extraction, and a binary collision
subroutine with two extra early exits, both run by one loop.

The loop starts from a heuristic direction, pulls Minkowski-difference
support points toward the origin, and shrinks the working simplex with
the subdistance solver. Its binary mode only adds two exits, tested
before the shared ones: a separating-hyperplane test (the new support
point stays on the far side of the origin, so the shapes cannot
intersect) and a vertical-angle test (the new support point lands in the
angle vertically opposite the current 2-simplex as seen from the origin,
so the new triangle must enclose the origin). The separating test also
covers the first support point, taken against the start direction.
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
    SIMPLEX_FULL = "SimplexFull"
    CONTAINS_ORIGIN = "ContainsOrigin"
    MAX_ITERATIONS = "MaxIterations"


class CollisionExit(Enum):
    SEPARATING_HYPERPLANE = "SeparatingHyperplane"
    VERTICAL_ANGLE_ENCLOSURE = "VerticalAngleEnclosure"
    SUBDISTANCE_ENCLOSURE = "SubdistanceEnclosure"
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
_EXIT_CONVERGED = CollisionExit.CONVERGED
_EXIT_MAX_ITERATIONS = CollisionExit.MAX_ITERATIONS
_TERM_CONVERGED = Termination.CONVERGED
_TERM_CONTAINS_ORIGIN = Termination.CONTAINS_ORIGIN
_TERM_SIMPLEX_FULL = Termination.SIMPLEX_FULL
_TERM_MAX_ITERATIONS = Termination.MAX_ITERATIONS


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


def _gjk(p_poly: ConvexPolygon, q_poly: ConvexPolygon, hcs: bool, binary: bool) -> tuple:
    """The loop behind ``distance`` and ``intersects``.

    Returns ``(exit, iterations, verts, lambdas, vx, vy, tol_sq)``: the
    final simplex, its barycentric coordinates, closest point v (zeroed at
    the ContainsOrigin and SimplexFull exits), and the squared norm at or
    below which v counts as the origin, ``_EPSILON**2`` times the largest
    |w|^2 over the query's support points. ``hcs`` picks the support
    function once: ``_cso_support_xy``, which climbs both polygons inline,
    or ``_cso_scan_xy``, the brute-force scan. Every support call passes
    ``None`` as its warm pair, so each climb starts cold, at the polygons'
    recorded starts nearest its direction, and the scan has no start.
    ``binary`` only adds the SeparatingHyperplane and
    VerticalAngleEnclosure exits; every other exit is a ``Termination``.
    The separating test also covers the first support point, against the
    start direction d0. It makes ``iterations + 1`` support calls.
    """
    # Layers and constants are looked up per call, not bound at import, so
    # they can be rebound; wrapping the layers is how a query is traced.
    eps = _EPSILON
    eps_sq = eps * eps
    support = _cso_support_xy if hcs else _cso_scan_xy
    solve_segment = s1d
    solve_triangle = s2d

    d0x, d0y = initial_direction(p_poly, q_poly)
    first = support(p_poly, q_poly, -d0x, -d0y, None)
    vx = first[0]
    vy = first[1]
    verts = [first]
    lambdas = [1.0]
    size = 1
    v_sq = vx * vx + vy * vy
    tol_sq = eps_sq * v_sq
    if binary and d0x * vx + d0y * vy > 0.0:
        # v = w1 minimizes d0.w over P - Q, so d0 separates it from the origin.
        return _EXIT_SEPARATING, 0, verts, lambdas, vx, vy, tol_sq

    k = 0
    while k < _MAX_ITERATIONS:
        k += 1
        w = support(p_poly, q_poly, -vx, -vy, None)
        wx = w[0]
        wy = w[1]
        w_tol_sq = eps_sq * (wx * wx + wy * wy)
        if w_tol_sq > tol_sq:
            tol_sq = w_tol_sq
        v_dot_w = vx * wx + vy * wy
        if binary:
            if v_dot_w > 0.0:
                # A hyperplane through the origin perpendicular to v separates
                # the origin from the whole Minkowski difference.
                exit = _EXIT_SEPARATING
                break
            if size == 2:
                a = verts[0]
                b = verts[1]
                if (a[0] * wy - a[1] * wx) * (b[0] * wy - b[1] * wx) <= 0.0:
                    # w lies in the vertical angle opposite cone(a, b), so
                    # triangle (a, b, w) encloses the origin.
                    exit = _EXIT_VERTICAL_ANGLE
                    break
        if v_sq - v_dot_w <= eps * v_sq or w in verts:
            exit = _TERM_CONVERGED
            break
        if size == 1:
            verts, lambdas, vx, vy = solve_segment(w, verts[0])
        else:
            verts, lambdas, vx, vy = solve_triangle(w, verts[0], verts[1])
        size = len(verts)
        v_sq = vx * vx + vy * vy
        if v_sq <= tol_sq:
            exit = _TERM_CONTAINS_ORIGIN
            vx = vy = 0.0
            break
        if size == 3:
            exit = _TERM_SIMPLEX_FULL
            vx = vy = 0.0
            break
    else:
        exit = _TERM_MAX_ITERATIONS
    return exit, k, verts, lambdas, vx, vy, tol_sq


def distance(
    p_poly: ConvexPolygon,
    q_poly: ConvexPolygon,
    use_hill_climbing: bool = True,
) -> DistanceResult:
    """Minimum distance between two convex polygons with witness points.

    The loop terminates when the support point cannot improve the current
    estimate by more than a relative ``_EPSILON`` (Converged), when the
    closest simplex point lies within ``_EPSILON`` times the largest
    support-point norm of the origin (ContainsOrigin), when the simplex
    fills up, which means the origin is enclosed (SimplexFull), or at the
    iteration cap (MaxIterations, reporting the best known estimate). A
    support point from a vertex pair already in the simplex is treated as
    convergence; it cannot make progress and would otherwise cycle. Every
    test is relative, so scaling both polygons by a power of two scales
    every length in the result exactly, barring underflow and overflow.
    ``support_calls`` counts Minkowski-difference support evaluations;
    ``use_hill_climbing`` picks hill-climbing support, each climb started
    cold from the polygons' recorded starts nearest its direction, over
    the brute-force scan (same support values).
    """
    termination, k, verts, lambdas, vx, vy, _ = _gjk(p_poly, q_poly, use_hill_climbing, False)
    wp, wq = witness_points(p_poly, q_poly, verts, lambdas)
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
    iterations. All other exits are shared with ``distance``, so this
    never performs more support evaluations than ``distance`` on the same
    input and ``use_hill_climbing`` setting.
    """
    exit, k, _, _, vx, vy, tol_sq = _gjk(p_poly, q_poly, use_hill_climbing, True)
    if exit is _EXIT_SEPARATING:
        colliding = False
    elif exit is _EXIT_VERTICAL_ANGLE:
        colliding = True
    elif exit is _TERM_CONTAINS_ORIGIN or exit is _TERM_SIMPLEX_FULL:
        exit = _EXIT_SUBDISTANCE
        colliding = True
    else:
        # Converged or MaxIterations: the ContainsOrigin test on the last v.
        exit = _EXIT_CONVERGED if exit is _TERM_CONVERGED else _EXIT_MAX_ITERATIONS
        colliding = vx * vx + vy * vy <= tol_sq
    return _new(CollisionResult, (colliding, k, k + 1, exit))
