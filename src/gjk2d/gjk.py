"""GJK: distance query with witness extraction, and a binary collision
subroutine with two extra early exits, both run by one loop.

The loop starts from a heuristic direction, pulls Minkowski-difference
support points toward the origin, and shrinks the working simplex with
the subdistance solver. Its binary mode only adds two exits, tested
before the shared ones: a separating-hyperplane test (the new support
point stays on the far side of the origin, so the shapes cannot
intersect) and a vertical-angle test (the new support point lands in the
angle vertically opposite the current 2-simplex as seen from the origin,
so the new triangle must enclose the origin).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .geometry import ConvexPolygon, Vec2
from .subdistance import s1d, s2d
from .support import SimplexVertex, _cso_support_xy, initial_direction

# Squared proximity under which a new support point counts as a repeat.
_DUPLICATE_EPS_SQ = 1e-24
# Relative tolerance of the support-progress test and absolute threshold
# on the closest-point norm.
_EPSILON = 1e-10
# Iteration cap; a query that reaches it reports MaxIterations.
_MAX_ITERATIONS = 64


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


def witness_points(
    verts: Sequence[SimplexVertex], lambdas: Sequence[float]
) -> Tuple[Vec2, Vec2]:
    """Witness pair (sum lambda_i * p_i, sum lambda_i * q_i) of a solved simplex."""
    px = py = qx = qy = 0.0
    for sv, lam in zip(verts, lambdas):
        px += lam * sv.p.x
        py += lam * sv.p.y
        qx += lam * sv.q.x
        qy += lam * sv.q.y
    return Vec2(px, py), Vec2(qx, qy)


def _is_duplicate(verts: List[SimplexVertex], w: SimplexVertex) -> bool:
    wx, wy = w.w
    for sv in verts:
        if sv.ip == w.ip and sv.iq == w.iq:
            return True
        dx = sv.w.x - wx
        dy = sv.w.y - wy
        if dx * dx + dy * dy < _DUPLICATE_EPS_SQ:
            return True
    return False


def _gjk(
    p_poly: ConvexPolygon,
    q_poly: ConvexPolygon,
    hcs: bool,
    binary: bool,
    norm_trace: Optional[List[float]],
) -> tuple:
    """The loop behind ``distance`` and ``intersects``.

    Returns ``(exit, iterations, support_calls, verts, lambdas, vx, vy)``:
    the final simplex, its barycentric coordinates and closest point v.
    ``hcs`` selects warm-started hill-climbing support. ``binary`` only
    adds the SeparatingHyperplane and VerticalAngleEnclosure exits; every
    other exit is a ``Termination``.
    """
    # Layers and constants are looked up per call, not bound at import, so
    # they can be rebound.
    eps_sq = _EPSILON * _EPSILON
    support = _cso_support_xy
    solve_segment = s1d
    solve_triangle = s2d

    d0 = initial_direction(p_poly, q_poly)
    first = support(p_poly, q_poly, -d0.x, -d0.y, None)
    support_calls = 1
    warm = (first.ip, first.iq) if hcs else None
    verts = [first]
    lambdas = [1.0]
    vx, vy = first.w
    v_sq = vx * vx + vy * vy
    if norm_trace is not None:
        norm_trace.append(math.sqrt(v_sq))

    k = 0
    while k < _MAX_ITERATIONS:
        k += 1
        w = support(p_poly, q_poly, -vx, -vy, warm)
        support_calls += 1
        if hcs:
            warm = (w.ip, w.iq)
        wx, wy = w.w
        v_dot_w = vx * wx + vy * wy
        if binary:
            if v_dot_w > 0.0:
                # A hyperplane through the origin perpendicular to v separates
                # the origin from the whole Minkowski difference.
                exit = CollisionExit.SEPARATING_HYPERPLANE
                break
            if len(verts) == 2:
                a = verts[0].w
                b = verts[1].w
                if (a.x * wy - a.y * wx) * (b.x * wy - b.y * wx) <= 0.0:
                    # w lies in the vertical angle opposite cone(a, b), so
                    # triangle (a, b, w) encloses the origin.
                    exit = CollisionExit.VERTICAL_ANGLE_ENCLOSURE
                    break
        if v_sq - v_dot_w <= eps_sq * v_sq or _is_duplicate(verts, w):
            exit = Termination.CONVERGED
            break
        if len(verts) == 1:
            verts, lambdas, (vx, vy) = solve_segment(w, verts[0])
        else:
            verts, lambdas, (vx, vy) = solve_triangle(w, verts[0], verts[1])
        v_sq = vx * vx + vy * vy
        if norm_trace is not None:
            norm_trace.append(math.sqrt(v_sq))
        if v_sq <= eps_sq:
            exit = Termination.CONTAINS_ORIGIN
            break
        if len(verts) == 3:
            exit = Termination.SIMPLEX_FULL
            break
    else:
        exit = Termination.MAX_ITERATIONS
    return exit, k, support_calls, verts, lambdas, vx, vy


# Binary-query exit and verdict for each loop exit; None: |v| < epsilon decides.
_COLLISION = {
    Termination.CONVERGED: (CollisionExit.CONVERGED, None),
    Termination.MAX_ITERATIONS: (CollisionExit.MAX_ITERATIONS, None),
    Termination.CONTAINS_ORIGIN: (CollisionExit.SUBDISTANCE_ENCLOSURE, True),
    Termination.SIMPLEX_FULL: (CollisionExit.SUBDISTANCE_ENCLOSURE, True),
    CollisionExit.SEPARATING_HYPERPLANE: (CollisionExit.SEPARATING_HYPERPLANE, False),
    CollisionExit.VERTICAL_ANGLE_ENCLOSURE: (CollisionExit.VERTICAL_ANGLE_ENCLOSURE, True),
}


def distance(
    p_poly: ConvexPolygon,
    q_poly: ConvexPolygon,
    use_hill_climbing: bool = True,
    norm_trace: Optional[List[float]] = None,
) -> DistanceResult:
    """Minimum distance between two convex polygons with witness points.

    The loop terminates when the support point cannot improve the current
    estimate (Converged), when the closest simplex point reaches the
    origin (ContainsOrigin), when the simplex fills up, which means the
    origin is enclosed (SimplexFull), or at the iteration cap
    (MaxIterations, reporting the best known estimate). A repeated
    support point is treated as convergence; it cannot make progress and
    would otherwise cycle. ``support_calls`` counts Minkowski-difference
    support evaluations. ``use_hill_climbing`` chooses warm-started
    hill-climbing support over the brute-force vertex scan; both give the
    same support values. ``norm_trace``, when given, receives the
    closest-point norm after every solve.
    """
    termination, k, support_calls, verts, lambdas, vx, vy = _gjk(
        p_poly, q_poly, use_hill_climbing, False, norm_trace
    )
    if termination in (Termination.CONTAINS_ORIGIN, Termination.SIMPLEX_FULL):
        vx = vy = 0.0
    wp, wq = witness_points(verts, lambdas)
    dist = math.sqrt(vx * vx + vy * vy)
    return DistanceResult(dist, wp, wq, Vec2(vx, vy), k, support_calls, termination)


def intersects(
    p_poly: ConvexPolygon,
    q_poly: ConvexPolygon,
    use_hill_climbing: bool = True,
) -> CollisionResult:
    """Binary collision test: the ``distance`` loop plus two early exits.

    All other exits are shared with ``distance``, so this never performs
    more support evaluations than ``distance`` on the same input and
    ``use_hill_climbing`` setting.
    """
    exit, k, support_calls, _, _, vx, vy = _gjk(p_poly, q_poly, use_hill_climbing, True, None)
    exit, colliding = _COLLISION[exit]
    if colliding is None:
        colliding = vx * vx + vy * vy < _EPSILON * _EPSILON
    return CollisionResult(colliding, k, support_calls, exit)
