"""Support mappings over polygons and over their Minkowski difference.

A support query returns the vertex maximizing the dot product with a
direction. Two variants are provided: a brute-force scan and a
hill-climbing walk along the CCW vertex ring from a start vertex. Ties
are broken deterministically: the brute scan keeps the first
(lowest-index) maximizer, and the hill climb stops as soon as neither
neighbor is strictly better, so on a tied edge it stops at the start or
at the first tied vertex it reaches.

The query loop calls ``_cso_scan_xy`` (brute) or ``_cso_support_xy``,
which runs ``support_hill_climb``'s walk inline for both polygons in one
frame. Every such climb starts cold, at the polygon's recorded start
(one of eight, ``ConvexPolygon.bottom`` to ``lower_left``) for the
45-degree sector of its direction. ``support_hill_climb`` alone climbs
from a given start, and checks it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

from .geometry import ConvexPolygon, Vec2

# Hot-path tuples skip the generated NamedTuple.__new__ frame, about half their cost.
_new = tuple.__new__
# tan(22.5 degrees): the edges of the eight 45-degree sectors a cold climb starts by.
_TAN_22_5 = math.sqrt(2.0) - 1.0


class SupportResult(NamedTuple):
    point: Vec2
    index: int


class SimplexVertex(NamedTuple):
    """One simplex vertex w = P[ip] - Q[iq], flat: ``(wx, wy, ip, iq)``.

    The support layers return the same four fields as a plain tuple; the
    query loop wraps one as a ``SimplexVertex`` (``tuple.__new__``, no
    arity check) only when it joins the simplex, so every vertex ``s1d``,
    ``s2d`` and ``witness_points`` receive is one, and a support point
    that only decides an exit is never wrapped. ``cso_support`` wraps its
    answer too. The loop and the solvers read the fields by index
    (``v[0]``, ``v[1]``; ``witness_points`` also ``v[2]``, ``v[3]``),
    never by unpacking: CPython unpacks a ``NamedTuple`` through the
    iterator protocol, about 3 times the cost of an exact tuple. The
    indices name the originating vertices; ``witness_points`` reads them
    back from the polygons once, when the query ends. ``w`` builds the
    point as a ``Vec2`` for readers off the hot path.

    The record stays a ``NamedTuple`` only for ``w``, which perfbench's
    region-code replay reads on captured ``s2d`` arguments (ROADMAP item
    1); the wrap of each stored point is what that read still costs.
    """

    wx: float
    wy: float
    ip: int
    iq: int

    @property
    def w(self) -> Vec2:
        return Vec2(self.wx, self.wy)


def _argmax_index(xs, ys, dx: float, dy: float) -> int:
    """Index of the first vertex maximizing the dot product with (dx, dy)."""
    best_i = 0
    best = xs[0] * dx + ys[0] * dy
    for i in range(1, len(xs)):
        d = xs[i] * dx + ys[i] * dy
        if d > best:
            best = d
            best_i = i
    return best_i


def support_brute(poly: ConvexPolygon, direction: Vec2) -> SupportResult:
    """First vertex attaining max dot(v, direction); index 0 for a zero direction."""
    i = _argmax_index(poly.xs, poly.ys, direction.x, direction.y)
    return SupportResult(_new(Vec2, (poly.xs[i], poly.ys[i])), i)


def support_hill_climb(poly: ConvexPolygon, direction: Vec2, start: int) -> SupportResult:
    """Walk the vertex ring from ``start`` while a neighbor strictly improves.

    Forward first, backward only if the first forward step fails. On a
    strictly convex polygon the dot products along the ring are cyclically
    unimodal, so the walk reaches a vertex whose support value equals the
    brute-force maximum. No step bound is needed: the dot strictly
    increases at every step, so the walk cannot revisit a vertex. A zero
    or NaN direction returns ``start``. A ``start`` outside ``[0, n)``
    raises ``ValueError``.
    """
    xs = poly.xs
    ys = poly.ys
    dx, dy = direction
    n = len(xs)
    if not 0 <= start < n:
        raise ValueError(f"start {start!r} is not a vertex index in [0, {n})")
    i = start
    best = xs[i] * dx + ys[i] * dy
    j = i + 1
    if j == n:
        j = 0
    d = xs[j] * dx + ys[j] * dy
    while d > best:
        i = j
        best = d
        j += 1
        if j == n:
            j = 0
        d = xs[j] * dx + ys[j] * dy
    if i == start:
        j = i - 1 if i else n - 1
        d = xs[j] * dx + ys[j] * dy
        while d > best:
            i = j
            best = d
            j = i - 1 if i else n - 1
            d = xs[j] * dx + ys[j] * dy
    return SupportResult(_new(Vec2, (xs[i], ys[i])), i)


def _cso_support_xy(
    p_poly: ConvexPolygon,
    q_poly: ConvexPolygon,
    dx: float,
    dy: float,
    warm: Optional[Tuple[int, int]],
) -> Tuple[float, float, int, int]:
    """Cold ``cso_support`` on a flat direction: the hill-climbing query's support call.

    Returns the plain tuple ``(wx, wy, ip, iq)``, the fields of a
    ``SimplexVertex`` but no ``NamedTuple`` and no ``Vec2``: the query
    loop runs its exit tests on it and wraps it only if it joins the
    simplex, so a point that only decides an exit costs no wrap (about a
    fifth of a small-polygon support call). P climbs along d and Q along
    -d, with ``support_hill_climb``'s walk run inline in this one frame.
    d falls in one of eight 45-degree sectors, around an axis or a
    diagonal, and P starts at its recorded start for that sector
    (``ConvexPolygon.bottom``, ``lower_right``, ``right``,
    ``upper_right``, ``top``, ``upper_left``, ``left`` or ``lower_left``),
    Q at its start for the opposite sector. A direction on a sector edge
    takes the axis sector; a zero or NaN one starts P at ``right`` and Q at
    ``left``. Q's climb minimizes d.q instead of maximizing (-d).q:
    float negation is exact, so every dot product and comparison is the
    exact mirror of the two-call form and the indices are the same.

    ``warm`` is ignored, as by ``_cso_scan_xy``, and the loop passes
    ``None``. It stays because perfbench (``perfbench/run.py``) captures
    the loop's calls here and unpacks five arguments from each.
    """
    pxs = p_poly.xs
    pys = p_poly.ys
    qxs = q_poly.xs
    qys = q_poly.ys
    # The diagonals dx = dy and dx = -dy bound the quarter around each
    # axis; lines at 22.5 degrees from the axis, |dy| = _TAN_22_5 * |dx|
    # or its mirror, split the quarter into its axis sector and two
    # diagonal ones. A zero or NaN direction fails every test: right.
    if dy > dx:
        if -dx > dy:
            t = _TAN_22_5 * dx
            if dy > -t:
                pstart = p_poly.upper_left
                qstart = q_poly.lower_right
            elif dy < t:
                pstart = p_poly.lower_left
                qstart = q_poly.upper_right
            else:
                pstart = p_poly.left
                qstart = q_poly.right
        else:
            t = _TAN_22_5 * dy
            if dx > t:
                pstart = p_poly.upper_right
                qstart = q_poly.lower_left
            elif dx < -t:
                pstart = p_poly.upper_left
                qstart = q_poly.lower_right
            else:
                pstart = p_poly.top
                qstart = q_poly.bottom
    elif -dx > dy:
        t = _TAN_22_5 * dy
        if dx > -t:
            pstart = p_poly.lower_right
            qstart = q_poly.upper_left
        elif dx < t:
            pstart = p_poly.lower_left
            qstart = q_poly.upper_right
        else:
            pstart = p_poly.bottom
            qstart = q_poly.top
    else:
        t = _TAN_22_5 * dx
        if dy > t:
            pstart = p_poly.upper_right
            qstart = q_poly.lower_left
        elif dy < -t:
            pstart = p_poly.lower_right
            qstart = q_poly.upper_left
        else:
            pstart = p_poly.right
            qstart = q_poly.left
    # P: maximize d.p
    n = len(pxs)
    ip = pstart
    best = pxs[ip] * dx + pys[ip] * dy
    j = ip + 1
    if j == n:
        j = 0
    d = pxs[j] * dx + pys[j] * dy
    while d > best:
        ip = j
        best = d
        j += 1
        if j == n:
            j = 0
        d = pxs[j] * dx + pys[j] * dy
    if ip == pstart:
        j = ip - 1 if ip else n - 1
        d = pxs[j] * dx + pys[j] * dy
        while d > best:
            ip = j
            best = d
            j = ip - 1 if ip else n - 1
            d = pxs[j] * dx + pys[j] * dy
    # Q: minimize d.q
    n = len(qxs)
    iq = qstart
    best = qxs[iq] * dx + qys[iq] * dy
    j = iq + 1
    if j == n:
        j = 0
    d = qxs[j] * dx + qys[j] * dy
    while d < best:
        iq = j
        best = d
        j += 1
        if j == n:
            j = 0
        d = qxs[j] * dx + qys[j] * dy
    if iq == qstart:
        j = iq - 1 if iq else n - 1
        d = qxs[j] * dx + qys[j] * dy
        while d < best:
            iq = j
            best = d
            j = iq - 1 if iq else n - 1
            d = qxs[j] * dx + qys[j] * dy
    return (pxs[ip] - qxs[iq], pys[ip] - qys[iq], ip, iq)


def _cso_scan_xy(
    p_poly: ConvexPolygon,
    q_poly: ConvexPolygon,
    dx: float,
    dy: float,
    warm: Optional[Tuple[int, int]],
) -> Tuple[float, float, int, int]:
    """The brute-force ``_cso_support_xy``: ``_argmax_index`` scans of P along d
    and of Q along -d, each keeping the lowest tied index; ``warm`` is ignored.
    Returns the same plain ``(wx, wy, ip, iq)`` tuple."""
    pxs = p_poly.xs
    pys = p_poly.ys
    qxs = q_poly.xs
    qys = q_poly.ys
    ip = _argmax_index(pxs, pys, dx, dy)
    iq = _argmax_index(qxs, qys, -dx, -dy)
    return (pxs[ip] - qxs[iq], pys[ip] - qys[iq], ip, iq)


def cso_support(
    p_poly: ConvexPolygon,
    q_poly: ConvexPolygon,
    direction: Vec2,
    warm: Optional[Tuple[int, int]] = None,
) -> SimplexVertex:
    """Support of the Minkowski difference P - Q in ``direction``, by hill climbing.

    Returns the point w = P[ip] - Q[iq] as the flat ``SimplexVertex``
    ``(wx, wy, ip, iq)``, with the indices of the P and Q vertices it is
    the difference of; vertex ``i`` of a polygon is
    ``(poly.xs[i], poly.ys[i])``, and ``.w`` gives the point as a ``Vec2``.
    It wraps the plain tuple of ``_cso_support_xy``, a wrap the query loop
    pays only for the points it keeps.

    ``warm=None`` starts cold, as every call of the query loop does (see
    ``_cso_support_xy``). A pair ``(ip, iq)`` is two ``support_hill_climb``
    calls, P along d from ``ip`` and Q along -d from ``iq``, which raise
    ``ValueError`` for a start that is not a vertex index. Where several
    vertices tie, the climb stops on the first tied vertex it reaches.
    """
    if warm is None:
        return _new(SimplexVertex, _cso_support_xy(p_poly, q_poly, direction.x, direction.y, None))
    (px, py), ip = support_hill_climb(p_poly, direction, warm[0])
    (qx, qy), iq = support_hill_climb(q_poly, _new(Vec2, (-direction.x, -direction.y)), warm[1])
    return _new(SimplexVertex, (px - qx, py - qy, ip, iq))


def initial_direction(p_poly: ConvexPolygon, q_poly: ConvexPolygon) -> Tuple[float, float]:
    """Heuristic start direction: a point of the Minkowski difference.

    Uses the centroid difference, and (1, 0) when it is exactly zero: the
    origin is then itself a point of P - Q, so any start direction serves.
    There is no length threshold.

    Returns a plain ``(dx, dy)`` tuple, not a ``Vec2``, and reads the
    centroids by index: CPython unpacks only an exact tuple on its fast
    path, and a ``Vec2`` costs about 3 times as much to unpack and 5 times
    as much to build as a plain pair, a few percent of a small-polygon
    query.
    """
    pc = p_poly.centroid
    qc = q_poly.centroid
    dx = pc[0] - qc[0]
    dy = pc[1] - qc[1]
    if dx == 0.0 and dy == 0.0:
        return 1.0, 0.0
    return dx, dy
