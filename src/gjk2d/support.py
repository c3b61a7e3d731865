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
frame and, without a warm pair, starts at their extremes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .geometry import ConvexPolygon, Vec2

# Hot-path tuples skip the generated NamedTuple.__new__ frame, about half their cost.
_new = tuple.__new__


class SupportResult(NamedTuple):
    point: Vec2
    index: int


class SimplexVertex(NamedTuple):
    """One Minkowski-difference point w = P[ip] - Q[iq], flat: ``(wx, wy, ip, iq)``.

    The query loop, ``s1d``, ``s2d`` and ``witness_points`` unpack the four
    fields directly. The indices name the originating vertices;
    ``witness_points`` reads them back from the polygons once, when the
    query ends. ``w`` builds the point as a ``Vec2`` for readers off the
    hot path.
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
    or NaN direction returns ``start``.
    """
    xs = poly.xs
    ys = poly.ys
    dx, dy = direction
    n = len(xs)
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
) -> SimplexVertex:
    """``cso_support`` on a flat direction: the hill-climbing query's support call.

    Returns the flat ``SimplexVertex`` ``(wx, wy, ip, iq)``; no ``Vec2``
    is built. P climbs along d and Q along -d from the (index in P, index
    in Q) pair ``warm``, with ``support_hill_climb``'s walk run inline in
    this one frame; ``warm=None`` starts cold, at P's extreme
    (``ConvexPolygon.bottom``, ``right``, ``top``, ``left``) nearest d and
    Q's nearest -d. Q's climb minimizes d.q instead of maximizing (-d).q:
    float negation is exact, so every dot product and comparison is the
    exact mirror of the two-call form and the indices are the same.
    """
    pxs = p_poly.xs
    pys = p_poly.ys
    qxs = q_poly.xs
    qys = q_poly.ys
    if warm is None:
        # The diagonals dx = dy and dx = -dy bound the quarter around each axis.
        if dy > dx:
            warm = (p_poly.left, q_poly.right) if -dx > dy else (p_poly.top, q_poly.bottom)
        else:
            warm = (p_poly.bottom, q_poly.top) if -dx > dy else (p_poly.right, q_poly.left)
    pstart, qstart = warm
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
    return _new(SimplexVertex, (pxs[ip] - qxs[iq], pys[ip] - qys[iq], ip, iq))


def _cso_scan_xy(
    p_poly: ConvexPolygon,
    q_poly: ConvexPolygon,
    dx: float,
    dy: float,
    warm: Optional[Tuple[int, int]],
) -> SimplexVertex:
    """The brute-force ``_cso_support_xy``: ``_argmax_index`` scans of P along d
    and of Q along -d, each keeping the lowest tied index; ``warm`` is ignored."""
    pxs = p_poly.xs
    pys = p_poly.ys
    qxs = q_poly.xs
    qys = q_poly.ys
    ip = _argmax_index(pxs, pys, dx, dy)
    iq = _argmax_index(qxs, qys, -dx, -dy)
    return _new(SimplexVertex, (pxs[ip] - qxs[iq], pys[ip] - qys[iq], ip, iq))


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

    ``warm`` is the (index in P, index in Q) pair to climb from, such as a
    previous call's answer; ``None`` starts cold, as the query loop's
    first call does (see ``_cso_support_xy``). Where several vertices tie,
    the climb stops on the first tied vertex it reaches.
    """
    return _cso_support_xy(p_poly, q_poly, direction.x, direction.y, warm)


def initial_direction(p_poly: ConvexPolygon, q_poly: ConvexPolygon) -> Vec2:
    """Heuristic start direction: a point of the Minkowski difference.

    Uses the centroid difference, and (1, 0) when it is exactly zero: the
    origin is then itself a point of P - Q, so any start direction serves.
    There is no length threshold.
    """
    pcx, pcy = p_poly.centroid
    qcx, qcy = q_poly.centroid
    dx = pcx - qcx
    dy = pcy - qcy
    if dx == 0.0 and dy == 0.0:
        return _new(Vec2, (1.0, 0.0))
    return _new(Vec2, (dx, dy))
