"""Random convex-polygon generation and the three-regime pair datasets.

Pairs come in three regimes named after their collision status: distant
(positive gap), touching (within ``TOUCHING_MAX_GAP`` of contact on
either side, built by shifting a distant pair along its separating
vector), and overlap (interiors intersect). A placed pair is accepted
only when ``verify_regime`` holds on it, so the datasets are checked by
the independent baseline oracles and not circularly trusted.

Generation is deterministic: each case owns a seed derived by hashing
(dataset seed, vertex count, regime, case index), and the polygon
generator draws from a seeded Mersenne Twister stream.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# sat_intersects is not called here; it stays bound as a perfbench patch point.
from .baseline import OracleReport, cso_contains_origin, oracle_distance, sat_intersects
from .geometry import (
    ConvexPolygon,
    PolygonError,
    Vec2,
    apply_transform,
    contains_point,
    polygon_from_jsonable,
    polygon_to_jsonable,
)
from .gjk import distance

logger = logging.getLogger(__name__)

TAU = 2.0 * math.pi

# Regime thresholds; the margins below are recorded in dataset headers.
DISTANT_MIN_GAP = 1e-6
TOUCHING_MAX_GAP = 1e-7
DISTANT_MARGIN = 0.05
DISTANT_SPREAD = 2.0

RNG_NAME = "mt19937/sha256-case-seeds"

_SCHEMA = 1
# Minimum doubled sub-area of a unit-disc polygon the generator accepts,
# so later rigid transforms cannot flip a convexity sign by roundoff.
_MIN_CROSS = 1e-9


class Regime(Enum):
    DISTANT = "distant"
    TOUCHING = "touching"
    OVERLAP = "overlap"


@dataclass(frozen=True)
class DatasetSpec:
    vertex_count: int
    cases_per_regime: int
    seed: int

    def __post_init__(self):
        if self.vertex_count < 3:
            raise ValueError("vertex_count must be at least 3")
        if self.cases_per_regime < 1:
            raise ValueError("cases_per_regime must be at least 1")


@dataclass(frozen=True)
class PairCase:
    p: ConvexPolygon
    q: ConvexPolygon
    regime: Regime
    seed: int


class DatasetError(Exception):
    """Dataset file violates the JSON-lines schema; message names the line."""


class PolygonGenerationFailed(RuntimeError):
    pass


class RegimeConstructionFailed(RuntimeError):
    pass


def _valtr_points(rng: random.Random, n: int) -> List[Tuple[float, float]]:
    """Random convex position of exactly n points (Valtr's construction).

    Sorted coordinate pools are split into two monotone chains per axis,
    the resulting deltas are paired up at random and sorted by angle, and
    their prefix sums trace a convex CCW polygon.
    """

    def deltas(values: List[float]) -> List[float]:
        lo, hi = values[0], values[-1]
        last_up = lo
        last_down = lo
        out = []
        for v in values[1:-1]:
            if rng.random() < 0.5:
                out.append(v - last_up)
                last_up = v
            else:
                out.append(last_down - v)
                last_down = v
        out.append(hi - last_up)
        out.append(last_down - hi)
        return out

    xs = sorted(rng.random() for _ in range(n))
    ys = sorted(rng.random() for _ in range(n))
    dx = deltas(xs)
    dy = deltas(ys)
    rng.shuffle(dy)
    vecs = sorted(zip(dx, dy), key=lambda v: math.atan2(v[1], v[0]))
    px = py = 0.0
    pts = []
    for vx, vy in vecs:
        pts.append((px, py))
        px += vx
        py += vy
    return pts


def random_convex_polygon(n: int, rng: random.Random) -> ConvexPolygon:
    """Random strictly convex CCW polygon with exactly n vertices.

    The polygon is centered on its vertex mean and fitted to the unit
    disc around the origin. Candidates whose smallest turn falls below a
    fixed margin are rejected and redrawn; ``PolygonGenerationFailed``
    after 1000 attempts.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    for _ in range(1000):
        pts = _valtr_points(rng, n)
        cx = sum(p[0] for p in pts) / n
        cy = sum(p[1] for p in pts) / n
        centered = [(p[0] - cx, p[1] - cy) for p in pts]
        radius = max(math.hypot(x, y) for x, y in centered)
        if radius <= 0.0:
            continue
        f = 1.0 / radius
        verts = [(x * f, y * f) for x, y in centered]
        try:
            poly = ConvexPolygon(verts)
        except PolygonError:
            continue
        xs, ys = poly.xs, poly.ys
        for i in range(n):
            j = (i + 1) % n
            k = (i + 2) % n
            if (xs[j] - xs[i]) * (ys[k] - ys[j]) - (ys[j] - ys[i]) * (xs[k] - xs[j]) <= _MIN_CROSS:
                break
        else:
            return poly
    raise PolygonGenerationFailed(f"no valid {n}-gon after 1000 attempts")


def derive_case_seed(seed: int, vertex_count: int, regime: Regime, index: int) -> int:
    """Stable per-case seed from the dataset key (splittable across cases)."""
    key = f"{seed}:{vertex_count}:{regime.value}:{index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def _place_distant(n: int, rng: random.Random) -> Tuple[ConvexPolygon, ConvexPolygon]:
    base_p = random_convex_polygon(n, rng)
    base_q = random_convex_polygon(n, rng)
    tx, ty = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    p = apply_transform(base_p, rng.uniform(0.0, TAU), tx, ty)
    phi = rng.uniform(0.0, TAU)
    # Both generated polygons have bounding radius 1 about their centroid,
    # so this center separation guarantees a gap of at least the margin.
    sep = 2.0 + DISTANT_MARGIN + rng.uniform(0.0, DISTANT_SPREAD)
    q = apply_transform(
        base_q, rng.uniform(0.0, TAU), tx + sep * math.cos(phi), ty + sep * math.sin(phi)
    )
    return p, q


def _place_touching(n: int, rng: random.Random) -> Tuple[ConvexPolygon, ConvexPolygon]:
    p, q = _place_distant(n, rng)
    sx, sy = distance(p, q).separating_vector
    return p, apply_transform(q, 0.0, sx, sy)


def _place_overlap(n: int, rng: random.Random) -> Optional[Tuple[ConvexPolygon, ConvexPolygon]]:
    base_p = random_convex_polygon(n, rng)
    base_q = random_convex_polygon(n, rng)
    tx, ty = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    p = apply_transform(base_p, rng.uniform(0.0, TAU), tx, ty)
    lo_x, hi_x = min(p.xs), max(p.xs)
    lo_y, hi_y = min(p.ys), max(p.ys)
    for _ in range(100):
        target = Vec2(rng.uniform(lo_x, hi_x), rng.uniform(lo_y, hi_y))
        if contains_point(p, target, tolerance=-1e-6):
            # The generated polygon is centered on its vertex mean, so
            # translating by ``target`` drops Q's centroid inside P.
            return p, apply_transform(base_q, rng.uniform(0.0, TAU), target.x, target.y)
    return None


# Each regime's placement; ``verify_regime`` alone decides acceptance.
_PLACEMENTS = {
    Regime.DISTANT: _place_distant,
    Regime.TOUCHING: _place_touching,
    Regime.OVERLAP: _place_overlap,
}


def make_pair(
    spec: DatasetSpec, regime: Regime, case_seed: int, max_attempts: int = 50
) -> PairCase:
    """Construct one verified pair for ``regime`` from its case seed.

    Construction draws from a stream seeded with ``case_seed`` and is
    fully deterministic. Each placed pair is accepted iff
    ``verify_regime`` holds; other attempts are logged and retried on the
    same stream, and ``RegimeConstructionFailed`` follows ``max_attempts``.
    """
    place = _PLACEMENTS[regime]
    rng = random.Random(case_seed)
    for attempt in range(1, max_attempts + 1):
        pair = place(spec.vertex_count, rng)
        if pair is not None:
            case = PairCase(*pair, regime, case_seed)
            if verify_regime(case):
                return case
        logger.warning(
            "regenerating %s case (seed %d, attempt %d failed verification)",
            regime.value,
            case_seed,
            attempt,
        )
    raise RegimeConstructionFailed(
        f"{regime.value} case for seed {case_seed} failed after {max_attempts} attempts"
    )


def verify_regime(case: PairCase, report: Optional[OracleReport] = None) -> bool:
    """Re-check the case's regime invariant with the baseline oracles.

    Distant pairs need a gap above ``DISTANT_MIN_GAP``; touching pairs
    both the oracle's gap and its penetration depth (one is always 0.0)
    at most ``TOUCHING_MAX_GAP``; overlap pairs strict origin containment
    in P - Q (``cso_contains_origin``), which implies closed intersection.

    A caller that already holds ``oracle_distance(case.p, case.q)`` may
    pass it as ``report``; it is computed here when a distant or touching
    case needs it, so the result is the same either way.
    """
    if case.regime is Regime.OVERLAP:
        return cso_contains_origin(case.p, case.q)
    if report is None:
        report = oracle_distance(case.p, case.q)
    if case.regime is Regime.DISTANT:
        return report.distance > DISTANT_MIN_GAP
    return max(report.distance, report.depth) <= TOUCHING_MAX_GAP


def generate_dataset(spec: DatasetSpec) -> List[PairCase]:
    """All three regime blocks, ``spec.cases_per_regime`` cases each."""
    cases = []
    for regime in (Regime.DISTANT, Regime.TOUCHING, Regime.OVERLAP):
        for index in range(spec.cases_per_regime):
            seed = derive_case_seed(spec.seed, spec.vertex_count, regime, index)
            cases.append(make_pair(spec, regime, seed))
    return cases


def _header_dict(spec: DatasetSpec) -> dict:
    return {
        "schema": _SCHEMA,
        "vertex_count": spec.vertex_count,
        "cases_per_regime": spec.cases_per_regime,
        "seed": spec.seed,
        "rng": RNG_NAME,
        "margins": {
            "distant_min_gap": DISTANT_MIN_GAP,
            "distant_margin": DISTANT_MARGIN,
            "distant_spread": DISTANT_SPREAD,
            "touching_max_gap": TOUCHING_MAX_GAP,
        },
    }


def write_dataset(path, spec: DatasetSpec, cases: Sequence[PairCase]) -> None:
    """JSON-lines file: one header object, then one case object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_header_dict(spec), separators=(",", ":")) + "\n")
        for case in cases:
            record = {
                "regime": case.regime.value,
                "seed": case.seed,
                "p": polygon_to_jsonable(case.p),
                "q": polygon_to_jsonable(case.q),
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _json_int(obj: dict, field: str) -> int:
    """``obj[field]``, which must be a JSON integer (``int()`` would take more)."""
    value = obj[field]
    if type(value) is not int:  # exact: bool is an int subclass
        raise TypeError(f"{field!r} must be a JSON integer, not {value!r:.40}")
    return value


def read_dataset(path) -> Tuple[DatasetSpec, List[PairCase]]:
    """Parse and validate a dataset file; errors name the offending line.

    The header must be the one ``write_dataset`` writes for its spec, and
    every polygon must have the header's ``vertex_count`` vertices.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetError("line 1: missing header")
    try:
        raw_header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DatasetError(f"line 1: invalid JSON header ({exc})") from exc
    if not isinstance(raw_header, dict) or raw_header.get("schema") != _SCHEMA:
        raise DatasetError(f"line 1: unsupported schema {raw_header!r:.80}")
    try:
        _json_int(raw_header, "schema")
        spec = DatasetSpec(
            vertex_count=_json_int(raw_header, "vertex_count"),
            cases_per_regime=_json_int(raw_header, "cases_per_regime"),
            seed=_json_int(raw_header, "seed"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"line 1: malformed header field ({exc})") from exc
    expected = _header_dict(spec)
    for field in {**expected, **raw_header}:
        if field not in expected:
            raise DatasetError(f"line 1: unknown header field {field!r:.40}")
        if raw_header.get(field) != expected[field]:
            raise DatasetError(
                f"line 1: header field {field!r} must be {json.dumps(expected[field])}, "
                f"not {json.dumps(raw_header.get(field)):.80}"
            )
    cases = []
    regimes = {r.value: r for r in Regime}
    n = spec.vertex_count
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"line {lineno}: invalid JSON ({exc})") from exc
        if not isinstance(obj, dict):
            raise DatasetError(f"line {lineno}: case must be a JSON object")
        try:
            regime = regimes[obj["regime"]]
            seed = _json_int(obj, "seed")
            p = polygon_from_jsonable(obj["p"])
            q = polygon_from_jsonable(obj["q"])
        except KeyError as exc:
            raise DatasetError(
                f"line {lineno}: missing or unknown field {exc}"
            ) from exc
        except PolygonError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise DatasetError(f"line {lineno}: malformed field ({exc})") from exc
        if len(p.xs) != n or len(q.xs) != n:
            name, count = ("p", len(p.xs)) if len(p.xs) != n else ("q", len(q.xs))
            raise DatasetError(
                f"line {lineno}: {name!r} has {count} vertices, not the header's vertex_count {n}"
            )
        cases.append(PairCase(p, q, regime, seed))
    return spec, cases


def group_by_regime(cases: Iterable[PairCase]) -> Dict[Regime, List[PairCase]]:
    groups: Dict[Regime, List[PairCase]] = {r: [] for r in Regime}
    for case in cases:
        groups[case.regime].append(case)
    return groups
