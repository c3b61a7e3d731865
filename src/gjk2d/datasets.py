"""Random convex-polygon generation and the three-regime pair datasets.

Pairs come in three regimes named after their collision status: distant
(positive gap), touching (near-zero gap, built by shifting a distant
pair along its separating vector), and overlap (interiors intersect).
Every constructed case is re-verified by the independent baseline oracle
before it is accepted, so the datasets are not circularly trusted.

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

from .baseline import cso_contains_origin, oracle_distance, sat_intersects
from .geometry import (
    ConvexPolygon,
    PolygonError,
    Transform2,
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
# Minimum doubled sub-area (relative to scale^2) the generator accepts,
# so later rigid transforms cannot flip a convexity sign by roundoff.
_MIN_CROSS_REL = 1e-9


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


@dataclass(frozen=True)
class DatasetHeader:
    schema: int
    vertex_count: int
    cases_per_regime: int
    seed: int
    rng: str
    margins: dict


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


def random_convex_polygon(
    n: int, rng: random.Random, scale: float = 1.0
) -> ConvexPolygon:
    """Random strictly convex CCW polygon with exactly n vertices.

    The polygon is centered on its vertex mean and fitted to a disc of
    radius ``scale`` around the origin. Candidates whose smallest turn
    falls below a scale-relative margin are rejected and redrawn;
    ``PolygonGenerationFailed`` after 1000 attempts.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    min_cross = _MIN_CROSS_REL * scale * scale
    for _ in range(1000):
        pts = _valtr_points(rng, n)
        cx = sum(p[0] for p in pts) / n
        cy = sum(p[1] for p in pts) / n
        centered = [(p[0] - cx, p[1] - cy) for p in pts]
        radius = max(math.hypot(x, y) for x, y in centered)
        if radius <= 0.0:
            continue
        f = scale / radius
        verts = [(x * f, y * f) for x, y in centered]
        try:
            poly = ConvexPolygon(verts)
        except PolygonError:
            continue
        ok = True
        for i in range(n):
            a = poly.vertices[i]
            b = poly.vertices[(i + 1) % n]
            c = poly.vertices[(i + 2) % n]
            if (b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x) <= min_cross:
                ok = False
                break
        if ok:
            return poly
    raise PolygonGenerationFailed(f"no valid {n}-gon after 1000 attempts")


def derive_case_seed(seed: int, vertex_count: int, regime: Regime, index: int) -> int:
    """Stable per-case seed from the dataset key (splittable across cases)."""
    key = f"{seed}:{vertex_count}:{regime.value}:{index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def _build_distant(n: int, rng: random.Random) -> Optional[PairCase]:
    base_p = random_convex_polygon(n, rng)
    base_q = random_convex_polygon(n, rng)
    shift = Vec2(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    p = apply_transform(Transform2(rng.uniform(0.0, TAU), shift), base_p)
    phi = rng.uniform(0.0, TAU)
    # Both generated polygons have bounding radius 1 about their centroid,
    # so this center separation guarantees a gap of at least the margin.
    sep = 2.0 + DISTANT_MARGIN + rng.uniform(0.0, DISTANT_SPREAD)
    q_translation = Vec2(shift.x + sep * math.cos(phi), shift.y + sep * math.sin(phi))
    q = apply_transform(Transform2(rng.uniform(0.0, TAU), q_translation), base_q)
    if oracle_distance(p, q).distance > DISTANT_MIN_GAP:
        return PairCase(p, q, Regime.DISTANT, 0)
    return None


def _build_touching(n: int, rng: random.Random) -> Tuple[Optional[PairCase], float]:
    base = _build_distant(n, rng)
    if base is None:
        return None, math.inf
    res = distance(base.p, base.q)
    shifted_q = apply_transform(Transform2(0.0, res.separating_vector), base.q)
    gap = oracle_distance(base.p, shifted_q).distance
    if gap <= TOUCHING_MAX_GAP:
        return PairCase(base.p, shifted_q, Regime.TOUCHING, 0), gap
    return None, gap


def _build_overlap(n: int, rng: random.Random) -> Optional[PairCase]:
    base_p = random_convex_polygon(n, rng)
    base_q = random_convex_polygon(n, rng)
    shift = Vec2(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    p = apply_transform(Transform2(rng.uniform(0.0, TAU), shift), base_p)
    target: Optional[Vec2] = None
    lo_x = min(p.xs)
    hi_x = max(p.xs)
    lo_y = min(p.ys)
    hi_y = max(p.ys)
    for _ in range(100):
        candidate = Vec2(rng.uniform(lo_x, hi_x), rng.uniform(lo_y, hi_y))
        if contains_point(p, candidate, tolerance=-1e-6):
            target = candidate
            break
    if target is None:
        return None
    # The generated polygon is centered on its vertex mean, so translating
    # by ``target`` drops Q's centroid inside P.
    q = apply_transform(Transform2(rng.uniform(0.0, TAU), target), base_q)
    if sat_intersects(p, q) and cso_contains_origin(p, q):
        return PairCase(p, q, Regime.OVERLAP, 0)
    return None


def make_pair(
    spec: DatasetSpec, regime: Regime, case_seed: int, max_attempts: int = 50
) -> PairCase:
    """Construct one verified pair for ``regime`` from its case seed.

    Construction draws from a stream seeded with ``case_seed`` and is
    fully deterministic. Attempts whose oracle verification fails are
    logged and retried on the same stream; ``RegimeConstructionFailed``
    after ``max_attempts``.
    """
    rng = random.Random(case_seed)
    last_gap = None
    for attempt in range(1, max_attempts + 1):
        if regime is Regime.DISTANT:
            case = _build_distant(spec.vertex_count, rng)
        elif regime is Regime.TOUCHING:
            case, gap = _build_touching(spec.vertex_count, rng)
            last_gap = gap
        else:
            case = _build_overlap(spec.vertex_count, rng)
        if case is not None:
            return PairCase(case.p, case.q, case.regime, case_seed)
        detail = f" (gap {last_gap:.3g})" if regime is Regime.TOUCHING else ""
        logger.warning(
            "regenerating %s case (seed %d, attempt %d failed verification%s)",
            regime.value,
            case_seed,
            attempt,
            detail,
        )
    raise RegimeConstructionFailed(
        f"{regime.value} case for seed {case_seed} failed after {max_attempts} attempts"
    )


def verify_regime(case: PairCase) -> bool:
    """Re-check the case's regime invariant with the baseline oracle."""
    if case.regime is Regime.DISTANT:
        return oracle_distance(case.p, case.q).distance > DISTANT_MIN_GAP
    if case.regime is Regime.TOUCHING:
        return oracle_distance(case.p, case.q).distance <= TOUCHING_MAX_GAP
    return sat_intersects(case.p, case.q) and cso_contains_origin(case.p, case.q)


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


def read_dataset(path) -> Tuple[DatasetHeader, List[PairCase]]:
    """Parse and validate a dataset file; errors name the offending line."""
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
        header = DatasetHeader(
            schema=raw_header["schema"],
            vertex_count=int(raw_header["vertex_count"]),
            cases_per_regime=int(raw_header["cases_per_regime"]),
            seed=int(raw_header["seed"]),
            rng=str(raw_header["rng"]),
            margins=dict(raw_header.get("margins", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"line 1: malformed header field ({exc})") from exc
    cases = []
    regimes = {r.value: r for r in Regime}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"line {lineno}: invalid JSON ({exc})") from exc
        try:
            regime = regimes[obj["regime"]]
            seed = int(obj["seed"])
            p = polygon_from_jsonable(obj["p"])
            q = polygon_from_jsonable(obj["q"])
        except KeyError as exc:
            raise DatasetError(
                f"line {lineno}: missing or unknown field {exc}"
            ) from exc
        except PolygonError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"line {lineno}: malformed field ({exc})") from exc
        cases.append(PairCase(p, q, regime, seed))
    return header, cases


def group_by_regime(cases: Iterable[PairCase]) -> Dict[Regime, List[PairCase]]:
    groups: Dict[Regime, List[PairCase]] = {r: [] for r in Regime}
    for case in cases:
        groups[case.regime].append(case)
    return groups
