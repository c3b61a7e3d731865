"""Random convex-polygon generation and the three-regime pair datasets.

Pairs come in three regimes named after their collision status: distant
(positive gap), touching (within ``TOUCHING_MAX_GAP`` of contact on
either side, built by shifting a distant pair along its separating
vector), and overlap (interiors intersect). The touching placement takes
that vector from ``gjk.distance``, so a change to ``distance`` can move
the touching pairs and every digest pinned on them. Acceptance does not
rest on it: a placed pair is accepted only when ``verify_regime`` holds
on it, so the datasets are checked by the independent baseline oracles
alone and not circularly trusted.

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
# Placements ``make_pair`` tries per case before giving up.
MAX_ATTEMPTS = 50

_SCHEMA = 1


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


class RegimeConstructionFailed(RuntimeError):
    pass


def _valtr_points(rng: random.Random, n: int) -> Tuple[List[float], List[float]]:
    """Random convex position of exactly n points (Valtr's construction),
    as per-axis coordinate lists ``(xs, ys)`` centered on their mean.

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
    sx = sy = 0.0  # folded left, as in ConvexPolygon: sum() compensates from 3.12 on
    pxs = []
    pys = []
    for vx, vy in vecs:
        pxs.append(px)
        pys.append(py)
        sx += px
        sy += py
        px += vx
        py += vy
    cx = sx / n
    cy = sy / n
    return [x - cx for x in pxs], [y - cy for y in pys]


def random_convex_polygon(n: int, rng: random.Random) -> ConvexPolygon:
    """Random strictly convex CCW polygon with exactly n vertices.

    One Valtr candidate, centered on its vertex mean and fitted to the unit
    disc around the origin. ``ConvexPolygon`` alone judges it: a candidate
    it rejects raises that ``PolygonError``, which ``make_pair`` retries.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    xs, ys = _valtr_points(rng, n)
    f = 1.0 / max(map(math.hypot, xs, ys))
    return ConvexPolygon(zip([x * f for x in xs], [y * f for y in ys]))


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


def make_pair(spec: DatasetSpec, regime: Regime, case_seed: int) -> PairCase:
    """Construct one verified pair for ``regime`` from its case seed.

    Construction draws from a stream seeded with ``case_seed`` and is
    fully deterministic. Each placed pair is accepted iff
    ``verify_regime`` holds. Other attempts are logged with their cause and
    retried on the same stream: a placement that gave up, one whose
    generated or moved polygon ``ConvexPolygon`` rejected (a
    ``PolygonError``), and a pair that failed verification.
    ``RegimeConstructionFailed`` follows ``MAX_ATTEMPTS``.
    """
    place = _PLACEMENTS[regime]
    rng = random.Random(case_seed)
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            pair = place(spec.vertex_count, rng)
            cause = "placed no pair"
        except PolygonError:
            pair, cause = None, "placed an invalid polygon"
        if pair is not None:
            case = PairCase(*pair, regime, case_seed)
            if verify_regime(case):
                return case
            cause = "failed verification"
        logger.warning(
            "regenerating %s case (seed %d, attempt %d %s)",
            regime.value,
            case_seed,
            attempt,
            cause,
        )
    raise RegimeConstructionFailed(
        f"{regime.value} case for seed {case_seed} failed after {MAX_ATTEMPTS} attempts"
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

    The header must be the one ``write_dataset`` writes for its spec, every
    polygon must have the header's ``vertex_count`` vertices, each regime
    must hold exactly ``cases_per_regime`` cases, and the seed of the
    i-th case of a regime must be ``derive_case_seed(seed, vertex_count,
    regime, i)``, as ``generate_dataset`` makes them. A missing case is
    named at the line past the end of the file.
    """
    # Lines end at "\n" alone (text mode reads "\r\n" and "\r" as "\n"):
    # str.splitlines also breaks at "\x0c", "\x1e", U+2028 and others, which
    # would pass a case line that is not JSON and shift every later line
    # number. The final newline ends the last line and starts no new one.
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not lines[-1]:
        lines.pop()
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
    counts = dict.fromkeys(Regime, 0)
    n = spec.vertex_count
    per_regime = spec.cases_per_regime
    for lineno, line in enumerate(lines[1:], start=2):
        # blank means JSON whitespace alone: str.strip() would also drop
        # "\x0c", "\x1e" and others that json.loads rejects
        if not line.strip(" \t\r"):
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
        index = counts[regime]
        if index == per_regime:
            raise DatasetError(
                f"line {lineno}: more than the header's cases_per_regime {per_regime} "
                f"{regime.value} cases"
            )
        if seed != derive_case_seed(spec.seed, n, regime, index):
            raise DatasetError(
                f"line {lineno}: seed {seed} is not the seed of {regime.value} case {index}"
            )
        counts[regime] = index + 1
        cases.append(PairCase(p, q, regime, seed))
    for regime, count in counts.items():
        if count != per_regime:
            raise DatasetError(
                f"line {len(lines) + 1}: {count} {regime.value} cases, "
                f"not the header's cases_per_regime {per_regime}"
            )
    return spec, cases


def group_by_regime(cases: Iterable[PairCase]) -> Dict[Regime, List[PairCase]]:
    groups: Dict[Regime, List[PairCase]] = {r: [] for r in Regime}
    for case in cases:
        groups[case.regime].append(case)
    return groups
