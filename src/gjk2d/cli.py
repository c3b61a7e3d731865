"""Command-line front end: dataset generation, oracle checking, benchmarks,
and single-pair queries.

Exit codes: 0 success, 1 mismatch or validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

# sat_intersects is not called here; it stays bound as a perfbench patch point.
from .baseline import oracle_distance, sat_intersects
from .bench import Algorithm, gnuplot_script, records_to_csv, run_benchmark
from .datasets import (
    DatasetError,
    DatasetSpec,
    Regime,
    RegimeConstructionFailed,
    generate_dataset,
    group_by_regime,
    read_dataset,
    verify_regime,
    write_dataset,
)
from .geometry import PolygonError, polygon_from_jsonable
from .gjk import CollisionExit, Termination, distance, intersects

# distance-vs-oracle acceptance band: relative + absolute
REL_TOL = 1e-7
ABS_TOL = 1e-9


def _cmd_gen(args) -> int:
    spec = DatasetSpec(
        vertex_count=args.vertices, cases_per_regime=args.cases, seed=args.seed
    )
    try:
        cases = generate_dataset(spec)
    except RegimeConstructionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_dataset(args.out, spec, cases)
    groups = group_by_regime(cases)
    for regime in Regime:
        print(f"{regime.value}: {len(groups[regime])} cases")
    print(f"wrote {len(cases)} cases to {args.out}")
    return 0


def _cmd_check(args) -> int:
    """Each case against one ``oracle_distance`` report: its regime, its distance,
    and the binary verdict against the report's closed origin-in-P - Q test.

    Also prints, per regime, how often each ``Termination`` of ``distance``
    and each ``CollisionExit`` of ``intersects`` ended a query, and the mean
    support calls of each query."""
    _, cases = read_dataset(args.dataset)
    stats = {
        r: {
            "cases": 0, "failures": 0, "worst": 0.0, "distance": [], "intersects": [],
            "calls": {"distance": 0, "intersects": 0},
        }
        for r in Regime
    }
    touch_binary_disagreements = 0
    failed_seeds = []
    for case in cases:
        entry = stats[case.regime]
        entry["cases"] += 1
        report = oracle_distance(case.p, case.q)
        ok = verify_regime(case, report)
        result = distance(case.p, case.q)
        entry["distance"].append(result.termination)
        entry["calls"]["distance"] += result.support_calls
        err = abs(result.distance - report.distance)
        entry["worst"] = max(entry["worst"], err)
        if err > REL_TOL * max(1.0, report.distance) + ABS_TOL:
            ok = False
        collision = intersects(case.p, case.q)
        entry["intersects"].append(collision.exit)
        entry["calls"]["intersects"] += collision.support_calls
        if collision.colliding != report.intersecting:
            # exact-touching inputs sit on a numerical knife edge, so the
            # binary answer is reported there rather than asserted
            if case.regime is Regime.TOUCHING:
                touch_binary_disagreements += 1
            else:
                ok = False
        if not ok:
            entry["failures"] += 1
            failed_seeds.append(case.seed)
    for regime in Regime:
        entry = stats[regime]
        passed = entry["cases"] - entry["failures"]
        print(
            f"{regime.value}: {passed}/{entry['cases']} pass, "
            f"worst abs distance error {entry['worst']:.3e}"
        )
        parts = []
        for label, members in (("distance", Termination), ("intersects", CollisionExit)):
            exits = entry[label]
            counts = [f"{m.value}={exits.count(m)}" for m in members if m in exits]
            parts.append(" ".join([label] + counts))
        means = " ".join(
            f"{label} {calls / entry['cases']:.3f}" for label, calls in entry["calls"].items()
        )
        parts.append(f"mean support calls {means}")
        print(f"{regime.value} exits: {'; '.join(parts)}")
    if touch_binary_disagreements:
        print(
            f"note: {touch_binary_disagreements} knife-edge touching case(s) "
            f"with binary/oracle disagreement (reported, not asserted)"
        )
    if failed_seeds:
        print(f"FAILED case seeds: {failed_seeds}", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def _cmd_bench(args) -> int:
    _, cases = read_dataset(args.dataset)
    algorithms = [Algorithm(name) for name in args.algorithms]
    records = run_benchmark(
        cases, algorithms, repetitions=args.repetitions, warmup=args.warmup
    )
    csv_text = records_to_csv(records)
    sys.stdout.write(csv_text)
    if args.gnuplot:
        csv_ref = os.path.splitext(args.gnuplot)[0] + ".csv"
        with open(args.gnuplot, "w", encoding="utf-8") as fh:
            fh.write(gnuplot_script(csv_ref))
        print(
            f"wrote gnuplot script to {args.gnuplot} (expects the CSV at {csv_ref})",
            file=sys.stderr,
        )
    return 0


def _load_polygon(path):
    with open(path, "r", encoding="utf-8") as fh:
        return polygon_from_jsonable(json.load(fh))


def _cmd_query(args) -> int:
    p = _load_polygon(args.p_file)
    q = _load_polygon(args.q_file)
    if args.mode == "distance":
        res = distance(p, q)
        print(f"distance: {res.distance!r}")
        print(f"witness on P: ({res.witness_p.x!r}, {res.witness_p.y!r})")
        print(f"witness on Q: ({res.witness_q.x!r}, {res.witness_q.y!r})")
        print(f"iterations: {res.iterations}, support calls: {res.support_calls}")
        print(f"termination: {res.termination.value}")
        payload = {
            "distance": res.distance,
            "witness_p": [res.witness_p.x, res.witness_p.y],
            "witness_q": [res.witness_q.x, res.witness_q.y],
            "separating_vector": [res.separating_vector.x, res.separating_vector.y],
            "iterations": res.iterations,
            "support_calls": res.support_calls,
            "termination": res.termination.value,
        }
    else:
        res = intersects(p, q)
        verdict = "collision" if res.colliding else "no collision"
        print(f"{verdict} ({res.exit.value})")
        print(f"iterations: {res.iterations}, support calls: {res.support_calls}")
        payload = {
            "colliding": res.colliding,
            "exit": res.exit.value,
            "iterations": res.iterations,
            "support_calls": res.support_calls,
        }
    print(json.dumps(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gjk2d",
        description="2D convex collision detection and distance queries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a three-regime pair dataset")
    gen.add_argument("--vertices", type=int, required=True)
    gen.add_argument("--cases", type=int, default=1000, help="cases per regime")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("out", help="output dataset path (JSON lines)")
    gen.set_defaults(func=_cmd_gen)

    check = sub.add_parser("check", help="verify a dataset against the oracles")
    check.add_argument("dataset")
    check.set_defaults(func=_cmd_check)

    bench = sub.add_parser("bench", help="benchmark algorithms over a dataset")
    bench.add_argument("dataset")
    bench.add_argument(
        "--algorithms",
        nargs="+",
        choices=[a.value for a in Algorithm],
        default=[a.value for a in Algorithm],
    )
    bench.add_argument("--repetitions", type=int, default=20)
    bench.add_argument("--warmup", type=int, default=5)
    bench.add_argument(
        "--gnuplot",
        help="also write a gnuplot script to this path; save this command's "
        "stdout as the sibling .csv file the script references",
    )
    bench.set_defaults(func=_cmd_bench)

    query = sub.add_parser("query", help="query one polygon pair from JSON files")
    query.add_argument("p_file")
    query.add_argument("q_file")
    query.add_argument("--mode", choices=["distance", "binary"], default="distance")
    query.set_defaults(func=_cmd_query)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    for command, option, least in (
        ("gen", "vertices", 3), ("gen", "cases", 1),
        ("bench", "repetitions", 1), ("bench", "warmup", 0),
    ):
        if args.command == command and getattr(args, option) < least:
            parser.error(f"--{option} must be at least {least}")
    # the script references its own path with the extension made .csv, the
    # same file as plot.CSV on a case-insensitive filesystem
    if args.command == "bench" and os.path.splitext(args.gnuplot or "")[1].lower() == ".csv":
        parser.error(f"--gnuplot {args.gnuplot} is the CSV path its script references")
    try:
        return args.func(args)
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PolygonError as exc:
        print(f"error: invalid polygon: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
