"""The package root's exports, and the names and patch points ``perfbench/`` relies on.

The benchmark calls these names on the ``gjk2d`` package and, in its
traced run, rebinds the layers that ``gjk2d.gjk`` looks up as module
globals at call time and the names that ``gjk2d.cli`` and
``gjk2d.datasets`` call through their module globals. Dropping or
inlining one of them would silently turn the traced metrics into
"missing patch points".
"""

import json
import random
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import gjk2d
import gjk2d.cli
import gjk2d.datasets
import gjk2d.gjk
import gjk2d.subdistance
from gjk2d.geometry import Vec2
from gjk2d.gjk import CollisionResult, DistanceResult
from gjk2d.support import SimplexVertex

from conftest import (
    LOOP_LAYERS,
    SUPPORT_LAYERS,
    recorded_layers,
    second_portal_step,
    split_queries,
)
from corpora import UNIT_SQUARE, random_pairs, rectangle, tie_rectangles, vertex

BENCHMARK_NAMES = (
    "cso_support",
    "support_brute",
    "support_hill_climb",
    "initial_direction",
    "s1d",
    "s2d",
    "compute_barycode",
    "DegenerateTriangle",
    "Termination",
    "CollisionExit",
    "Regime",
    "Vec2",
    "distance",
    "intersects",
    "oracle_distance",
    "polygon_to_jsonable",
    "sat_intersects",
    "verify_regime",
)
# Besides the benchmark's names, the root exports the README quick start's
# polygon type, its error base class and the two query results.
ROOT_NAMES = set(BENCHMARK_NAMES) | {
    "ConvexPolygon",
    "PolygonError",
    "DistanceResult",
    "CollisionResult",
}
PIPELINE_PATCH_POINTS = {
    gjk2d.cli: (
        "generate_dataset",
        "write_dataset",
        "read_dataset",
        "verify_regime",
        "oracle_distance",
        "sat_intersects",
        "distance",
        "intersects",
    ),
    gjk2d.datasets: (
        "make_pair",
        "oracle_distance",
        "sat_intersects",
        "cso_contains_origin",
        "distance",
        "ConvexPolygon",
        "polygon_from_jsonable",
        "apply_transform",
        "contains_point",
        "polygon_to_jsonable",
    ),
}
# The pipeline patch points whose spans feed perfbench's per-layer
# metrics; a point that exists but is never called drops its metric.
TIMED_PIPELINE_CALLS = {
    gjk2d.cli: ("write_dataset", "read_dataset", "oracle_distance"),
    gjk2d.datasets: (
        "oracle_distance",
        "cso_contains_origin",
        "make_pair",
        "apply_transform",
        "ConvexPolygon",
        "polygon_from_jsonable",
    ),
}


def test_benchmark_names_stay_exported():
    assert [name for name in BENCHMARK_NAMES if not hasattr(gjk2d, name)] == []


def test_root_exports_nothing_else():
    # submodules become package attributes on import; they are not exports
    public = {
        name
        for name, value in vars(gjk2d).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == ROOT_NAMES


@pytest.mark.parametrize("module", list(PIPELINE_PATCH_POINTS), ids=lambda m: m.__name__)
def test_pipeline_patch_points_stay_module_globals(module):
    names = PIPELINE_PATCH_POINTS[module]
    assert [name for name in names if not callable(vars(module).get(name))] == []


def test_gen_and_check_make_every_timed_pipeline_call(monkeypatch, tmp_path):
    calls = Counter()
    regimes = set()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if key == "gjk2d.datasets.make_pair":
                regimes.add(args[1])
            return fn(*args, **kwargs)

        return wrapper

    keys = []
    for module, names in TIMED_PIPELINE_CALLS.items():
        for name in names:
            keys.append(f"{module.__name__}.{name}")
            monkeypatch.setattr(module, name, counting(keys[-1], getattr(module, name)))
    path = str(tmp_path / "pairs.jsonl")
    assert gjk2d.cli.main(["gen", "--vertices", "4", "--cases", "2", "--seed", "7", path]) == 0
    assert gjk2d.cli.main(["check", path]) == 0
    assert [key for key in keys if calls[key] == 0] == []
    assert regimes == set(gjk2d.Regime)


@pytest.mark.parametrize("query", [gjk2d.distance, gjk2d.intersects])
def test_query_loop_calls_layers_through_module_globals(query):
    calls = {}
    for hill_climbing in (True, False):
        with recorded_layers() as recorded:
            for p, q in random_pairs(71, 200):
                query(p, q, use_hill_climbing=hill_climbing)
        calls[hill_climbing] = Counter(name for name, _, _ in recorded)
    # each variant calls every layer through its own support layer, and
    # never the other's
    own = {True: "_cso_support_xy", False: "_cso_scan_xy"}
    for hill_climbing, support in own.items():
        other = own[not hill_climbing]
        names = (support, "initial_direction", "s1d", "s2d")
        assert all(calls[hill_climbing][name] > 0 for name in names), calls
        assert calls[hill_climbing][other] == 0, calls


def test_no_query_passes_a_zero_direction_to_a_support_layer():
    # Two unit squares that share a corner exactly: the first support point
    # is the origin itself, which ends both queries after one support call,
    # before any support call along the zero direction. Some of the other
    # queries take the portal pass's second step, so its call is watched too.
    p, q = UNIT_SQUARE, rectangle(1, 1, 1, 1)
    pairs = [(p, q)] + tie_rectangles() + list(random_pairs(74, 300))
    for hill_climbing in (True, False):
        dist = gjk2d.distance(p, q, use_hill_climbing=hill_climbing)
        hit = gjk2d.intersects(p, q, use_hill_climbing=hill_climbing)
        assert (dist.support_calls, dist.termination.value) == (1, "ContainsOrigin")
        assert (hit.support_calls, hit.exit.value) == (1, "SubdistanceEnclosure")
        assert dist.distance == 0.0 and hit.colliding
        with recorded_layers() as recorded:
            for a, b in pairs:
                gjk2d.distance(a, b, use_hill_climbing=hill_climbing)
                gjk2d.intersects(a, b, use_hill_climbing=hill_climbing)
        directions = [args[2:4] for name, args, _ in recorded if name in SUPPORT_LAYERS]
        assert len(directions) > 2 * len(pairs)
        assert any(map(second_portal_step, split_queries(recorded)))
        assert [d for d in directions if d == (0.0, 0.0)] == []


def assert_shape(value, cls):
    # The loop builds these with tuple.__new__, which skips the arity check
    # of the NamedTuple constructor.
    assert type(value) is cls and len(value) == len(cls._fields), (cls.__name__, value)


def test_loop_tuples_keep_their_class_and_arity(monkeypatch):
    witnessed = []
    witness_points = gjk2d.gjk.witness_points

    def recording_witness_points(p, q, verts, lambdas):
        witnessed.extend(verts)
        return witness_points(p, q, verts, lambdas)

    monkeypatch.setattr(gjk2d.gjk, "witness_points", recording_witness_points)
    with recorded_layers() as recorded:
        for p, q in random_pairs(72, 300):
            for hill_climbing in (True, False):
                res = gjk2d.distance(p, q, use_hill_climbing=hill_climbing)
                assert_shape(res, DistanceResult)
                for point in (res.witness_p, res.witness_q, res.separating_vector):
                    assert_shape(point, Vec2)
                coll = gjk2d.intersects(p, q, use_hill_climbing=hill_climbing)
                assert_shape(coll, CollisionResult)
    seen = {name: [] for name in LOOP_LAYERS}
    for name, args, out in recorded:
        seen[name].append((args, out))
    # every return of the subdistance layers, on triangles the loop rarely builds
    rng = random.Random(73)
    for _ in range(300):
        tau = [
            vertex(x, y)
            for x, y in ((rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3))
        ]
        seen["s1d"].append((tau[:2], gjk2d.subdistance.s1d(*tau[:2])))
        seen["s2d"].append((tau, gjk2d.subdistance.s2d(*tau)))
    assert all(seen.values()), {name: len(calls) for name, calls in seen.items()}
    for _, out in seen["_cso_support_xy"] + seen["_cso_scan_xy"]:
        # the flat (wx, wy, ip, iq) support point, an exact tuple: the loop
        # wraps it as a SimplexVertex only when it joins the simplex
        assert type(out) is tuple, out
        assert [type(field) for field in out] == [float, float, int, int], out
    # the start direction is an exact tuple, which the loop unpacks on
    # CPython's fast path
    for _, out in seen["initial_direction"]:
        assert type(out) is tuple and len(out) == 2, out
        assert type(out[0]) is float and type(out[1]) is float, out
    # the loop unpacks every solve as (verts, lambdas, vx, vy)
    for layer in ("s1d", "s2d"):
        for _, out in seen[layer]:
            assert type(out) is tuple, out
            assert [type(field) for field in out] == [list, list, float, float], out
    # every vertex a solve receives or the witness rebuild reads is a
    # SimplexVertex: perfbench's region-code replay calls
    # compute_barycode(a.w, b.w, c.w) on captured s2d arguments.
    assert witnessed
    points = [point for layer in ("s1d", "s2d") for args, _ in seen[layer] for point in args]
    for point in points + witnessed:
        assert_shape(point, SimplexVertex)
        assert_shape(point.w, Vec2)
        assert type(point.w.x) is float and type(point.w.y) is float, point


REPO = Path(__file__).resolve().parent.parent


# Seed-7 fingerprint and counters of every workload in both trace modes.
PERFBENCH_PINS = [
    ("small-polys", 0, "28adbf09a1bde9dc", "ee523c2e5a68912c"),
    ("small-polys", 1, "28adbf09a1bde9dc", "8f4ffc5e30046fbf"),
    ("large-polys", 0, "d1c82372829d257e", "5baae3043bec91d8"),
    ("large-polys", 1, "d1c82372829d257e", "4b1ab19de744fc7a"),
    ("gen-check", 0, "8c4f99c31a48dc27", "91d4e9d10c3b0187"),
    ("gen-check", 1, "8c4f99c31a48dc27", "aff0ab8893468d77"),
]


@pytest.fixture(scope="module")
def perfbench_runs(tmp_path_factory):
    """One-second perfbench runs of every pin, all started at once.

    Maps ``(workload, trace)`` to a function that waits for that run and
    returns ``(returncode, stdout, stderr)``. The pinned fingerprints and
    counters are exact counts, so running side by side cannot move them.
    """
    out = tmp_path_factory.mktemp("perfbench")
    runs = {}
    for workload, trace, _, _ in PERFBENCH_PINS:
        command = [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace),
        ]
        stdout = out / f"{workload}-{trace}.out"
        stderr = out / f"{workload}-{trace}.err"
        with open(stdout, "w") as so, open(stderr, "w") as se:
            proc = subprocess.Popen(command, cwd=REPO, stdout=so, stderr=se)
        runs[workload, trace] = (proc, stdout, stderr)

    def wait(workload, trace):
        proc, stdout, stderr = runs[workload, trace]
        proc.wait(timeout=300)
        return proc.returncode, stdout.read_text(), stderr.read_text()

    try:
        yield wait
    finally:
        for proc, _, _ in runs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()


@pytest.mark.parametrize(
    "workload, trace, fingerprint, counters",
    PERFBENCH_PINS,
    ids=[f"{workload}-{trace}" for workload, trace, _, _ in PERFBENCH_PINS],
)
def test_perfbench_prints_its_result_last(perfbench_runs, workload, trace, fingerprint, counters):
    # A one-second perfbench run from the repository root: its last line is
    # the JSON result holding every BENCHMARK.json metric of the mode, and a
    # patch point that is gone or never called would print a "missing" line.
    returncode, stdout, stderr = perfbench_runs(workload, trace)
    assert returncode == 0, stderr
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["failed"] == 0
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert sorted(wanted - set(result["metrics"])) == []
    assert [line for line in lines if line.startswith("missing")] == []
    assert f"fingerprint {fingerprint}" in lines
    assert f"counters {counters}" in lines
