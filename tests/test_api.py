"""The public names and patch points that ``perfbench/`` relies on.

The benchmark calls these names on the ``gjk2d`` package and, in its
traced run, rebinds the layers that ``gjk2d.gjk`` looks up as module
globals at call time. Dropping or inlining one of them would silently
turn the traced metrics into "missing patch points".
"""

import random
from collections import Counter

import pytest

import gjk2d
import gjk2d.gjk
from gjk2d.datasets import random_convex_polygon
from gjk2d.geometry import Transform2, Vec2, apply_transform

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
)
LOOP_LAYERS = ("_cso_support_xy", "initial_direction", "s1d", "s2d")


def test_benchmark_names_stay_exported():
    assert [name for name in BENCHMARK_NAMES if not hasattr(gjk2d, name)] == []


@pytest.mark.parametrize("query", [gjk2d.distance, gjk2d.intersects])
def test_query_loop_calls_layers_through_module_globals(monkeypatch, query):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in LOOP_LAYERS:
        monkeypatch.setattr(gjk2d.gjk, name, counting(name, getattr(gjk2d.gjk, name)))
    rng = random.Random(71)
    for _ in range(200):
        p, q = (
            apply_transform(
                Transform2(rng.uniform(0, 7), Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1))),
                random_convex_polygon(rng.choice([4, 8, 16]), rng),
            )
            for _ in range(2)
        )
        query(p, q)
    assert all(calls[name] > 0 for name in LOOP_LAYERS), calls
