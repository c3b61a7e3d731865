"""Session fixtures and inputs shared by the acceptance suite.

The full six-count dataset grid and the per-case evaluation sweep are
expensive, so they are built once per session and reused by every
criterion that needs them. ``sweep_triangles`` rebuilds criterion 3's
triangle set, which the exact oracle check samples too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

import pytest

from gjk2d.baseline import oracle_distance
from gjk2d.datasets import DatasetSpec, PairCase, generate_dataset
from gjk2d.gjk import CollisionResult, DistanceResult, distance, intersects

VERTEX_COUNTS = (4, 8, 12, 16, 20, 24)
CASES_PER_REGIME = 1000
DATASET_SEED = 20240811
TRIANGLE_SWEEP_SEED = 987654
TRIANGLE_SWEEP_SIZE = 100_000


def sweep_triangles():
    """Criterion 3's triangles: three uniform points in [-10, 10]**2 each."""
    rng = random.Random(TRIANGLE_SWEEP_SEED)
    return [
        [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
        for _ in range(TRIANGLE_SWEEP_SIZE)
    ]


@dataclass
class CaseEval:
    case: PairCase
    oracle: float
    sat: bool
    dist: DistanceResult
    coll: CollisionResult
    trace: List[float]


@pytest.fixture(scope="session")
def full_datasets() -> Dict[int, List[PairCase]]:
    datasets = {}
    for n in VERTEX_COUNTS:
        spec = DatasetSpec(
            vertex_count=n, cases_per_regime=CASES_PER_REGIME, seed=DATASET_SEED
        )
        datasets[n] = generate_dataset(spec)
    return datasets


@pytest.fixture(scope="session")
def case_evaluations(full_datasets) -> Dict[int, List[CaseEval]]:
    evaluations: Dict[int, List[CaseEval]] = {}
    for n, cases in full_datasets.items():
        rows = []
        for case in cases:
            report = oracle_distance(case.p, case.q)
            trace: List[float] = []
            dist = distance(case.p, case.q, norm_trace=trace)
            coll = intersects(case.p, case.q)
            rows.append(
                CaseEval(
                    case=case,
                    oracle=report.distance,
                    sat=report.distance == 0.0,
                    dist=dist,
                    coll=coll,
                    trace=trace,
                )
            )
        evaluations[n] = rows
    return evaluations
