"""2D narrow-phase collision detection and distance queries for convex polygons.

The distance query runs a GJK loop whose subdistance step classifies the
origin against the working simplex with a 3-bit barycentric region code;
the binary collision query runs the same loop with two cheap early exits. A separating-axis
baseline, a linear-time Minkowski-difference distance oracle, a
deterministic dataset generator, and a benchmark CLI round out the
package.
"""

from .baseline import (
    ClosestFeature,
    OracleReport,
    cso_contains_origin,
    oracle_distance,
    sat_intersects,
)
from .bench import Algorithm, BenchRecord, records_to_csv, run_benchmark
from .datasets import (
    DatasetError,
    DatasetHeader,
    DatasetSpec,
    PairCase,
    PolygonGenerationFailed,
    Regime,
    RegimeConstructionFailed,
    derive_case_seed,
    generate_dataset,
    make_pair,
    random_convex_polygon,
    read_dataset,
    verify_regime,
    write_dataset,
)
from .geometry import (
    ConvexPolygon,
    FewerThanThreeVertices,
    NonFiniteCoordinate,
    NotCounterClockwise,
    NotStrictlyConvex,
    PolygonError,
    Transform2,
    Vec2,
    apply_transform,
    contains_point,
    cross,
    dot,
    polygon_from_jsonable,
    polygon_to_jsonable,
)
from .gjk import (
    CollisionExit,
    CollisionResult,
    DistanceResult,
    Termination,
    distance,
    intersects,
    witness_points,
)
from .subdistance import (
    DegenerateTriangle,
    SubdistanceResult,
    compute_barycode,
    cone_region,
    s1d,
    s2d,
)
from .support import (
    SimplexVertex,
    SupportResult,
    cso_support,
    initial_direction,
    support_brute,
    support_hill_climb,
)

__version__ = "0.1.0"
