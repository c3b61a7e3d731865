"""2D narrow-phase collision detection and distance queries for convex polygons.

The distance query runs a GJK loop whose subdistance step classifies the
origin against the working simplex with a 3-bit barycentric region code;
the binary collision query runs the same loop with two cheap early exits. A separating-axis
baseline, a linear-time Minkowski-difference distance oracle, a
deterministic dataset generator, and a benchmark CLI round out the
package.

The package root exports the polygon type, the two queries with their
results, the oracles, and the layers the benchmark replays; every other
name is imported from its submodule.
"""

from .baseline import oracle_distance, sat_intersects
from .datasets import Regime, verify_regime
from .geometry import ConvexPolygon, PolygonError, Vec2, polygon_to_jsonable
from .gjk import (
    CollisionExit,
    CollisionResult,
    DistanceResult,
    Termination,
    distance,
    intersects,
)
from .subdistance import DegenerateTriangle, compute_barycode, s1d, s2d
from .support import (
    cso_support,
    initial_direction,
    support_brute,
    support_hill_climb,
)

__version__ = "0.1.0"
