"""Exact-arithmetic toolkit for divisor positivity on complete toric varieties.

Everything runs over the rationals: cones and fans are validated on
construction, torus-invariant divisors get local data, wall values, and
shifted-polytope membership, and a harness of hypothesis-to-conclusion
checks measures adjoint divisors against sharp positivity thresholds.
"""

from .cones import Cone, classify, cone_from_generators, contains, dual_cone
from .divisors import (
    Divisor,
    NotQCartier,
    canonical_divisor,
    is_cartier,
    is_q_cartier,
    local_data,
)
from .fans import Fan, Wall, build_fan
from .harness import (
    CheckReport,
    Instance,
    builtin,
    check_corner_containment,
    check_generation,
    check_interior_bound,
    check_nef_excluding_pspace,
    check_nef_threshold,
    check_nonregular_bound,
    check_wall_bound,
    is_projective_space,
    polytope_fan,
    random_instance,
)
from .intersections import is_nef, wall_value, wall_values
from .lambdas import CoefficientSums
from .linalg import M, N, Vec, vec
from .semigroups import hilbert_basis

__all__ = [
    "Cone",
    "classify",
    "cone_from_generators",
    "contains",
    "dual_cone",
    "Divisor",
    "NotQCartier",
    "canonical_divisor",
    "is_cartier",
    "is_q_cartier",
    "local_data",
    "Fan",
    "Wall",
    "build_fan",
    "CheckReport",
    "Instance",
    "builtin",
    "check_corner_containment",
    "check_generation",
    "check_interior_bound",
    "check_nef_excluding_pspace",
    "check_nef_threshold",
    "check_nonregular_bound",
    "check_wall_bound",
    "is_projective_space",
    "polytope_fan",
    "random_instance",
    "is_nef",
    "wall_value",
    "wall_values",
    "CoefficientSums",
    "M",
    "N",
    "Vec",
    "vec",
    "hilbert_basis",
]
