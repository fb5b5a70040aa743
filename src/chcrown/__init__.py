"""Complex hyperbolic (3,3,4) triangle groups and their crown geometry.

The family is indexed by one real parameter ``t`` in ``[3/8, sqrt(2)-1]``.
:mod:`chcrown.triangle` builds the reflection group, :mod:`chcrown.dirichlet`
the eight spinal spheres bounding its Dirichlet domain, :mod:`chcrown.crown`
the crown arcs, cutting disks and the extremal quantities attached to them,
and :mod:`chcrown.verify` sweeps every certificate over the parameter
interval and renders deterministic reports.
"""

from .core import (
    GeometryError,
    GroupElement,
    IsometryClass,
    NearParabolicError,
    classify_isometry,
    fixed_points_boundary,
    hermitian_product,
    matrix_phase_distance,
)
from .crown import (
    ARC_NAMES,
    ArcReport,
    CrownArc,
    DiskPairCert,
    HatArc,
    Scene,
    arc_report,
    blocking_minimum_at,
    clearance_objective,
    crown_fundamental_certificate,
    disk_disjointness_certificates,
    hat_arcs,
    linked_pair_report,
    minimize_blocking,
    minimize_clearance,
    table1,
)
from .dirichlet import (
    DirichletConfig,
    PairRelation,
    SpinalSphere,
    expected_to_meet,
    pairwise_relations,
    sphere_mesh,
)
from .heisenberg import (
    AffineDisk,
    CCircle,
    ContactPlane,
    HeisenbergPoint,
    ccircle_from_polar,
    disk_intersection_segment,
)
from .triangle import (
    PARAM_MAX,
    PARAM_MIN,
    RELATION_WORDS,
    T_REAL,
    GeneratorSet,
    build_generators,
    relation_certificate,
    validate_param,
)
from .verify import (
    EXPORT_KINDS,
    Record,
    Report,
    SUITE_NAMES,
    SweepConfig,
    export_geometry,
    limit_set_points,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "ARC_NAMES",
    "AffineDisk",
    "ArcReport",
    "CCircle",
    "ContactPlane",
    "CrownArc",
    "DirichletConfig",
    "DiskPairCert",
    "EXPORT_KINDS",
    "GeneratorSet",
    "GeometryError",
    "GroupElement",
    "HatArc",
    "HeisenbergPoint",
    "IsometryClass",
    "NearParabolicError",
    "PARAM_MAX",
    "PARAM_MIN",
    "PairRelation",
    "RELATION_WORDS",
    "Record",
    "Report",
    "SUITE_NAMES",
    "Scene",
    "SpinalSphere",
    "SweepConfig",
    "T_REAL",
    "arc_report",
    "blocking_minimum_at",
    "build_generators",
    "ccircle_from_polar",
    "classify_isometry",
    "clearance_objective",
    "crown_fundamental_certificate",
    "disk_disjointness_certificates",
    "disk_intersection_segment",
    "expected_to_meet",
    "export_geometry",
    "fixed_points_boundary",
    "hat_arcs",
    "hermitian_product",
    "limit_set_points",
    "linked_pair_report",
    "matrix_phase_distance",
    "minimize_blocking",
    "minimize_clearance",
    "pairwise_relations",
    "relation_certificate",
    "run_suite",
    "sphere_mesh",
    "table1",
    "validate_param",
]
