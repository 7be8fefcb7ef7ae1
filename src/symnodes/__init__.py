"""Symmetric, optimization-based nodal distributions for reference elements.

The package builds interpolation node sets for the seven standard finite
element shapes by minimizing a smooth surrogate of the Lebesgue constant
over symmetry-orbit parameters within their bounds; orbits that carry face
nodes are pinned to the face prescriptions, which makes the node sets of
adjacent elements agree on shared faces.
"""

from .baselines import BaselineKind, baseline_distribution, gll_1d
from .basis import FunctionSpace
from .compatibility import (
    FacePrescription,
    build_compatibility_constraints,
    face_prescriptions,
    point_prescription,
    verify_face_match,
)
from .errors import (
    ConstraintConflictError,
    DegenerateDistributionError,
    IncompatibleCollectionError,
    InfeasibleParameterError,
    NodeFileError,
    NoViableCollectionError,
    NumericalError,
    OutsideDomainError,
    SymnodesError,
    UnisolvencyError,
    UnsupportedBaselineError,
)
from .geometry import (
    ElementKind,
    FaceEmbedding,
    ReferenceElement,
    cartesian_to_natural,
    contains,
    natural_to_cartesian,
    node_count,
    reference_element,
)
from .metrics import (
    MetricReport,
    evaluate_metrics,
    is_unisolvent,
    lebesgue_constant,
    lebesgue_objective,
    mass_matrix,
)
from .nodefile import read_node_file, write_node_file
from .optimizer import (
    OptimizationProblem,
    OptimizedResult,
    OptimizerConfig,
    assemble_problem,
    minimize,
    optimize_nodes,
)
from .quadrature import QuadratureRule, gauss_legendre_1d, quadrature_rule
from .symmetry import (
    ConstrainedOrbit,
    LinearConstraintSet,
    NodalDistribution,
    OrbitCollection,
    SymmetryOrbit,
    enumerate_admissible_collections,
    evaluate_collection,
    evaluate_orbit,
    orbit_parameter_bounds,
    orbits,
)

__version__ = "0.1.0"
