"""Analysis and classical solution of regular linear DAE pencils (E, A).

The package certifies regularity of the pencil s -> sE + A, estimates the
resolvent-growth index by three independent routes, builds the nested chain
of initial-value spaces whose stabilization marks the consistent initial
values, solves Eu' + Au = 0 classically through the restricted generator,
and verifies the governing resolvent identities in the Laplace domain.
"""

from .analysis import (
    Analysis,
    AnalysisReport,
    analyze_pencil,
    build_analysis,
    identity_checks,
    report_to_json,
)
from .chains import (
    IsoReport,
    IvChain,
    check_restricted_iso,
    compute_chain,
    consistent_space,
    index_by_chain,
)
from .exceptions import (
    ConditioningWarning,
    DaePencilError,
    InconsistentInitialValueError,
    IsomorphismError,
    MatrixMarketError,
    NonFiniteEntriesError,
    NotRegularError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .expm import expm
from .fileio import parse_matrix_market, read_vector, write_matrix_market, write_vector
from .fixtures import FixtureSpec, GroundTruth, generate
from .laplace import (
    IdentityReport,
    hat_solution,
    verify_commutation,
    verify_expansion,
    verify_identities,
    verify_shift,
    verify_solution_formula,
    verify_transform_match,
)
from .pencils import (
    IndexEstimate,
    Pencil,
    RegularityCertificate,
    certify_regularity,
    index_by_growth,
    index_by_nilpotency,
    new_pencil,
    resolvent,
)
from .solvers import (
    FittingSplit,
    ReducedGenerator,
    Trajectory,
    classical_solution,
    decomposition_oracle,
    fitting_splitting,
    implicit_euler,
    is_consistent,
    nearest_consistent,
    reduced_generator,
)
from .subspaces import (
    RankTolerance,
    Subspace,
    contains,
    distance,
    equal,
    full_space,
    image,
    intersect,
    kernel,
    preimage,
    project,
    span,
    zero_space,
)
from .verification import SuiteResult, random_specs, run_suite
from .version import __version__

__all__ = [
    "__version__",
    "Analysis",
    "AnalysisReport",
    "ConditioningWarning",
    "DaePencilError",
    "FittingSplit",
    "FixtureSpec",
    "GroundTruth",
    "IdentityReport",
    "IndexEstimate",
    "InconsistentInitialValueError",
    "IsoReport",
    "IsomorphismError",
    "IvChain",
    "MatrixMarketError",
    "NonFiniteEntriesError",
    "NotRegularError",
    "Pencil",
    "RankTolerance",
    "ReducedGenerator",
    "RegularityCertificate",
    "ShapeMismatchError",
    "SingularMatrixError",
    "Subspace",
    "SuiteResult",
    "Trajectory",
    "analyze_pencil",
    "build_analysis",
    "certify_regularity",
    "check_restricted_iso",
    "classical_solution",
    "compute_chain",
    "consistent_space",
    "contains",
    "decomposition_oracle",
    "distance",
    "equal",
    "expm",
    "fitting_splitting",
    "full_space",
    "generate",
    "hat_solution",
    "identity_checks",
    "image",
    "implicit_euler",
    "index_by_chain",
    "index_by_growth",
    "index_by_nilpotency",
    "intersect",
    "is_consistent",
    "kernel",
    "nearest_consistent",
    "new_pencil",
    "parse_matrix_market",
    "preimage",
    "project",
    "random_specs",
    "read_vector",
    "reduced_generator",
    "report_to_json",
    "resolvent",
    "run_suite",
    "span",
    "verify_commutation",
    "verify_expansion",
    "verify_identities",
    "verify_shift",
    "verify_solution_formula",
    "verify_transform_match",
    "write_matrix_market",
    "write_vector",
    "zero_space",
]

# the set-theoretic subspace sum stays namespaced (daepencil.subspaces.sum)
# so it never shadows the builtin at package level

