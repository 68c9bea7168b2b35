"""Averaging subspaces of C^n.

Public points of the Grassmannian are Hermitian rank-m projectors, with the
Riemannian toolkit on them (geodesics, logarithm, parallel transport,
principal-angle distance). The conjugate-gradient Karcher-mean solver takes
its data as orthonormal bases or projectors and works on one stack of bases.
A blind-identification benchmark scores averaged mixing-matrix estimates
against the ground truth.
"""

__version__ = "0.1.0"

from .exceptions import (
    AmbiguousModelWarning,
    CutLocusError,
    DegenerateAverageError,
    DegenerateCurvatureError,
    GrassmeanError,
    IllConditionedError,
    InvalidInputError,
    LineSearchFailedError,
    NotDescentDirectionError,
)
from .grassmann import (
    GrassmannPoint,
    StiefelBasis,
    TangentVector,
    basis_from_projector,
    complete_frame,
    commutator,
    dist,
    exp,
    geodesic,
    log,
    metric,
    parallel_transport,
    principal_angles,
    projector_from_basis,
    tangent_project,
    zero_tangent,
)
from .karcher import (
    CGConfig,
    CGIterate,
    CGTrace,
    KarcherProblem,
    backtracking_step,
    default_init,
    karcher_cost,
    karcher_gradient,
    karcher_mean,
    newton_step_cp,
)
from .blindid import (
    EstimateSet,
    MixingExperiment,
    TrialResult,
    align_columns,
    amari_error,
    average_euclid,
    average_karcher,
    generate_sources,
    mix,
    run_experiment,
    sut_estimate,
    sut_from_covariances,
    takagi,
)
from .files import (
    SubspaceFileError,
    read_subspace_file,
    write_results_csv,
    write_subspace_file,
    write_trace_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
