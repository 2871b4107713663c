"""Tensor scaling to prescribed one-body marginal spectra.

The package scales dense tensors, stored real unless an entry has a nonzero
imaginary part, with a randomized upper-triangular (Borel) alternating loop,
exposes promise-decision front-ends for marginal-spectrum membership
questions, and ships two independent verification tracks: classical highest
weight vectors as progress potentials, and an exact reduction to uniform
scaling.
"""

from .hwv import (
    DEFAULT_EVAL_BUDGET,
    EvalBudgetError,
    HWVSpec,
    canonical_slot_permutations,
    character,
    check_hwv_transformation,
    enumerate_specs,
    evaluate_hwv,
    evaluation_bound,
    find_nonvanishing_spec,
    verify_progress,
)
from .oracle import (
    DEFAULT_REPEATS,
    EPS_FAR,
    IN,
    KroneckerQuery,
    MembershipVerdict,
    SinkhornResult,
    kronecker_support,
    matrix_to_diagonal_tensor,
    membership,
    qmp,
    sinkhorn,
)
from .partitions import conjugate_partition, is_partition, partitions_of
from .reduction import (
    ReductionData,
    expand_adjoint,
    expand_matrix,
    normalized_expand,
    normalized_expand_adjoint,
    reduce_tensor,
)
from .scaling import (
    BOREL,
    BUDGET_EXHAUSTED,
    DEFAULT_RAND_RANGE,
    NOT_IN_POLYTOPE,
    PARABOLIC,
    SCALED,
    THEORETICAL,
    IterationRecord,
    Parametrization,
    ScalingConfig,
    ScalingReport,
    TargetSpectrum,
    general_iteration_budget,
    identity_parametrization,
    iteration_budget,
    mps_parametrization,
    mps_tensor,
    pad_scaling,
    random_group,
    randomization_bounds,
    restrict_positive,
    run_general_scaling,
    run_scaling,
    scaling_step,
)
from .tensors import (
    NonFiniteEntriesError,
    NumericBreakdownError,
    SingularMarginalError,
    Tensor,
    apply_group,
    check_hermitian,
    compose_group,
    contract,
    identity_group,
    marginal,
    spectrum,
    trace_distance,
)

__version__ = "0.1.0"
