"""pwcalc: two-variable functional calculus for PSD matrix pairs.

Implements the Pusz-Woronowicz calculus phi(A, B) for homogeneous functions
on the positive quadrant, with values allowed to be genuinely unbounded
(Hermitian on an essential subspace, +inf on its complement), and on top of
it extended operator convex perspectives, Kubo-Ando connections, parallel
sums, Lebesgue decomposition, maximal f-divergences, integral and
variational expressions, and falsification suites for the convexity,
continuity and axiomatization theorems.
"""

from .linalg import (
    Subspace,
    eigh,
    hermitian_part,
    psd_pinv,
    psd_sqrt,
    range_subspace,
    read_matrix,
    subspace_meet,
    write_matrix,
)
from .extended import (
    ExtendedSelfAdjoint,
    INF,
    add,
    classify,
    congruence,
    evaluate_state,
    form_leq,
    from_matrix,
    make_extended,
    quadratic_form,
    scale,
)
from .functions import (
    ExtendedFunction,
    IntegralRepr77,
    IntegralRepr97,
    Measure,
    approximants,
    catalog,
    check_operator_convex,
    check_pmi,
    check_theorem37_boundary,
    from_repr77,
    transpose,
)
from .calculus import (
    ENDPOINT_TOL,
    CompatibleRepresentation,
    HomogeneousFunction,
    check_homogeneity,
    check_restricted_bounded,
    compatible_representation,
    invertible_formula,
    pw_apply,
    pw_apply_restricted,
    pw_commuting_oracle,
    special_values,
)
from .perspectives import (
    LebesgueDecomposition,
    PerspectiveResult,
    boundedness_chain,
    check_ah_inequality,
    check_positive_map_monotonicity,
    connection,
    connection_generator,
    epsilon_limit,
    essential_part,
    is_absolutely_continuous,
    lebesgue_decomposition,
    max_f_divergence,
    parallel_sum,
    perspective_apply,
    perspective_of,
    t2_bound,
)
from .variational import (
    Decomposition,
    integral_eval_91,
    integral_eval_92,
    make_quadrature,
    optimal_decomposition,
    two_projections,
    variational_bound_94,
)
from .suites import RandomSpec, SuiteReport, gen_pair

__version__ = "0.1.0"
