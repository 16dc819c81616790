"""Martingales from sampling without replacement.

Build martingales over the draw filtration of a finite population by
linearizing one sampling step into small transition matrices, evaluate
their closed forms exactly, and verify the permutation maximal
inequalities they imply, by full enumeration for small populations and
by seeded Monte Carlo for large ones.
"""

from .construction import (
    Basis,
    TransitionSystem,
    build_transition_system,
    identity_matrix,
    matrix_as_strings,
    matrix_inverse,
    matrix_multiply,
    matrix_vector,
    product_of_inverses,
    quadratic_inverse_product,
    quadratic_transition,
    vector_martingale_value,
    weighted_inverse_product,
    weighted_transition,
)
from .errors import (
    DomainError,
    EnumerationLimitError,
    Error,
    InvalidInputError,
    PreconditionError,
)
from .inequalities import (
    InequalityId,
    InequalityReport,
    VerifyMode,
    folding_constant,
    lhs_statistic,
    rhs_value,
    verify,
    vna,
)
from .martingales import (
    CounterexampleEntry,
    CounterexampleReport,
    MartingaleCheck,
    MartingaleKind,
    MartingaleSpec,
    MartingaleViolation,
    check_martingale,
    check_sequence,
    check_vector_martingale,
    counterexample_suite,
    evaluate,
    evaluate_prefix,
    initial_expectation,
    make_spec,
)
from .moments import (
    MomentRow,
    WeightedMomentParts,
    bridge_fourth_moment,
    bridge_moment_oracle,
    bridge_second_moment,
    isserlis_moment,
    isserlis_oracle,
    moment_report,
    mtilde_coefficients,
    mtilde_terminal_oracle,
    mtilde_terminal_second_moment,
    partial_sum_second_moment,
    partial_sum_second_moment_oracle,
    weighted_moment_parts,
    weighted_second_moment,
    weighted_second_moment_oracle,
)
from .population import (
    DEFAULT_ENUMERATION_CUTOFF,
    MAX_ENUMERATION_CUTOFF,
    PathState,
    PathTrajectory,
    Population,
    bridge_parameter,
    iter_permutations,
    load_population,
    make_bridge_population,
    make_population,
    mean_over_ordered_draws,
    mean_over_orderings,
    mean_over_subsets,
    parse_population_text,
    path_for,
    random_centered_population,
    state_for_prefix,
    validate_permutation,
)
from .rationals import as_fraction, format_rational, parse_rational, parse_scalar
from .weights import alternating_weights, validate_weights

import types as _types

__version__ = "0.1.0"

# the import list above is the one source of the public names; the
# submodules it binds as a side effect are not exported
__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _types.ModuleType)
]
