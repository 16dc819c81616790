"""Martingales from sampling without replacement.

Build martingales over the draw filtration of a finite population by
linearizing one sampling step into small transition matrices, evaluate
their closed forms exactly, and verify the permutation maximal
inequalities they imply, by full enumeration for small populations and
by seeded Monte Carlo for large ones.

The package is a lazy namespace (PEP 562): ``import permartingale``
loads no submodule, and a public name imports its submodule on first
read.  So a caller, the command line included, pays only for the
engines it uses.  The enums the command line offers as choices live in
the leaf module ``choices``, which imports only ``enum``, so that the
argument parser needs no engine; the engines re-export them.
"""

__version__ = "0.1.0"

# each public name, by the submodule it is read from; the one source
# of __all__
_SUBMODULES = {
    "choices": "Basis InequalityId MartingaleKind VerifyMode",
    "construction": (
        "TransitionSystem build_transition_system matrix_as_strings "
        "matrix_vector quadratic_inverse_product quadratic_transition "
        "vector_martingale_value weighted_inverse_product weighted_transition"
    ),
    "errors": (
        "DomainError EnumerationLimitError Error InvalidInputError "
        "PreconditionError"
    ),
    "inequalities": (
        "InequalityReport folding_constant lhs_statistic rhs_value verify vna"
    ),
    "martingales": (
        "CounterexampleEntry CounterexampleReport MartingaleCheck "
        "MartingaleSpec MartingaleViolation check_martingale check_sequence "
        "check_vector_martingale counterexample_suite evaluate_prefix make_spec"
    ),
    "moments": (
        "MomentRow WeightedMomentParts bridge_fourth_moment "
        "bridge_moment_oracle bridge_second_moment isserlis_moment "
        "isserlis_oracle moment_report mtilde_coefficients "
        "mtilde_terminal_oracle mtilde_terminal_second_moment "
        "partial_sum_second_moment partial_sum_second_moment_oracle "
        "weighted_moment_parts weighted_second_moment "
        "weighted_second_moment_oracle"
    ),
    "population": (
        "DEFAULT_ENUMERATION_CUTOFF MAX_ENUMERATION_CUTOFF Population "
        "bridge_parameter load_population make_bridge_population "
        "make_population mean_over_ordered_draws mean_over_subsets "
        "random_centered_population validate_permutation"
    ),
    "rationals": (
        "alternating_weights as_fraction format_rational parse_rational parse_scalar "
        "validate_weights"
    ),
}
_HOME = {n: m for m, names in _SUBMODULES.items() for n in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
