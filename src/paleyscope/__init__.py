"""Spectral verification harness for evolution-kernel square functions.

The package computes time-dependent Fourier-multiplier kernels for three
symbol families, the associated square function and its L_p ratios, maximal
and sharp operators on parabolic cylinders, exponent bookkeeping in exact
rational arithmetic, and Monte Carlo checks for the additive-noise
stochastic evolution.  See the ``paleyscope`` CLI for the experiment suites.
"""

from .assumptions import (
    EnvelopeFamily,
    KernelExponents,
    MomentReport,
    as_fraction,
    assumption1_profile,
    derive_c3_delta0,
    moment_integral,
    mu_admissible,
    solve_mu,
    synthesize_envelopes,
    theorem_exponents,
    theta,
    verify_assumption1,
)
from .corpus import DEFAULT_SEED, corpus_entry, make_corpus
from .maximal import (
    fefferman_stein_check,
    maximal_space,
    maximal_time,
    verify_sharp_bound,
)
from .spde import (
    MomentEstimate,
    NoiseSpec,
    PathEnsemble,
    gaussianity_diagnostic,
    ito_isometry_check,
    moment_bound_check,
    sample_brownian_increments,
    simulate_ensemble,
)
from .spectral import (
    Field,
    Propagator,
    SpaceGrid,
    SpaceTimeField,
    cumulative_symbol_integrals,
    dump_field,
    fractional_multiplier,
    kernel_hat,
    load_field,
    to_frequency,
    to_space,
)
from .squarefn import (
    DegenerateFieldError,
    LpReport,
    SquareField,
    elliptic_square_function,
    lp_ratio,
    lp_space_time_norm,
    square_function,
)
from .symbols import (
    EllipticityReport,
    FractionalSymbol,
    LevySymbol,
    PolyFormSymbol,
    check_ellipticity,
    check_levy_cancellation,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "FractionalSymbol", "PolyFormSymbol", "LevySymbol", "EllipticityReport",
    "check_ellipticity", "check_levy_cancellation",
    "SpaceGrid", "Field", "SpaceTimeField",
    "to_frequency", "to_space", "fractional_multiplier",
    "kernel_hat", "cumulative_symbol_integrals", "Propagator",
    "dump_field", "load_field",
    "SquareField", "LpReport", "DegenerateFieldError", "square_function",
    "lp_space_time_norm", "lp_ratio", "elliptic_square_function",
    "make_corpus", "corpus_entry", "DEFAULT_SEED",
    "as_fraction", "derive_c3_delta0", "theta", "mu_admissible",
    "KernelExponents", "solve_mu", "theorem_exponents", "EnvelopeFamily",
    "synthesize_envelopes", "MomentReport", "moment_integral",
    "assumption1_profile", "verify_assumption1",
    "maximal_space", "maximal_time", "verify_sharp_bound", "fefferman_stein_check",
    "NoiseSpec", "MomentEstimate", "PathEnsemble",
    "sample_brownian_increments",
    "ito_isometry_check", "moment_bound_check", "simulate_ensemble",
    "gaussianity_diagnostic",
]
