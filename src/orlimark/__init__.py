"""Norms on exponential Orlicz spaces and Markov/Bernstein inequality checks.

The package computes Luxemburg norms for spliced exponential Orlicz
functions, the equivalent sup-over-exponent norms, Lorentz norms, and
derivative-weighted quasinorms, then uses them to verify polynomial and
rational derivative inequalities with every constant evaluated explicitly.
"""

__version__ = "0.1.0"

from .conjugate import (
    ConjugateCache,
    PhiSpec,
    custom_phi,
    fenchel_moreau_check,
    log_power,
    phi_membership_check,
    power_log,
    psi,
    psi_log,
    tabulated_phi,
    young_fenchel,
)
from .errors import (
    CoefficientOverflowError,
    ConfigError,
    ConjugateDivergenceError,
    ConstructionError,
    ConvergenceFailureError,
    DegenerateInputError,
    DomainEvaluationError,
    OrlimarkError,
    PoleProximityError,
    RejectedInputError,
    ScanDivergenceError,
    SummabilityError,
)
from .functions import (
    GapRep,
    InversePowerRep,
    PolynomialRep,
    RationalRep,
    TrigPolynomialRep,
    chebyshev_t,
    check_no_poles,
    derivative,
    from_text,
    jacobi22,
    random_family,
    to_text,
)
from .harness import (
    bernstein_trig_check,
    build_corpus,
    d_constant,
    equivalence_band,
    extremal_search,
    gap_check,
    k_constant,
    lp_rational_check,
    markov_ratio,
    markov_sweep,
    rational_orlicz_check,
    tail_check,
)
from .norms import (
    NormContext,
    NormSpec,
    OrliczN,
    construct_N,
    equivalence_constants,
    g_norm,
    gnorm_spec,
    lorentz_norm,
    lorentz_spec,
    lp_spec,
    luxemburg_norm,
    orlicz_spec,
    v_quasinorm,
    vnorm_spec,
    weighted_lorentz_g,
)
from .quadrature import (
    DEFAULT_CONFIG,
    Domain,
    LevelSampler,
    QuadratureConfig,
    distribution,
    lp_quasinorm,
    sup_norm,
)
