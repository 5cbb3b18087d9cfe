"""Exception types shared across the package."""


class OrlimarkError(Exception):
    """Base class for all package-specific failures."""


class DomainEvaluationError(OrlimarkError):
    """Integrand produced a non-finite value at a quadrature node."""

    def __init__(self, message, abscissa=None):
        super().__init__(message)
        self.abscissa = abscissa


class ConvergenceFailureError(OrlimarkError):
    """A computation ran out of budget or could not certify its result:
    adaptive refinement exhausted its depth or panel budget, an integrand
    did not decay at a singular end, a root solve hit its step cap, a
    Luxemburg root left its log modular more than 1e-8 from zero (or the
    Jensen end left it below -1e-8), a sup-over-p scan still rose at the
    top of its last grid extension, or a scan's cached-node and exact
    ratios at its maximizer differ by more than 1e-6 relative.

    Carries the best available estimate and an error bound, floats (or
    None), so callers can decide whether the partial answer is still
    usable.  From an adaptive integral, ``best_estimate`` is the log of the
    integral and ``error_bound`` the bound on its error relative to
    exp(best_estimate).  From a scan's certification, ``best_estimate`` is
    the exact ratio and ``error_bound`` the relative gap to the cached-node
    one; from a scan still rising at its last grid, the best grid ratio and
    None; from a Luxemburg root, the root l (the Jensen bound at the Jensen
    end) and |log I| there.
    """

    def __init__(self, message, best_estimate=None, error_bound=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


class PoleProximityError(OrlimarkError):
    """Rational evaluation hit a denominator value too close to zero."""

    def __init__(self, message, abscissa=None):
        super().__init__(message)
        self.abscissa = abscissa


class CoefficientOverflowError(OrlimarkError):
    """Coefficient growth left the representable floating-point range."""


class RejectedInputError(OrlimarkError, ValueError):
    """Input is structurally outside what an operation can handle, an
    argument outside its allowed range among them; also a ValueError."""


class ConstructionError(OrlimarkError):
    """Failed to build a convex spliced Orlicz function for the given phi."""


class ConjugateDivergenceError(OrlimarkError):
    """The conjugate supremum did not stabilize inside the search range."""


class SummabilityError(OrlimarkError):
    """A series required by a constant did not certifiably converge."""


class ScanDivergenceError(OrlimarkError):
    """A norm or a sup-over-p scan's supremum is infinite: f's singular end,
    of power q, makes ||f||_beta infinite from beta = 1/q on.  Raised before
    any integral by ``lp_quasinorm`` at q beta >= 1, and before any row by a
    scan's growth check, where the scanned exponents reach 1/q (q > r) or
    grow without bound as they approach it (q = r)."""


class DegenerateInputError(OrlimarkError):
    """Operation requires a nonzero function but received zero."""


class ConfigError(OrlimarkError):
    """Configuration text failed validation.

    ``problems`` is a list of human-readable strings, each prefixed with the
    line number it refers to.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
