"""Property suites: homogeneity, monotonicity, Chebyshev, scale invariance.

Hypothesis budgets are kept small because each example runs adaptive
quadrature; the deterministic acceptance suite re-checks the same laws on
fixed corpora.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import orlimark
from orlimark import errors
from orlimark.conjugate import ConjugateCache, custom_phi, fenchel_moreau_check, log_power, power_log, psi, tabulated_phi, young_fenchel
from orlimark.errors import DomainEvaluationError, OrlimarkError, RejectedInputError
from orlimark.functions import (
    GapRep,
    InversePowerRep,
    PolynomialRep,
    RationalRep,
    TrigPolynomialRep,
    check_no_poles,
    chebyshev_t,
    derivative,
    from_text,
    jacobi22,
    random_family,
    to_text,
)
from orlimark.harness import (
    bernstein_trig_check,
    build_corpus,
    d_constant,
    d_constant_log,
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
from orlimark.norms import (
    NormContext,
    NormSpec,
    g_norm,
    lorentz_norm,
    lorentz_spec,
    lp_spec,
    luxemburg_norm,
    orlicz_spec,
    sup_ratio_from,
    v_quasinorm,
    vnorm_spec,
    weighted_lorentz_g,
)
from orlimark.quadrature import Domain, LevelSampler, QuadratureConfig, distribution, lp_quasinorm

INTERVAL = Domain.interval()
PHI2 = power_log(2.0)
CTX = NormContext()

coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)


def nonzero_poly(coeffs):
    p = PolynomialRep(coeffs)
    return p if p.degree >= 0 and max(abs(c) for c in coeffs) > 1e-3 else None


poly_strategy = (
    st.lists(coeff, min_size=1, max_size=5)
    .map(nonzero_poly)
    .filter(lambda p: p is not None)
)

scale_strategy = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


@settings(max_examples=20, deadline=None)
@given(f=poly_strategy, c=scale_strategy)
def test_luxemburg_homogeneity(f, c):
    n = CTX.orlicz(PHI2)
    base = luxemburg_norm(f, n)
    scaled = luxemburg_norm(PolynomialRep([c * v for v in f.coeffs]), n)
    assert scaled == pytest.approx(c * base, rel=1e-8)


@settings(max_examples=12, deadline=None)
@given(f=poly_strategy, c=scale_strategy)
def test_g_norm_homogeneity(f, c):
    cache = CTX.conjugates(PHI2)
    base = g_norm(f, PHI2, cache=cache)
    scaled = g_norm(PolynomialRep([c * v for v in f.coeffs]), PHI2, cache=cache)
    assert scaled == pytest.approx(c * base, rel=1e-8)


@settings(max_examples=10, deadline=None)
@given(f=poly_strategy, c=scale_strategy)
# levels next to 0 put w = 0 at a quadrature node, where w^(b-1) = 1 at b = 1
@example(f=PolynomialRep([2.2250738585072014e-308, 1.5625]), c=1.0)
def test_lorentz_homogeneity(f, c):
    base = lorentz_norm(f, 2.0, 1.0)
    scaled = lorentz_norm(PolynomialRep([c * v for v in f.coeffs]), 2.0, 1.0)
    assert scaled == pytest.approx(c * base, rel=1e-8)


@settings(max_examples=20, deadline=None)
@given(f=poly_strategy)
def test_lyapunov_monotone_in_p(f):
    # normalized measure: p -> ||f||_p is nondecreasing
    ps = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    values = [lp_quasinorm(f, p, INTERVAL) for p in ps]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo * (1.0 - 1e-9)


@settings(max_examples=15, deadline=None)
@given(f=poly_strategy, frac=st.floats(min_value=0.05, max_value=0.95), p=st.sampled_from([1.0, 2.0]))
def test_chebyshev_inequality(f, frac, p):
    sampler = LevelSampler(f)
    if sampler.sup_estimate <= 0.0:
        return
    w = frac * sampler.sup_estimate
    t = distribution(f, w)
    bound = (lp_quasinorm(f, p, INTERVAL) / w) ** p
    assert t <= bound * (1.0 + 1e-9) + 1e-12


@settings(max_examples=8, deadline=None)
@given(
    f=st.lists(coeff, min_size=2, max_size=4).map(nonzero_poly).filter(
        lambda p: p is not None and p.degree >= 1
    )
)
def test_markov_ratio_scale_invariant(f):
    spec = orlicz_spec(PHI2)
    a = markov_ratio(f, spec, ctx=CTX)
    b = markov_ratio(PolynomialRep([1e3 * v for v in f.coeffs]), spec, ctx=CTX)
    assert b == pytest.approx(a, rel=1e-8)


@settings(max_examples=20, deadline=None)
@given(p=st.floats(min_value=1.0, max_value=100.0), m=st.sampled_from([1.0, 2.0, 4.0]))
def test_psi_closed_form_random_points(p, m):
    if p < max(1.0, m / 2.0):
        return
    expect = (p / m) ** (1.0 / m) * math.exp(-1.0 / m)
    assert psi(power_log(m), p) == pytest.approx(expect, rel=1e-6)


@settings(max_examples=15, deadline=None)
@given(
    u=st.floats(min_value=0.01, max_value=3.0),
    v=st.floats(min_value=0.01, max_value=3.0),
)
def test_orlicz_n_midpoint_convexity(u, v):
    n = CTX.orlicz(PHI2)
    left, nu, nv = np.exp(n.n_log_from_log_u(np.log([(u + v) / 2.0, u, v])))
    right = (nu + nv) / 2.0
    assert left <= right + 1e-9 * (1.0 + abs(right))


F = PolynomialRep([0.3, 1.0, -0.7])
Q = RationalRep(PolynomialRep([0.3, 1.0, -0.7]), PolynomialRep([2.0, 0.5]))
NAN, INF = math.nan, math.inf

# (entry point, the arguments tried): each call maps one argument to a float
BAD_ARGUMENTS = [
    ("chebyshev_t(n)", lambda n: float(chebyshev_t(n)(0.3)), (NAN, INF, -INF, 2.5, -1.0)),
    ("jacobi22(n)", lambda n: float(jacobi22(n)(0.3)), (NAN, INF, -INF, 2.5, -1.0, 201.0)),
    ("lp_quasinorm(p)", lambda p: lp_quasinorm(F, p, INTERVAL), (NAN, INF, -INF, 0.0, -1.0)),
    ("distribution(w)", lambda w: distribution(F, w), (NAN, INF, -INF, -1.0)),
    ("lorentz_norm(p)", lambda p: lorentz_norm(F, p, 2.0), (NAN, INF, -INF, 0.5)),
    ("lorentz_norm(b)", lambda b: lorentz_norm(F, 2.0, b), (NAN, INF, -INF, 0.5)),
    ("v_quasinorm(r)", lambda r: v_quasinorm(F, PHI2, r, cache=CTX.conjugates(PHI2, p_lo=4.0)), (NAN, INF, -INF, 0.5)),
    ("psi(p)", lambda p: psi(PHI2, p), (NAN, INF, -INF, 0.1)),
    ("power_log(m)", lambda m: psi(power_log(m), 2.0), (NAN, INF, -INF, 0.0)),
    ("power_log(r)", lambda r: psi(power_log(2.0, r), 2.0), (NAN, INF, -INF)),
    ("log_power(nu)", lambda nu: psi(log_power(nu), 2.0), (NAN, INF, -INF, 0.0)),
    ("rel_tol", lambda tol: lp_quasinorm(F, 2.0, INTERVAL, QuadratureConfig(rel_tol=tol)), (NAN, INF, -INF, 0.0)),
    ("tail_check(u_max)", lambda u: tail_check(InversePowerRep(0.5), 2.0, 1, u_max=u).prefactor, (NAN, INF, -INF, 2.0)),
    ("tail_check(r)", lambda r: tail_check(InversePowerRep(0.5), 2.0, r).prefactor, (NAN, INF, -INF, 0, 2.5)),
    ("d_constant(r)", d_constant, (NAN, INF, -INF, 0, 2.5)),
    ("d_constant_log(r)", d_constant_log, (NAN, INF, -INF, 0, 2.5)),
    ("lp_rational_check(r)", lambda r: lp_rational_check(Q, 4.0, r).margin, (NAN, INF, -INF, 0, 2.5)),
    ("lp_rational_check(p)", lambda p: lp_rational_check(Q, p, 1).margin, (NAN, INF, -INF, 2.0)),
    ("rational_orlicz_check(r)", lambda r: rational_orlicz_check(Q, PHI2, r, ctx=CTX).margin, (NAN, INF, -INF, 0, 2.5)),
    ("markov_sweep(n_range)", lambda n: markov_sweep(PHI2, "jacobi22", [n], norm=lp_spec(4.0), ctx=CTX).rows[0].ratio, (NAN, INF, -1.0)),
    ("random_family(n)", lambda n: float(random_family("polynomial", n, 7)(0.3)), (NAN, INF, -INF, 0, 2.5)),
    ("extremal_search(n)", lambda n: extremal_search(PHI2, n, restarts=1, ctx=CTX)[1], (NAN, INF, -INF, 0, 2.5)),
    ("InversePowerRep(q)", lambda q: lp_quasinorm(InversePowerRep(q), 0.5, INTERVAL), (NAN, INF, -INF, 0.0)),
]


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from([(name, call, arg) for name, call, args in BAD_ARGUMENTS for arg in args]))
def test_bad_arguments_return_finite_values_or_raise_typed_errors(case):
    # every public entry point either returns a finite value or raises
    # ValueError or an OrlimarkError; a TypeError, an OverflowError or a
    # RuntimeWarning fails the test
    _name, call, arg = case
    try:
        value = call(arg)
    except (ValueError, OrlimarkError):
        return
    assert math.isfinite(value)


# one invalid argument per check: each raises RejectedInputError, which is
# an OrlimarkError and a ValueError both
ARGUMENT_CHECKS = {
    "lp_quasinorm(p=-1)": lambda: lp_quasinorm(F, -1.0, INTERVAL),
    "lp_quasinorm(p=nan)": lambda: lp_quasinorm(F, NAN, INTERVAL),
    "lorentz_norm(p=0.5)": lambda: lorentz_norm(F, 0.5, 2.0),
    "lorentz_norm(b=0.5)": lambda: lorentz_norm(F, 2.0, 0.5),
    "v_quasinorm(r=0)": lambda: v_quasinorm(F, PHI2, 0.0),
    "weighted_lorentz_g(b=0)": lambda: weighted_lorentz_g(F, PHI2, 0.0),
    "power_log(m=-1)": lambda: power_log(-1.0),
    "QuadratureConfig(rel_tol=0)": lambda: QuadratureConfig(rel_tol=0.0),
    "extremal_search(n=0)": lambda: extremal_search(PHI2, 0, restarts=1, ctx=CTX),
    "distribution(w=-1)": lambda: distribution(F, -1.0),
    "LevelSampler.measure_above_batch(w=nan)": lambda: LevelSampler(F).measure_above_batch(np.array([0.5, NAN])),
    "tabulated_phi(one point)": lambda: tabulated_phi([1.0], [1.0]),
    "markov_sweep(unknown family)": lambda: markov_sweep(PHI2, "legendre", [2], norm=lp_spec(4.0), ctx=CTX),
    "PolynomialRep([nan])": lambda: PolynomialRep([NAN]),
    "lp_spec(p=0)": lambda: lp_spec(0.0),
    "lorentz_spec(p=0.5, b=1)": lambda: lorentz_spec(0.5, 1.0),
    "vnorm_spec(r=0)": lambda: vnorm_spec(PHI2, 0.0),
    "NormSpec(gnorm, no phi)": lambda: NormSpec("gnorm"),
    "NormSpec(orlicz, no phi)": lambda: NormSpec("orlicz"),
    "NormSpec(vnorm, r=1, no phi)": lambda: NormSpec("vnorm", r=1.0),
    "NormSpec(bogus)": lambda: NormSpec("bogus"),
    "tabulated_phi(nan z)": lambda: tabulated_phi([1.0, NAN, 4.0, 8.0], [1.0, 2.0, 9.0, 27.0]),
    "tabulated_phi(nan phi)": lambda: tabulated_phi([1.0, 2.0, 4.0, 8.0], [1.0, NAN, 9.0, 27.0]),
    "equivalence_band(empty corpus)": lambda: equivalence_band([], PHI2, ctx=CTX),
    "random_family(seed=nan)": lambda: random_family("polynomial", 3, NAN),
    "random_family(seed=-1)": lambda: random_family("polynomial", 3, -1),
    "random_family(seed=1.5)": lambda: random_family("polynomial", 3, 1.5),
    "check_no_poles(polynomial)": lambda: check_no_poles(PolynomialRep([1.0, 2.0])),
    "to_text(InversePowerRep)": lambda: to_text(InversePowerRep(0.5)),
    "to_text(GapDerivative)": lambda: to_text(derivative(GapRep([(0.1, 0.5, 2.0)]), 1)),
    "gap_check(empty range)": lambda: gap_check(GapRep([(0.1, 0.5, 2.0)]), 2.0, []),
    "gap_check(p=0)": lambda: gap_check(GapRep([(0.1, 0.5, 2.0)]), 0.0, [2]),
    "gap_check(polynomial)": lambda: gap_check(F, 2.0, [2]),
    "GapRep(nan node)": lambda: GapRep([(NAN, 0.5, 2.0)]),
    "GapRep(inf exponent)": lambda: GapRep([(0.1, 0.5, INF)]),
    "GapRep(r=0.5)": lambda: GapRep([(0.1, 0.5, 0.5)]),
    "GapRep.derivative(2)": lambda: GapRep([(0.1, 0.5, 2.0)]).derivative(2),
    "custom_phi(None)": lambda: custom_phi(None),
    "young_fenchel(p=0.1)": lambda: young_fenchel(PHI2, 0.1),
    "ConjugateCache(p_lo=0)": lambda: ConjugateCache(PHI2, p_lo=0.0),
    "sup_ratio_from(p_lo=0)": lambda: sup_ratio_from(F, PHI2, 0.0),
    "fenchel_moreau_check(nan)": lambda: fenchel_moreau_check(PHI2, [NAN]),
    "TrigPolynomialRep(missing sine)": lambda: TrigPolynomialRep([1.0, 0.5], []),
    "from_text(poly:a,b)": lambda: from_text("poly:a,b"),
    "from_text(no kind)": lambda: from_text("1,2,3"),
    "k_constant(p=2)": lambda: k_constant(2.0),
    "bernstein_trig_check(polynomial)": lambda: bernstein_trig_check(F, lp_spec(2.0)),
    "lp_rational_check(polynomial)": lambda: lp_rational_check(F, 4.0, 1),
    "tail_check(m=0)": lambda: tail_check(InversePowerRep(0.5), 0.0, 1),
    "InversePowerRep(q=-1)": lambda: InversePowerRep(-1.0),
    "derivative(order=-1)": lambda: derivative(F, -1),
    "build_corpus(seed=-1)": lambda: build_corpus(seed=-1),
    "random_family(bogus)": lambda: random_family("bogus", 3, 7),
}


@pytest.mark.parametrize("check", sorted(ARGUMENT_CHECKS))
def test_argument_checks_raise_typed_errors(check):
    with pytest.raises(OrlimarkError) as info:
        ARGUMENT_CHECKS[check]()
    assert isinstance(info.value, RejectedInputError) and isinstance(info.value, ValueError)


def test_nan_slope_raises_where_z_is_finite():
    # phi(z) = z NaN has h' = NaN at z = 1, where the conjugate solve starts:
    # a typed error, not a g-norm of 0
    with pytest.raises(DomainEvaluationError, match="NaN at z = 1.0"):
        g_norm(F, custom_phi(lambda z: z * NAN))


# a spec raises when it is built, with the range check of the norm it names
SPEC_CHECKS = {
    "lp_spec(p=0)": (lambda: lp_spec(0.0), lambda: lp_quasinorm(F, 0.0, INTERVAL)),
    "lorentz_spec(p=0.5, b=1)": (lambda: lorentz_spec(0.5, 1.0), lambda: lorentz_norm(F, 0.5, 1.0)),
    "lorentz_spec(p=2, b=0.5)": (lambda: lorentz_spec(2.0, 0.5), lambda: lorentz_norm(F, 2.0, 0.5)),
    "vnorm_spec(r=0)": (lambda: vnorm_spec(PHI2, 0.0), lambda: v_quasinorm(F, PHI2, 0.0)),
}


@pytest.mark.parametrize("check", sorted(SPEC_CHECKS))
def test_specs_check_their_norms_range(check):
    messages = []
    for build in SPEC_CHECKS[check]:
        with pytest.raises(RejectedInputError) as info:
            build()
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_every_typed_error_is_exported():
    # each OrlimarkError subclass can be caught by its name from the package
    typed = [name for name, cls in vars(errors).items() if isinstance(cls, type) and issubclass(cls, OrlimarkError)]
    assert "CoefficientOverflowError" in typed
    assert [name for name in typed if getattr(orlimark, name, None) is not getattr(errors, name)] == []
