"""Empirical checks of the Markov and Bernstein type inequalities.

Each check evaluates both sides of one inequality with explicitly computed
constants and reports margins (bound minus measured value), never boolean
verdicts alone, so a failing run shows how badly and where.  Unknown
absolute constants are fitted, reported, and only their boundedness or
scaling is asserted.

The polynomial Markov bound chain:

    ratio in the spliced-Orlicz norm <= n^2 * K(4) * max(1, psi(4)) * C4 * C3

carries C4 in log form since it overflows floats for fast-growing weights.
Its factor max(1, psi(4)) moves the sup-ratio norm from p >= 1 to p >= 4,
a step ``equivalence_band`` measures, and it fails on constants.
Every constant carried in log form (C4, D(r), psi, the bounds and right-hand
sides built from them) is read through ``exp_or_inf``: where it overflows
it is +inf, which is correct and sorts last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjugate import PhiSpec, exp_or_inf, golden_max, power_log, psi
from .errors import DegenerateInputError, RejectedInputError
from .functions import (
    GapRep,
    PolynomialRep,
    RationalRep,
    TrigPolynomialRep,
    chebyshev_t,
    check_no_poles,
    derivative,
    _integer,
    jacobi22,
    random_family,
)
from .norms import (
    V_SCAN_P_LO,
    NormContext,
    NormSpec,
    equivalence_constants,
    evaluate_norm,
    gnorm_spec,
    lp_spec,
    orlicz_spec,
    sup_ratio_from,
    vnorm_spec,
)
from .quadrature import LevelSampler, QuadratureConfig, _bracketed_root

_SEARCH_CONFIG = QuadratureConfig(rel_tol=1e-7)
# relative slack of the band edges; load bearing, because constant
# functions land exactly on the lower edge
BAND_SLACK = 1e-6


# ---------------------------------------------------------------------------
# named constants


def k_constant(p: float) -> float:
    """Sharp constant of the L_p polynomial derivative bound, p > 2."""
    p = float(p)
    if not (p > 2.0):
        raise RejectedInputError(f"constant defined only for p > 2, got {p!r}")
    return (4.0 * math.pi * (p + 3.0) ** 2 / (p * math.sin(2.0 * math.pi / p))) ** (1.0 / p)


def d_constant_log(r: int) -> float:
    r = _integer(r, "derivative order", lo=1)
    return (
        1.0 / math.e
        + math.lgamma(r + 1.0)
        + (r + 0.25) * (math.log(4.0 / 3.0) + math.log(r + 0.25))
    )


def d_constant(r: int) -> float:
    """Rational-derivative constant: exp(1/e) r! (4/3)^(r+1/4) (r+1/4)^(r+1/4)."""
    r = _integer(r, "derivative order", lo=1)
    if r <= 20:
        return (
            math.exp(1.0 / math.e)
            * math.factorial(r)
            * (4.0 / 3.0) ** (r + 0.25)
            * (r + 0.25) ** (r + 0.25)
        )
    return exp_or_inf(d_constant_log(r))


# ---------------------------------------------------------------------------
# ratios and sweeps


def markov_ratio(f, spec: NormSpec, ctx: NormContext | None = None) -> float:
    """||f'|| / ||f|| in the requested norm."""
    context = ctx if ctx is not None else NormContext()
    den = evaluate_norm(f, spec, context)
    if den == 0.0:
        raise DegenerateInputError("norm of the function is zero; the ratio is undefined")
    num = evaluate_norm(derivative(f, 1), spec, context)
    return num / den


@dataclass(frozen=True)
class RatioRow:
    n: int
    ratio: float
    bound: float
    margin: float


@dataclass
class RatioReport:
    family: str
    norm_label: str
    phi_label: str
    rows: list[RatioRow]
    slope: float
    slope_ci: tuple[float, float]
    c5_estimate: float

    @property
    def min_margin(self) -> float:
        return min((row.margin for row in self.rows), default=math.inf)


def _loglog_slope(ns, ratios) -> tuple[float, float, int]:
    """Slope of log ratio against log n, its standard error and its dof.

    NaN slope and 0 degrees of freedom when there are fewer than five points.
    """
    # The exponent of interest is asymptotic; small degrees sit in a
    # pre-asymptotic transient that drags an equal-weight fit well below the
    # limiting slope.  Fit the upper half of the swept degrees, never fewer
    # than five.
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(ratios, dtype=float))
    if x.size < 5:
        return math.nan, math.nan, 0
    keep = max(5, (x.size + 1) // 2)
    x, y = x[-keep:], y[-keep:]
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = x.size - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    return float(slope), se, dof


def _t_quantile(dof: int, q: float) -> float:
    """Student's t quantile at q in (1/2, 1) for an integer dof >= 1.

    With t = sqrt(dof) tan(theta), P(|T| <= t) is a finite series in
    cos(theta) (Abramowitz & Stegun 26.7.3-4): (2/pi)(theta + sin(theta) S)
    for odd dof and sin(theta) S for even dof, S the sum of a_k cos^k(theta)
    over k = dof - 2, dof - 4, ... >= 0, a_k / a_(k-2) = (k - 1) / k and a_0
    = a_1 = 1.  theta is its root at 2q - 1 on [0, pi/2], collapsed to two
    ulps by ``_bracketed_root``.
    """
    odd = dof % 2
    ks = np.arange(odd, dof - 1, 2)
    coeffs = np.cumprod(np.append(1.0, (ks[1:] - 1.0) / ks[1:]))[: ks.size]

    def excess(theta, _lanes=None):
        """P(|T| <= sqrt(dof) tan(theta)) - (2q - 1)."""
        # cos^k from log cos = log1p(-2 sin^2(theta / 2)), whose rounding k does not amplify
        s = np.sin(theta) * (np.exp(ks * np.log1p(-2.0 * np.sin(0.5 * theta) ** 2)[:, None]) @ coeffs)
        return (2.0 / math.pi * (theta + s) if odd else s) - (2.0 * q - 1.0)

    ends = np.array([0.0, 0.5 * math.pi])
    g = excess(ends)
    x_neg, x_pos, g_neg, g_pos = _bracketed_root(excess, ends[:1], ends[1:], g[:1], g[1:], 0.0, stop=lambda a, b: np.abs(b - a) <= 2.0 * np.spacing(b))
    return math.sqrt(dof) * math.tan(np.where(-g_neg < g_pos, x_neg, x_pos)[0])


def _fit_loglog(ns, ratios) -> tuple[float, tuple[float, float]]:
    """The log-log slope with its 95% Student-t confidence interval."""
    slope, se, dof = _loglog_slope(ns, ratios)
    if dof == 0:
        return slope, (math.nan, math.nan)
    tq = _t_quantile(dof, 0.975)
    return slope, (float(slope - tq * se), float(slope + tq * se))


SWEEP_FAMILIES = ("jacobi22", "chebyshev", "random-poly")


def _family_member(family: str, n: int, seed: int):
    if family == "jacobi22":
        return jacobi22(n)
    if family == "chebyshev":
        return chebyshev_t(n)
    if family == "random-poly":
        return random_family("polynomial", n, seed)
    raise RejectedInputError(f"unknown sweep family {family!r}")


def markov_factor_log(phi: PhiSpec, ctx: NormContext | None = None) -> float:
    """log of the n-free factor K(4) * max(1, psi(4)) * C4 * C3."""
    context = ctx if ctx is not None else NormContext()
    consts = equivalence_constants(context.orlicz(phi))
    return (
        math.log(k_constant(4.0))
        + math.log(max(1.0, psi(phi, 4.0)))
        + consts.b_over_g_log
        + math.log(consts.g_over_b)
    )


def markov_sweep(
    phi: PhiSpec,
    family: str,
    n_range,
    norm: NormSpec | None = None,
    ctx: NormContext | None = None,
    seed: int = 0,
) -> RatioReport:
    """Derivative-to-function norm ratios across degrees, with bounds.

    The bound column carries n^2 * K(p) for plain L_p (p > 2) and the full
    constant chain (``markov_factor_log``) for the spliced-Orlicz and
    sup-ratio norms alone; norms without a proven constant get +inf (ratio
    recorded, nothing asserted).  A norm
    with a phi of its own must take it from ``phi``, or RejectedInputError.
    """
    ns = sorted(set(_integer(n) for n in n_range))
    if not ns:
        raise RejectedInputError("empty degree range")
    context = ctx if ctx is not None else NormContext()
    spec = norm if norm is not None else orlicz_spec(phi)
    if spec.phi is not None and spec.phi != phi:
        raise RejectedInputError(f"the norm {spec.label} takes another phi than the sweep's {phi.label}")
    if spec.kind == "lp":
        factor_log = math.log(k_constant(spec.p)) if spec.p > 2.0 else math.inf
    elif spec.kind in ("orlicz", "gnorm"):
        factor_log = markov_factor_log(phi, context)
    else:
        factor_log = math.inf
    rows = []
    for n in ns:
        ratio = 0.0 if n == 0 else markov_ratio(_family_member(family, n, seed), spec, ctx=context)
        bound = 0.0 if n == 0 else exp_or_inf(factor_log + 2.0 * math.log(n))
        rows.append(RatioRow(n, ratio, bound, bound - ratio))
    fit_rows = [row for row in rows if row.n >= 2 and row.ratio > 0.0]
    slope, ci = _fit_loglog([r.n for r in fit_rows], [r.ratio for r in fit_rows])
    c5 = min((row.ratio / row.n**2 for row in rows if row.n >= 1), default=math.nan)
    return RatioReport(family, spec.label, phi.label, rows, slope, ci, c5)


def _require_type(f, cls, check: str):
    if not isinstance(f, cls):
        raise RejectedInputError(f"{check} needs a {cls.__name__}, got {type(f).__name__}")


def bernstein_trig_check(q: TrigPolynomialRep, spec: NormSpec, ctx: NormContext | None = None) -> float:
    """deg q * ||q|| - ||q'|| in the given norm; nonnegative when the bound holds."""
    _require_type(q, TrigPolynomialRep, "bernstein_trig_check")
    context = ctx if ctx is not None else NormContext()
    deg = max(q.degree, 0)
    value = evaluate_norm(q, spec, ctx=context)
    dvalue = evaluate_norm(q.derivative(), spec, ctx=context)
    return deg * value - dvalue


# ---------------------------------------------------------------------------
# rational-derivative checks


@dataclass(frozen=True)
class RationalCheck:
    margin: float
    lhs: float
    rhs: float
    rhs_log: float
    gamma: float
    order: int
    degree: float


def _require_pole_free(q: RationalRep):
    _require_type(q, RationalRep, "a rational-derivative check")
    pc = check_no_poles(q)
    if not pc:
        raise RejectedInputError(
            f"denominator reaches magnitude {pc.certified_min:.3e} near "
            f"x = {pc.witness!r}; the function is outside the pole-free class"
        )


def lp_rational_check(q: RationalRep, p: float, r: int, ctx: NormContext | None = None) -> RationalCheck:
    """Power-norm form, at ctx.cfg: ||q^(r)||_gamma <= D(r) * deg^r * ||q||_p, p >= 4."""
    r = _integer(r, "derivative order", lo=1)
    p = float(p)
    if not (4.0 <= p < math.inf):
        raise RejectedInputError(f"the explicit constant needs a finite p >= 4, got {p!r}")
    _require_pole_free(q)
    context = ctx if ctx is not None else NormContext()
    gamma = p / (p * r + 1.0)
    lhs = evaluate_norm(derivative(q, r), lp_spec(gamma), context)
    deg = float(q.degree)
    rhs = d_constant(r) * deg**r * evaluate_norm(q, lp_spec(p), context)
    rhs_log = math.log(rhs) if rhs > 0 else -math.inf
    return RationalCheck(rhs - lhs, lhs, rhs, rhs_log, gamma, r, deg)


def rational_orlicz_check(
    q: RationalRep,
    phi: PhiSpec,
    r: int,
    ctx: NormContext | None = None,
) -> RationalCheck:
    """Orlicz form, at ctx.cfg: derivative-weighted quasinorm of q^(r) against C4 D(r) deg^r ||q||."""
    r = _integer(r, "derivative order", lo=1)
    _require_pole_free(q)
    context = ctx if ctx is not None else NormContext()
    lhs = evaluate_norm(derivative(q, r), vnorm_spec(phi, r), context)
    b = evaluate_norm(q, orlicz_spec(phi), context)
    consts = equivalence_constants(context.orlicz(phi))
    deg = float(q.degree)
    if deg == 0.0 or b == 0.0:
        rhs_log = -math.inf
    else:
        rhs_log = consts.b_over_g_log + d_constant_log(r) + r * math.log(deg) + math.log(b)
    rhs = exp_or_inf(rhs_log)
    gamma = V_SCAN_P_LO / (V_SCAN_P_LO * r + 1.0)
    return RationalCheck(rhs - lhs, lhs, rhs, rhs_log, gamma, r, deg)


# ---------------------------------------------------------------------------
# products of absolute powers


@dataclass(frozen=True)
class GapRow:
    n: float
    ratio: float
    scaled: float


@dataclass
class GapReport:
    p: float
    rows: list[GapRow]
    max_scaled: float
    trend_slope: float


def gap_check(base: GapRep, p: float, n_range, ctx: NormContext | None = None) -> GapReport:
    """Ratio / degree^2 across exponent-scaled copies of ``base``, at ctx.cfg.

    The absolute constant of the underlying inequality is unknown, so the
    check is a scaling one: ratio/(deg^2) must stay bounded with a trend
    slope near zero.
    """
    _require_type(base, GapRep, "gap_check")
    if not (p > 0.0):
        raise RejectedInputError(f"exponent must be positive, got {p!r}")
    context = ctx if ctx is not None else NormContext()
    deg0 = base.degree
    rows = []
    for n in sorted(set(float(n) for n in n_range)):
        scale = n / deg0
        factors = [(a, b, r * scale) for a, b, r in base.factors]
        if any(r < 1.0 for _a, _b, r in factors):
            raise RejectedInputError(f"degree {n:g} would push an exponent below 1; start the range at {deg0:g}")
        ratio = markov_ratio(GapRep(factors), lp_spec(p), context)
        rows.append(GapRow(n, ratio, ratio / n**2))
    slope = _loglog_slope([r.n for r in rows], [max(r.scaled, 1e-300) for r in rows])[0]
    return GapReport(p, rows, max(r.scaled for r in rows), slope)


# ---------------------------------------------------------------------------
# tail characterization


@dataclass
class TailReport:
    u_grid: np.ndarray
    t_values: np.ndarray
    model_values: np.ndarray
    prefactor: float
    max_violation: float
    normalizer: float
    converse_norm: float
    beta_exponent_measured: float
    beta_exponent_model: float


def tail_check(
    f,
    m: float,
    r: int,
    u_max: float = 1e3,
    ctx: NormContext | None = None,
) -> TailReport:
    """Distribution-tail bound and its converse for the weighted quasinorm.

    Forward: normalizes f by its derivative-weighted quasinorm, then fits the
    smallest prefactor making T(|f|,u) <= prefactor * u^(-1/r) (log u)^(1/(mr))
    hold at 49 geometric steps of [3, u_max], for a finite u_max above 3.
    Converse: re-scans the quasinorm with the tail-adapted weight family and
    fits how ||f||_beta blows up as beta approaches 1/r.
    Every integral runs at ``ctx.cfg``; a singular end of f is taken in distance.
    """
    r = _integer(r, "derivative order", lo=1)
    if not (m > 0.0):
        raise RejectedInputError(f"growth index must be positive, got {m!r}")
    if not (math.isfinite(u_max) and u_max > 3.0):
        raise RejectedInputError(f"u_max must be finite and above 3, got {u_max!r}")
    context = ctx if ctx is not None else NormContext()
    v = evaluate_norm(f, vnorm_spec(power_log(m, 0.0), r), context)
    if v == 0.0:
        raise DegenerateInputError("function is zero; tail analysis is undefined")
    us = np.geomspace(3.0, u_max, 49)
    t = LevelSampler(f).measure_above_batch(us * v)
    model = us ** (-1.0 / r) * np.log(us) ** (1.0 / (m * r))
    ratios = t / model
    prefactor = float(np.max(ratios))
    max_violation = float(np.max(t - prefactor * model))
    converse = evaluate_norm(f, vnorm_spec(power_log(m / (m * r + 1.0), 0.0), r), context) / v
    ps = np.array([8.0, 16.0, 32.0, 64.0, 128.0])
    betas = ps / (ps * r + 1.0)
    gaps = 1.0 / r - betas
    norms = np.array([evaluate_norm(f, lp_spec(b), context) / v for b in betas])
    slope = _loglog_slope(gaps, norms)[0]
    return TailReport(
        u_grid=us,
        t_values=t,
        model_values=model,
        prefactor=prefactor,
        max_violation=max_violation,
        normalizer=v,
        converse_norm=converse,
        beta_exponent_measured=slope,
        beta_exponent_model=-(m * r + 1.0) / m,
    )


# ---------------------------------------------------------------------------
# extremal search


def extremal_search(
    phi: PhiSpec,
    n: int,
    restarts: int = 3,
    ctx: NormContext | None = None,
    seed: int = 0,
) -> tuple[PolynomialRep, float]:
    """Best-effort maximizer of the spliced-Orlicz Markov ratio at degree n.

    Coordinate-wise golden ascent on the coefficient unit sphere (the ratio
    is scale invariant), restarted from the ultraspherical seed plus random
    directions; the search runs on a loosened quadrature budget and the
    winner is re-scored at full accuracy, so the returned ratio never falls
    below the re-scored seed.
    """
    n = _integer(n, lo=1)
    restarts = _integer(restarts, "restarts")
    spec = orlicz_spec(phi)
    search_ctx = NormContext(_SEARCH_CONFIG)
    final_ctx = ctx if ctx is not None else NormContext()

    def score(coeffs, context) -> float:
        rep = PolynomialRep(coeffs)
        if rep.degree < 1:
            return 0.0
        return markov_ratio(rep, spec, ctx=context)

    def unit(c):
        c = np.asarray(c, dtype=float)
        norm = float(np.linalg.norm(c))
        return c / norm if norm > 0 else c

    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(101, n)))
    seeds = [unit(jacobi22(n).coeffs)]
    for _ in range(restarts - 1):
        seeds.append(unit(rng.standard_normal(n + 1)))

    best_c, best_val = seeds[0], -math.inf
    for start in seeds:
        c = start.copy()
        val = score(c, search_ctx)
        for _sweep in range(2):
            for j in range(n + 1):

                def moved(t):
                    cand = c.copy()
                    cand[j] += t
                    return unit(cand)

                t, cand_val = golden_max(lambda t: score(moved(t), search_ctx), -1.5, 1.5, tol=0.0, iters=8)
                if cand_val > val:
                    val, c = cand_val, moved(t)
        if val > best_val:
            best_val, best_c = val, c

    jac = unit(jacobi22(n).coeffs)
    jac_val = score(jac, final_ctx)
    final_val = score(best_c, final_ctx)
    if jac_val > final_val:
        return PolynomialRep(jac), jac_val
    return PolynomialRep(best_c), final_val


# ---------------------------------------------------------------------------
# corpus and equivalence band


def build_corpus(seed: int = 7) -> list[tuple[str, object]]:
    """Fixed evaluation corpus: 30 polynomials, 10 gap products, 10 rationals, 10 trig."""
    corpus: list[tuple[str, object]] = []
    for n in range(1, 31):
        corpus.append((f"poly-{n:02d}", random_family("polynomial", n, seed)))
    for n in range(1, 11):
        corpus.append((f"gap-{n:02d}", random_family("gap", n, seed)))
    for n in range(1, 11):
        corpus.append((f"rational-{n:02d}", random_family("rational", n, seed)))
    for n in range(1, 11):
        corpus.append((f"trig-{n:02d}", random_family("trig", n, seed)))
    return corpus


@dataclass(frozen=True)
class BandRow:
    """A member's band verdicts, and its sandwich R <= G <= factor * R
    (``equivalence_band``): R = ``restricted_sup`` and the three margins."""

    label: str
    b_norm: float
    g_norm: float
    log_ratio: float
    lower_ok: bool
    upper_ok: bool
    used_fallback: bool
    restricted_sup: float
    sandwich_lower_margin: float
    displayed_margin: float
    corrected_margin: float


@dataclass
class BandReport:
    phi_label: str
    rows: list[BandRow]
    violations: int
    fallback_count: int
    empirical_lo: float
    empirical_hi: float
    c3: float
    c4_log: float
    factor_displayed: float
    factor_corrected: float

    @property
    def displayed_misses(self) -> int:
        """Members whose full sup exceeds the displayed factor times the restricted one."""
        return sum(row.displayed_margin < 0.0 for row in self.rows)

    @property
    def corrected_misses(self) -> int:
        """Members outside the corrected sandwich, on either side."""
        return sum(min(row.sandwich_lower_margin, row.corrected_margin) < 0.0 for row in self.rows)


def equivalence_band(
    corpus,
    phi: PhiSpec,
    ctx: NormContext | None = None,
) -> BandReport:
    """Two-sided norm comparison over a corpus with computed constants.

    A member passes when C3^-1 <= B/G <= C4 up to relative ``BAND_SLACK``.
    An upper miss that fits under e^2 * C4 is recorded as a fallback, not
    a violation.

    The sandwich R <= G <= factor * R relates G to R, its supremum over
    p >= 4 (``sup_ratio_from``), with margins (bound minus measured) at
    slack 1e-9 and 1e-6.  The Markov chain's factor max(1, psi(4)) fails on
    constants, where G / R = psi(4) / psi(1).  Moment monotonicity
    (||f||_p <= ||f||_4 for p <= 4) gives the corrected max(1, psi(4) /
    psi(1)), as psi rises from p = 1 on where h(y*(1)) >= 0, which
    ``ConjugateCache.psi_log_floor`` checks.  A displayed miss is a finding
    about the chain, not a violation.  A zero member raises
    DegenerateInputError, which names it.
    """
    corpus = list(corpus)
    if not corpus:
        raise RejectedInputError("empty corpus")
    context = ctx if ctx is not None else NormContext()
    consts = equivalence_constants(context.orlicz(phi))
    b_spec, g_spec = orlicz_spec(phi), gnorm_spec(phi)
    psi4, cache = psi(phi, 4.0), context.conjugates(phi)
    displayed, corrected = max(1.0, psi4), max(1.0, psi4 / exp_or_inf(cache.psi_log_floor()))
    log_slack = math.log1p(BAND_SLACK)
    lo_edge = -math.log(consts.g_over_b)
    rows = []
    violations = 0
    fallback = 0
    ratios = []
    for label, f in corpus:
        b = evaluate_norm(f, b_spec, context)
        if b == 0.0:
            raise DegenerateInputError(f"corpus member {label!r} is zero; its norm ratio is undefined")
        g = evaluate_norm(f, g_spec, context)
        log_ratio = math.log(b) - math.log(g)
        ratios.append(math.exp(log_ratio))
        lower_ok = log_ratio >= lo_edge - log_slack
        upper_ok = log_ratio <= consts.b_over_g_log + log_slack
        fallback_ok = log_ratio <= 2.0 + consts.b_over_g_log + log_slack
        used_fallback = (not upper_ok) and fallback_ok
        if used_fallback:
            fallback += 1
        if not lower_ok or not fallback_ok:
            violations += 1
        restricted = sup_ratio_from(f, phi, 4.0, cfg=context.cfg, cache=context.conjugates(phi, p_lo=4.0))
        lower_margin = g * (1.0 + 1e-9) - restricted
        displayed_margin, corrected_margin = (factor * restricted * (1.0 + 1e-6) - g for factor in (displayed, corrected))
        rows.append(BandRow(label, b, g, log_ratio, lower_ok, upper_ok, used_fallback, restricted, lower_margin, displayed_margin, corrected_margin))
    return BandReport(
        phi_label=phi.label,
        rows=rows,
        violations=violations,
        fallback_count=fallback,
        empirical_lo=min(ratios),
        empirical_hi=max(ratios),
        c3=consts.g_over_b,
        c4_log=consts.b_over_g_log,
        factor_displayed=displayed,
        factor_corrected=corrected,
    )
