"""Convex transform layer: h, Young-Fenchel conjugate, psi, admissibility."""

import importlib.util
import math
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from orlimark.conjugate import (
    ConjugateCache,
    PhiSpec,
    custom_phi,
    fenchel_moreau_check,
    gap_series,
    log_power,
    phi_membership_check,
    power_log,
    psi,
    psi_log,
    tabulated_phi,
    young_fenchel,
    young_fenchel_lanes,
)
from orlimark.errors import ConjugateDivergenceError, ConstructionError, SummabilityError
from orlimark.norms import construct_N, equivalence_constants


def hstar_power_closed_form(m: float, p: float) -> float:
    # for phi(u) = u^m: h*(p) = (p/m)(ln(p/m) - 1)
    return (p / m) * (math.log(p / m) - 1.0)


class TestYoungFenchel:
    def test_closed_form_phi2(self, phi2):
        for p in (1.0, 2.0, 4.0, 10.0, 64.0):
            assert young_fenchel(phi2, p) == pytest.approx(
                hstar_power_closed_form(2.0, p), rel=1e-9, abs=1e-12
            )

    def test_small_p_limit_vanishes(self, phi2):
        # h(y) = e^{2y} has infimum slope 0 at -inf where h -> 0, so the
        # conjugate tends to 0 from below as p -> 0+
        val = young_fenchel_lanes(phi2, [1e-9], p_min=0.0)[0][0]
        closed = (1e-9 / 2.0) * (math.log(1e-9 / 2.0) - 1.0)
        assert val == pytest.approx(closed, rel=1e-6)
        assert -1e-6 < val < 0.0

    def test_default_floor_guards_tiny_p(self, phi2):
        with pytest.raises(ValueError):
            young_fenchel(phi2, 1e-9)

    def test_psi_closed_form(self):
        for m in (1.0, 2.0, 4.0):
            phi = power_log(m)
            for p in np.geomspace(max(1.0, m / 2.0), 100.0, 12):
                expect = (p / m) ** (1.0 / m) * math.exp(-1.0 / m)
                assert psi(phi, float(p)) == pytest.approx(expect, rel=1e-6)

    def test_psi_log_consistency(self, phi2):
        assert math.exp(psi_log(phi2, 4.0)) == pytest.approx(psi(phi2, 4.0), rel=1e-12)

    def test_psi_overflow_is_inf(self):
        # h(y) ~ y^1.05: h*(2) / 2 is finite and far past exp's range
        phi = log_power(0.05)
        assert math.isfinite(psi_log(phi, 2.0)) and psi(phi, 2.0) == math.inf

    def test_divergence_past_the_last_table_slope(self):
        # past its last point the table's h continues with slope
        # 16 / log 2 = 23.08, so h*(p) is finite below it and diverges above
        phi = tabulated_phi([0.5, 1.0, 2.0, 4.0, 8.0], [0.05, 0.2, 0.9, 4.0, 20.0])
        assert math.isfinite(young_fenchel(phi, 23.0))
        with pytest.raises(ConjugateDivergenceError, match="diverges at p = 30.0"):
            young_fenchel(phi, 30.0)


class TestConjugateCache:
    def test_grid_layout(self, phi2):
        cache = ConjugateCache(phi2)
        assert cache.grid[0] == pytest.approx(1.0)
        assert cache.grid[-1] == pytest.approx(1024.0, rel=1e-12)

    def test_hstar_convex_on_grid(self, phi2):
        cache = ConjugateCache(phi2)
        second = np.diff(cache.hstar, 2)
        assert second.min() >= -1e-9

    def test_psi_nondecreasing_on_grid(self, phi1, phi2, phi_nu1):
        for phi in (phi1, phi2, phi_nu1):
            cache = ConjugateCache(phi)
            steps = np.diff(cache.psi_log_grid)
            assert steps.min() >= -1e-12

    def test_extend(self, phi2):
        cache = ConjugateCache(phi2)
        n0 = cache.grid.size
        cache.extend()
        assert cache.grid[-1] == pytest.approx(4096.0, rel=1e-12)
        assert cache.grid.size > n0


class TestMembership:
    def test_power_log_families_admissible(self):
        for phi in (power_log(1.0), power_log(2.0), power_log(4.0)):
            rep = phi_membership_check(phi)
            assert rep.admissible, rep.detail

    def test_log_power_admissible(self, phi_nu1):
        # h(k) ~ k^2 so the gap series diverges and the family passes
        rep = phi_membership_check(phi_nu1)
        assert rep.admissible, rep.detail

    def test_non_convex_table_rejected(self):
        # strictly increasing values whose chord slopes in log z decay;
        # the constructor itself is the gatekeeper here
        with pytest.raises(ValueError, match="convex"):
            tabulated_phi([1.0, 2.0, 4.0, 8.0, 16.0], [0.1, 0.9, 1.0, 1.05, 1.08])

    def test_non_convex_callable_rejected(self):
        def wavy(z):
            t = np.log1p(np.asarray(z, dtype=float))
            return t ** 2 + 2.0 * np.sin(2.0 * np.where(np.isfinite(t), t, 0.0))

        rep = phi_membership_check(custom_phi(wavy))
        assert not rep.convex
        assert not rep.admissible

    def test_custom_phi_wraps_callable(self):
        phi = custom_phi(lambda z: np.asarray(z) ** 2)
        assert isinstance(phi, PhiSpec)
        assert phi.h(0.0) == pytest.approx(1.0)

    def test_decaying_gap_series_fails(self):
        # phi(z) = log(1+z): h(k) ~ k, gaps h(k)-h(k+1) bounded, series of
        # exp(-const) diverges from summability's standpoint? no: terms do
        # not shrink, so the summability check must fail
        phi = custom_phi(lambda z: np.log1p(np.asarray(z)))
        rep = phi_membership_check(phi)
        assert not rep.summable


def _tool_families():
    """``FAMILIES`` of tools/bit_identity.py, loaded without the sys.path
    entry the tool adds for itself."""
    path = Path(__file__).resolve().parent.parent / "tools" / "bit_identity.py"
    spec = importlib.util.spec_from_file_location("bit_identity", path)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module.FAMILIES


# chord slopes 1, 2, 3, 5, 8, 12, 20, 40, 40 in y on y = -1, ..., 8: from
# k = 6 every gap term is e^-40, at most 1e-12 and half the first one before
# it, but past its last point h is linear and the terms stop shrinking
STEEP = tabulated_phi(np.exp(np.arange(-1.0, 9.0)), 0.1 + np.array([0, 1, 3, 6, 11, 19, 31, 51, 91, 131]))
CERTIFICATE_PHIS = (
    _tool_families()
    + [power_log(m) for m in (0.5, 1.0, 2.0, 20.0, 5000.0)]
    + [power_log(3.0, 1.0)]
    + [log_power(nu) for nu in (0.05, 0.3, 1.0, 2.0, 5.0)]
    + [custom_phi(lambda z: np.log1p(np.asarray(z)))]
)


class TestGapCertificate:
    """One certificate of the gap series decides admissibility's
    summability and whether C4 exists."""

    def test_steep_table_is_not_certified(self):
        assert not phi_membership_check(STEEP).summable
        with pytest.raises(SummabilityError, match="did not certify"):
            equivalence_constants(construct_N(STEEP))

    @pytest.mark.parametrize("phi", CERTIFICATE_PHIS, ids=lambda phi: phi.label)
    def test_summable_exactly_where_c4_exists(self, phi):
        try:
            equivalence_constants(construct_N(phi))
        except (ConstructionError, SummabilityError):
            exists = False
        else:
            exists = True
        assert phi_membership_check(phi).summable == exists

    def test_c4_and_membership_read_one_certificate(self):
        # log(1 + z)^2: each series stops at a term that is not 0, which
        # bounds the rest; C4's sums are partial sum plus that bound
        phi = log_power(1.0)
        n = construct_N(phi)
        k = math.ceil(n.split_index - 1e-12)
        consts = equivalence_constants(n)
        for k0, total in ((k, consts.series_sum), (k - 1, consts.series_sum_alt)):
            partial, tail, _detail = gap_series(phi, k0)
            assert total == partial + tail and 0.0 < tail <= 1e-12
        rep = phi_membership_check(phi)
        assert (rep.partial_sum, rep.tail_bound) == gap_series(phi, 3)[:2]


def test_fenchel_moreau_round_trip(phi1, phi2, phi_nu1):
    ys = np.linspace(-2.0, 3.0, 21)
    for phi in (phi1, phi2, phi_nu1):
        dev = fenchel_moreau_check(phi, ys)
        assert dev < 2e-15


def test_cache_rejects_nonconvex(phi2):
    # a table cannot smuggle non-convexity past its constructor, but a
    # callable can; the cache detects it through kinks in the computed
    # conjugate grid
    def wavy(z):
        t = np.log1p(np.asarray(z, dtype=float))
        return t ** 2 + 2.0 * np.sin(2.0 * np.where(np.isfinite(t), t, 0.0))

    with pytest.raises(SummabilityError):
        ConjugateCache(custom_phi(wavy))


def test_solver_rejects_nonmonotone_slope():
    # h' = (2t + 0.4 cos 40t) e^y / (1 + e^y), t = log(1 + e^y), wiggles
    # between the doubling points, so only the probes inside a bracket see it
    def wiggly(z):
        t = np.log1p(np.asarray(z, dtype=float))
        return t**2 + 0.01 * np.sin(40.0 * t)

    with pytest.raises(SummabilityError, match="not monotone"):
        young_fenchel_lanes(custom_phi(wiggly), np.geomspace(1.0, 1024.0, 40))


def _power_2_5(z):
    # a custom phi's callable receives an ndarray, never a bare float
    assert isinstance(z, np.ndarray)
    return z ** 2.5


TABLES = [
    ([0.5, 1.0, 2.0, 4.0, 8.0], [0.05, 0.2, 0.9, 4.0, 20.0]),
    # linear continuation with slope 18/log 2 = 25.97: h* is +inf above it
    ([1.0, 2.0, 4.0, 8.0], [1.0, 3.0, 9.0, 27.0]),
]


def lucet(zs, phis, ps):
    """h* of a table by Lucet's discrete Legendre transform: the largest
    p y_i - h_i over the kinks of h, its points and the start of its clamp
    at zero, and +inf above the slope of its last piece."""
    ty, th = np.log(zs), np.array(phis, dtype=float)
    s_lo, s_hi = (th[1] - th[0]) / (ty[1] - ty[0]), (th[-1] - th[-2]) / (ty[-1] - ty[-2])
    ky, kh = np.append(ty[0] - th[0] / s_lo, ty), np.append(0.0, th)
    return np.where(ps > s_hi, math.inf, np.max(ps[:, None] * ky - kh, axis=1))


def _mp_power_log_3_1(y):
    # h and h' of power_log(3, r=1): e^(3y) log(e^4 + e^y)^-3
    big = mp.log(mp.exp(4) + mp.exp(y))
    h = mp.exp(3 * y) / big**3
    return h, 3 * h * (1 - mp.exp(y) / ((mp.exp(4) + mp.exp(y)) * big))


def _mp_log_power_1(y):
    soft = mp.log1p(mp.exp(y))
    return soft**2, 2 * soft / (1 + mp.exp(-y))


def mp_conjugate(h_dh, p, y0):
    """(h*(p), y*(p)) at 40 digits: the root of h'(y) = p near y0."""
    with mp.workdps(40):
        y = mp.findroot(lambda t: h_dh(t)[1] - p, mp.mpf(y0))
        return p * y - h_dh(y)[0], y


ORACLE_PS = [0.5, 1.0, 3.7, 64.0, 1000.0, 2e4]
# each family of the grid tests against its own oracle: closed forms for
# z^m, 40-digit roots of h'(y) = p, Lucet's transform for the table
ORACLES = [
    (power_log(1.0), lambda p, y: ((p / 1.0) * (math.log(p / 1.0) - 1.0), math.log(p))),
    (power_log(2.0), lambda p, y: ((p / 2.0) * (math.log(p / 2.0) - 1.0), math.log(p / 2.0) / 2.0)),
    (power_log(3.0, r=1.0), lambda p, y: mp_conjugate(_mp_power_log_3_1, p, y)),
    (log_power(1.0), lambda p, y: mp_conjugate(_mp_log_power_1, p, y)),
    (tabulated_phi(*TABLES[0]), lambda p, y: (float(lucet(*TABLES[0], np.array([p]))[0]), None)),
    (custom_phi(_power_2_5), lambda p, y: ((p / 2.5) * (math.log(p / 2.5) - 1.0), None)),
]
FAMILY_IDS = [phi.label for phi, _ in ORACLES]


@pytest.mark.parametrize("phi, oracle", ORACLES, ids=FAMILY_IDS)
def test_conjugate_matches_oracle(phi, oracle):
    # h* within 1e-13 max(1, |h*|) of the oracle, y* within 1e-13 (1 + |y*|)
    # where the oracle gives it (a custom phi's h' is a difference quotient)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hstar, ystar = young_fenchel_lanes(phi, ORACLE_PS)
    for p, got, y in zip(ORACLE_PS, hstar, ystar):
        expect, y_expect = oracle(p, y)
        if math.isinf(expect):
            assert got == expect == y
            continue
        assert abs(got - expect) <= 1e-13 * max(1.0, abs(expect)), p
        if y_expect is not None:
            assert abs(y - y_expect) <= 1e-13 * (1.0 + abs(y)), p


def test_power_conjugates_match_closed_form():
    # z^m, m from 1 to 1000: h*(p) = (p/m)(log(p/m) - 1) within
    # 1e-14 max(1, |h*|), y* = log(p/m)/m within 1e-13 (1 + |y*|)
    ps = np.geomspace(0.5, 2e4, 120)
    for m in np.geomspace(1.0, 1000.0, 13):
        hstar, ystar = young_fenchel_lanes(power_log(float(m)), ps)
        expect = (ps / m) * (np.log(ps / m) - 1.0)
        assert np.all(np.abs(hstar - expect) <= 1e-14 * np.maximum(1.0, np.abs(expect))), m
        assert np.all(np.abs(ystar - np.log(ps / m) / m) <= 1e-13 * (1.0 + np.abs(ystar))), m


@pytest.mark.parametrize("zs, phis", TABLES, ids=["5 points", "4 points"])
def test_table_conjugate_is_lucet(zs, phis):
    # the solve lands on the kinks, where h* is p y_i - h_i exactly; the
    # start of the clamp at zero may differ from the oracle's by rounding
    ps = np.concatenate([np.geomspace(1e-6, 0.5, 60), np.geomspace(0.5, 2e4, 400)])
    got = young_fenchel_lanes(tabulated_phi(zs, phis), ps, p_min=0.0)[0]
    expect = lucet(zs, phis, ps)
    assert np.array_equal(np.isinf(got), np.isinf(expect))
    finite = np.isfinite(expect)
    assert np.all(np.abs(got[finite] - expect[finite]) <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(expect[finite])))
    assert np.array_equal(got[ps >= 1.0], expect[ps >= 1.0])


def assert_same_bits(got, expected):
    expected = np.array(expected, dtype=float)
    assert np.array_equal(got, expected, equal_nan=True)
    assert got.tobytes() == expected.tobytes()  # signed zeros too


def scalar_solves(phi, ps, **kw):
    return [young_fenchel_lanes(phi, [float(p)], **kw)[0][0] for p in ps]


@pytest.mark.parametrize("phi", [phi for phi, _ in ORACLES], ids=FAMILY_IDS)
def test_grid_solve_matches_scalar(phi):
    # each lane's bits, maximizer included, are those of a solve of its
    # exponent alone
    ps = np.geomspace(0.5, 2e4, 400)
    tiny = np.geomspace(1e-6, 0.5, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_bits(young_fenchel_lanes(phi, ps)[0], scalar_solves(phi, ps))
        assert_same_bits(young_fenchel_lanes(phi, tiny, p_min=0.0)[0], scalar_solves(phi, tiny, p_min=0.0))
        ystar = young_fenchel_lanes(phi, ps)[1]
        assert_same_bits(ystar[::20], [young_fenchel_lanes(phi, [p])[1][0] for p in ps[::20]])


def test_grid_solve_divergent_table():
    phi = tabulated_phi(*TABLES[1])
    ps = np.geomspace(0.5, 2e4, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = young_fenchel_lanes(phi, ps)[0]
        assert_same_bits(got, scalar_solves(phi, ps))
    assert np.isinf(got).sum() == 251


def test_grid_solve_expansion_cap():
    # h(y) ~ y^1.001: the maximizer (p/1.001)^1000 passes |y| = 1e9 near
    # p = 1.022, where the doubling expansion gives up and reports +inf
    phi = log_power(1e-3)
    ps = np.geomspace(0.5, 2.0, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = young_fenchel_lanes(phi, ps)[0]
        assert_same_bits(got, scalar_solves(phi, ps))
    assert np.isinf(got).sum() == 29


@pytest.mark.parametrize("phi", [phi for phi, _ in ORACLES], ids=FAMILY_IDS)
def test_cache_matches_scalar(phi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p_lo in (1.0, 4.0):
            cache = ConjugateCache(phi, p_lo)
            assert_same_bits(cache.hstar, scalar_solves(phi, cache.grid))
        cache.extend()
        assert_same_bits(cache.hstar, scalar_solves(phi, cache.grid))


@pytest.mark.parametrize("solve", [young_fenchel, psi_log, psi])
def test_infinite_exponent_rejected(phi2, solve):
    with pytest.raises(ValueError, match="p must be finite"):
        solve(phi2, math.inf)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: power_log(math.inf), "m"),
        (lambda: power_log(2.0, math.inf), "r"),
        (lambda: power_log(2.0, math.nan), "r"),
        (lambda: log_power(math.inf), "nu"),
    ],
    ids=["m=inf", "r=inf", "r=nan", "nu=inf"],
)
def test_non_finite_parameter_rejected(build, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        build()


@pytest.mark.parametrize("m", [1.0, 2.0, 8.0, 200.0])
def test_argmax_is_the_maximizer(m):
    # for z^m the maximizer of p y - e^(m y) is log(p/m)/m
    phi = power_log(m)
    for p in (1.0, 3.7, 64.0, 2000.0):
        (value,), (y,) = young_fenchel_lanes(phi, [p])
        assert value == young_fenchel(phi, p)
        assert abs(y - math.log(p / m) / m) <= 1e-13 * (1.0 + abs(y))


def test_argmax_of_a_diverging_conjugate():
    # the tabulated curve continues linearly, so h* diverges once p passes its slope
    phi = tabulated_phi([0.5, 1.0, 2.0, 4.0, 8.0], [0.05, 0.2, 0.9, 4.0, 20.0])
    hstar, ystar = young_fenchel_lanes(phi, [64.0])
    assert hstar[0] == ystar[0] == math.inf


def test_grid_solve_rejects_small_p(phi2):
    with pytest.raises(ValueError):
        young_fenchel_lanes(phi2, [1.0, 0.4, 2.0])
    with pytest.raises(ValueError):
        young_fenchel_lanes(phi2, [1.0, -1e-9], p_min=0.0)
    with pytest.raises(ValueError):
        young_fenchel_lanes(phi2, [1.0, math.nan])


def test_custom_slope_by_complex_step_or_central_difference():
    # z^2.5 maps complex input to complex values: h' = 2.5 z^2.5 by complex
    # step, to rounding; a callable that casts to float (dropping the
    # imaginary part) or raises on complex input keeps the central
    # difference of phi at z = e^y, bit for bit
    def real_only(z):
        return np.asarray(z, dtype=float) ** 2.5

    def rejects(z):
        if np.iscomplexobj(z):
            raise TypeError("real input only")
        return z**2.5

    ys = np.linspace(-6.0, 6.0, 49)
    zs = np.exp(ys)
    assert custom_phi(lambda z: z**2.5).dh(ys) == pytest.approx(2.5 * zs**2.5, rel=1e-15, abs=0.0)
    step = np.maximum(1e-7 * zs, 1e-9)
    lo = np.maximum(zs - step, 0.0)
    central = zs * (((zs + step) ** 2.5 - lo**2.5) / (zs + step - lo))
    for fn in (real_only, rejects):
        assert np.array_equal(custom_phi(fn).dh(ys), central)


def test_grid_solve_passes_ndarrays_to_callable():
    seen = []

    def power(z):
        seen.append(type(z))
        return z ** 2.5

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        young_fenchel_lanes(custom_phi(power), np.geomspace(1.0, 100.0, 9))
    assert seen and set(seen) == {np.ndarray}
