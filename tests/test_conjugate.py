"""Convex transform layer: h, Young-Fenchel conjugate, psi, admissibility."""

import math
import warnings

import numpy as np
import pytest

from orlimark.conjugate import (
    ConjugateCache,
    PhiSpec,
    _golden_lanes,
    custom_phi,
    fenchel_moreau_check,
    golden_max,
    log_power,
    phi_membership_check,
    power_log,
    psi,
    psi_log,
    tabulated_phi,
    young_fenchel,
    young_fenchel_grid,
    young_fenchel_or_inf,
)
from orlimark.errors import SummabilityError


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
        val = young_fenchel(phi2, 1e-9, p_min=0.0)
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


def test_fenchel_moreau_round_trip(phi1, phi2, phi_nu1):
    ys = np.linspace(-2.0, 3.0, 21)
    for phi in (phi1, phi2, phi_nu1):
        dev = fenchel_moreau_check(phi, ys)
        assert dev < 1e-5


def test_cache_rejects_nonconvex(phi2):
    # a table cannot smuggle non-convexity past its constructor, but a
    # callable can; the cache detects it through kinks in the computed
    # conjugate grid
    def wavy(z):
        t = np.log1p(np.asarray(z, dtype=float))
        return t ** 2 + 2.0 * np.sin(2.0 * np.where(np.isfinite(t), t, 0.0))

    with pytest.raises(SummabilityError):
        ConjugateCache(custom_phi(wavy))


def _power_2_5(z):
    # a custom phi's callable receives an ndarray, never a bare float
    assert isinstance(z, np.ndarray)
    return z ** 2.5


# young_fenchel_or_inf at p = 0.5, 1, 3.7, 64, 1000, 2e4 as the solve that
# evaluated h on one-element arrays computed it; every bit must repeat
PINNED_CONJUGATES = [
    (
        power_log(1.0),
        [-0.8465735902799727, -1.0, 1.140831432705662, 202.168517335019, 5907.7552789821375, 178069.75105072255],
    ),
    (
        power_log(2.0),
        [-0.5965735902799727, -0.8465735902799727, -0.711906567683068, 78.90354888959125, 2607.304049211096, 82103.40371976182],
    ),
    (
        power_log(3.0, r=1.0),
        [0.23282630484402034, 0.6992427012413046, 4.225403022149592, 135.71288564855354, 3096.740695932409, 84297.8794290435],
    ),
    (
        log_power(1.0),
        [-0.4566921947964248, -0.4297656981966681, 2.876725368205384, 1024.0, 250000.0, 100000000.0],
    ),
    (
        tabulated_phi([0.5, 1.0, 2.0, 4.0, 8.0], [0.05, 0.2, 0.9, 4.0, 20.0]),
        [-0.2, -0.2, 1.6646445680715765, math.inf, math.inf, math.inf],
    ),
    (
        custom_phi(_power_2_5),
        [-0.5218875824868201, -0.766516292749662, -0.8997777100914846, 57.41036419802923, 1996.5858188431928, 63897.574565295785],
    ),
]
PINNED_IDS = [phi.label for phi, _ in PINNED_CONJUGATES]


@pytest.mark.parametrize("phi, expected", PINNED_CONJUGATES, ids=PINNED_IDS)
def test_conjugate_bits_pinned(phi, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [young_fenchel_or_inf(phi, p) for p in (0.5, 1.0, 3.7, 64.0, 1000.0, 2e4)]
    assert got == expected


KERNEL_PHIS = [phi for phi, _ in PINNED_CONJUGATES] + [power_log(2.0, r=-0.0)]


@pytest.mark.parametrize("phi", KERNEL_PHIS, ids=PINNED_IDS + ["power-log(m=2,r=-0)"])
def test_point_kernel_matches_h(phi):
    # the float path behind the conjugate solve returns h's bits exactly,
    # non-finite y included (h(+inf) is nan for power-log: 0 * log(inf))
    ys = np.concatenate(
        [np.linspace(-60.0, 80.0, 2801), [-0.0, 30.0, np.nextafter(30.0, 31.0), 700.0, 1e9, np.inf, -np.inf, np.nan]]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        got = np.array([phi._h_at(float(y)) for y in ys])
        assert np.array_equal(got, phi.h(ys), equal_nan=True)


def assert_same_bits(got, expected):
    expected = np.array(expected, dtype=float)
    assert np.array_equal(got, expected, equal_nan=True)
    assert got.tobytes() == expected.tobytes()  # signed zeros too


def scalar_solves(phi, ps, **kw):
    return [young_fenchel_or_inf(phi, float(p), **kw) for p in ps]


@pytest.mark.parametrize("phi", [phi for phi, _ in PINNED_CONJUGATES], ids=PINNED_IDS)
def test_grid_solve_matches_scalar(phi):
    ps = np.geomspace(0.5, 2e4, 400)
    tiny = np.geomspace(1e-6, 0.5, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_bits(young_fenchel_grid(phi, ps), scalar_solves(phi, ps))
        assert_same_bits(young_fenchel_grid(phi, tiny, p_min=0.0), scalar_solves(phi, tiny, p_min=0.0))


def test_grid_solve_divergent_table():
    # linear continuation with slope 2/log 2 = 2.885: h* is +inf above it
    phi = tabulated_phi([1.0, 2.0, 4.0, 8.0], [1.0, 3.0, 9.0, 27.0])
    ps = np.geomspace(0.5, 2e4, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = young_fenchel_grid(phi, ps)
        assert_same_bits(got, scalar_solves(phi, ps))
    assert np.isinf(got).sum() == 251


def test_grid_solve_expansion_cap():
    # h(y) ~ y^1.001: the maximizer (p/1.001)^1000 passes |y| = 1e9 near
    # p = 1.022, where the doubling expansion gives up and reports +inf
    phi = log_power(1e-3)
    ps = np.geomspace(0.5, 2.0, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = young_fenchel_grid(phi, ps)
        assert_same_bits(got, scalar_solves(phi, ps))
    assert np.isinf(got).sum() == 29


@pytest.mark.parametrize("phi", [phi for phi, _ in PINNED_CONJUGATES], ids=PINNED_IDS)
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
    # for z^m the maximizer of p y - e^(m y) is log(p/m)/m; the value keeps
    # its bits, and y* sits well inside the band where the value is flat
    phi = power_log(m)
    for p in (1.0, 3.7, 64.0, 2000.0):
        value, y = young_fenchel(phi, p, argmax=True)
        assert value == young_fenchel(phi, p)
        assert abs(y - math.log(p / m) / m) <= 1e-10


def test_argmax_of_a_diverging_conjugate():
    # the tabulated curve continues linearly, so h* diverges once p passes its slope
    phi = tabulated_phi([0.5, 1.0, 2.0, 4.0, 8.0], [0.05, 0.2, 0.9, 4.0, 20.0])
    assert young_fenchel_or_inf(phi, 64.0, argmax=True) == (math.inf, math.inf)


def test_grid_solve_rejects_small_p(phi2):
    with pytest.raises(ValueError):
        young_fenchel_grid(phi2, [1.0, 0.4, 2.0])
    with pytest.raises(ValueError):
        young_fenchel_grid(phi2, [1.0, -1e-9], p_min=0.0)
    with pytest.raises(ValueError):
        young_fenchel_grid(phi2, [1.0, math.nan])


def test_grid_solve_passes_ndarrays_to_callable():
    seen = []

    def power(z):
        seen.append(type(z))
        return z ** 2.5

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        young_fenchel_grid(custom_phi(power), np.geomspace(1.0, 100.0, 9))
    assert seen and set(seen) == {np.ndarray}


def test_golden_lanes_match_scalar_golden_max():
    # unimodal lanes whose brackets span five decades stop at different steps
    rng = np.random.default_rng(15)
    n = 40
    a = rng.uniform(-5.0, 5.0, n)
    b = a + 10.0 ** rng.uniform(-3.0, 2.0, n)
    peak = a + rng.uniform(-0.2, 1.2, n) * (b - a)
    scale = 10.0 ** rng.uniform(-2.0, 2.0, n)
    top = rng.uniform(-1.0, 1.0, n)
    evals = np.zeros(n, dtype=int)

    def fn(x, lanes):
        np.add.at(evals, lanes, 1)
        d = x - peak[lanes]
        return top[lanes] - scale[lanes] * (d * d)

    x, fx = _golden_lanes(fn, a, b, 1e-12)
    assert len(set(evals)) > 1
    for i in range(n):
        calls = []

        def obj(y, i=i):
            calls.append(y)
            d = y - peak[i]
            return top[i] - scale[i] * (d * d)

        assert np.array([x[i], fx[i]]).tobytes() == np.array(golden_max(obj, a[i], b[i], tol=1e-12)).tobytes()
        assert evals[i] == len(calls)
