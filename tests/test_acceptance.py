"""Acceptance gate: the nine headline checks, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Each test prints exactly one PASS/FAIL line before asserting, so a
red run still reports every criterion's status.
"""

import math
import time

import numpy as np
import pytest

from orlimark.cli import parse_config, render_csv, render_json, run
from orlimark.conjugate import fenchel_moreau_check, log_power, power_log, psi
from orlimark.functions import (
    InversePowerRep,
    PolynomialRep,
    RationalRep,
    TrigPolynomialRep,
)
from orlimark.harness import (
    build_corpus,
    equivalence_band,
    k_constant,
    lp_rational_check,
    markov_ratio,
    markov_sweep,
    rational_orlicz_check,
    tail_check,
)
from orlimark.norms import NormContext, lorentz_norm, luxemburg_norm, orlicz_spec, lp_spec
from orlimark.quadrature import Domain, lp_quasinorm


@pytest.fixture(scope="module")
def actx():
    return NormContext()


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(seed=7)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_markov_constant_value():
    got = k_constant(4.0)
    expect = (49.0 * math.pi) ** 0.25
    ok = abs(got - expect) <= 1e-8 and abs(got - 3.52238228) <= 1e-7
    report(1, ok, f"K(4) = {got:.10f}")
    assert ok


def test_criterion_2_bernstein_equality(actx):
    t0 = time.time()
    worst = 0.0
    for n in range(1, 31):
        b = np.zeros(n)
        b[n - 1] = 1.0
        q = TrigPolynomialRep(np.zeros(n + 1), b)
        ratio = markov_ratio(q, lp_spec(2.0), ctx=actx)
        worst = max(worst, abs(ratio - n) / n)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(2, ok, f"worst relative deviation {worst:.2e} in {elapsed:.1f}s")
    assert ok


def test_criterion_3_equivalence_band(actx, corpus):
    t0 = time.time()
    parts = []
    ok = True
    for phi in (power_log(1.0), power_log(2.0), log_power(1.0)):
        band = equivalence_band(corpus, phi, ctx=actx)
        ok = ok and band.violations == 0
        note = f"{phi.label}: violations={band.violations}"
        if band.fallback_count:
            note += f" (e^2*C4 fallback used on {band.fallback_count})"
        parts.append(note)
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    report(3, ok, "; ".join(parts) + f"; {elapsed:.0f}s")
    assert ok


def test_criterion_4_jacobi_sweep(actx):
    t0 = time.time()
    phi2 = power_log(2.0)
    rep = markov_sweep(phi2, "jacobi22", range(2, 41), norm=orlicz_spec(phi2), ctx=actx)
    elapsed = time.time() - t0
    ok = (
        rep.min_margin > 0.0
        and 1.8 <= rep.slope <= 2.2
        and rep.c5_estimate > 0.0
        and elapsed < 300.0
    )
    report(
        4,
        ok,
        f"min margin {rep.min_margin:.3g}, slope {rep.slope:.3f}, "
        f"C5 {rep.c5_estimate:.3f}, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_5_rational_margins(actx):
    t0 = time.time()
    phi2 = power_log(2.0)
    worst = math.inf
    for a in (0.5, 1.0, 4.0):
        q = RationalRep([1.0], [a, 0.0, 1.0])
        for r in (1, 2, 3):
            worst = min(worst, lp_rational_check(q, 4.0, r).margin)
            worst = min(worst, rational_orlicz_check(q, phi2, r, ctx=actx).margin)
    elapsed = time.time() - t0
    ok = worst >= 0.0 and elapsed < 180.0
    report(5, ok, f"smallest margin {worst:.4g} in {elapsed:.0f}s")
    assert ok


def test_criterion_6_closed_form_conjugates():
    t0 = time.time()
    worst = 0.0
    for m in (1.0, 2.0, 4.0):
        phi = power_log(m)
        for p in np.geomspace(max(1.0, m / 2.0), 100.0, 25):
            got = psi(phi, float(p))
            expect = (p / m) ** (1.0 / m) * math.exp(-1.0 / m)
            worst = max(worst, abs(got - expect) / expect)
    dev = max(
        fenchel_moreau_check(power_log(m), np.linspace(-2.0, 3.0, 21)) for m in (1.0, 2.0, 4.0)
    )
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and dev < 1e-5 and elapsed < 30.0
    report(6, ok, f"psi rel dev {worst:.2e}, Fenchel-Moreau dev {dev:.2e}, {elapsed:.0f}s")
    assert ok


def test_criterion_7_lorentz_identity(corpus):
    t0 = time.time()
    dom = Domain.interval()
    worst = 0.0
    for label, f in corpus:
        if not label.startswith("poly"):
            continue
        for p in (1.0, 2.0, 3.0):
            lp = lp_quasinorm(f, p, dom)
            lz = lorentz_norm(f, p, p)
            worst = max(worst, abs(lz - lp) / lp)
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    report(7, ok, f"worst relative deviation {worst:.2e} in {elapsed:.0f}s")
    assert ok


def test_criterion_8_tail_bound(actx):
    t0 = time.time()
    ok = True
    details = []
    for s in (0.3, 0.5):
        for r in (1, 2):
            rep = tail_check(InversePowerRep(r * s), m=2.0, r=r, ctx=actx)
            good = (
                math.isfinite(rep.prefactor)
                and rep.max_violation <= 1e-12
                and math.isfinite(rep.converse_norm)
            )
            ok = ok and good
            details.append(f"s={s},r={r}: prefactor {rep.prefactor:.3g}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    report(8, ok, "; ".join(details) + f"; {elapsed:.0f}s")
    assert ok


def test_criterion_9_property_suite(actx):
    t0 = time.time()
    phi2 = power_log(2.0)
    dom = Domain.interval()
    checks = []

    # homogeneity at 1e-8 for representative members and scales
    n = actx.orlicz(phi2)
    f = PolynomialRep([0.4, -1.1, 0.7])
    base = luxemburg_norm(f, n)
    homo = all(
        abs(luxemburg_norm(PolynomialRep([c * v for v in f.coeffs]), n) - c * base)
        <= 1e-8 * c * base
        for c in (0.1, 3.0, 100.0)
    )
    checks.append(("homogeneity", homo))

    # Lyapunov monotonicity across the p grid
    values = [lp_quasinorm(f, p, dom) for p in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
    checks.append(("lyapunov", all(b >= a * (1 - 1e-9) for a, b in zip(values, values[1:]))))

    # Chebyshev inequality at a few thresholds
    from orlimark.quadrature import distribution

    cheb = all(
        distribution(f, w) <= (lp_quasinorm(f, 2.0, dom) / w) ** 2 + 1e-12
        for w in (0.2, 0.5, 1.0)
    )
    checks.append(("chebyshev", cheb))

    # ratio scale invariance under 1e3 * Q
    q = PolynomialRep([0.0, 1.0, 2.0])
    r1 = markov_ratio(q, orlicz_spec(phi2), ctx=actx)
    r2 = markov_ratio(PolynomialRep([1e3 * v for v in q.coeffs]), orlicz_spec(phi2), ctx=actx)
    checks.append(("scale-invariance", abs(r2 - r1) <= 1e-8 * r1))

    # CLI byte determinism
    cfg_text = """
[experiment]
command = markov-sweep

[phi]
family = power-log
m = 2.0

[sweep]
family = jacobi22
n_lo = 2
n_hi = 4

[norm]
kind = lp
p = 4.0
"""
    cfg = parse_config(cfg_text)
    env_a, rows_a, header, _ = run(cfg)
    env_b, rows_b, _, _ = run(cfg)
    env_a.pop("timestamp")
    env_b.pop("timestamp")
    deterministic = (
        render_csv(rows_a, header) == render_csv(rows_b, header)
        and render_json(env_a) == render_json(env_b)
    )
    checks.append(("cli-determinism", deterministic))

    elapsed = time.time() - t0
    ok = all(flag for _name, flag in checks) and elapsed < 180.0
    report(9, ok, ", ".join(f"{name}={'ok' if flag else 'FAIL'}" for name, flag in checks) + f"; {elapsed:.0f}s")
    assert ok
