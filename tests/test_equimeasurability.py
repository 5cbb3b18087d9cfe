"""Equimeasurability oracles: every norm the library computes is
rearrangement invariant, so two functions with the same distribution have
the same norm (Bennett & Sharpley, Interpolation of Operators, 1988, ch. 2).

Two measure-preserving maps give such pairs: x -> kx on the circle (a
dilation of a trig polynomial q, k in {2, 3}) and x -> -x on [-1, 1].  Each
norm kind must agree on them within its own stated accuracy: the quadrature
rel_tol 1e-10 for the integrals (L_p, the layer cakes, and the exact
re-validation the sup-over-p scans report), the 1e-8 Luxemburg residual in
log modular for the Orlicz norm, and 1e-10 as well for the weak Lorentz
form, whose maximum is a smooth one located to 1e-8 in s.
"""

import functools
import math

import numpy as np
import pytest

from orlimark.conjugate import power_log
from orlimark.functions import PolynomialRep, TrigPolynomialRep
from orlimark.harness import build_corpus
from orlimark.norms import NormContext, g_norm, lorentz_norm, luxemburg_norm, v_quasinorm, weighted_lorentz_g
from orlimark.quadrature import lp_quasinorm

CORPUS = dict(build_corpus(7))
PHI2 = power_log(2.0)
CTX = NormContext()

# norm kind -> (f -> norm, relative tolerance)
NORMS = {
    "lp3": (lambda f: lp_quasinorm(f, 3.0, f.natural_domain), 1e-10),
    "gnorm": (lambda f: g_norm(f, PHI2, cache=CTX.conjugates(PHI2)), 1e-10),
    "orlicz": (lambda f: luxemburg_norm(f, CTX.orlicz(PHI2)), 1e-8),
    "lorentz-3-1.5": (lambda f: lorentz_norm(f, 3.0, 1.5), 1e-10),
    "weak-2": (lambda f: lorentz_norm(f, 2.0, math.inf), 1e-10),
    "vnorm-1": (lambda f: v_quasinorm(f, PHI2, 1.0, cache=CTX.conjugates(PHI2, p_lo=4.0)), 1e-10),
    "weighted-2": (lambda f: weighted_lorentz_g(f, PHI2, 2.0, cache=CTX.conjugates(PHI2)), 1e-10),
}

TRIG = ("trig-01", "trig-02", "trig-03", "trig-05", "trig-06")
POLY = ("poly-03", "poly-07", "poly-12", "poly-19", "poly-24", "poly-30")


def dilated(q: TrigPolynomialRep, k: int) -> TrigPolynomialRep:
    """q(kx): frequency j moves to kj."""
    a, b = np.zeros(k * (len(q.cos_coeffs) - 1) + 1), np.zeros(k * len(q.sin_coeffs))
    a[::k] = q.cos_coeffs
    b[k - 1 :: k] = q.sin_coeffs
    return TrigPolynomialRep(a, b)


def mirrored(f: PolynomialRep) -> PolynomialRep:
    """f(-x)."""
    c = np.asarray(f.coeffs)
    return PolynomialRep(c * (-1.0) ** np.arange(c.size))


@functools.lru_cache(maxsize=None)
def norm_of(label: str, kind: str) -> float:
    return NORMS[kind][0](CORPUS[label])


PAIRS = [(label, k) for label in TRIG for k in (2, 3)] + [(label, -1) for label in POLY]


@pytest.mark.parametrize("kind", NORMS)
@pytest.mark.parametrize("label,k", PAIRS, ids=[f"{label}-{'mirror' if k < 0 else f'x{k}'}" for label, k in PAIRS])
def test_equimeasurable_functions_have_equal_norms(label, k, kind):
    f = CORPUS[label]
    g = mirrored(f) if k < 0 else dilated(f, k)
    norm, rel = NORMS[kind]
    assert norm(g) == pytest.approx(norm_of(label, kind), rel=rel, abs=0.0)
