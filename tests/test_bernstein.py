"""Bernstein's inequality ||T'|| <= n ||T|| for a trigonometric polynomial T
of degree n, asserted as a theorem in every norm kind.

Arestov proved the integral form: the integral of phi(|T'|) is at most that
of phi(n |T|) for every phi(u) = psi(log u) with psi convex and
nondecreasing (V. V. Arestov, Izv. Akad. Nauk SSSR Ser. Mat. 45 (1981)).
That covers L_p for every p > 0, the Luxemburg norm under the spliced N,
and the g-norm and v-quasinorm, suprema over p of weighted L_p norms.
With phi(u) = (u - w)_+ it gives submajorization of |T'| by n |T|, which
covers every rearrangement-invariant norm.  The library's ||f||_(p,b),
whose b-th power integrates T^(p/b) against b w^(b-1) dw, is (p/b)^(1/b)
times the textbook L^(b^2/p, b) norm, a rearrangement-invariant norm when
b <= b^2/p, that is when p <= b: so lorentz(3, 3), which is L_3,
lorentz(1.5, 3) and lorentz(2, 4).  lorentz(3, 1.5) is not a norm and is
not asserted.  So ``bernstein_trig_check``, the margin
n ||T|| - ||T'||, may fall below 0 only by the norm's stated accuracy times
n ||T||: 1e-6 relative for the scans, which certify their value to that,
and rel_tol for the integrals.  sin(nx), whose derivative over n is
equimeasurable with it, gives equality in every kind.
"""

import numpy as np
import pytest

from orlimark.conjugate import power_log
from orlimark.functions import TrigPolynomialRep, random_family
from orlimark.harness import bernstein_trig_check
from orlimark.norms import evaluate_norm, gnorm_spec, lorentz_spec, lp_spec, orlicz_spec, vnorm_spec

PHI = power_log(2.0)
# each kind's spec, and whether it is a sup-over-p scan (certified to 1e-6)
KINDS = {
    "lp(0.5)": (lp_spec(0.5), False),
    "lp(3)": (lp_spec(3.0), False),
    "orlicz": (orlicz_spec(PHI), False),
    "gnorm": (gnorm_spec(PHI), True),
    "vnorm(r=1)": (vnorm_spec(PHI, 1.0), True),
    "lorentz(3,3)": (lorentz_spec(3.0, 3.0), False),
    "lorentz(1.5,3)": (lorentz_spec(1.5, 3.0), False),
    "lorentz(2,4)": (lorentz_spec(2.0, 4.0), False),
}


def _bound_and_slack(q, kind, ctx):
    """n ||q|| and the margin's allowed shortfall, the norm's stated
    accuracy times n ||q||."""
    spec, scan = KINDS[kind]
    bound = q.degree * evaluate_norm(q, spec, ctx=ctx)
    return bound, (1e-6 if scan else ctx.cfg.rel_tol) * bound


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("n", [2, 5, 9])
@pytest.mark.parametrize("kind", list(KINDS))
def test_random_trig_polynomial(kind, n, seed, ctx):
    q = random_family("trig", n, seed)
    bound, slack = _bound_and_slack(q, kind, ctx)
    assert bound > 0.0
    assert bernstein_trig_check(q, KINDS[kind][0], ctx=ctx) >= -slack


@pytest.mark.parametrize("n", [2, 5, 9])
@pytest.mark.parametrize("kind", list(KINDS))
def test_harmonic_is_the_equality_case(kind, n, ctx):
    sine = np.zeros(n)
    sine[-1] = 1.0
    q = TrigPolynomialRep(np.zeros(n + 1), sine)
    bound, _slack = _bound_and_slack(q, kind, ctx)
    assert abs(bernstein_trig_check(q, KINDS[kind][0], ctx=ctx)) <= 1e-12 * bound
