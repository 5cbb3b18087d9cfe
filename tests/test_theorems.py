"""Inequalities the harness checks, asserted as theorems on seeded inputs.

Each holds for every input, so each is an oracle that needs no reference
value: a margin may fall below 0 only by the stated accuracy of the norms
it compares, times its bound.

* The rational lemma behind ``lp_rational_check``: for a rational function
  q of degree n without poles on [-1, 1], ||q^(r)||_gamma <= D(r) n^r
  ||q||_p with 1/gamma = r + 1/p, the Bernstein-type inequality for
  derivatives of rational functions of A. A. Pekarskii (Mat. Sb. 1984),
  with the harness's explicit constant D(r) (``harness.d_constant``).
  Both sides are adaptive integrals, accurate to rel_tol.
* The sandwich of ``equivalence_band``: R <= G <= (psi(4) / psi(1)) R,
  with G the g-norm, the supremum over p >= 1 of ||f||_p / psi(p), and R
  the same supremum over p >= 4.  The left inequality is a supremum over
  fewer p.  The right one: for 1 <= p <= 4, ||f||_p <= ||f||_4 by
  Lyapunov's inequality, and psi(p) >= psi(1), as psi is nondecreasing
  from p = 1 on where h(y*(1)) >= 0 (d(h*(p)/p)/dp = h(y*(p)) / p^2;
  R. T. Rockafellar, Convex Analysis, 1970, section 26), which
  ``ConjugateCache.psi_log_floor`` checks.  The band's margins allow the
  scans' stated accuracy, 1e-6 relative, and 1e-9 for R <= G.
* Markov's inequality in L_p, the bound of ``markov_sweep`` under
  ``lp_spec(p)``: ||P'||_p <= K(p) n^2 ||P||_p for a polynomial P of
  degree n on [-1, 1] and p > 2.  Markov-type inequalities in L_p, with
  the factor n^2, are in P. Borwein & T. Erdelyi, Polynomials and
  Polynomial Inequalities (1995), ch. 5; the constant
  K(p) = (4 pi (p + 3)^2 / (p sin(2 pi / p)))^(1/p) is the paper's
  (``harness.k_constant``).  Both sides are adaptive integrals, accurate
  to rel_tol.
"""

import pytest

from orlimark.conjugate import log_power, power_log
from orlimark.functions import random_family
from orlimark.harness import build_corpus, equivalence_band, lp_rational_check, markov_sweep
from orlimark.norms import lp_spec


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_rational_lemma(n, seed, ctx):
    # Pekarskii's inequality with the constant D(r); the smallest relative
    # margin of these 90 cases is 0.84 (seed 7, n = 3, r = 1, p = 4)
    q = random_family("rational", n, seed)
    for r in (1, 2, 3):
        for p in (4.0, 8.0, 16.0):
            check = lp_rational_check(q, p, r, ctx)
            assert check.rhs > 0.0
            assert check.margin >= -ctx.cfg.rel_tol * check.rhs, (r, p, check)


SANDWICH_PHIS = [power_log(1.0), power_log(2.0), log_power(1.0), power_log(20.0), power_log(3.0, 1.0)]


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("phi", SANDWICH_PHIS, ids=lambda phi: phi.label)
def test_sandwich(phi, seed, ctx):
    # R <= G on every row, and G <= (psi(4) / psi(1)) R, the corrected
    # factor, by Lyapunov's inequality and psi's rise from p = 1
    # (Rockafellar, section 26); the smallest relative corrected margin of
    # these ten bands is 0.0084 (seed 11)
    report = equivalence_band(build_corpus(seed), phi, ctx)
    for row in report.rows:
        assert row.sandwich_lower_margin >= 0.0, row
        assert row.corrected_margin >= 0.0, row


@pytest.mark.parametrize(
    "family, seed",
    [("jacobi22", 0), ("chebyshev", 0), ("random-poly", 7), ("random-poly", 11)],
    ids=["jacobi22", "chebyshev", "random-poly-7", "random-poly-11"],
)
def test_lp_markov(family, seed, ctx):
    # ||P'||_p <= K(p) n^2 ||P||_p at every degree n and p > 2; the
    # smallest relative margin of these 400 rows is 0.126 (jacobi22,
    # p = 32, n = 1)
    for p in (2.5, 3.0, 4.0, 8.0, 32.0):
        report = markov_sweep(power_log(2.0), family, range(1, 21), norm=lp_spec(p), ctx=ctx, seed=seed)
        assert len(report.rows) == 20
        for row in report.rows:
            assert row.bound > 0.0
            assert row.margin >= -ctx.cfg.rel_tol * row.bound, (p, row)
