"""Function families the norm and inequality machinery operates on.

Four representations: algebraic polynomials in monomial coefficients,
trigonometric polynomials on the circle, pole-free rational functions, and
products of absolute powers |x - z_j|^(r_j) with complex nodes.  All evaluate
vectorized over numpy arrays and serialize to a plain text form that round
trips exactly ("repr" floats).

A function carries its domain, ``natural_domain``: the circle for
trigonometric polynomials, [-1, 1] otherwise.  Each representation (and
``GapDerivative``) reports its ``break_points()`` there, taking no domain:
the domain ends and the real zeros of f and f', found as polynomial roots,
between which |f| is monotone.  The distribution function, the sup norm and
the adaptive integrals of |f| use these.  A representation computes them
once (``_kept``) and keeps them as a read-only array that every call reads.

Break points, derivatives and the Jacobi and Chebyshev constructors work on
plain coefficient arrays with small kernels (``_poly2cheb``, ``_chebder``,
``_chebroots``, ``_polymul`` and the like), each taking numpy.polynomial's
operations in its order, so that every result has numpy's bits without its
Python layer: no series object, no ``as_series`` copy, and no import of
numpy.polynomial, which the tests keep as the kernels' oracle.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    CoefficientOverflowError,
    DegenerateInputError,
    PoleProximityError,
    RejectedInputError,
)
from .quadrature import _EPS, Domain, _sorted_distinct

def _trim(coeffs) -> tuple[float, ...]:
    c = [float(v) for v in coeffs]
    while c and c[-1] == 0.0:
        c.pop()
    return tuple(c)


def _check_coeffs(coeffs):
    """Given coefficients as a float array: a NaN among them is rejected
    input, and an infinite or too large one an overflow."""
    arr = np.asarray(coeffs, dtype=float)
    if np.isnan(arr).any():
        raise RejectedInputError("NaN coefficient")
    return _check_overflow(arr)


def _check_overflow(arr: np.ndarray) -> np.ndarray:
    """Computed coefficients: any not finite (inf - inf gives NaN) or above
    1e300 in magnitude raise CoefficientOverflowError."""
    if arr.size and not np.isfinite(arr).all():
        raise CoefficientOverflowError("non-finite coefficient")
    if arr.size and np.max(np.abs(arr)) > 1e300:
        raise CoefficientOverflowError("coefficient magnitude exceeds 1e300")
    return arr


# A root within this distance of the real axis (of the unit circle, for
# trigonometric polynomials) counts as a real zero: an extra break point only
# splits a monotone piece, while a missed one leaves a piece not monotone.
_ROOT_SLACK = 1e-4
_SQRT_HALF = math.sqrt(0.5)

# The kernels below take coefficient arrays, low degree first, and give the
# bits of the numpy.polynomial function each names; each trims trailing zeros
# where that function does, keeping at least one entry.


def _trimseq(c: np.ndarray) -> np.ndarray:
    """c without its trailing zeros, keeping its first entry (``trimseq``)."""
    n = c.size
    while n > 1 and c[n - 1] == 0.0:
        n -= 1
    return c[:n]


def _polymul(c1, c2) -> np.ndarray:
    """``polymul``: the convolution of the trimmed factors, trimmed."""
    return _trimseq(np.convolve(_trimseq(c1), _trimseq(c2)))


def _polyadd(c1, c2) -> np.ndarray:
    """``polyadd``: the shorter trimmed term added into a copy of the longer."""
    c1, c2 = _trimseq(c1), _trimseq(c2)
    if c1.size > c2.size:
        out = c1.copy()
        out[: c2.size] += c2
    else:
        out = c2.copy()
        out[: c1.size] += c1
    return _trimseq(out)


def _polyder(c: np.ndarray) -> np.ndarray:
    """``polyder(c)``: k c[k] at index k - 1, untrimmed; c[:1] * 0 for a constant."""
    if c.size <= 1:
        return c[:1] * 0.0
    return np.arange(1, c.size) * c[1:]


def _chebder(c: np.ndarray) -> np.ndarray:
    """``chebder(c)``: its downward recurrence, one coefficient at a time on
    Python floats (the same IEEE doubles); c[:1] * 0 for a constant."""
    if c.size <= 1:
        return c[:1] * 0.0
    c, n = c.tolist(), c.size - 1
    der = [0.0] * n
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j) * c[j]
        c[j - 2] += (j * c[j]) / (j - 2)
    if n > 1:
        der[1] = 4 * c[2]
    der[0] = c[1]
    return np.array(der)


def _polymulx(c) -> np.ndarray:
    """``polymulx``: x times the trimmed c; the zero series is itself."""
    c = _trimseq(c)
    if c.size == 1 and c[0] == 0.0:
        return c.copy()
    out = np.empty(c.size + 1)
    out[0] = c[0] * 0
    out[1:] = c
    return out


def _chebmulx(res: np.ndarray, n: int) -> None:
    """``chebmulx``: x times the Chebyshev series res[:n], in place in
    res[: n + 1], as T_0 x = T_1 and T_k x = (T_(k-1) + T_(k+1)) / 2."""
    c0, half = res[0], res[1:n] / 2
    res[1] = c0
    res[2 : n + 1] = half
    res[0] = c0 * 0
    res[: n - 1] += half


def _poly2cheb(pol) -> np.ndarray:
    """``poly2cheb``: Horner's rule in the Chebyshev basis on one array, from
    the top coefficient down: each step multiplies the series by x, adds the
    next coefficient and trims."""
    pol = _trimseq(np.asarray(pol, dtype=float))
    res, n = np.zeros(pol.size + 1), 1
    for v in pol[::-1]:
        _chebmulx(res, n)
        res[0] += v
        n = _trimseq(res[: n + 1]).size
    return res[:n]


def _cheb2poly(c) -> np.ndarray:
    """``cheb2poly``: the monomial coefficients of the Chebyshev series c,
    by its downward recurrence on the two highest terms."""
    c = _trimseq(np.asarray(c, dtype=float))
    if c.size < 3:
        return c.copy()
    c0, c1 = c[-2:-1], c[-1:]
    for i in range(c.size - 1, 1, -1):
        c0, c1 = _polyadd(c[i - 2 : i - 1], -c1), _polyadd(c0, _polymulx(c1) * 2)
    return _polyadd(c0, _polymulx(c1))


def _eigvals_sorted(mat: np.ndarray) -> np.ndarray:
    """mat's eigenvalues, sorted in place as numpy's root finders sort them."""
    r = np.linalg.eigvals(mat)
    r.sort()
    return r


def _chebroots(c: np.ndarray) -> np.ndarray:
    """``chebroots(c)``: the eigenvalues of the colleague matrix of
    ``chebcompanion``, taken rotated a half turn, sorted."""
    c = _trimseq(c)
    if c.size < 2:
        return np.zeros(0)
    if c.size == 2:
        return np.array([-c[0] / c[1]])
    n = c.size - 1
    mat = np.zeros((n, n))
    scl = np.full(n, _SQRT_HALF)
    scl[0] = 1.0
    top, bot = mat.reshape(-1)[1 :: n + 1], mat.reshape(-1)[n :: n + 1]
    top[0] = _SQRT_HALF
    top[1:] = 1 / 2
    bot[...] = top
    mat[:, -1] -= (c[:-1] / c[-1]) * (scl / scl[-1]) * 0.5
    return _eigvals_sorted(mat[::-1, ::-1])


def _polyroots(c: np.ndarray) -> np.ndarray:
    """``polyroots(c)``, real or complex c: the eigenvalues of its companion
    matrix, sorted."""
    c = _trimseq(c)
    if c.size < 2:
        return np.zeros(0, dtype=c.dtype)
    if c.size == 2:
        return np.array([-c[0] / c[1]])
    n = c.size - 1
    mat = np.zeros((n, n), dtype=c.dtype)
    mat.reshape(-1)[n :: n + 1] = 1
    mat[:, -1] -= c[:-1] / c[-1]
    return _eigvals_sorted(mat)


def _top(c: np.ndarray) -> int:
    """Index of the last entry above rounding of the largest, or 0.  Terms past
    it move f by less than its evaluation error on the domain, yet a tiny
    leading coefficient would ruin the companion matrix and its roots."""
    a = np.abs(c)
    keep = (a > _EPS * a.max(initial=0.0)).nonzero()[0]
    return int(keep[-1]) if keep.size else 0


def _real_zeros(cheb: np.ndarray) -> np.ndarray:
    """Real zeros of the Chebyshev series with coefficients ``cheb``, from
    its colleague matrix (``_chebroots``) after the terms below rounding
    are dropped (``_top``)."""
    top = _top(cheb)
    roots = _chebroots(cheb[: top + 1]) if top else np.zeros(0)
    return roots.real[np.abs(roots.imag) <= _ROOT_SLACK]


def _circle_zeros(t) -> np.ndarray:
    """Angles of the real zeros of a trigonometric polynomial t: with
    z = e^(ix), the roots on the unit circle of the polynomial z^n t."""
    a = np.asarray(t.cos_coeffs)
    b = np.concatenate([[0.0], t.sin_coeffs])
    n = _top(np.maximum(np.abs(a), np.abs(b)))
    half = (a[1 : n + 1] - 1j * b[1 : n + 1]) / 2.0
    z = _polyroots(np.concatenate([np.conj(half)[::-1], a[:1], half])) if n else np.zeros(0)
    return np.angle(z[np.abs(np.abs(z) - 1.0) <= _ROOT_SLACK])


def _kept(break_points):
    """Decorates ``break_points()``: the first call computes them, on the
    natural domain, and later calls return that array, read-only.  Lazy, as
    ``RationalRep.derivative`` sets ``_den_base`` after construction."""

    @functools.wraps(break_points)
    def kept(self) -> np.ndarray:
        if "_break_points" not in self.__dict__:
            xs = break_points(self)
            xs.flags.writeable = False
            self._break_points = xs
        return self._break_points

    return kept


def _breaks(f, *zeros) -> np.ndarray:
    """The ends of f's natural domain and the given points inside, sorted
    and distinct."""
    lo, hi = f.natural_domain.lo, f.natural_domain.hi
    inner = np.concatenate([np.zeros(0), *zeros])
    return _sorted_distinct(np.concatenate([[lo, hi], inner[(inner > lo) & (inner < hi)]]))


# a batch of at most this many points is evaluated on Python floats: a numpy
# operation costs about 0.5 us whatever its length, and floats were faster
# below 20 to 30 points at degrees 6 to 26 (a degree-26 Horner took 2.7 us
# on one point and 16 us on 16 on floats, 26 us or more in numpy, on a
# 2-vCPU x86 machine)
_FLOAT_POINTS = 16


def _on_floats(xs: np.ndarray, value) -> np.ndarray:
    """``value(x)`` at each point of xs, each on Python floats, in xs's
    shape; one numpy float for a 0-d xs."""
    return np.array([value(x) for x in xs.ravel().tolist()]).reshape(xs.shape)[()]


def _horner(xs: np.ndarray, c) -> np.ndarray:
    """``polyval(xs, c)``, operation for operation: x * 0 + c[-1], then for
    each lower coefficient a product with x and a sum.  A batch of at most
    _FLOAT_POINTS points runs on Python floats, the same IEEE operations in
    the same order, and a larger one in place on one array.  A 0-d xs gives
    a numpy float, as ``polyval``."""
    if xs.size <= _FLOAT_POINTS:
        top, lower = c[-1], tuple(c[-2::-1])

        def value(x):
            v = x * 0.0 + top
            for ck in lower:
                v = v * x + ck
            return v

        return _on_floats(xs, value)
    out = xs * 0.0
    out += c[-1]
    for ck in c[-2::-1]:
        out *= xs
        out += ck
    return out


def _clenshaw(xs: np.ndarray, c) -> np.ndarray:
    """``chebval(xs, c)``, operation for operation and operand for operand:
    from c0, c1 = c[-2], c[-1] (c[0], 0 for one term), each lower
    coefficient makes c0, c1 = c[k] - c1, c0 + c1 (2x), and the value is
    c0 + c1 x.  A batch of at most _FLOAT_POINTS points runs on Python
    floats, and a larger one in place on three arrays.  A 0-d xs gives a
    numpy float, as ``chebval``."""
    if xs.size <= _FLOAT_POINTS:
        c = c.tolist()
        first, top, lower = (c[0], 0.0, ()) if len(c) == 1 else (c[-2], c[-1], c[-3::-1])

        def value(x):
            c0, c1, x2 = first, top, 2.0 * x
            for ck in lower:
                c0, c1 = ck - c1, c0 + c1 * x2
            return c0 + c1 * x

        return _on_floats(xs, value)
    c0, c1 = np.full(xs.shape, c[0] if len(c) == 1 else c[-2]), np.full(xs.shape, 0.0 if len(c) == 1 else c[-1])
    t = np.empty(xs.shape)
    x2 = 2.0 * xs
    for ck in c[-3::-1]:
        np.add(c0, np.multiply(c1, x2, out=t), out=t)
        np.subtract(ck, c1, out=c0)
        c1, t = t, c1
    c1 *= xs
    return np.add(c0, c1, out=c1)


class PolynomialRep:
    """Algebraic polynomial in monomial coefficients, low degree first.

    Large cancelling monomial coefficients (orthogonal families, Chebyshev
    polynomials) make Horner evaluation lose digits in proportion to the
    coefficient magnitude.  Constructors that build an accurate Chebyshev
    expansion (``jacobi22``, ``chebyshev_t``) pass it as ``cheb`` and derive
    the monomial ``coeffs`` from it with ``cheb2poly``; evaluation then runs
    through Clenshaw, which is backward stable on the interval.  Monomial
    input without ``cheb`` evaluates by Horner at every degree.  Both,
    ``_horner`` and ``_clenshaw``, run in the order of numpy's ``polyval``
    and ``chebval``, on Python floats for at most _FLOAT_POINTS points and
    in place on a few arrays of x's shape for more: a value's bits are
    theirs, at every x, inf and NaN among them.
    """

    kind = "polynomial"

    def __init__(self, coeffs, cheb=None):
        self.coeffs = _trim(_check_coeffs(coeffs))
        if cheb is not None:
            arr = np.asarray(cheb, dtype=float)
            self._cheb = arr if arr.size else np.zeros(1)
        else:
            self._cheb = None

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient; -1 marks the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def natural_domain(self) -> Domain:
        return Domain.interval()

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        if not self.coeffs:
            return np.zeros(xs.shape)
        if self._cheb is not None:
            return _clenshaw(xs, self._cheb)
        return _horner(xs, self.coeffs)

    def derivative(self, order: int = 1) -> "PolynomialRep":
        if order < 0:
            raise RejectedInputError("derivative order must be nonnegative")
        c = np.asarray(self.coeffs) if self.coeffs else np.zeros(1)
        cheb = self._cheb
        for _ in range(order):
            c = _polyder(c)
            if cheb is not None:
                cheb = _chebder(cheb) if cheb.size > 1 else np.zeros(1)
        return PolynomialRep(_check_overflow(c), cheb=cheb)

    @_kept
    def break_points(self) -> np.ndarray:
        """Domain ends and the real zeros of f and f' inside; |f| is monotone between."""
        cheb = self._cheb if self._cheb is not None else _poly2cheb(self.coeffs or (0.0,))
        return _breaks(self, _real_zeros(cheb), _real_zeros(_chebder(cheb)))

    def __eq__(self, other):
        return isinstance(other, PolynomialRep) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"PolynomialRep({list(self.coeffs)!r})"


class TrigPolynomialRep:
    """a0 + sum a_k cos(kx) + b_k sin(kx) on the circle."""

    kind = "trig"

    def __init__(self, cos_coeffs, sin_coeffs):
        a = [float(v) for v in cos_coeffs]
        b = [float(v) for v in sin_coeffs]
        if not a:
            a = [0.0]
        if len(b) != len(a) - 1:
            raise RejectedInputError(f"need one sine coefficient per k >= 1: got {len(a)} cosine and {len(b)} sine coefficients")
        _check_coeffs(a)
        _check_coeffs(b)
        n = len(a) - 1
        while n >= 1 and a[n] == 0.0 and b[n - 1] == 0.0:
            a.pop()
            b.pop()
            n -= 1
        self.cos_coeffs = tuple(a)
        self.sin_coeffs = tuple(b)

    @property
    def degree(self) -> int:
        n = len(self.cos_coeffs) - 1
        if n == 0:
            return 0 if self.cos_coeffs[0] != 0.0 else -1
        return n

    @property
    def natural_domain(self) -> Domain:
        return Domain.circle()

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        n = len(self.cos_coeffs) - 1
        out = np.full(xs.shape, self.cos_coeffs[0])
        if n >= 1:
            k = np.arange(1, n + 1, dtype=float)
            kx = xs[..., None] * k
            out = out + np.cos(kx) @ np.asarray(self.cos_coeffs[1:])
            out = out + np.sin(kx) @ np.asarray(self.sin_coeffs)
        return out

    def derivative(self, order: int = 1) -> "TrigPolynomialRep":
        if order < 0:
            raise RejectedInputError("derivative order must be nonnegative")
        a = list(self.cos_coeffs)
        b = list(self.sin_coeffs)
        for _ in range(order):
            n = len(a) - 1
            new_a = [0.0] + [k * b[k - 1] for k in range(1, n + 1)]
            new_b = [-k * a[k] for k in range(1, n + 1)]
            a, b = new_a, new_b
        return TrigPolynomialRep(a, b)

    @_kept
    def break_points(self) -> np.ndarray:
        """Domain ends and the real zeros of f and f' inside; |f| is monotone between."""
        angles = np.concatenate([_circle_zeros(self), _circle_zeros(self.derivative())])
        return _breaks(self, np.mod(angles, 2.0 * np.pi))

    def __eq__(self, other):
        return (
            isinstance(other, TrigPolynomialRep)
            and self.cos_coeffs == other.cos_coeffs
            and self.sin_coeffs == other.sin_coeffs
        )

    def __repr__(self):
        return f"TrigPolynomialRep({list(self.cos_coeffs)!r}, {list(self.sin_coeffs)!r})"


class RationalRep:
    """Quotient of two polynomials; callers must keep the denominator pole-free.

    ``_den_base`` = (s, k), monomial coefficients of s and an integer k >= 1,
    says that den = s^k: s = den and k = 1 unless ``derivative`` built it.
    The critical points are the zeros of p' s - k p s', which is p'q - pq'
    with its factor s^(k-1) removed: those multiple roots at the poles would
    spread under the colleague matrix and move the others.
    """

    kind = "rational"

    def __init__(self, num: PolynomialRep, den: PolynomialRep):
        if isinstance(num, (list, tuple)):
            num = PolynomialRep(num)
        if isinstance(den, (list, tuple)):
            den = PolynomialRep(den)
        if den.degree < 0:
            raise DegenerateInputError("denominator is the zero polynomial")
        self.num = num
        self.den = den
        self._den_base = (np.asarray(den.coeffs), 1)

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    @property
    def natural_domain(self) -> Domain:
        return Domain.interval()

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        dv = self.den(xs)
        tiny = np.abs(dv) < 1e-14
        if tiny.any():
            idx = int(np.argmax(tiny))
            bad = float(np.ravel(xs)[idx])
            raise PoleProximityError(
                f"denominator magnitude below 1e-14 at x = {bad!r}", abscissa=bad
            )
        return self.num(xs) / dv

    def derivative(self, order: int = 1) -> "RationalRep":
        """The r-th derivative of p/s^j as N_r / s^(j+r), from N_0 = p and
        (N / s^k)' = (N' s - k N s') / s^(k+1), s^j the denominator's base."""
        if order < 0:
            raise RejectedInputError("derivative order must be nonnegative")
        num = np.asarray(self.num.coeffs) if self.num.coeffs else np.zeros(1)
        den = np.asarray(self.den.coeffs)
        s, j = self._den_base
        ds = _polyder(s) if s.size > 1 else np.zeros(1)
        for k in range(j, j + order):
            dn = _polyder(num) if num.size > 1 else np.zeros(1)
            num = _polyadd(_polymul(dn, s), -(k * _polymul(num, ds)))
            den = _polymul(den, s)
            _check_overflow(num)
            _check_overflow(den)
        out = RationalRep(PolynomialRep(num), PolynomialRep(den))
        out._den_base = (s, j + order)
        return out

    @_kept
    def break_points(self) -> np.ndarray:
        """Domain ends and the real zeros of p and of p' s - k p s' inside,
        for f = p / s^k."""
        p, (s, k) = np.array(self.num.coeffs or (0.0,)), self._den_base
        crit = _polyadd(_polymul(_polyder(p), s), -_polymul(np.array([float(k)]), _polymul(p, _polyder(s))))
        return _breaks(self, _real_zeros(_poly2cheb(p)), _real_zeros(_poly2cheb(crit)))

    def __eq__(self, other):
        return (
            isinstance(other, RationalRep)
            and self.num == other.num
            and self.den == other.den
        )

    def __repr__(self):
        return f"RationalRep({self.num!r}, {self.den!r})"


def _product(cs) -> np.ndarray:
    """The product of the coefficient arrays cs, from 1, left to right."""
    out = np.ones(1)
    for c in cs:
        out = _polymul(out, c)
    return out


def _log_derivative(factors):
    """Monomial coefficients of N and D with
    sum_j r_j (x - a_j) / |x - z_j|^2 = N / D.

    A real node (b = 0) gives its term as r / (x - a): the linear factor
    x - a in D and r in N, so that N and D share no factor there.  N sums,
    from 0, each term's r_j (x - a_j) times the other terms' factors.
    """
    nums, dens = [], []
    for a, b, r in factors:
        line = np.array([-a, 1.0])
        if b == 0.0:
            nums.append(np.array([r]))
            dens.append(line)
        else:
            nums.append(_polymul(np.array([r]), line))
            dens.append(np.array([a * a + b * b, -2.0 * a, 1.0]))
    num = np.zeros(1)
    for j, n in enumerate(nums):
        num = _polyadd(num, _polymul(n, _product(dens[:j] + dens[j + 1 :])))
    return num, _product(dens)


class GapRep:
    """Product of |x - z_j|^(r_j) with finite z_j = a_j + i b_j and finite
    real r_j >= 1."""

    kind = "gap"

    def __init__(self, factors):
        fs = []
        for a, b, r in factors:
            a, b, r = float(a), float(b), float(r)
            if not all(map(math.isfinite, (a, b, r))):
                raise RejectedInputError(f"factor node and exponent must be finite, got {(a, b, r)!r}")
            if not (r >= 1.0):
                raise RejectedInputError(f"factor exponent must be >= 1, got {r!r}")
            fs.append((a, b, r))
        if not fs:
            raise RejectedInputError("need at least one factor")
        self.factors = tuple(fs)

    @property
    def degree(self) -> float:
        """Sum of exponents; real-valued by design."""
        return sum(r for _a, _b, r in self.factors)

    @property
    def natural_domain(self) -> Domain:
        return Domain.interval()

    def log_abs(self, x):
        xs = np.asarray(x, dtype=float)
        out = np.zeros(xs.shape)
        with np.errstate(divide="ignore"):
            for a, b, r in self.factors:
                out = out + 0.5 * r * np.log((xs - a) ** 2 + b * b)
        return out

    def __call__(self, x):
        return np.exp(self.log_abs(x))

    def derivative(self, order: int = 1) -> "GapDerivative":
        """Q' by logarithmic differentiation; only the first order is available."""
        if order != 1:
            raise RejectedInputError("only first derivatives are available for gap products")
        return GapDerivative(self)

    @_kept
    def break_points(self) -> np.ndarray:
        """Domain ends, real nodes and the real zeros of the log-derivative inside."""
        nodes = [a for a, b, _r in self.factors if b == 0.0]
        return _breaks(self, nodes, _real_zeros(_poly2cheb(_log_derivative(self.factors)[0])))

    def __eq__(self, other):
        return isinstance(other, GapRep) and self.factors == other.factors

    def __repr__(self):
        return f"GapRep({list(self.factors)!r})"


class InversePowerRep:
    """(1 - x)^(-q) on [-1, 1]: the model integrable singularity.

    It carries its domain, [-1, 1]: ``break_points()``, ``singular_end()``
    and the norms take none, and ``lp_quasinorm``'s ``domain`` must be it.
    Unbounded at the right endpoint, whose power q it reports as its
    ``singular_end``: the integrals of |f| take the piece next to it in
    y = -log(1 - x), where log|f| = q y, and the part of that piece where
    |f| > w is w^(-1/q) long.  ``sup_norm`` rejects it; its distribution
    function is finite at every level.  ||f||_beta is finite exactly when
    q * beta < 1; ``lp_quasinorm`` at q * beta >= 1 raises
    ScanDivergenceError before integrating.
    """

    kind = "inverse-power"

    def __init__(self, q: float):
        q = float(q)
        if not (0.0 < q < math.inf):
            raise RejectedInputError(f"exponent must be positive and finite, got {q!r}")
        self.q = q

    @property
    def natural_domain(self) -> Domain:
        return Domain.interval()

    def log_abs(self, x):
        xs = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return -self.q * np.log(1.0 - xs)

    def __call__(self, x):
        return np.exp(self.log_abs(x))

    @_kept
    def break_points(self) -> np.ndarray:
        """The domain ends: f increases on the whole interval."""
        return _breaks(self)

    def singular_end(self) -> float:
        """The power q of |f| = distance^-q to the right endpoint."""
        return self.q

    def __eq__(self, other):
        return isinstance(other, InversePowerRep) and self.q == other.q

    def __repr__(self):
        return f"InversePowerRep({self.q!r})"


class GapDerivative:
    """First derivative of a GapRep via logarithmic differentiation.

    Q'(x) = Q(x) * sum_j r_j (x - a_j) / |x - z_j|^2.  Real nodes inside the
    interval with unit exponent make |x - a_j| non-differentiable, so those
    inputs are rejected at construction.
    """

    def __init__(self, rep: GapRep):
        for a, b, r in rep.factors:
            if b == 0.0 and abs(a) <= 1.0 and r == 1.0:
                raise RejectedInputError(
                    f"factor |x - {a!r}| with unit exponent and real node inside "
                    "the interval is not differentiable there"
                )
        self.rep = rep

    @property
    def natural_domain(self) -> Domain:
        return Domain.interval()

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        s = np.zeros(xs.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            for a, b, r in self.rep.factors:
                s = s + r * (xs - a) / ((xs - a) ** 2 + b * b)
        q = self.rep(xs)
        # Q vanishes only at a real node, where its exponent r > 1 takes Q'
        # to 0 while the node's term of the sum is 0/0
        return np.where(q == 0.0, 0.0, q * s)

    @_kept
    def break_points(self) -> np.ndarray:
        """Domain ends, real nodes, and the real zeros of S and S^2 + S' inside.

        With S = N / D the log-derivative of Q, f = Q S and f' = Q (S^2 + S'),
        and S^2 + S' = (N^2 + N'D - N D') / D^2.
        """
        num, den = _log_derivative(self.rep.factors)
        crit = _polyadd(_polyadd(_polymul(num, num), _polymul(_polyder(num), den)), -_polymul(num, _polyder(den)))
        nodes = [a for a, b, _r in self.rep.factors if b == 0.0]
        return _breaks(self, nodes, _real_zeros(_poly2cheb(num)), _real_zeros(_poly2cheb(crit)))

    def derivative(self, order: int = 1):
        """Q'' = Q (S^2 + S') as a vectorized callable; only this order is available."""
        if order != 1:
            raise RejectedInputError("only the first two derivatives are available for gap products")
        return self._second

    def _second(self, x):
        """Q'' by the product rule over the factors u_j = |x - z_j|^(r_j),
        whose derivatives keep their limits at a real node, where Q = 0."""
        xs = np.asarray(x, dtype=float)
        u, du, d2u = [], [], []
        with np.errstate(divide="ignore", invalid="ignore"):
            for a, b, r in self.rep.factors:
                d = xs - a
                if b == 0.0:
                    u.append(np.abs(d) ** r)
                    du.append(r * np.sign(d) * np.abs(d) ** (r - 1.0))
                    d2u.append(r * (r - 1.0) * np.abs(d) ** (r - 2.0))
                else:
                    q = d * d + b * b
                    u.append(q ** (0.5 * r))
                    du.append(r * d * q ** (0.5 * r - 1.0))
                    d2u.append(r * q ** (0.5 * r - 2.0) * ((r - 1.0) * d * d + b * b))
            m, out = len(u), np.zeros(xs.shape)
            for j in range(m):
                out = out + d2u[j] * math.prod(u[i] for i in range(m) if i != j)
                for k in range(j + 1, m):
                    out = out + 2.0 * du[j] * du[k] * math.prod(u[i] for i in range(m) if i not in (j, k))
        return out


def derivative(rep, order: int = 1):
    """Derivative within the same family; a GapRep's is a GapDerivative."""
    return rep.derivative(order)


def _jacobi22_next(pm1: np.ndarray, pm2: np.ndarray, n: int) -> np.ndarray:
    # three-term recurrence for weight (1-x^2)^2, i.e. both exponents equal 2,
    # on Chebyshev coefficients: x T_k = (T_{k+1} + T_{k-1}) / 2
    a = 2.0 * n * (n + 4) * (2 * n + 2)
    b = (2 * n + 3) * (2 * n + 4) * (2 * n + 2)
    c = 2.0 * (n + 1) * (n + 1) * (2 * n + 4)
    out = np.concatenate([pm1, [0.0]])
    _chebmulx(out, pm1.size)
    out = b * out
    out[: len(pm2)] -= c * pm2
    return out / a


def _integer(n, name: str = "degree", lo: float = 0, hi: float = math.inf) -> int:
    """n as an int; RejectedInputError naming it unless it is an integer in [lo, hi]."""
    if not (math.isfinite(n) and int(n) == n and lo <= n <= hi):
        raise RejectedInputError(f"{name} must be an integer in [{lo}, {hi}], got {n!r}")
    return int(n)


def jacobi22(n: int) -> PolynomialRep:
    """Ultraspherical polynomial with both weight exponents 2, degree n <= 200.

    One three-term recurrence run on Chebyshev coefficients for every
    degree; it is backward stable on the interval, so evaluation (Clenshaw)
    stays at roundoff level.  The monomial ``coeffs`` are derived from the
    Chebyshev expansion by ``cheb2poly``.
    """
    pm2, pm1 = np.zeros(0), np.array([1.0])
    for k in range(1, _integer(n, hi=200) + 1):
        pm2, pm1 = pm1, _jacobi22_next(pm1, pm2, k)
    return PolynomialRep(_cheb2poly(pm1), cheb=pm1)


def chebyshev_t(n: int) -> PolynomialRep:
    """Chebyshev polynomial of the first kind in monomial coefficients."""
    n = _integer(n)
    c = np.zeros(n + 1)
    c[n] = 1.0
    return PolynomialRep(_cheb2poly(c), cheb=c)


class PoleCheck:
    def __init__(self, pole_free: bool, certified_min: float, witness: float | None):
        self.pole_free = pole_free
        self.certified_min = certified_min
        self.witness = witness

    def __bool__(self):
        return self.pole_free


def check_no_poles(rat: RationalRep) -> PoleCheck:
    """Certify that the denominator stays away from zero on [-1, 1].

    |den| is monotone between its break points, so its minimum over the
    interval is its least value at one of them.  The threshold combines the
    coefficient-scaled floor with an absolute floor of 1e-7.  Anything but
    a RationalRep raises RejectedInputError.
    """
    if not isinstance(rat, RationalRep):
        raise RejectedInputError(f"check_no_poles takes a RationalRep, got {type(rat).__name__}")
    den = rat.den
    threshold = max(1e-9 * (1.0 + float(np.max(np.abs(den.coeffs)))), 1e-7)
    xs = den.break_points()
    vals = np.abs(den(xs))
    i = int(np.argmin(vals))
    ok = bool(vals[i] > threshold)
    return PoleCheck(ok, float(vals[i]), None if ok else float(xs[i]))


RANDOM_FAMILIES = ("polynomial", "trig", "rational", "gap")


def random_family(kind: str, n: int, seed: int):
    """Deterministic random representative of the given family and degree."""
    if kind not in RANDOM_FAMILIES:
        raise RejectedInputError(f"unknown family {kind!r}; expected one of {RANDOM_FAMILIES}")
    n = _integer(n, lo=1)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=_integer(seed, "seed"), spawn_key=(RANDOM_FAMILIES.index(kind), n)))
    if kind == "polynomial":
        c = rng.uniform(-1.0, 1.0, size=n + 1)
        if abs(c[n]) < 0.1:
            c[n] = 0.1 if c[n] >= 0 else -0.1
        return PolynomialRep(c)
    if kind == "trig":
        a = rng.uniform(-1.0, 1.0, size=n + 1)
        b = rng.uniform(-1.0, 1.0, size=n)
        if max(abs(a[n]), abs(b[n - 1])) < 0.1:
            a[n] = 0.5
        return TrigPolynomialRep(a, b)
    if kind == "rational":
        num = rng.uniform(-1.0, 1.0, size=max(1, n))
        if num[-1] == 0.0:
            num[-1] = 0.3
        den = np.array([1.0])
        deg_left = n
        while deg_left >= 2:
            c = rng.uniform(0.3, 2.0)
            den = _polymul(den, np.array([c, 0.0, 1.0]))
            deg_left -= 2
        if deg_left == 1:
            d = rng.uniform(1.5, 3.0) * rng.choice([-1.0, 1.0])
            den = _polymul(den, np.array([-d, 1.0]))
        return RationalRep(PolynomialRep(num), PolynomialRep(den))
    count = min(3, n)
    base = [1.0] * count
    extra = float(n - count)
    weights = rng.dirichlet(np.ones(count))
    exps = [base[i] + extra * weights[i] for i in range(count)]
    # nudge so the exponent sum is exactly n despite float dirichlet round-off
    exps[-1] += n - sum(exps)
    factors = [
        (rng.uniform(-1.2, 1.2), rng.uniform(0.3, 1.5), exps[i]) for i in range(count)
    ]
    return GapRep(factors)


def _floats(parts):
    # commas or whitespace both separate; to_text emits commas
    return [float(s) for s in parts.replace(",", " ").split()]


def to_text(rep) -> str:
    """Serialize a representation; floats use repr so parsing is exact.  A
    type without a text form raises RejectedInputError."""
    if isinstance(rep, PolynomialRep):
        return "poly:" + ",".join(repr(c) for c in (rep.coeffs or (0.0,)))
    if isinstance(rep, TrigPolynomialRep):
        a = ",".join(repr(c) for c in rep.cos_coeffs)
        b = ",".join(repr(c) for c in rep.sin_coeffs)
        return f"trig:{a}|{b}"
    if isinstance(rep, RationalRep):
        num = ",".join(repr(c) for c in (rep.num.coeffs or (0.0,)))
        den = ",".join(repr(c) for c in rep.den.coeffs)
        return f"rational:{num}|{den}"
    if isinstance(rep, GapRep):
        return "gap:" + ";".join(f"{a!r},{b!r},{r!r}" for a, b, r in rep.factors)
    raise RejectedInputError(f"cannot serialize {type(rep).__name__}")


def from_text(text: str):
    """Parse the text form produced by to_text."""
    if ":" not in text:
        raise RejectedInputError(f"malformed function text {text!r}: missing kind prefix")
    kind, _, body = text.partition(":")
    kind = kind.strip()
    body = body.strip()
    try:
        if kind == "poly":
            return PolynomialRep(_floats(body))
        if kind == "trig":
            a, _, b = body.partition("|")
            return TrigPolynomialRep(_floats(a), _floats(b))
        if kind == "rational":
            num, _, den = body.partition("|")
            return RationalRep(PolynomialRep(_floats(num)), PolynomialRep(_floats(den)))
        if kind == "gap":
            factors = []
            for part in body.split(";"):
                a, b, r = _floats(part)
                factors.append((a, b, r))
            return GapRep(factors)
    except ValueError as exc:
        raise RejectedInputError(f"malformed {kind!r} function text: {exc}") from exc
    raise RejectedInputError(f"unknown function kind {kind!r}")
