"""The benchmark's workloads: seeded inputs, timed items and their oracles.

A workload object is built from a seed (that construction is the set-up the
benchmark times) and hands out ``items``: the list one pass of a run
executes.  A run makes several passes over the same list.  Each item has a
timed ``call`` and an untimed ``check`` that returns a problem description,
or None when the value passes its oracle.  Oracles use their own
``NormContext`` so that checking never warms or extends the caches the
timed items use.

``band`` and ``lorentz`` call the library in this process; ``cli`` runs
every item as an ``orlimark`` subprocess through ``launch.py``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P

from orlimark import (
    GapRep,
    NormContext,
    PolynomialRep,
    RationalRep,
    TrigPolynomialRep,
    build_corpus,
    equivalence_constants,
    g_norm,
    log_power,
    lorentz_norm,
    lp_quasinorm,
    luxemburg_norm,
    power_log,
    psi,
    random_family,
    weighted_lorentz_g,
)
from orlimark.norms import g_norm_info

HERE = Path(__file__).resolve().parent
SLACK = 1e-6
IDENTITY_TOL = 1e-6  # Lorentz at p = b against L_p
LP_EXACT_TOL = 1e-9  # cli norm lp=2 against the exact polynomial integral
PSI_TOL = 1e-6  # cli transform against the closed-form weight


@dataclass
class Item:
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


def _positive(value) -> "str | None":
    if not (math.isfinite(value) and value > 0.0):
        return f"value {value!r} is not finite and positive"
    return None


def _rel_close(value: float, want: float, tol: float) -> "str | None":
    if not abs(value - want) <= tol * abs(want):
        return f"value {value!r} differs from {want!r} by more than {tol:g} relative"
    return None


# ---------------------------------------------------------------------------
# band: Luxemburg and grand norms over the equivalence corpus


def band_oracle(b: float, g: float, lower_log: float, upper_log: float) -> "str | None":
    """C3^-1 <= B/G <= e^2 C4 with the slack ``equivalence_band`` applies."""
    problem = _positive(b) or _positive(g)
    if problem:
        return problem
    log_ratio = math.log(b) - math.log(g)
    slack = math.log1p(SLACK)
    if not (lower_log - slack <= log_ratio <= upper_log + slack):
        return f"log(B/G) = {log_ratio!r} outside [{lower_log!r}, {upper_log!r}]"
    return None


def _vary(f, scale: float, mirror: bool):
    """c * f(x), or c * f(-x) when mirrored; gap products are only mirrored.

    Both change the work far less than a new shape would: the tolerances
    are relative, and [-1, 1] and its panels are symmetric, though root
    solves and scans may take other paths.  A trig member on the circle
    is mirrored by flipping its sine coefficients, f(-x) = f(2 pi - x).
    """
    if isinstance(f, GapRep):
        return GapRep([(-a, b, r) for a, b, r in f.factors]) if mirror else f
    sign = -1.0 if mirror else 1.0
    if isinstance(f, PolynomialRep):
        c = np.asarray(f.coeffs)
        return PolynomialRep(scale * c * sign ** np.arange(c.size))
    if isinstance(f, TrigPolynomialRep):
        return TrigPolynomialRep(scale * np.asarray(f.cos_coeffs), scale * sign * np.asarray(f.sin_coeffs))
    num = np.asarray(f.num.coeffs)
    den = np.asarray(f.den.coeffs)
    flip = sign ** np.arange(max(num.size, den.size))
    return RationalRep(PolynomialRep(scale * num * flip[: num.size]), PolynomialRep(den * flip[: den.size]))


class Band:
    """luxemburg_norm and g_norm_info for three phi over the equivalence corpus.

    One pass is the whole corpus: 60 members x 3 phi x 2 norms = 360 items.
    The members are those of ``build_corpus(SHAPE_SEED)``; for each member
    and phi the run's seed draws a scale factor and mirrors x -> -x on a
    coin flip (gap products cannot be scaled, so they are only mirrored).
    With ``build_corpus(seed)`` the p90 item latency spread 25% between
    quartiles over ten seeds against 14% for the median, because each
    seed's slowest members differ; scaling and mirroring change every value
    the oracles check and a member's work much less than a new shape does.
    One draw per member, shared by the three phi, still left p90 spreading
    12 to 13% over ten seeds: 180 draws average the slow items' costs
    better than 60.  The small pass keeps six members of every kind and
    degree range.
    """

    name = "band"
    tail_q = 0.9
    pass_budget_s = 20
    SHAPE_SEED = 7

    def __init__(self, seed: int, small: bool = False):
        rng = np.random.default_rng(seed)
        corpus = build_corpus(self.SHAPE_SEED)
        self.phis = [power_log(1.0), power_log(2.0), log_power(1.0)]
        scales = rng.uniform(0.5, 2.0, size=(len(corpus), len(self.phis)))
        mirrors = rng.random((len(corpus), len(self.phis))) < 0.5
        self.corpus = [
            (label, [_vary(f, c, m) for c, m in zip(cs, ms)]) for (label, f), cs, ms in zip(corpus, scales, mirrors)
        ]
        if small:
            self.corpus = self.corpus[::10]
        self.ctx = NormContext()
        for phi in self.phis:
            self.ctx.orlicz(phi)
            self.ctx.conjugates(phi)
        self._edges: dict[str, tuple[float, float]] = {}
        self._b: dict[tuple[str, str], float] = {}

    def _band_edges(self, phi):
        if phi.label not in self._edges:
            consts = equivalence_constants(NormContext().orlicz(phi))
            self._edges[phi.label] = (-math.log(consts.g_over_b), 2.0 + consts.b_over_g_log)
        return self._edges[phi.label]

    def _pair(self, label, f, phi):
        n_func = self.ctx.orlicz(phi)
        cache = self.ctx.conjugates(phi)
        key = (phi.label, label)

        def check_b(b):
            self._b[key] = b
            return _positive(b)

        def check_g(info):
            return band_oracle(self._b.pop(key, math.nan), info.value, *self._band_edges(phi))

        return [
            Item(f"lux {phi.label} {label}", lambda: luxemburg_norm(f, n_func), check_b),
            Item(f"gnorm {phi.label} {label}", lambda: g_norm_info(f, phi, cache=cache), check_g),
        ]

    def items(self) -> list[Item]:
        return [
            item for label, fs in self.corpus for phi, f in zip(self.phis, fs) for item in self._pair(label, f, phi)
        ]

    @staticmethod
    def value(result):
        """What must repeat bit for bit between traced and untraced passes."""
        if hasattr(result, "tolerance_met"):
            return (result.value, result.p_star, result.tolerance_met, result.extensions)
        return result


# ---------------------------------------------------------------------------
# lorentz: distribution-function norms of polynomials


def lorentz_identity_oracle(value: float, lp: float) -> "str | None":
    """||f||_{p,p} = ||f||_p."""
    return _positive(value) or _rel_close(value, lp, IDENTITY_TOL)


def weak_oracle(value: float, lp: float) -> "str | None":
    """Chebyshev: ||f||_{p,inf} <= ||f||_p."""
    if not (math.isfinite(value) and 0.0 <= value <= lp * (1.0 + IDENTITY_TOL)):
        return f"weak norm {value!r} exceeds L_p = {lp!r}"
    return None


def weighted_weak_oracle(value: float, g: float) -> "str | None":
    """sup_p ||f||_{p,inf}/psi(p) <= sup_p ||f||_p/psi(p) = G."""
    if not (math.isfinite(value) and 0.0 < value <= g * (1.0 + IDENTITY_TOL)):
        return f"weighted weak norm {value!r} exceeds the grand norm {g!r}"
    return None


def weighted_two_oracle(value: float, at_two: float) -> "str | None":
    """The sup over p >= 1 is at least its term at p = b = 2, ||f||_2/psi(2)."""
    if not (math.isfinite(value) and value >= at_two * (1.0 - IDENTITY_TOL)):
        return f"weighted Lorentz norm {value!r} is below its p = 2 term {at_two!r}"
    return None


class Lorentz:
    """lorentz_norm and weighted_lorentz_g on polynomials of spread degrees.

    One pass is twelve items, each on its own polynomial: the identities
    p = b in {1, 2, 3} on seven polynomials, the weak form at p = 3 on
    three, and weighted_lorentz_g at b = 2 and b = inf on one each.  Twelve
    items rather than six put the median between two identity items of
    similar cost instead of between items a factor of two apart.

    The shapes are ``random_family("polynomial", n, SHAPE_SEED)``; the run's
    seed draws a scale factor for each.  The adaptive layer-cake integral
    costs whatever the kinks of T(w) make it: one identity item took 0.28 s
    on one seed's polynomial and 2.0 s on another's, so six items on
    seed-drawn shapes cannot give steady figures in a 20 s run.  Scaling
    changes the work far less and still varies every value the oracles
    check.
    """

    name = "lorentz"
    tail_q = 0.5
    pass_budget_s = 20
    PLAN = (
        ("id", 1.0, 4),
        ("id", 2.0, 30),
        ("id", 3.0, 12),
        ("weak", 3.0, 24),
        ("w2", 2.0, 8),
        ("winf", math.inf, 16),
        ("id", 1.0, 20),
        ("id", 2.0, 6),
        ("id", 3.0, 26),
        ("weak", 3.0, 10),
        ("id", 2.0, 14),
        ("weak", 3.0, 18),
    )
    SMALL_PLAN = (("id", 2.0, 3), ("weak", 3.0, 3))
    SHAPE_SEED = 7

    def __init__(self, seed: int, small: bool = False):
        self.phi = power_log(2.0)
        self.ctx = NormContext()
        self.ctx.conjugates(self.phi)
        self.plan = self.SMALL_PLAN if small else self.PLAN
        scales = np.random.default_rng(seed).uniform(0.5, 2.0, size=len(self.plan))
        self.polys = {
            n: PolynomialRep(scale * np.asarray(random_family("polynomial", n, self.SHAPE_SEED).coeffs))
            for scale, (_, _, n) in zip(scales, self.plan)
        }
        self._oracle_ctx = NormContext()

    @staticmethod
    def _lp(f, p):
        return lp_quasinorm(f, p, f.natural_domain)

    def _item(self, kind, p, n):
        f = self.polys[n]
        phi = self.phi
        cache = self.ctx.conjugates(phi)
        if kind == "id":
            return Item(
                f"lorentz p=b={p:g} deg {n}",
                lambda: lorentz_norm(f, p, p),
                lambda v: lorentz_identity_oracle(v, self._lp(f, p)),
            )
        if kind == "weak":
            return Item(
                f"lorentz p={p:g} b=inf deg {n}",
                lambda: lorentz_norm(f, p, math.inf),
                lambda v: weak_oracle(v, self._lp(f, p)),
            )
        if kind == "w2":
            return Item(
                f"weighted b=2 deg {n}",
                lambda: weighted_lorentz_g(f, phi, 2.0, cache=cache),
                lambda v: weighted_two_oracle(v, self._lp(f, 2.0) / psi(phi, 2.0)),
            )
        oracle_cache = self._oracle_ctx.conjugates(phi)
        return Item(
            f"weighted b=inf deg {n}",
            lambda: weighted_lorentz_g(f, phi, math.inf, cache=cache),
            lambda v: weighted_weak_oracle(v, g_norm(f, phi, cache=oracle_cache)),
        )

    def items(self) -> list[Item]:
        return [self._item(*step) for step in self.plan]

    @staticmethod
    def value(result):
        return result


# ---------------------------------------------------------------------------
# cli: orlimark invocations, one subprocess at a time


def exact_l2(coeffs) -> float:
    """||f||_2 against the normalized measure on [-1, 1], from polyint."""
    integral = P.polyint(P.polymul(coeffs, coeffs))
    return math.sqrt((P.polyval(1.0, integral) - P.polyval(-1.0, integral)) / 2.0)


def psi_power_log(p: float, m: float) -> float:
    """Closed-form weight for phi(u) = u^m: (p/m)^(1/m) e^(-1/m)."""
    return (p / m) ** (1.0 / m) * math.exp(-1.0 / m)


def norm_oracle(report: dict, kind: str, coeffs) -> "str | None":
    value = report["results"]["value"]
    problem = _positive(value)
    if problem is None and kind == "lp":
        problem = _rel_close(value, exact_l2(coeffs), LP_EXACT_TOL)
    return problem


def transform_oracle(report: dict, m: float = 2.0) -> "str | None":
    for row in report["results"]["grid"]:
        problem = _rel_close(row["psi"], psi_power_log(row["p"], m), PSI_TOL)
        if problem:
            return f"psi at p = {row['p']!r}: {problem}"
    return None


def margins_oracle(report: dict) -> "str | None":
    bad = [row for row in report["results"]["rows"] if not row["margin"] >= 0.0]
    if bad:
        return f"{len(bad)} negative margins, first {bad[0]!r}"
    return None


class Cli:
    """A fixed sequence of orlimark subcommands, each a fresh process.

    ``launch.py`` times ``import orlimark.cli`` and ``cli.main`` inside the
    child and reports them with the child's peak RSS; the item's latency is
    the whole subprocess as the parent sees it.
    """

    name = "cli"
    tail_q = 0.5
    # two passes in a 20 s run: eight invocations are few, and each one's
    # fastest of two drops a start-up that a slow moment of the host hit
    pass_budget_s = 10
    SEQUENCE = ("norm-lp", "norm-orlicz", "norm-gnorm", "norm-vnorm", "transform", "rational", "tail", "markov-sweep")

    def __init__(self, seed: int, small: bool = False):
        self.out = HERE / "out" / "cli"
        self.out.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.coeffs = rng.uniform(-1.0, 1.0, size=6)
        text = "poly:" + ",".join(repr(float(c)) for c in self.coeffs)
        for kind in ("lp", "orlicz", "gnorm", "vnorm"):
            extra = "p = 2\n" if kind == "lp" else ""
            (self.out / f"norm-{kind}.cfg").write_text(f"[function]\ntext = {text}\n[norm]\nkind = {kind}\n{extra}")
        (self.out / "rational.cfg").write_text("[function]\nfamily = rational\ndegree = 4\n")
        self.sequence = ("norm-lp", "transform") if small else self.SEQUENCE
        self.trace = False

    def _argv(self, name: str) -> list[str]:
        if name.startswith("norm-"):
            return ["norm", "--config", str(self.out / f"{name}.cfg")]
        if name == "rational":
            return ["rational", "--config", str(self.out / "rational.cfg"), "--seed", str(self.seed)]
        return [name]

    def _launch(self, name: str):
        base = self.out / name
        report_path = self.out / f"{name}.launch.json"
        argv = self._argv(name) + ["--out", str(base), "--format", "json"]
        cmd = [sys.executable, str(HERE / "launch.py"), str(report_path), "1" if self.trace else "0", *argv]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        launch = json.loads(report_path.read_text()) if report_path.exists() else {}
        report_path.unlink(missing_ok=True)
        launch["returncode"] = proc.returncode
        launch["stderr"] = proc.stderr[-2000:]
        report = base.with_suffix(".json")
        launch["report"] = json.loads(report.read_text()) if proc.returncode == 0 and report.exists() else None
        return launch

    def _check(self, name: str, launch: dict) -> "str | None":
        if launch["returncode"] != 0 or launch["report"] is None:
            return f"exit {launch['returncode']}: {launch['stderr'].strip()[-300:]}"
        report = launch["report"]
        if name.startswith("norm-"):
            return norm_oracle(report, name[5:], self.coeffs)
        if name == "transform":
            return transform_oracle(report)
        if name in ("markov-sweep", "rational"):
            return margins_oracle(report)
        return None

    def items(self) -> list[Item]:
        return [
            Item(name, lambda name=name: self._launch(name), lambda launch, name=name: self._check(name, launch))
            for name in self.sequence
        ]

    @staticmethod
    def value(launch):
        report = launch.get("report")
        return json.dumps(report["results"], sort_keys=True) if report else None


WORKLOADS = {"band": Band, "lorentz": Lorentz, "cli": Cli}

