"""Print orlimark outputs to one file so two source trees can be compared bit for bit.

Run each tree's own copy once and compare the two files with ``cmp``:

    PYTHONPATH=<tree>/src python3 <tree>/tools/bit_identity.py out.txt [--quick]

When they differ, ``--compare`` says where and by how much; it reads the
two files only, and imports neither orlimark nor numpy:

    python3 tools/bit_identity.py --compare a.txt b.txt

It prints, for each record group, how many records differ and the largest
relative difference among the numbers in them, and that largest difference
again for each named field (``value=``, ``p_star=``) on its own, so that a
move of one field does not hide another's; a record whose text differs in
more than its numbers (an exception in place of a value, say) counts as
changed in form.

Every float is written with ``repr`` (17 significant digits), and an
exception is written as its type and message, so any change in any output
bit, or in which inputs fail, shows as a difference.  The last line counts
the records of each group.  ``--quick`` drops the ``band`` items, the
slowest group.  Covered:

* ``band``: the value of every item of the benchmark's ``band`` workload
  (``perfbench/workloads.py``) on seeds 1 and 11, in workload order;
* ``lp``: ``lp_quasinorm`` of the members of ``build_corpus(7)`` at p in
  {1, 2, 7, 64}, plain adaptive integrals, in ``--quick`` too;
* ``g_norm_info`` (value, p_star, extensions and p_cap) of the
  members of ``build_corpus(7)`` under three phi, scans from p_lo = 1 that
  take the left-edge skip and the polish, and of two scans that run out of
  budget, 1 / (x - 1 - 1e-9) under power_log(2) and x under
  power_log(1e9), whose records show the error's class, in ``--quick``
  too;
* on the members of ``build_corpus(7)``: ``v_quasinorm_info`` of the first
  derivative (r = 1) and ``sup_ratio_from(p_lo=4)`` for three phi, and
  ``weighted_lorentz_g`` with power_log(2) at b = 2 and b = inf, and at
  b = inf also with log_power(1) and the table whose knee is its point
  z = 0.5;
* ``knee``: ``construct_N``'s ``splice_point`` and ``linear_slope`` for
  the eight phi families of ``FAMILIES`` (the three phi of the norm groups,
  power_log(3, r=1), a custom z^2.5 and three tables: one whose knee is a
  point of the table, one whose knee is the start of its clamp at zero);
* ``luxemburg_norm`` of the members of ``build_corpus(7)`` under three phi,
  and of ``jacobi22(120)`` and its derivative under power_log(2);
* ``row``: ``g_norm_info``, then ``luxemburg_norm``, then
  ``sup_ratio_from(p_lo=4)`` of each member of ``build_corpus(7)`` under
  power_log(2), one object for all three, the reverse of the ``band``
  order: the Luxemburg solve reads the node store and the L1 integral that
  the scan left;
* ``lorentz_norm`` of the 30 polynomials of ``build_corpus(7)`` at
  (p, b) = (1, 1), (2, 2), (3, 3), (2, 3) and (3, inf), and of its trig,
  gap and rational members, of the derivative of gap-01 (a
  ``GapDerivative``) and of sin(40x) at (3, inf) and (3, 1.5);
* ``rational_derivative``: ``sup_norm``, ``lorentz_norm`` at p = b = 2 and
  ``lp_quasinorm`` at p = 2 of the derivatives of orders 1 to 4 of
  rational-01 to rational-06 of ``build_corpus(7)``;
* ``singular``: ``lp_quasinorm`` of ``InversePowerRep(q)`` at (q, beta) =
  (0.5, 0.8), (0.8, 0.9), (0.9, 0.95), (0.9, 64/65) and (0.99, 1), and
  every field of ``tail_check(InversePowerRep(r s), 2, r)`` at s in
  {0.5, 0.9} and r in {1, 2}, and ``v_quasinorm_info`` (every field) of
  ``InversePowerRep(r s)`` under power_log(2) at r in {1, 2} and s in
  {0.9, 0.99, 0.999, 0.9999}, scans just below q = r whose peak leaves the
  first grid as s rises to 1, and ``distribution(InversePowerRep(q), w)``
  at q in {0.5, 0.9} and w in {10, 1e3, 1e5, 1e8, 1e12};
* ``fenchel_moreau_check``, ``phi_membership_check`` and
  ``equivalence_constants`` for the eight families;
* ``young_fenchel_lanes``: one-lane ``young_fenchel_lanes`` solves, +inf
  where h* diverges, over 400 exponents for the eight families;
* ``ConjugateCache.hstar`` for the eight families at p_lo 1 and 4, as
  built and after one ``extend``;
* the CLI's ``.json`` (minus ``timestamp``) and ``.csv`` for ``norm`` (all
  five kinds), ``markov-sweep``, ``equivalence``, ``transform``, ``tail``
  (at the default s = 0.5 and at s = 0.9), ``rational`` (a generated degree-4 rational function) and ``extremal``,
  and the exit code, stdout and stderr of each run, among them a config
  with an unknown key, a non-numeric float and an invalid choice, and the
  g-norm of 1 / (x - 1 - 1e-9), each of which exits 1.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")
# a number and the name of the field it is written after (``p_star=``), if any
FIELD_NUMBER = re.compile(rf"(?:(\w+)=)?({NUMBER.pattern})")


def read_records(path):
    """{(kind, key, n): value}, n counting earlier records with the same key."""
    records, seen = {}, Counter()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("counts "):
                continue
            kind, key, value = line.rstrip("\n").split(" | ", 2)
            records[(kind, key, seen[(kind, key)])] = value
            seen[(kind, key)] += 1
    return records


def rel_diff(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def compare(path_a, path_b):
    """Per group: records, how many differ, the largest relative difference."""
    a, b = read_records(path_a), read_records(path_b)
    groups = {}
    for rec in list(a) + [k for k in b if k not in a]:
        g = groups.setdefault(rec[0], Counter(records=0, differ=0, form=0, only=0))
        g["records"] += 1
        if rec not in a or rec not in b:
            g["only"] += 1
            continue
        va, vb = a[rec], b[rec]
        if va == vb:
            continue
        g["differ"] += 1
        if NUMBER.sub("#", va) != NUMBER.sub("#", vb):
            g["form"] += 1
            continue
        worst = max(rel_diff(float(x), float(y)) for x, y in zip(NUMBER.findall(va), NUMBER.findall(vb)))
        g["max_rel"] = max(g.get("max_rel", 0.0), worst)
        fields = g.setdefault("fields", {})
        for (name, x), (_name, y) in zip(FIELD_NUMBER.findall(va), FIELD_NUMBER.findall(vb)):
            if name:
                fields[name] = max(fields.get(name, 0.0), rel_diff(float(x), float(y)))
    for kind, g in groups.items():
        line = f"{kind}: {g['differ']} of {g['records']} records differ"
        if g["differ"] > g["form"]:
            line += f", max rel diff {g['max_rel']:.3g}"
            if g.get("fields"):
                line += " (" + ", ".join(f"{name}= {diff:.3g}" for name, diff in g["fields"].items()) + ")"
        if g["form"]:
            line += f", {g['form']} changed in form"
        if g["only"]:
            line += f", {g['only']} in one file only"
        print(line)


if __name__ == "__main__" and sys.argv[1:2] == ["--compare"]:
    # comparing two record files needs no library: done before it is imported
    compare(*sys.argv[2:4])
    sys.exit()

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from orlimark import (  # noqa: E402
    InversePowerRep,
    NormContext,
    PolynomialRep,
    RationalRep,
    TrigPolynomialRep,
    build_corpus,
    custom_phi,
    distribution,
    equivalence_constants,
    fenchel_moreau_check,
    log_power,
    lorentz_norm,
    lp_quasinorm,
    phi_membership_check,
    power_log,
    sup_norm,
    tabulated_phi,
    tail_check,
    weighted_lorentz_g,
)
from orlimark.conjugate import ConjugateCache, young_fenchel_lanes  # noqa: E402
from orlimark.functions import derivative, jacobi22  # noqa: E402
from orlimark.norms import construct_N, g_norm_info, luxemburg_norm, sup_ratio_from, v_quasinorm_info  # noqa: E402

PHIS = [power_log(1.0), power_log(2.0), log_power(1.0)]
FAMILIES = PHIS + [
    power_log(3.0, r=1.0),
    tabulated_phi([0.5, 1.0, 2.0, 4.0, 8.0], [0.05, 0.2, 0.9, 4.0, 20.0]),
    custom_phi(lambda z: np.asarray(z) ** 2.5),
    # knee at the table point z = 0.5
    tabulated_phi([0.25, 0.5, 1.0, 2.0, 4.0, 8.0], [0.0625, 0.25, 1.0, 4.0, 16.0, 1000.0]),
    # knee at the start of the clamp at zero, z = 2^(-1/2)
    tabulated_phi([1.0, 2.0, 4.0, 8.0], [1.0, 3.0, 9.0, 27.0]),
]
CLI_RUNS = {
    "norm-lp": ("norm", "[norm]\nkind = lp\np = 3\n"),
    "norm-orlicz": ("norm", "[norm]\nkind = orlicz\n"),
    "norm-gnorm": ("norm", "[norm]\nkind = gnorm\n"),
    "norm-gnorm-near-pole": ("norm", "[function]\ntext = rational:1|-1.000000001,1\n\n[norm]\nkind = gnorm\n"),
    "norm-vnorm": ("norm", "[norm]\nkind = vnorm\n"),
    "norm-lorentz": ("norm", "[norm]\nkind = lorentz\np = 2\nb = 3\n"),
    "markov-sweep": ("markov-sweep", "[sweep]\nfamily = chebyshev\nn_lo = 2\nn_hi = 6\n"),
    "equivalence": ("equivalence", ""),
    "transform": ("transform", ""),
    "tail": ("tail", ""),
    "tail-s09": ("tail", "[tail]\ns = 0.9\n"),
    "rational": ("rational", "[function]\nfamily = rational\ndegree = 4\n"),
    "extremal": ("extremal", "[extremal]\ndegree = 2\nrestarts = 1\n"),
    "config-error": ("norm", "[norm]\nkind = lorenz\np = four\nordre = 2\n"),
}
FUNCTION = "[function]\ntext = poly:0.3,-1.2,0.5,0.9,-0.4\n"


def attempt(fn):
    try:
        return repr(fn())
    except Exception as exc:  # a failure is an output too
        return f"{type(exc).__name__}: {exc}"


def band_records():
    from workloads import Band

    for seed in (1, 11):
        band = Band(seed)
        for item in band.items():
            # a scan's ScanResult prints its fields by name, for --compare
            yield "band", f"{seed} {item.label}", attempt(item.call)


def lp_records():
    for label, f in build_corpus(7):
        for p in (1.0, 2.0, 7.0, 64.0):
            yield "lp", f"{label} p={p}", attempt(lambda: lp_quasinorm(f, p))


def g_norm_records():
    ctx = NormContext()
    for label, f in build_corpus(7):
        for phi in PHIS:
            yield "g_norm_info", f"{label} {phi.label}", attempt(lambda: g_norm_info(f, phi, cache=ctx.conjugates(phi)))
    # every L_p norm of these is finite: the integrator runs out of depth
    # beside the pole at 1 + 1e-9, and the grid reaches its ceiling still rising
    near_pole = RationalRep(PolynomialRep([1.0]), PolynomialRep([-(1.0 + 1e-9), 1.0]))
    for label, f, phi in (("1/(x-1-1e-9)", near_pole, PHIS[1]), ("x", PolynomialRep([0.0, 1.0]), power_log(1e9))):
        yield "g_norm_info", f"{label} {phi.label}", attempt(lambda: g_norm_info(f, phi))


def corpus_records():
    corpus = build_corpus(7)
    ctx = NormContext()
    for label, f in corpus:
        for phi in PHIS:
            cache4 = ctx.conjugates(phi, p_lo=4.0)
            yield "v_quasinorm_info", f"{label} {phi.label}", attempt(
                lambda: v_quasinorm_info(derivative(f, 1), phi, 1.0, cache=cache4)
            )
            yield "sup_ratio_from", f"{label} {phi.label}", attempt(
                lambda: sup_ratio_from(f, phi, 4.0, cache=cache4)
            )
        phi2 = PHIS[1]
        for b in (2.0, float("inf")):
            yield "weighted_lorentz_g", f"{label} b={b}", attempt(
                lambda: weighted_lorentz_g(f, phi2, b, cache=ctx.conjugates(phi2))
            )
        # b = inf inverts h: a log-power h, and a table h with its kink at y*(1)
        for phi in (PHIS[2], FAMILIES[6]):
            yield "weighted_lorentz_g", f"{label} b=inf {phi.label}", attempt(
                lambda: weighted_lorentz_g(f, phi, float("inf"), cache=ctx.conjugates(phi))
            )


def knee(phi):
    n = construct_N(phi)
    return n.splice_point, n.linear_slope


def knee_records():
    for phi in FAMILIES:
        yield "knee", phi.label, attempt(lambda: knee(phi))


def luxemburg_records():
    ctx = NormContext()
    for label, f in build_corpus(7):
        for phi in PHIS:
            yield "luxemburg", f"{label} {phi.label}", attempt(lambda: luxemburg_norm(f, ctx.orlicz(phi)))
    # high degree, where the modular at the Jensen bound explodes
    phi2 = PHIS[1]
    for label, f in (("jacobi22(120)", jacobi22(120)), ("jacobi22(120)'", derivative(jacobi22(120), 1))):
        yield "luxemburg", f"{label} {phi2.label}", attempt(lambda: luxemburg_norm(f, ctx.orlicz(phi2)))


def row_records():
    ctx = NormContext()
    phi = PHIS[1]
    for label, f in build_corpus(7):
        yield "row", f"{label} g_norm_info", attempt(lambda: g_norm_info(f, phi, cache=ctx.conjugates(phi)))
        yield "row", f"{label} luxemburg", attempt(lambda: luxemburg_norm(f, ctx.orlicz(phi)))
        yield "row", f"{label} sup_ratio_from", attempt(lambda: sup_ratio_from(f, phi, 4.0, cache=ctx.conjugates(phi, p_lo=4.0)))


def lorentz_records():
    corpus = build_corpus(7)
    for label, f in corpus:
        if label.startswith("poly-"):
            for p, b in ((1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (2.0, 3.0), (3.0, math.inf)):
                yield "lorentz_norm", f"{label} p={p} b={b}", attempt(lambda: lorentz_norm(f, p, b))
    others = [(label, f) for label, f in corpus if not label.startswith("poly-")]
    others += [("gap-01'", derivative(dict(corpus)["gap-01"], 1)), ("sin(40x)", TrigPolynomialRep([0.0] * 41, [0.0] * 39 + [1.0]))]
    for label, f in others:
        for p, b in ((3.0, math.inf), (3.0, 1.5)):
            yield "lorentz_norm", f"{label} p={p} b={b}", attempt(lambda: lorentz_norm(f, p, b))


def rational_derivative_records():
    corpus = dict(build_corpus(7))
    for n in range(1, 7):
        label = f"rational-{n:02d}"
        for r in range(1, 5):
            d = derivative(corpus[label], r)
            yield "rational_derivative", f"{label} r={r} sup", attempt(lambda: sup_norm(d))
            yield "rational_derivative", f"{label} r={r} lorentz p=2 b=2", attempt(lambda: lorentz_norm(d, 2.0, 2.0))
            yield "rational_derivative", f"{label} r={r} lp p=2", attempt(lambda: lp_quasinorm(d, 2.0))


def tail_fields(s, r):
    report = tail_check(InversePowerRep(r * s), 2.0, r)
    return " ".join(f"{k}={v.tolist() if isinstance(v, np.ndarray) else v!r}" for k, v in vars(report).items())


def singular_records():
    for q, beta in ((0.5, 0.8), (0.8, 0.9), (0.9, 0.95), (0.9, 64.0 / 65.0), (0.99, 1.0)):
        yield "singular", f"lp_quasinorm q={q!r} beta={beta!r}", attempt(
            lambda: lp_quasinorm(InversePowerRep(q), beta)
        )
    for s in (0.5, 0.9):
        for r in (1, 2):
            yield "singular", f"tail_check s={s!r} r={r}", attempt(lambda: tail_fields(s, r))
    # just below q = r, where the v-scan's peak leaves the first grid as s rises to 1
    phi2, cache4 = PHIS[1], ConjugateCache(PHIS[1], p_lo=4.0)
    for r in (1.0, 2.0):
        for s in (0.9, 0.99, 0.999, 0.9999):
            yield "singular", f"v_quasinorm_info s={s!r} r={r!r}", attempt(
                lambda: v_quasinorm_info(InversePowerRep(r * s), phi2, r, cache=cache4)
            )
    for q in (0.5, 0.9):
        for w in (10.0, 1e3, 1e5, 1e8, 1e12):
            yield "singular", f"distribution q={q!r} w={w!r}", attempt(lambda: distribution(InversePowerRep(q), w))


def conjugate_records():
    ys = np.linspace(-2.0, 3.0, 21)
    for phi in FAMILIES:
        yield "fenchel_moreau_check", phi.label, attempt(lambda: fenchel_moreau_check(phi, ys))
        yield "phi_membership_check", phi.label, attempt(lambda: phi_membership_check(phi))
        yield "equivalence_constants", phi.label, attempt(lambda: equivalence_constants(NormContext().orlicz(phi)))
    ps = np.concatenate([np.geomspace(0.5, 2e4, 394), [0.5, 1.0, 3.7, 64.0, 1000.0, 2e4]])
    for phi in FAMILIES:
        for p in ps:
            yield "young_fenchel_lanes", f"{phi.label} {p!r}", attempt(lambda: float(young_fenchel_lanes(phi, [float(p)])[0][0]))


def cache_hstar(phi, p_lo):
    """hstar of a fresh ConjugateCache, as built and after one extend."""
    cache = ConjugateCache(phi, p_lo)
    built = cache.hstar.tolist()
    cache.extend()
    return built, cache.hstar.tolist()


def cache_records():
    for phi in FAMILIES:
        for p_lo in (1.0, 4.0):
            yield "conjugate_cache", f"{phi.label} p_lo={p_lo!r}", attempt(lambda: cache_hstar(phi, p_lo))


def cli_records():
    with tempfile.TemporaryDirectory() as tmp:
        for name, (command, body) in CLI_RUNS.items():
            cfg = Path(tmp) / f"{name}.cfg"
            cfg.write_text((FUNCTION if command == "norm" and "[function]" not in body else "") + body)
            base = Path(tmp) / name
            argv = [command, "--config", str(cfg), "--seed", "7", "--out", str(base), "--format", "both"]
            code = "import sys; from orlimark.cli import main; sys.exit(main(sys.argv[1:]))"
            proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
            yield "cli", f"{name} exit", f"{proc.returncode} {proc.stdout!r} {proc.stderr!r}".replace(tmp, "<tmp>")
            if proc.returncode not in (0, 2):
                continue
            envelope = json.loads(base.with_suffix(".json").read_text())
            envelope.pop("timestamp", None)
            yield "cli", f"{name} json", json.dumps(envelope, sort_keys=True).replace(tmp, "<tmp>")
            yield "cli", f"{name} csv", repr(base.with_suffix(".csv").read_text()).replace(tmp, "<tmp>")


def main(argv):
    out_path = argv[0]
    groups = [
        conjugate_records,
        cache_records,
        lp_records,
        g_norm_records,
        corpus_records,
        knee_records,
        luxemburg_records,
        row_records,
        lorentz_records,
        rational_derivative_records,
        singular_records,
        cli_records,
    ]
    if "--quick" not in argv:
        groups.insert(0, band_records)
    counts = Counter()
    with open(out_path, "w", encoding="utf-8") as fh:
        for group in groups:
            for kind, key, value in group():
                counts[kind] += 1
                fh.write(f"{kind} | {key} | {value}\n")
        fh.write(f"counts {json.dumps(dict(counts), sort_keys=True)}\n")
    print(dict(counts))


if __name__ == "__main__":
    main(sys.argv[1:])
