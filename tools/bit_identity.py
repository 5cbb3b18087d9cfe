"""Print orlimark outputs to one file so two source trees can be compared bit for bit.

Run it once per tree and compare the two files with ``cmp``:

    PYTHONPATH=<tree>/src python3 tools/bit_identity.py out.txt [--quick]

When they differ, ``--compare`` says where and by how much:

    PYTHONPATH=src python3 tools/bit_identity.py --compare a.txt b.txt

It prints, for each record group, how many records differ and the largest
relative difference among the numbers in them; a record whose text differs
in more than its numbers (an exception in place of a value, say) counts as
changed in form.

Every float is written with ``repr`` (17 significant digits), and an
exception is written as its type and message, so any change in any output
bit, or in which inputs fail, shows as a difference.  The last line counts
the records of each group.  ``--quick`` drops the ``band`` items, the
slowest group.  Covered:

* ``band``: the value of every item of the benchmark's ``band`` workload
  (``perfbench/workloads.py``) on seeds 1 and 11, in workload order;
* on the members of ``build_corpus(7)``: ``v_quasinorm_info`` of the first
  derivative (r = 1) and ``sup_ratio_from(p_lo=4)`` for three phi, and
  ``weighted_lorentz_g`` with power_log(2) at b = 2 and b = inf;
* ``lorentz_norm`` of the 30 polynomials of ``build_corpus(7)`` at
  (p, b) = (1, 1), (2, 2), (3, 3), (2, 3) and (3, inf);
* ``fenchel_moreau_check``, ``phi_membership_check`` and
  ``equivalence_constants`` for the three phi;
* ``young_fenchel_or_inf`` over 400 exponents for six phi families;
* ``ConjugateCache.hstar`` for the same six families at p_lo 1 and 4, as
  built and after one ``extend``;
* the CLI's ``.json`` (minus ``timestamp``) and ``.csv`` for ``norm`` (all
  five kinds), ``markov-sweep``, ``equivalence``, ``transform`` and
  ``tail``.
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

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from orlimark import (  # noqa: E402
    NormContext,
    build_corpus,
    custom_phi,
    equivalence_constants,
    fenchel_moreau_check,
    log_power,
    lorentz_norm,
    phi_membership_check,
    power_log,
    tabulated_phi,
    weighted_lorentz_g,
)
from orlimark.conjugate import ConjugateCache, young_fenchel_or_inf  # noqa: E402
from orlimark.functions import derivative  # noqa: E402
from orlimark.norms import sup_ratio_from, v_quasinorm_info  # noqa: E402

PHIS = [power_log(1.0), power_log(2.0), log_power(1.0)]
FAMILIES = PHIS + [
    power_log(3.0, r=1.0),
    tabulated_phi([0.5, 1.0, 2.0, 4.0, 8.0], [0.05, 0.2, 0.9, 4.0, 20.0]),
    custom_phi(lambda z: np.asarray(z) ** 2.5),
]
CLI_RUNS = {
    "norm-lp": ("norm", "[norm]\nkind = lp\np = 3\n"),
    "norm-orlicz": ("norm", "[norm]\nkind = orlicz\n"),
    "norm-gnorm": ("norm", "[norm]\nkind = gnorm\n"),
    "norm-vnorm": ("norm", "[norm]\nkind = vnorm\n"),
    "norm-lorentz": ("norm", "[norm]\nkind = lorentz\np = 2\nb = 3\n"),
    "markov-sweep": ("markov-sweep", "[sweep]\nfamily = chebyshev\nn_lo = 2\nn_hi = 6\n"),
    "equivalence": ("equivalence", ""),
    "transform": ("transform", ""),
    "tail": ("tail", ""),
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
            yield "band", f"{seed} {item.label}", attempt(lambda: Band.value(item.call()))


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


def lorentz_records():
    polynomials = [(label, f) for label, f in build_corpus(7) if label.startswith("poly-")]
    for label, f in polynomials:
        for p, b in ((1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (2.0, 3.0), (3.0, math.inf)):
            yield "lorentz_norm", f"{label} p={p} b={b}", attempt(lambda: lorentz_norm(f, p, b))


def conjugate_records():
    ys = np.linspace(-2.0, 3.0, 21)
    for phi in PHIS:
        yield "fenchel_moreau_check", phi.label, attempt(lambda: fenchel_moreau_check(phi, ys))
        yield "phi_membership_check", phi.label, attempt(lambda: phi_membership_check(phi))
        yield "equivalence_constants", phi.label, attempt(lambda: equivalence_constants(NormContext().orlicz(phi)))
    ps = np.concatenate([np.geomspace(0.5, 2e4, 394), [0.5, 1.0, 3.7, 64.0, 1000.0, 2e4]])
    for phi in FAMILIES:
        for p in ps:
            yield "young_fenchel_or_inf", f"{phi.label} {p!r}", attempt(lambda: young_fenchel_or_inf(phi, float(p)))


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
            cfg.write_text((FUNCTION if command == "norm" else "") + body)
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


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


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
    for kind, g in groups.items():
        line = f"{kind}: {g['differ']} of {g['records']} records differ"
        if g["differ"] > g["form"]:
            line += f", max rel diff {g['max_rel']:.3g}"
        if g["form"]:
            line += f", {g['form']} changed in form"
        if g["only"]:
            line += f", {g['only']} in one file only"
        print(line)


def main(argv):
    if argv and argv[0] == "--compare":
        compare(argv[1], argv[2])
        return
    out_path = argv[0]
    groups = [conjugate_records, cache_records, corpus_records, lorentz_records, cli_records]
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
