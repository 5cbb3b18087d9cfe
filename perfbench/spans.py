"""Span tracer for the benchmark: wraps the calls between orlimark's layers.

The tracer never edits orlimark's source.  It replaces, for the duration of
a traced pass, two kinds of attributes:

* module attributes in an importing namespace: every public function that
  one layer module (or the benchmark itself) imports from another layer is
  swapped for a wrapper in the importer's namespace, so ``norms`` calling
  ``quadrature.integrate_log`` records a ``quadrature.integrate_log`` span
  while calls inside ``quadrature`` itself stay unrecorded;
* methods of the public classes named in ``CLASS_METHODS`` (evaluators,
  level sampler, conjugate cache, the function representations).

Each span stores its name, start, end, parent (from a call stack), an
argument size (points evaluated, thresholds, exponents queried) and the
exception type that passed through it, if any.  Spans stay in compact
arrays in memory; ``layer_raw`` turns them into additive per-layer sums and
``finalize`` turns summed raws into the reported metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("functions", "quadrature", "conjugate", "norms", "harness", "cli")

CLASS_METHODS = {
    "quadrature": {
        "PowerNormEvaluator": ("__init__", "log_norm"),
        "LevelSampler": ("__init__", "measure_above_batch", "measure_above"),
    },
    "conjugate": {"ConjugateCache": ("__init__", "extend")},
    "functions": {
        rep: ("__call__", "log_abs")
        for rep in ("PolynomialRep", "TrigPolynomialRep", "RationalRep", "GapRep", "InversePowerRep")
    },
}

# cli's own entry points, wrapped in cli's namespace so main's calls show up
CLI_OWN = ("main", "parse_config", "run", "emit")

YF = {"conjugate.young_fenchel", "conjugate.young_fenchel_or_inf", "conjugate.psi_log", "conjugate.psi"}
SCAN = {
    "norms.g_norm",
    "norms.g_norm_info",
    "norms.v_quasinorm",
    "norms.v_quasinorm_info",
    "norms.sup_ratio_from",
    "norms.weighted_lorentz_g",
}
LUX = {"norms.luxemburg_norm"}
LORENTZ = {"norms.lorentz_norm", "norms.weighted_lorentz_g"}
INTEGRATE = {
    "quadrature.integrate",
    "quadrature.integrate_log",
    "quadrature.integrate_unnormalized",
    "quadrature.lp_quasinorm",
}
EVALUATOR = {"quadrature.PowerNormEvaluator.__init__", "quadrature.PowerNormEvaluator.log_norm"}
LEVEL = {
    "quadrature.LevelSampler.__init__",
    "quadrature.LevelSampler.measure_above_batch",
    "quadrature.LevelSampler.measure_above",
}
LEVEL_BATCH = "quadrature.LevelSampler.measure_above_batch"
CACHE = {"conjugate.ConjugateCache.__init__", "conjugate.ConjugateCache.extend"}

# which positional argument carries the work size, per wrapped method
SIZE_ARG = {
    "__call__": 1,
    "log_abs": 1,
    "measure_above_batch": 1,
    "log_norm": 1,
}

# additive sums that finalize() needs but that are not reported themselves
AUX = ("quadrature.level_batch_s", "norms.lorentz_thresholds", "norms.scan_agreed", "cli.run_s")


class Tracer:
    """Records spans while ``active``; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[int, str] = {}
        self.agreed: dict[int, bool] = {}
        self.stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self, extra_namespaces=()):
        """Wrap layer boundaries; ``extra_namespaces`` are benchmark modules."""
        import orlimark.cli  # noqa: F401  (loads every layer module)

        mods = {name: sys.modules[f"orlimark.{name}"] for name in LAYERS}
        layer_of = {mod.__name__: name for name, mod in mods.items()}
        for importer in list(mods.values()) + list(extra_namespaces):
            for attr, value in list(vars(importer).items()):
                if not inspect.isfunction(value) or value.__name__.startswith("_"):
                    continue
                owner = layer_of.get(value.__module__)
                if owner is None or value.__module__ == importer.__name__:
                    continue
                self._patch(importer, attr, value, f"{owner}.{value.__name__}", None)
        cli = mods["cli"]
        for attr in CLI_OWN:
            self._patch(cli, attr, getattr(cli, attr), f"cli.{attr}", None)
        for layer, classes in CLASS_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[layer], cls_name)
                for meth in methods:
                    if meth in cls.__dict__:
                        self._patch(cls, meth, cls.__dict__[meth], f"{layer}.{cls_name}.{meth}", SIZE_ARG.get(meth))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, fn, span_name, size_arg):
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, span_name, size_arg))

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span_name, size_arg):
        nid = self._intern(span_name)
        post_nodes = span_name == "quadrature.PowerNormEvaluator.__init__"
        post_scan = span_name in SCAN
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.size.append(int(np.size(args[size_arg])) if size_arg is not None and len(args) > size_arg else 0)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[idx] = perf_counter()
                stack.pop()
                tracer.errors[idx] = type(exc).__name__
                raise
            tracer.end[idx] = perf_counter()
            stack.pop()
            if post_nodes:
                tracer.size[idx] = int(args[0].node_count)
            if post_scan and hasattr(result, "tolerance_met"):
                tracer.agreed[idx] = bool(result.tolerance_met)
            return result

        return wrapper

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, parent, size, duration, self time."""
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        size = np.asarray(self.size, dtype=np.int64)
        dur = np.asarray(self.end, dtype=float) - np.asarray(self.start, dtype=float)
        nonroot = parent >= 0
        child = np.bincount(parent[nonroot], weights=dur[nonroot], minlength=len(dur))
        return name, parent, size, dur, dur - child

    def save(self, path: Path):
        """Write every span, compressed, with its name table."""
        np.savez_compressed(
            path,
            name=np.asarray(self.name),
            parent=np.asarray(self.parent),
            size=np.asarray(self.size),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            names=np.array(json.dumps(self.names)),
        )

    def layer_raw(self) -> dict:
        """Additive per-layer sums over every recorded span."""
        name, parent, size, dur, self_t = self.arrays()
        n = len(name)
        # index n is a sentinel: roots point at it, it points at itself
        par = np.append(np.where(parent >= 0, parent, n), n)

        def spans_of(names):
            wanted = [i for i, nm in enumerate(self.names) if nm in names]
            return np.append(np.isin(name, wanted), False)

        def under(cat):
            """Spans with a proper ancestor in ``cat`` (pointer jumping)."""
            flag, p = cat[par], par
            while np.any(p != n):
                flag, p = flag | flag[p], p[p]
            return flag[:n]

        def outermost(names):
            cat = spans_of(names)
            return cat[:n] & ~under(cat)

        raised = np.zeros(n + 1, dtype=bool)
        conv_fail = np.zeros(n, dtype=bool)
        for idx, exc in self.errors.items():
            raised[idx] = True
            conv_fail[idx] = exc == "ConvergenceFailureError"
        checked = np.zeros(n, dtype=bool)
        agreed = np.zeros(n, dtype=bool)
        for idx, ok in self.agreed.items():
            checked[idx], agreed[idx] = True, ok

        evals = outermost({nm for nm in self.names if nm.startswith("functions.")})
        integ = outermost(INTEGRATE)
        level = outermost(LEVEL)
        yf = outermost(YF)
        lor = outermost(LORENTZ)
        scan = outermost(SCAN)
        harness = outermost({nm for nm in self.names if nm.startswith("harness.")})
        lux_all = spans_of(LUX)
        lux = lux_all[:n]
        batch = spans_of({LEVEL_BATCH})[:n]
        sup = spans_of({"quadrature.sup_norm"})[:n]
        builds = spans_of({"quadrature.PowerNormEvaluator.__init__"})[:n]
        queries = spans_of({"quadrature.PowerNormEvaluator.log_norm"})[:n]
        extends = spans_of({"conjugate.ConjugateCache.extend"})[:n]
        log_int = spans_of({"quadrature.integrate_log"})[:n]
        in_scan = under(spans_of(SCAN))
        in_lor = under(spans_of(LORENTZ))
        # the Luxemburg fallback: a modular evaluation failed to converge,
        # yet the enclosing luxemburg_norm call returned normally
        fallback = log_int & conv_fail & lux_all[par[:n]] & ~raised[par[:n]]

        def total(attr):
            return float(dur[spans_of({f"cli.{attr}"})[:n]].sum())

        return {
            "functions.eval_s": float(dur[evals].sum()),
            "functions.eval_calls": int(evals.sum()),
            "functions.eval_points": int(size[evals].sum()),
            "quadrature.integrate_s": float(dur[integ].sum()),
            "quadrature.integrate_calls": int(integ.sum()),
            "quadrature.integrate_failures": int((integ & conv_fail).sum()),
            "quadrature.evaluator_s": float(dur[outermost(EVALUATOR)].sum()),
            "quadrature.evaluator_builds": int(builds.sum()),
            "quadrature.evaluator_nodes": int(size[builds].sum()),
            "quadrature.evaluator_queries": int(size[queries].sum()),
            "quadrature.level_s": float(dur[level].sum()),
            "quadrature.level_builds": int(spans_of({"quadrature.LevelSampler.__init__"})[:n].sum()),
            "quadrature.level_thresholds": int(size[batch].sum()),
            "quadrature.level_batch_s": float(dur[batch].sum()),
            "quadrature.sup_norm_s": float(dur[sup].sum()),
            "quadrature.sup_norm_calls": int(sup.sum()),
            "conjugate.yf_s": float(dur[yf].sum()),
            "conjugate.yf_calls": int(yf.sum()),
            "conjugate.cache_build_s": float(dur[outermost(CACHE)].sum()),
            "conjugate.cache_builds": int(spans_of({"conjugate.ConjugateCache.__init__"})[:n].sum()),
            "conjugate.cache_extends": int(extends.sum()),
            "norms.scan_yf_calls": int((yf & in_scan).sum()),
            "norms.luxemburg_s": float(dur[lux].sum()),
            "norms.luxemburg_self_s": float(self_t[lux].sum()),
            "norms.luxemburg_calls": int(lux.sum()),
            "norms.luxemburg_fallbacks": int(fallback.sum()),
            "norms.luxemburg_modular_evals": int((log_int & under(lux_all)).sum()),
            "norms.lorentz_s": float(dur[lor].sum()),
            "norms.lorentz_calls": int(lor.sum()),
            "norms.lorentz_thresholds": int(size[batch & in_lor].sum()),
            "norms.scan_s": float(dur[scan].sum()),
            "norms.scan_self_s": float(self_t[scan].sum()),
            "norms.scan_calls": int(scan.sum()),
            "norms.scan_extensions": int((extends & in_scan).sum()),
            "norms.scan_checked": int((checked & scan).sum()),
            "norms.scan_agreed": int((agreed & scan).sum()),
            "harness.self_s": float(self_t[harness].sum()),
            "harness.calls": int(harness.sum()),
            "cli.main_s": total("main"),
            "cli.run_s": total("run"),
            "cli.emit_s": total("emit"),
            "trace.spans": n,
            "trace.self_sum_s": float(self_t.sum()),
        }


def add_raw(total: dict, part: dict) -> dict:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value
    return total


def finalize(raw: dict) -> dict:
    """Reported per-layer metrics from summed raws; ratios carry their base."""
    out = {k: v for k, v in raw.items() if k not in AUX}
    thresholds = raw.get("quadrature.level_thresholds", 0)
    out["quadrature.level_us_per_threshold"] = (
        raw.get("quadrature.level_batch_s", 0.0) / thresholds * 1e6 if thresholds else 0.0
    )
    calls = raw.get("norms.lorentz_calls", 0)
    out["norms.lorentz_thresholds_per_call"] = raw.get("norms.lorentz_thresholds", 0) / calls if calls else 0.0
    checked = raw.get("norms.scan_checked", 0)
    out["norms.scan_agree_ratio"] = raw.get("norms.scan_agreed", 0) / checked if checked else 0.0
    out["cli.parse_s"] = max(
        raw.get("cli.main_s", 0.0) - raw.get("cli.run_s", 0.0) - raw.get("cli.emit_s", 0.0), 0.0
    )
    return out
