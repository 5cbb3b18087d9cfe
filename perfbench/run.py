"""orlimark benchmark: one workload per run, or every workload with --workload all.

usage:
  python3 perfbench/run.py --workload band|lorentz|cli --seed N --seconds S --trace 0|1 [--small]
  python3 perfbench/run.py --workload all [--small]

Run from the repository root; the library is imported from ./src, never from
an installed copy.  One process, one caller, one item in flight (a closed
loop).  A run makes one pass over the workload's items per
``pass_budget_s`` of ``--seconds`` (20 s; 10 s for cli), at least one.
Every latency is normalised to a fixed machine speed with a reference
kernel run after each item (see speed.py); an item's latency is its fastest
execution.  Every item's value is checked by an oracle outside the timed
region.  The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.
The exit code is 0 only when every item passed its oracle.  Machine facts
and the full result go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import os
import sys

# BLAS threads are pinned before numpy loads, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import compileall  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("band", "lorentz", "cli")
SETUP_PROBES = 3

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
IMPORT_MODULES = (
    "orlimark",
    "orlimark.errors",
    "orlimark.quadrature",
    "orlimark.functions",
    "orlimark.conjugate",
    "orlimark.norms",
    "orlimark.harness",
    "orlimark.cli",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_threshold"):
        return "us"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "orlimark").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Record:
    label: str
    latency: float  # normalised to the reference speed; the wall time when not normalised
    wall: float
    result: object
    problem: str | None


def run_pass(items, speed=None) -> list:
    """One item in flight at a time; each entry is (item, latency, result, error, wall).

    With a ``speed`` trace the reference kernel runs after every item and
    ``latency`` is the wall time normalised to the reference speed;
    without one it is the wall time.
    """
    raw = []
    for item in items:
        a = perf_counter()
        try:
            result, error = item.call(), None
        except Exception as exc:  # an item that raises is a failed item
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - a
        raw.append((item, a, wall, result, error))
        if speed is not None:
            speed.after_item(a, wall)
    return [
        (item, wall * speed.factor(a, a + wall) if speed is not None else wall, result, error, wall)
        for item, a, wall, result, error in raw
    ]


def pass_count(cls, seconds: int, small: bool) -> int:
    """Passes per run: one per ``cls.pass_budget_s`` of budget, at least one.

    A fixed count, not a clock check, so a slow phase of the machine
    changes how long a run takes but not how many samples each item gets.
    """
    return 1 if small else max(1, round(seconds / cls.pass_budget_s))


def traced_pair(cls, seed: int, small: bool, passes: int, tracer):
    """An untraced and a traced copy of the workload, pass by pass.

    Passes run in A B, B A, A B ... order after one warm-up item, so neither
    copy alone pays the process's cold start.  The copies share no state,
    so their item values must agree bit for bit.  Set-up is inside both
    walls.  Returns (untraced timed, traced timed, untraced wall, traced wall).
    """
    run_pass(cls(seed, small).items()[:1])
    walls = [0.0, 0.0]

    def build(traced: bool):
        tracer.active = traced
        t0 = perf_counter()
        work = cls(seed, small)
        if hasattr(work, "trace"):  # cli: the launcher traces inside each child
            work.trace = traced
        walls[traced] += perf_counter() - t0
        tracer.active = False
        return work.items()

    items = [build(False), build(True)]
    timed = [[], []]
    for done in range(passes):
        for traced in ((False, True) if done % 2 == 0 else (True, False)):
            tracer.active = traced
            t0 = perf_counter()
            timed[traced] += run_pass(items[traced])
            walls[traced] += perf_counter() - t0
            tracer.active = False
    return timed[0], timed[1], walls[0], walls[1]


def check_all(timed) -> list[Record]:
    """Run every item's oracle; called outside the timed and traced regions."""
    records = []
    for item, latency, result, error, wall in timed:
        problem = error
        if problem is None:
            try:
                problem = item.check(result)
            except Exception as exc:  # an oracle that cannot evaluate fails the item
                problem = f"oracle raised {type(exc).__name__}: {exc}"
        records.append(Record(item.label, latency, wall, result, problem))
    return records


def probe_setup(workload: str, seed: int, small: bool, speed) -> float:
    """Seconds from starting a fresh interpreter until its first item is ready.

    Normalised to the reference speed of the kernel runs just before and
    after the probe.
    """
    speed.sample(0.15)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--probe"]
    if small:
        cmd.append("--small")
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed with exit {proc.returncode}")
    speed.sample(0.15)
    return elapsed * speed.factor(t0, t0 + elapsed)


def _importtime(code: str) -> list[tuple[str, int]]:
    """(module, self microseconds) in print order for ``python -X importtime -c code``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code], capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
    rows = []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "self [us]" not in line:
            own, _cum, mod = line[len("import time:"):].split("|")
            rows.append((mod.rstrip(), int(own)))
    return rows


def importtime_breakdown() -> dict:
    """``-X importtime`` self times of orlimark's modules and of scipy.stats.

    scipy imports ``stats`` lazily, so its package line is never printed;
    its cost is the self time of every module loaded by ``from scipy import
    stats`` once numpy and the scipy parts orlimark's other modules use
    are already in place.
    """
    rows = _importtime("import numpy, scipy.special, scipy.optimize; from scipy import stats")
    marker = max(i for i, (mod, _) in enumerate(rows) if mod == " scipy.optimize")
    out = {"cli.import_scipy_stats_s": sum(us for _, us in rows[marker + 1:]) / 1e6}
    rows = _importtime("import orlimark.cli")
    self_us = {mod.strip(): us for mod, us in rows}
    out["cli.importtime_total_s"] = sum(self_us.values()) / 1e6
    for mod in IMPORT_MODULES:
        out[f"cli.importtime.{mod}_s"] = self_us.get(mod, 0) / 1e6
    return out


def item_latencies(records) -> list[float]:
    """Each item's fastest (normalised) execution over the run's passes."""
    fastest: dict[str, float] = {}
    for r in records:
        fastest[r.label] = min(r.latency, fastest.get(r.label, math.inf))
    return list(fastest.values())


def end_to_end(workload, records, setup_samples, rss_kb) -> dict:
    import numpy as np

    lat = np.array(item_latencies(records))
    failed = sum(r.problem is not None for r in records)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "items_per_s": len(lat) / float(lat.sum()),
        "item_p50_ms": float(np.quantile(lat, 0.5)) * 1e3,
        "item_tail_ms": float(np.quantile(lat, workload.tail_q)) * 1e3,
        "ok_frac": (len(records) - failed) / len(records),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return {name: {"value": metrics[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def traced_run(cls, args, import_s: float):
    """Per-layer metrics from an untraced and a traced copy of the workload."""
    import spans
    import workloads

    tracer = spans.Tracer()
    is_cli = cls is workloads.Cli
    if not is_cli:
        tracer.install([workloads])
    # the two copies share the budget: half the passes each, at least one
    passes = max(1, pass_count(cls, args.seconds, args.small) // 2)
    plain_timed, traced_timed, plain_wall, traced_wall = traced_pair(cls, args.seed, args.small, passes, tracer)
    tracer.uninstall()
    plain, traced = check_all(plain_timed), check_all(traced_timed)
    mismatched = [a.label for a, b in zip(plain, traced) if repr(cls.value(a.result)) != repr(cls.value(b.result))]
    if is_cli:
        raw = {}
        launches = [r.result for r in traced if isinstance(r.result, dict)]
        for launch in launches:
            spans.add_raw(raw, launch.get("raw", {}))
        layer_import = sum(launch.get("import_s", 0.0) for launch in launches)
    else:
        raw = tracer.layer_raw()
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        layer_import = import_s
    layer = spans.finalize(raw)
    layer["cli.import_s"] = layer_import
    layer.update(importtime_breakdown())
    layer["trace.items"] = len(traced)
    layer["trace.wall_s"] = traced_wall
    layer["trace.untraced_wall_s"] = plain_wall
    layer["trace.overhead_s"] = traced_wall - plain_wall
    layer["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    layer["trace.gap_s"] = traced_wall - raw.get("trace.self_sum_s", 0.0)
    metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in sorted(layer.items())}
    return plain, plain + traced, metrics, {"mismatched": mismatched}


def untraced_run(cls, args):
    """End-to-end metrics, every time normalised to the reference speed.

    Set-up probes run first, then a one-item warm-up on a copy of the
    workload, then the timed passes.
    """
    import speed as speed_mod
    import workloads

    is_cli = cls is workloads.Cli
    speed = speed_mod.SpeedTrace()
    speed.sample(0.25)
    setup_samples = []
    if not is_cli:
        setup_samples = [probe_setup(args.workload, args.seed, args.small, speed) for _ in range(SETUP_PROBES)]
    work = cls(args.seed, args.small)
    run_pass(cls(args.seed, args.small).items()[:1])
    items = work.items()
    timed = []
    for _ in range(pass_count(cls, args.seconds, args.small)):
        timed += run_pass(items, speed)
    records = check_all(timed)
    if is_cli:
        # import_s is timed inside the child; the item's own factor normalises it
        setup_samples = [
            r.result["import_s"] * r.latency / r.wall for r in records if isinstance(r.result, dict) and "import_s" in r.result
        ]
        rss_kb = max((r.result.get("rss_kb", 0) for r in records if isinstance(r.result, dict)), default=0)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = end_to_end(cls, records, setup_samples or [math.nan], rss_kb)
    return records, records, metrics, {"mismatched": [], "setup_samples": setup_samples, "speed": speed.summary()}


def run_one(args, import_s: float) -> tuple[dict, dict]:
    """Run one workload; returns the result line and the full record."""
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        records, all_records, metrics, extra = traced_run(cls, args, import_s)
    else:
        records, all_records, metrics, extra = untraced_run(cls, args)
    failed = sum(r.problem is not None for r in all_records)
    correct = failed == 0 and not extra["mismatched"]
    result = {"correct": correct, "attempted": len(all_records), "failed": failed, "metrics": metrics}
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": pass_count(cls, args.seconds, args.small),
        "samples": len(records),
        "tail_quantile": cls.tail_q,
        "problems": [f"{r.label}: {r.problem}" for r in all_records if r.problem][:50],
        "latencies_ms": [[r.label, round(r.latency * 1e3, 3), round(r.wall * 1e3, 3)] for r in records],
        **extra,
        "result": result,
    }
    return result, full


def run_all(args) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            ok = False
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:14.6g} {entry['unit']}")
        ok = ok and proc.returncode == 0 and result["correct"]
    print("all workloads passed their oracles" if ok else "FAILED: some item failed its oracle or a workload did not run")
    return 0 if ok else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="one small pass per workload, to check the benchmark runs")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orlimark" / "__init__.py").is_file():
        print(f"error: no orlimark sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # child processes (set-up probes, CLI launches) import the same sources
    prior = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), prior]) if prior else str(SRC)
    # one CPU for this process and every child: the reference kernel then
    # samples the CPU the items run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args)
    if args.probe:
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, args.small)
        print("ready", flush=True)
        return 0

    compileall.compile_dir(str(SRC / "orlimark"), quiet=1)
    t0 = perf_counter()
    import orlimark

    import_s = perf_counter() - t0
    if Path(orlimark.__file__).resolve().parent != (SRC / "orlimark").resolve():
        print(f"error: imported orlimark from {orlimark.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    facts = machine_facts()
    print("machine: " + json.dumps(facts, sort_keys=True))
    result, full = run_one(args, import_s)
    full["machine"] = facts
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    for problem in full["problems"]:
        print(f"problem: {problem}")
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
