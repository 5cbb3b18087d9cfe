"""Checks on the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from orlimark import equivalence_constants, power_log, NormContext  # noqa: E402
from orlimark import norms  # noqa: E402


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    cmd = [sys.executable, str(BENCH / "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def small_results():
    out = {}
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = _run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small")
            assert proc.returncode == 0, proc.stderr
            out[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("cls", [workloads.Band, workloads.Lorentz])
def test_item_values_bit_identical_with_tracing(cls):
    tracer = spans.Tracer()
    tracer.install([workloads])
    try:
        plain, traced, _, _ = run.traced_pair(cls, 7, True, 1, tracer)
    finally:
        tracer.uninstall()
    assert len(tracer.name) > 0
    assert workloads.luxemburg_norm is norms.luxemburg_norm
    assert [repr(cls.value(r)) for _, _, r, _, _ in plain] == [repr(cls.value(r)) for _, _, r, _, _ in traced]


def test_self_times_sum_to_traced_wall():
    tracer = spans.Tracer()
    tracer.install([workloads])
    try:
        tracer.active = True
        t0 = perf_counter()
        work = workloads.Band(7, True)
        run.run_pass(work.items())
        wall = perf_counter() - t0
        tracer.active = False
    finally:
        tracer.uninstall()
    _name, parent, _size, dur, self_t = tracer.arrays()
    covered = dur[parent < 0].sum()
    assert self_t.sum() == pytest.approx(covered, rel=1e-9)
    assert (self_t > -1e-9).all()
    # what is left is the loop's own bookkeeping between wrapped calls
    assert 0.0 <= wall - covered < 0.05 * wall
    raw = tracer.layer_raw()
    assert raw["norms.luxemburg_calls"] == raw["norms.scan_calls"] == 18
    assert raw["quadrature.level_thresholds"] == 0


def test_speed_factor_uses_kernel_runs_near_the_item():
    trace = speed.SpeedTrace()
    # the kernel ran at nominal speed around t = 0 and at half speed around t = 100
    trace.starts = [0.0, 0.1, 0.2, 0.3, 0.4, 100.0, 100.1, 100.2, 100.3, 100.4]
    trace.times = [speed.REF_NOMINAL_S] * 5 + [2 * speed.REF_NOMINAL_S] * 5
    assert trace.factor(0.5, 0.6) == pytest.approx(1.0)
    assert trace.factor(100.5, 100.6) == pytest.approx(0.5)
    # no runs near the item: the window widens until it holds enough, here all ten
    assert trace.factor(50.0, 50.1) == pytest.approx(1 / 1.5)
    # the mean, not the median, of the kernel runs in the window
    trace.starts = [0.0, 0.1, 0.2, 0.3, 0.4]
    trace.times = [speed.REF_NOMINAL_S] * 4 + [5 * speed.REF_NOMINAL_S]
    assert trace.factor(0.5, 0.6) == pytest.approx(1 / 1.8)


def test_metric_names_are_declared(small_results):
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for (name, trace), result in small_results.items():
        assert result["correct"] and result["failed"] == 0, name
        want = layer if trace else e2e
        assert set(result["metrics"]) == set(want), (name, trace)
        for metric, entry in result["metrics"].items():
            assert entry["unit"] == want[metric]
            assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])


def test_band_oracle_flags_values_outside_the_band():
    n_func = NormContext().orlicz(power_log(2.0))
    consts = equivalence_constants(n_func)
    lo, hi = -math.log(consts.g_over_b), 2.0 + consts.b_over_g_log
    g = 0.7
    assert workloads.band_oracle(g * math.exp(0.5 * (lo + hi)), g, lo, hi) is None
    assert workloads.band_oracle(g * math.exp(hi + 1e-4), g, lo, hi)
    assert workloads.band_oracle(g * math.exp(lo - 1e-4), g, lo, hi)
    assert workloads.band_oracle(math.nan, g, lo, hi)
    assert workloads.band_oracle(g, -g, lo, hi)


def test_lorentz_oracles_flag_perturbed_values():
    lp = 0.8123
    assert workloads.lorentz_identity_oracle(lp * (1 + 1e-8), lp) is None
    assert workloads.lorentz_identity_oracle(lp * (1 + 1e-5), lp)
    assert workloads.lorentz_identity_oracle(lp * (1 - 1e-5), lp)
    assert workloads.weak_oracle(0.9 * lp, lp) is None
    assert workloads.weak_oracle(lp * (1 + 1e-5), lp)
    assert workloads.weighted_weak_oracle(0.9 * lp, lp) is None
    assert workloads.weighted_weak_oracle(lp * (1 + 1e-5), lp)
    assert workloads.weighted_two_oracle(1.1 * lp, lp) is None
    assert workloads.weighted_two_oracle(lp * (1 - 1e-5), lp)


def test_cli_oracles_flag_perturbed_values():
    coeffs = [0.3, -0.5, 0.8]
    exact = workloads.exact_l2(coeffs)
    assert workloads.norm_oracle({"results": {"value": exact}}, "lp", coeffs) is None
    assert workloads.norm_oracle({"results": {"value": exact * (1 + 1e-8)}}, "lp", coeffs)
    assert workloads.norm_oracle({"results": {"value": math.inf}}, "gnorm", coeffs)
    grid = [{"p": p, "psi": workloads.psi_power_log(p, 2.0)} for p in (1.0, 4.0, 64.0)]
    assert workloads.transform_oracle({"results": {"grid": grid}}) is None
    grid[1]["psi"] *= 1 + 1e-5
    assert workloads.transform_oracle({"results": {"grid": grid}})
    rows = [{"margin": 0.5}, {"margin": 0.0}]
    assert workloads.margins_oracle({"results": {"rows": rows}}) is None
    rows.append({"margin": -1e-12})
    assert workloads.margins_oracle({"results": {"rows": rows}})
    cli = workloads.Cli(3, small=True)
    assert cli._check("norm-lp", {"returncode": 1, "report": None, "stderr": "boom"})


def test_all_command_prints_every_metric_and_passes():
    proc = _run("--workload", "all", "--small", "--seed", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for metric in run.E2E_UNITS:
        assert proc.stdout.count(f"  {metric} ") == len(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "band", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
