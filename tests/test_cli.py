"""Config parsing, report rendering, envelope contract, exit codes."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orlimark

from orlimark import harness
from orlimark.cli import (
    _KNOWN_KEYS,
    _SCHEMA,
    ExperimentConfig,
    emit,
    main,
    parse_config,
    render_csv,
    render_json,
    run,
)
from orlimark.conjugate import log_power
from orlimark.errors import ConfigError
from orlimark.functions import from_text
from orlimark.norms import construct_N, luxemburg_norm

NORM_CFG = """
[experiment]
command = norm

[phi]
family = power-log
m = 2.0

[function]
text = poly: 1.0, 0.0, -1.0

[norm]
kind = orlicz
"""

SWEEP_CFG = """
[experiment]
command = markov-sweep

[phi]
family = power-log
m = 2.0

[sweep]
family = jacobi22
n_lo = 2
n_hi = 5

[norm]
kind = lp
p = 4.0
"""


class TestParseConfig:
    def test_full_round(self):
        cfg = parse_config(NORM_CFG)
        assert cfg.command == "norm"
        assert cfg.phi_family == "power-log"
        assert cfg.phi_m == 2.0
        assert cfg.fn_text == "poly: 1.0, 0.0, -1.0"
        assert cfg.norm_kind == "orlicz"

    def test_comments_and_blank_lines(self):
        cfg = parse_config(NORM_CFG.replace("[norm]", "# a comment\n\n[norm]"))
        assert cfg.norm_kind == "orlicz"

    def test_all_problems_collected(self):
        bad = """
[experiment]
command = norm

[phi]
family = power-log
m = not-a-number
wobble = 3

[norm]
kind = orlicz
"""
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        text = "\n".join(info.value.problems)
        assert "line 7" in text and "wobble" in text     # unknown key
        assert "not-a-number" in text                    # bad float
        assert "function" in text                        # norm needs one

    def test_duplicate_key(self):
        dup = NORM_CFG + "\n[norm]\nkind = lp\n"
        with pytest.raises(ConfigError) as info:
            parse_config(dup)
        assert any("duplicate" in p for p in info.value.problems)

    def test_command_mismatch(self):
        with pytest.raises(ConfigError) as info:
            parse_config(NORM_CFG, command="tail")
        assert any("command" in p for p in info.value.problems)

    def test_seed_flag_satisfies_generator_requirement(self):
        text = """
[experiment]
command = equivalence

[phi]
family = power-log
m = 2.0
"""
        with pytest.raises(ConfigError):
            parse_config(text)
        cfg = parse_config(text, seed=7)
        assert cfg.seed == 7

    def test_rational_requires_rational_function(self):
        text = NORM_CFG.replace("command = norm", "command = rational")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert any("rational" in p for p in info.value.problems)

    def test_nonpositive_tolerance(self):
        # a tolerance that is not a positive finite float, reported at its line
        for value in ("-1.0", "inf", "nan"):
            text = NORM_CFG + f"\n[tolerances]\nrel_tol = {value}\n"
            line = text.splitlines().index(f"rel_tol = {value}") + 1
            with pytest.raises(ConfigError) as info:
                parse_config(text)
            assert any(p.startswith(f"line {line}: tolerance 'rel_tol'") for p in info.value.problems), value

    @pytest.mark.parametrize("key", ["slack", "bound_scale"])
    def test_removed_tolerance_is_unknown(self, key):
        # the band's slack is fixed in the harness and the bounds are the
        # harness's own: neither is a setting
        with pytest.raises(ConfigError) as info:
            parse_config(NORM_CFG + f"\n[tolerances]\n{key} = 0.1\n")
        assert any(f"unknown key {key!r} in [tolerances]" in p for p in info.value.problems)

    def test_unknown_section(self):
        text = NORM_CFG + "\n[frobnicate]\nx = 1\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert any("frobnicate" in p for p in info.value.problems)


class TestRendering:
    def test_csv_17_digits(self):
        rows = [{"a": 1.0 / 3.0, "b": "x"}]
        text = render_csv(rows, ["a", "b"])
        assert "0.33333333333333331" in text
        assert text.splitlines()[0] == "a,b"
        assert "\r" not in text

    def test_json_sorted_and_stable(self):
        env = {"b": 1, "a": [2.0, 3.0]}
        text = render_json(env)
        assert text.index('"a"') < text.index('"b"')
        assert render_json(env) == text


class TestRun:
    def test_norm_envelope(self):
        cfg = parse_config(NORM_CFG)
        envelope, rows, header, code = run(cfg)
        assert code == 0
        assert envelope["command"] == "norm"
        assert envelope["tool"]["name"] == "orlimark"
        assert set(header) >= {"kind", "label", "value"}
        assert rows[0]["value"] > 0.0
        assert "constants" in envelope and "config" in envelope

    def test_determinism_modulo_timestamp(self):
        cfg = parse_config(SWEEP_CFG)
        env_a, rows_a, header, _ = run(cfg)
        env_b, rows_b, _, _ = run(cfg)
        assert render_csv(rows_a, header) == render_csv(rows_b, header)
        env_a.pop("timestamp")
        env_b.pop("timestamp")
        assert render_json(env_a) == render_json(env_b)

    def test_violated_bound_exits_two(self, monkeypatch):
        # K(p) a millionth of its value puts every bound under its ratio
        k_constant = harness.k_constant
        monkeypatch.setattr(harness, "k_constant", lambda p: 1e-6 * k_constant(p))
        cfg = parse_config(SWEEP_CFG)
        env, rows, _header, code = run(cfg)
        assert code == 2
        assert all(row["margin"] == row["bound"] - row["ratio"] < 0.0 for row in rows)
        assert "bound_scale" not in env["results"]

    def test_passing_bound_exits_zero(self):
        cfg = parse_config(SWEEP_CFG)
        _env, _rows, _header, code = run(cfg)
        assert code == 0


class TestEmit:
    def test_both_formats_written(self, tmp_path):
        cfg = parse_config(NORM_CFG)
        envelope, rows, header, _code = run(cfg)
        base = tmp_path / "report"
        paths = emit(envelope, rows, header, str(base), "both")
        assert sorted(p.rsplit(".", 1)[1] for p in paths) == ["csv", "json"]
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["command"] == "norm"
        assert (tmp_path / "report.csv").read_text().startswith("kind,")


class TestMain:
    def test_exit_zero(self, tmp_path, capsys):
        cfg_file = tmp_path / "n.cfg"
        cfg_file.write_text(NORM_CFG)
        code = main(["norm", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert code == 0
        assert "norm: exit 0" in capsys.readouterr().out

    def test_config_error_exit_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("[norm]\nkind = orlicz\n")
        code = main(["norm", "--config", str(cfg_file)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        code = main(["norm", "--config", "/does/not/exist.cfg"])
        assert code == 1

    def test_tail_nan_u_max_exit_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "t.cfg"
        cfg_file.write_text("[tail]\nu_max = nan\n")
        code = main(["tail", "--config", str(cfg_file), "--out", str(tmp_path / "t")])
        assert code == 1
        assert any(line.startswith("error:") and "u_max" in line for line in capsys.readouterr().err.splitlines())

    def test_tail_just_below_q_equal_r(self, tmp_path):
        # just below q = r the v-scan's peak, near p = 973, lies past the
        # first grid; the normalizer is the closed-form supremum over p >= 4
        # of 2^-q (1 - q beta)^(-1/beta) / psi(p), beta = p / (p + 1)
        cfg_file = tmp_path / "t.cfg"
        cfg_file.write_text("[tail]\ns = 0.999\norder = 1\n")
        assert main(["tail", "--config", str(cfg_file), "--out", str(tmp_path / "t")]) == 0
        normalizer = json.loads((tmp_path / "t.json").read_text())["results"]["normalizer"]
        assert abs(normalizer / 18.5813343679 - 1.0) <= 1e-10

    def test_table_without_c4_reports_it_absent(self, tmp_path, capsys):
        # past its last point a table's h continues linearly, so its gap
        # series diverges: C4 is written as null, C3 and the knee stay, and
        # only the subcommand that needs C4 fails on it
        (tmp_path / "phi.csv").write_text("0.5,0.05\n1,0.2\n2,0.9\n4,4\n8,20\n")
        phi = f"[phi]\nfamily = tabulated\ntable = {tmp_path / 'phi.csv'}\n"
        cfg_file = tmp_path / "t.cfg"
        cfg_file.write_text(phi + "\n[function]\ntext = poly:0.3,-1.2,0.5\n\n[norm]\nkind = orlicz\n")
        # transform's verdict: the table is not admissible, exit 2
        for command, expect in (("transform", 2), ("norm", 0)):
            assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / command)]) == expect
            constants = json.loads((tmp_path / f"{command}.json").read_text())["constants"]
            assert constants["c4_log"] is None and constants["c4_alt_log"] is None
            assert constants["splice_point"] == 1.0 and constants["c3"] == 1.0
        assert main(["equivalence", "--config", str(cfg_file), "--seed", "7", "--out", str(tmp_path / "e")]) == 1
        assert "gap series" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0.5", "0.5,abc"])
    def test_malformed_table_row_is_an_error_at_its_line(self, row, tmp_path, capsys):
        (tmp_path / "phi.csv").write_text(f"0.25,0.0625\n{row}\n1,1\n")
        cfg_file = tmp_path / "t.cfg"
        cfg_file.write_text(f"[phi]\nfamily = tabulated\ntable = {tmp_path / 'phi.csv'}\n")
        assert main(["transform", "--config", str(cfg_file), "--out", str(tmp_path / "t")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert any(line.startswith("error:") and "phi.csv" in line and "line 2" in line for line in err.splitlines()), err

    def test_constants_phi_lacks_are_null(self, tmp_path, capsys):
        # log(1 + z)^1.05 has a knee but no C4 and no psi(4); the knee of
        # z^2 log(e^7 + z)^-10 lies at y*(1) = 12.56, outside [1e-3, 1e3]
        function = "[function]\ntext = poly:0.3,-1.2,0.5\n\n[norm]\nkind = lp\np = 2\n"
        cases = {
            "log-power": ("[phi]\nfamily = log-power\nnu = 0.05\n", 2, ("c4_log", "c4_alt_log", "psi4")),
            "no-knee": (
                "[phi]\nfamily = power-log\nm = 2\nr = 5\n",
                0,
                ("splice_point", "linear_slope", "c3", "c4_log", "c4_alt_log", "split_index"),
            ),
        }
        for name, (phi, verdict, absent) in cases.items():
            cfg_file = tmp_path / f"{name}.cfg"
            cfg_file.write_text(phi + function)
            # transform's verdict, and an lp norm, which needs none of them
            for command, expect in (("transform", verdict), ("norm", 0)):
                base = tmp_path / f"{name}-{command}"
                assert main([command, "--config", str(cfg_file), "--out", str(base)]) == expect, (name, command)
                data = json.loads(base.with_suffix(".json").read_text())
                constants = data["constants"]
                assert [key for key, value in constants.items() if value is None] == sorted(absent)
                assert constants["k4"] > 0.0
            assert data["results"]["value"] == pytest.approx(math.sqrt(0.72), rel=1e-12)
        # a command that needs the missing constant fails on it
        cfg_file.write_text(cases["no-knee"][0] + function.replace("kind = lp", "kind = orlicz"))
        assert main(["norm", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 1
        assert "no knee" in capsys.readouterr().err

    def test_vnorm_whose_weight_diverges_exits_one(self, tmp_path, capsys):
        # h*(4) of log(1 + z)^1.05 is +inf, so psi diverges at the v-scan's
        # lowest exponent and no ratio is a number: exit 1, not a value of 0
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text("[phi]\nfamily = log-power\nnu = 0.05\n\n[function]\ntext = poly:0.3,-1.2,0.5\n\n[norm]\nkind = vnorm\n")
        assert main(["norm", "--config", str(cfg_file), "--out", str(tmp_path / "v")]) == 1
        assert any(line.startswith("error:") and "diverges at p_lo = 4.0" in line for line in capsys.readouterr().err.splitlines())

    def test_log_power_norm_is_the_library_value(self, tmp_path):
        cfg_file = tmp_path / "n.cfg"
        cfg_file.write_text("[phi]\nfamily = log-power\nnu = 1\n\n[function]\ntext = poly:0.3,-1.2,0.5\n\n[norm]\nkind = orlicz\n")
        assert main(["norm", "--config", str(cfg_file), "--out", str(tmp_path / "n")]) == 0
        value = json.loads((tmp_path / "n.json").read_text())["results"]["value"]
        assert value == luxemburg_norm(from_text("poly:0.3,-1.2,0.5"), construct_N(log_power(1.0)))

    def test_rational_report(self, tmp_path):
        cfg_file = tmp_path / "r.cfg"
        cfg_file.write_text("[function]\nfamily = rational\ndegree = 4\n")
        assert main(["rational", "--config", str(cfg_file), "--seed", "7", "--out", str(tmp_path / "r")]) == 0
        rows = json.loads((tmp_path / "r.json").read_text())["results"]["rows"]
        assert sorted((row["order"], row["check"]) for row in rows) == [
            (r, check) for r in (1, 2, 3) for check in ("lp", "orlicz")
        ]
        assert all(row["margin"] >= 0.0 and row["margin"] == row["rhs"] - row["lhs"] for row in rows)

    def test_rational_of_a_polynomial_exit_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "r.cfg"
        cfg_file.write_text("[function]\nfamily = polynomial\ndegree = 4\n")
        assert main(["rational", "--config", str(cfg_file), "--seed", "7", "--out", str(tmp_path / "r")]) == 1
        assert "needs a rational function" in capsys.readouterr().err

    def test_equivalence_report(self, tmp_path):
        # the corrected sandwich factor max(1, psi(4) / psi(1)) is 4^(1/2)
        # for z^2, and no member of the seed-7 corpus misses it
        assert main(["equivalence", "--seed", "7", "--out", str(tmp_path / "e")]) == 0
        results = json.loads((tmp_path / "e.json").read_text())["results"]
        assert results["violations"] == 0 and len(results["rows"]) == 60
        assert results["factor_corrected"] == pytest.approx(2.0, rel=1e-12) and results["corrected_misses"] == 0

    def test_equivalence_violation_exits_two(self, tmp_path, monkeypatch):
        # a lower edge above B/G = 1 fails the constant members
        constants = harness.equivalence_constants
        monkeypatch.setattr(
            harness, "equivalence_constants", lambda n: dataclasses.replace(constants(n), g_over_b=math.exp(-1e-5))
        )
        assert main(["equivalence", "--seed", "7", "--out", str(tmp_path / "e")]) == 2
        results = json.loads((tmp_path / "e.json").read_text())["results"]
        assert results["violations"] == sum(not row["lower_ok"] for row in results["rows"]) > 0

    def test_tail_report(self, tmp_path):
        # T(w) of (1 - x)^-1/2 is w^-2 / 2 against dx/2, in closed form
        # beside the singular end: every row's t at order 1 and s = 0.5 is
        # (u * normalizer)^-2 / 2, out to u_max = 1e8, where a crossing
        # solved in x was 4.4 off
        cfg_file = tmp_path / "t.cfg"
        for name, tail in (("default", ""), ("order-2", "s = 0.9\norder = 2\n"), ("u_max", "u_max = 1e8\n")):
            cfg_file.write_text("[tail]\n" + tail)
            assert main(["tail", "--config", str(cfg_file), "--out", str(tmp_path / name)]) == 0, name
            results = json.loads((tmp_path / f"{name}.json").read_text())["results"]
            v = results["normalizer"]
            assert math.isfinite(v), name
            if name != "order-2":
                off = max(abs(row["t"] / ((row["u"] * v) ** -2 / 2) - 1) for row in results["rows"])
                assert off <= 1e-12, name

    @pytest.mark.parametrize(
        "norm, label",
        [("kind = lorentz\np = 2\nb = 3", "lorentz(p=2,b=3)"), ("kind = vnorm", "vnorm(power-log(m=2,r=0),r=1)")],
        ids=["lorentz", "vnorm"],
    )
    def test_norm_labels(self, tmp_path, norm, label):
        cfg_file = tmp_path / "n.cfg"
        cfg_file.write_text(f"[function]\ntext = poly:0.3,-1.2,0.5\n\n[norm]\n{norm}\n")
        assert main(["norm", "--config", str(cfg_file), "--out", str(tmp_path / "n")]) == 0
        results = json.loads((tmp_path / "n.json").read_text())["results"]
        assert results["label"] == label and math.isfinite(results["value"]) and results["value"] > 0.0
        if results["norm_kind"] == "vnorm":
            assert results["inner_maximizer_p"] >= 4.0

    def test_gnorm_reports_its_cap(self, tmp_path):
        # x^8 under power_log(2): ||x^8||_p <= sup|x^8| = 1 and the ratio at
        # p = 1 is (1/9) / psi(1), log psi(p) = (log(p/2) - 1)/2, so no p
        # above 81 can win; p_cap is the last grid point at or below it (the
        # next is 82.89)
        cfg_file = tmp_path / "n.cfg"
        cfg_file.write_text("[function]\ntext = poly:0,0,0,0,0,0,0,0,1\n\n[norm]\nkind = gnorm\n")
        assert main(["norm", "--config", str(cfg_file), "--out", str(tmp_path / "n")]) == 0
        results = json.loads((tmp_path / "n.json").read_text())["results"]
        assert results["p_cap"] == 79.9620482965587
        assert results["inner_maximizer_p"] == pytest.approx(5.7393, abs=1e-4)
        assert results["value"] == pytest.approx(0.4977702551154894, rel=1e-12)
        cfg_file.write_text("[function]\ntext = poly:0.3,-1.2,0.5\n\n[norm]\nkind = lp\np = 2\n")
        assert main(["norm", "--config", str(cfg_file), "--out", str(tmp_path / "lp")]) == 0
        assert json.loads((tmp_path / "lp.json").read_text())["results"]["p_cap"] is None

    def test_seed_flag_merges(self, tmp_path):
        cfg_file = tmp_path / "e.cfg"
        cfg_file.write_text(
            "[experiment]\ncommand = extremal\n\n[phi]\nfamily = power-log\nm = 2.0\n"
            "\n[extremal]\ndegree = 2\nrestarts = 1\n"
        )
        code = main(
            ["extremal", "--config", str(cfg_file), "--seed", "3", "--out", str(tmp_path / "x")]
        )
        assert code == 0
        data = json.loads((tmp_path / "x.json").read_text())
        assert data["seed"] == 3


def test_experiment_config_defaults():
    cfg = ExperimentConfig(command="norm")
    assert cfg.out_format in ("csv", "json", "both")
    assert _KNOWN_KEYS["tolerances"] == {"rel_tol"}


def test_readme_config_block_is_the_schema():
    # the README's example config names every key, commented or not, and
    # each uncommented value is the default, but for the command and text
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    schema = {(f.metadata["section"], f.metadata["key"]): f for f in _SCHEMA}
    keys, section = {}, None
    for line in block.splitlines():
        header = re.match(r"\[(\w+)\]", line)
        entry = re.match(r"(#\s*)?(\w+)\s*=\s*(\S+)", line)
        if header:
            section = header[1]
            keys[section] = set()
        elif entry:
            commented, key, value = entry.groups()
            keys[section].add(key)
            if not commented and (section, key) not in (("experiment", "command"), ("function", "text")):
                f = schema[(section, key)]
                assert f.metadata["conv"](value) == f.default, (section, key, value)
    assert keys == _KNOWN_KEYS


# Run in a child interpreter where every scipy import fails.
_NO_SCIPY_CHILD = """
import sys
sys.path.insert(0, {src!r})
sys.modules["scipy"] = None
from orlimark import cli
codes = []
for command, cfg in [("norm", {orlicz!r}), ("norm", {gnorm!r}), ("transform", None), ("tail", None)]:
    argv = [command, "--out", {out!r} + str(len(codes)), "--format", "json"]
    if cfg is not None:
        argv += ["--config", cfg]
    codes.append(cli.main(argv))
print("codes", codes)
"""


def test_runtime_needs_no_scipy(tmp_path):
    # norm with kind = orlicz reaches both root solves (splice knee and
    # Luxemburg root); gnorm, transform and tail cover the other norm paths.
    src = os.path.dirname(os.path.dirname(os.path.abspath(orlimark.__file__)))
    orlicz = tmp_path / "orlicz.cfg"
    orlicz.write_text(NORM_CFG)
    gnorm = tmp_path / "gnorm.cfg"
    gnorm.write_text(NORM_CFG.replace("kind = orlicz", "kind = gnorm"))
    child = _NO_SCIPY_CHILD.format(
        src=src, orlicz=str(orlicz), gnorm=str(gnorm), out=str(tmp_path / "out")
    )
    done = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    assert "codes [0, 0, 0, 0]" in done.stdout, done.stdout + done.stderr

    imported = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; sys.path.insert(0, {src!r}); import orlimark.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert imported.returncode == 0, imported.stderr
    assert imported.stdout.strip() == "[]"

    # markov-sweep computes its t-quantile in-house and loads no scipy
    # module: six degrees give the five points the slope fit needs.
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(SWEEP_CFG.replace("n_hi = 5", "n_hi = 6"))
    swept = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; sys.path.insert(0, {src!r}); from orlimark import cli; "
            f"code = cli.main(['markov-sweep', '--config', {str(sweep)!r}, "
            f"'--out', {str(tmp_path / 'sweep')!r}, '--format', 'json']); "
            "print('code', code, any(m.split('.')[0] == 'scipy' for m in sys.modules))",
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert swept.returncode == 0, swept.stderr
    assert "code 0 False" in swept.stdout, swept.stdout + swept.stderr
    results = json.loads((tmp_path / "sweep.json").read_text())["results"]
    lo, hi = results["slope_ci"]
    assert math.isfinite(lo) and math.isfinite(hi) and lo < results["slope"] < hi


def test_runtime_loads_no_numpy_polynomial(tmp_path):
    # break points, derivatives, the Jacobi and Chebyshev constructors and
    # the Gauss rule take numpy.polynomial's operations without the module:
    # the subcommands of the benchmark's cli workload never import it; nor
    # numpy.ma, which np.unique's first call imports and the library avoids
    src = os.path.dirname(os.path.dirname(os.path.abspath(orlimark.__file__)))
    norm = tmp_path / "norm.cfg"
    norm.write_text(NORM_CFG)
    rational = tmp_path / "rational.cfg"
    rational.write_text("[function]\nfamily = rational\ndegree = 4\n")
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(SWEEP_CFG)
    runs = [
        ["norm", "--config", str(norm)],
        ["transform"],
        ["rational", "--config", str(rational), "--seed", "7"],
        ["tail"],
        ["markov-sweep", "--config", str(sweep)],
        ["equivalence", "--seed", "7"],
    ]
    child = (
        f"import sys; sys.path.insert(0, {src!r}); from orlimark import cli; "
        f"codes = [cli.main(argv + ['--out', {str(tmp_path / 'out')!r} + str(i), '--format', 'json']) for i, argv in enumerate({runs!r})]; "
        "print('codes', codes, 'numpy.polynomial' in sys.modules, 'numpy.ma' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "codes [0, 0, 0, 0, 0, 0] False False", done.stdout + done.stderr
