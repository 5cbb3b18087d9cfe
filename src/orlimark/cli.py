"""Batch command line front end.

Subcommands map one-to-one to experiment kinds: norm evaluation, conjugate
transform tables, degree sweeps, the two-sided norm comparison, rational
derivative checks, tail analysis, and the extremal coefficient search.
Everything is driven by a sectioned key=value config file plus a few flags;
no environment variables are consulted.  The config schema is the fields of
``ExperimentConfig``: each names its section, key, converter and default.

Reports are emitted as CSV (fixed column order, 17 significant digits, so
repeated runs are byte identical) and JSON (sorted keys; the timestamp field
is the only part excluded from byte-stability guarantees).

Exit codes: 0 all asserted inequalities hold, 2 at least one asserted margin
or band check failed, 1 execution or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import io
import json
import math
import sys
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .conjugate import (
    exp_or_inf,
    log_power,
    phi_membership_check,
    power_log,
    psi,
    tabulated_phi,
    young_fenchel_lanes,
)
from .errors import ConfigError, ConjugateDivergenceError, ConstructionError, OrlimarkError, RejectedInputError, SummabilityError
from .functions import RANDOM_FAMILIES, InversePowerRep, RationalRep, from_text, random_family, to_text
from .harness import (
    SWEEP_FAMILIES,
    build_corpus,
    d_constant,
    equivalence_band,
    extremal_search,
    k_constant,
    lp_rational_check,
    markov_sweep,
    rational_orlicz_check,
    tail_check,
)
from .norms import NORM_KINDS, NormContext, NormSpec, equivalence_constants, evaluate_norm_info
from .quadrature import QuadratureConfig

COMMANDS = ("norm", "transform", "markov-sweep", "equivalence", "rational", "tail", "extremal")
FORMATS = ("csv", "json", "both")


def _choice(options):
    def conv(value):
        if value not in options:
            raise ValueError(f"{value!r} is not one of {sorted(options)}")
        return value

    return conv


def _int_list(value: str) -> tuple[int, ...]:
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p) for p in parts)


def _key(section: str, key: str, conv, default):
    """A config field read from ``key`` in ``[section]`` through ``conv``."""
    return field(default=default, metadata={"section": section, "key": key, "conv": conv})


@dataclass
class ExperimentConfig:
    """One experiment; every field but ``command`` and ``echo`` is a config
    key, declared once here with its section, converter and default."""

    command: str
    phi_family: str = _key("phi", "family", _choice(("power-log", "log-power", "tabulated")), "power-log")
    phi_m: float = _key("phi", "m", float, 2.0)
    phi_r: float = _key("phi", "r", float, 0.0)
    phi_nu: float = _key("phi", "nu", float, 1.0)
    phi_table: str | None = _key("phi", "table", str, None)
    fn_text: str | None = _key("function", "text", str, None)
    fn_family: str | None = _key("function", "family", _choice(RANDOM_FAMILIES), None)
    fn_degree: int = _key("function", "degree", int, 3)
    seed: int | None = _key("function", "seed", int, None)
    norm_kind: str = _key("norm", "kind", _choice(NORM_KINDS), "orlicz")
    norm_p: float = _key("norm", "p", float, 4.0)
    norm_b: float = _key("norm", "b", lambda s: math.inf if s in ("inf", "infinity") else float(s), 2.0)
    norm_order: int = _key("norm", "order", int, 1)
    sweep_family: str = _key("sweep", "family", _choice(SWEEP_FAMILIES), "jacobi22")
    n_lo: int = _key("sweep", "n_lo", int, 2)
    n_hi: int = _key("sweep", "n_hi", int, 16)
    rational_p: float = _key("rational", "p", float, 4.0)
    rational_orders: tuple[int, ...] = _key("rational", "orders", _int_list, (1, 2, 3))
    tail_s: float = _key("tail", "s", float, 0.5)
    tail_order: int = _key("tail", "order", int, 1)
    tail_m: float = _key("tail", "m", float, 2.0)
    tail_u_max: float = _key("tail", "u_max", float, 1e3)
    extremal_degree: int = _key("extremal", "degree", int, 3)
    extremal_restarts: int = _key("extremal", "restarts", int, 2)
    rel_tol: float = _key("tolerances", "rel_tol", float, 1e-10)
    out_path: str = _key("output", "path", str, "report")
    out_format: str = _key("output", "format", _choice(FORMATS), "both")
    echo: dict = field(default_factory=dict)


_SCHEMA = [f for f in fields(ExperimentConfig) if f.metadata]
# section -> its keys; [experiment] command is read before the fields
_KNOWN_KEYS = {"experiment": {"command"}}
for _f in _SCHEMA:
    _KNOWN_KEYS.setdefault(_f.metadata["section"], set()).add(_f.metadata["key"])


def _suggest(key: str, options) -> str:
    close = difflib.get_close_matches(key, sorted(options), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _scan_sections(text: str, problems: list[str]) -> dict:
    """First pass: raw (section, key) -> (value, line) with structural checks."""
    data: dict[str, dict[str, tuple[str, int]]] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                problems.append(f"line {lineno}: unterminated section header {line!r}")
                section = None
                continue
            name = line[1:-1].strip()
            if name not in _KNOWN_KEYS:
                problems.append(
                    f"line {lineno}: unknown section [{name}]{_suggest(name, _KNOWN_KEYS)}"
                )
                section = None
                continue
            section = name
            data.setdefault(section, {})
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected key = value, got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section is None:
            problems.append(f"line {lineno}: key {key!r} appears outside any section")
            continue
        if key not in _KNOWN_KEYS[section]:
            problems.append(
                f"line {lineno}: unknown key {key!r} in [{section}]"
                f"{_suggest(key, _KNOWN_KEYS[section])}"
            )
            continue
        if key in data[section]:
            problems.append(f"line {lineno}: duplicate key {key!r} in [{section}]")
            continue
        data[section][key] = (value, lineno)
    return data


def _convert(data, problems, section, key, conv, default):
    """The value of ``key`` in ``[section]`` through ``conv``, or ``default``
    when it is absent or does not convert (a problem is noted)."""
    entry = data.get(section, {}).get(key)
    if entry is None:
        return default
    value, lineno = entry
    try:
        return conv(value)
    except (ValueError, TypeError) as exc:
        problems.append(f"line {lineno}: bad value for {key!r}: {exc}")
        return default


def parse_config(text: str, command: str | None = None, seed: int | None = None) -> ExperimentConfig:
    """Parse and validate the sectioned key=value config text.

    Every problem is collected (with its line number) before raising, so one
    run of the parser reports all the fixes a config needs.  A ``seed`` given
    here (the --seed flag) overrides the [function] value before validation.
    """
    problems: list[str] = []
    data = _scan_sections(text, problems)

    cfg_command = _convert(data, problems, "experiment", "command", _choice(COMMANDS), None)
    if command is None:
        command = cfg_command
    elif cfg_command is not None and cfg_command != command:
        problems.append(
            f"line {data['experiment']['command'][1]}: config says command "
            f"{cfg_command!r} but the command line asked for {command!r}"
        )
    if command is None:
        problems.append("line 0: no command given (config [experiment] or subcommand)")
        command = "norm"

    cfg = ExperimentConfig(command=command)
    for f in _SCHEMA:
        setattr(cfg, f.name, _convert(data, problems, **f.metadata, default=f.default))
    if seed is not None:
        cfg.seed = seed

    if not (0.0 < cfg.rel_tol < math.inf):
        problems.append(f"line {data['tolerances']['rel_tol'][1]}: tolerance 'rel_tol' must be positive and finite, got {cfg.rel_tol!r}")
    if cfg.phi_family == "tabulated":
        if cfg.phi_table is None:
            problems.append("line 0: phi family 'tabulated' needs a 'table' path")
        else:
            try:
                with open(cfg.phi_table, "r", encoding="utf-8"):
                    pass
            except OSError as exc:
                problems.append(f"line {data['phi']['table'][1]}: cannot read table: {exc}")
    needs_function = command in ("norm", "rational")
    uses_generator = cfg.fn_text is None and cfg.fn_family is not None
    if needs_function and cfg.fn_text is None and cfg.fn_family is None:
        problems.append(f"line 0: command {command!r} needs a [function] section")
    generator_commands = command in ("equivalence", "extremal") or (
        command == "markov-sweep" and cfg.sweep_family == "random-poly"
    )
    if (uses_generator or generator_commands) and cfg.seed is None:
        problems.append(
            "line 0: a seed is required whenever functions are generated "
            "(set [function] seed or pass --seed)"
        )
    if command == "rational" and cfg.fn_text is not None and not cfg.fn_text.startswith("rational:"):
        problems.append("line 0: the rational command needs a 'rational:' function text")

    if problems:
        raise ConfigError(problems)
    cfg.echo = {
        section: {key: value for key, (value, _ln) in entries.items()}
        for section, entries in data.items()
    }
    return cfg


# ---------------------------------------------------------------------------
# experiment execution


def _build_phi(cfg: ExperimentConfig):
    if cfg.phi_family == "power-log":
        return power_log(cfg.phi_m, cfg.phi_r)
    if cfg.phi_family == "log-power":
        return log_power(cfg.phi_nu)
    zs, vals = [], []
    with open(cfg.phi_table, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                zs.append(float(row[0]))
                vals.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise RejectedInputError(f"phi table {cfg.phi_table}: line {reader.line_num}: expected two numbers z,value, got {','.join(row)!r}") from exc
    return tabulated_phi(zs, vals)


def _build_function(cfg: ExperimentConfig):
    if cfg.fn_text is not None:
        return from_text(cfg.fn_text)
    return random_family(cfg.fn_family, cfg.fn_degree, cfg.seed)


def _or_null(solve, *args):
    """solve(*args), or None where phi lacks that constant: it has no knee,
    no C4 (its gap series does not converge) or no psi(4) (h*(4) diverges)."""
    try:
        return solve(*args)
    except (ConstructionError, SummabilityError, ConjugateDivergenceError):
        return None


def _constants_block(phi, ctx: NormContext) -> dict:
    """phi's constants; one it lacks is null, and only a command that needs
    it fails on it."""
    n = _or_null(ctx.orlicz, phi)
    eq = n and _or_null(equivalence_constants, n)
    return {
        "splice_point": n and n.splice_point,
        "linear_slope": n and n.linear_slope,
        "c3": n and n.g_over_b,
        "c4_log": eq and eq.b_over_g_log,
        "c4_alt_log": eq and eq.b_over_g_alt_log,
        "split_index": n and n.split_index,
        "k4": k_constant(4.0),
        "psi4": _or_null(psi, phi, 4.0),
    }


def _run_norm(cfg: ExperimentConfig, phi, ctx: NormContext):
    f = _build_function(cfg)
    spec = NormSpec(cfg.norm_kind, p=cfg.norm_p, b=cfg.norm_b, r=float(cfg.norm_order), phi=phi)
    info = evaluate_norm_info(f, spec, ctx=ctx)
    value, p_star = info.value, info.p_star
    result = {
        "norm_kind": spec.kind,
        "label": spec.label,
        "function": to_text(f),
        "value": value,
        "inner_maximizer_p": p_star,
        "p_cap": info.p_cap,
    }
    rows = [
        {
            "kind": spec.kind,
            "label": spec.label,
            "value": value,
            "p_star": math.nan if p_star is None else p_star,
        }
    ]
    return result, rows, 0


def _run_transform(cfg: ExperimentConfig, phi, ctx: NormContext):
    report = phi_membership_check(phi)
    ps = np.geomspace(1.0, 256.0, 33)
    rows = []
    for p, hs in zip(ps, young_fenchel_lanes(phi, ps)[0].tolist()):
        rows.append(
            {
                "p": float(p),
                "hstar": hs,
                "psi": exp_or_inf(hs / p),
            }
        )
    result = {
        "phi": phi.label,
        "admissible": bool(report.admissible),
        "monotone": bool(report.monotone),
        "convex": bool(report.convex),
        "summable": bool(report.summable),
        "partial_sum": report.partial_sum,
        "tail_bound": report.tail_bound,
        "grid": rows,
    }
    return result, rows, 0 if report.admissible else 2


def _run_markov_sweep(cfg: ExperimentConfig, phi, ctx: NormContext):
    spec = NormSpec(cfg.norm_kind, p=cfg.norm_p, b=cfg.norm_b, r=float(cfg.norm_order), phi=phi)
    report = markov_sweep(
        phi,
        cfg.sweep_family,
        range(cfg.n_lo, cfg.n_hi + 1),
        norm=spec,
        ctx=ctx,
        seed=cfg.seed or 0,
    )
    rows = [
        {
            "family": report.family,
            "phi": report.phi_label,
            "norm": report.norm_label,
            "n": row.n,
            "ratio": row.ratio,
            "bound": row.bound,
            "margin": row.margin,
            "slope": report.slope,
        }
        for row in report.rows
    ]
    result = {
        "family": report.family,
        "norm": report.norm_label,
        "phi": report.phi_label,
        "slope": report.slope,
        "slope_ci": list(report.slope_ci),
        "c5_estimate": report.c5_estimate,
        "rows": rows,
    }
    return result, rows, 0 if report.min_margin >= 0.0 else 2


def _run_equivalence(cfg: ExperimentConfig, phi, ctx: NormContext):
    corpus = build_corpus(cfg.seed)
    report = equivalence_band(corpus, phi, ctx)
    rows = [
        {
            "phi": report.phi_label,
            "label": row.label,
            "b_norm": row.b_norm,
            "g_norm": row.g_norm,
            "ratio": math.exp(row.log_ratio),
            "lower_ok": int(row.lower_ok),
            "upper_ok": int(row.upper_ok),
            "used_fallback": int(row.used_fallback),
            **{key: getattr(row, key) for key in ("restricted_sup", "sandwich_lower_margin", "displayed_margin", "corrected_margin")},
        }
        for row in report.rows
    ]
    result = {
        "phi": report.phi_label,
        "violations": report.violations,
        "fallback_count": report.fallback_count,
        "empirical_lo": report.empirical_lo,
        "empirical_hi": report.empirical_hi,
        "c3": report.c3,
        "c4_log": report.c4_log,
        **{key: getattr(report, key) for key in ("factor_displayed", "factor_corrected", "displayed_misses", "corrected_misses")},
        "rows": rows,
    }
    # a displayed miss is the report's finding, not a failed check
    return result, rows, 0 if report.violations == 0 and report.corrected_misses == 0 else 2


def _run_rational(cfg: ExperimentConfig, phi, ctx: NormContext):
    f = _build_function(cfg)
    if not isinstance(f, RationalRep):
        raise ConfigError(["line 0: the rational command needs a rational function"])
    rows = []
    worst = math.inf
    for order in cfg.rational_orders:
        lp_chk = lp_rational_check(f, cfg.rational_p, order, ctx=ctx)
        or_chk = rational_orlicz_check(f, phi, order, ctx=ctx)
        for name, chk in (("lp", lp_chk), ("orlicz", or_chk)):
            worst = min(worst, chk.margin)
            rows.append(
                {
                    "check": name,
                    "order": order,
                    "degree": chk.degree,
                    "gamma": chk.gamma,
                    "lhs": chk.lhs,
                    "rhs": chk.rhs,
                    "margin": chk.margin,
                    "d_r": d_constant(order),
                }
            )
    result = {
        "function": to_text(f),
        "phi": phi.label,
        "p": cfg.rational_p,
        "rows": rows,
    }
    return result, rows, 0 if worst >= 0.0 else 2


def _run_tail(cfg: ExperimentConfig, phi, ctx: NormContext):
    f = InversePowerRep(cfg.tail_order * cfg.tail_s)
    report = tail_check(f, cfg.tail_m, cfg.tail_order, u_max=cfg.tail_u_max, ctx=ctx)
    rows = [
        {"u": float(u), "t": float(t), "model": float(mv)}
        for u, t, mv in zip(report.u_grid, report.t_values, report.model_values)
    ]
    result = {
        "s": cfg.tail_s,
        "order": cfg.tail_order,
        "m": cfg.tail_m,
        "prefactor": report.prefactor,
        "max_violation": report.max_violation,
        "normalizer": report.normalizer,
        "converse_norm": report.converse_norm,
        "beta_exponent_measured": report.beta_exponent_measured,
        "beta_exponent_model": report.beta_exponent_model,
        "rows": rows,
    }
    ok = math.isfinite(report.prefactor) and report.max_violation <= 1e-12
    return result, rows, 0 if ok else 2


def _run_extremal(cfg: ExperimentConfig, phi, ctx: NormContext):
    rep, ratio = extremal_search(
        phi, cfg.extremal_degree, restarts=cfg.extremal_restarts, ctx=ctx, seed=cfg.seed or 0
    )
    result = {"n": cfg.extremal_degree, "ratio": ratio, "function": to_text(rep)}
    return result, [result], 0


_RUNNERS = {
    "norm": _run_norm,
    "transform": _run_transform,
    "markov-sweep": _run_markov_sweep,
    "equivalence": _run_equivalence,
    "rational": _run_rational,
    "tail": _run_tail,
    "extremal": _run_extremal,
}


def run(cfg: ExperimentConfig, verbose: bool = False):
    """Execute the configured experiment; returns (envelope, rows, header,
    exit_code), the header being the keys of the first row."""
    ctx = NormContext(QuadratureConfig(rel_tol=cfg.rel_tol))
    phi = _build_phi(cfg)
    if verbose:
        print(f"running {cfg.command} with {phi.label}", file=sys.stderr)
    result, rows, code = _RUNNERS[cfg.command](cfg, phi, ctx)
    envelope = {
        "tool": {"name": "orlimark", "version": __version__},
        "command": cfg.command,
        "config": cfg.echo,
        "seed": cfg.seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "constants": _constants_block(phi, ctx),
        "results": result,
        "exit_code": code,
    }
    return envelope, rows, list(rows[0]), code


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def render_csv(rows, header) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(row[col]) for col in header])
    return buf.getvalue()


def render_json(envelope) -> str:
    def default(o):
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(f"not serializable: {type(o).__name__}")

    return json.dumps(envelope, sort_keys=True, indent=2, default=default) + "\n"


def emit(envelope, rows, header, out_path: str, fmt: str) -> list[str]:
    """Write the report files; returns the paths written."""
    written = []
    if fmt in ("csv", "both"):
        path = out_path + ".csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(render_csv(rows, header))
        written.append(path)
    if fmt in ("json", "both"):
        path = out_path + ".json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_json(envelope))
        written.append(path)
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlimark",
        description="Norms on exponential Orlicz spaces and Markov/Bernstein inequality checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", help="path to the sectioned key=value config file")
        p.add_argument("--out", help="output path base (suffixes .csv/.json added)")
        p.add_argument("--format", choices=FORMATS, help="report format")
        p.add_argument("--seed", type=int, help="seed for generated functions")
        p.add_argument("--verbose", action="store_true", help="progress notes on stderr")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = ""
        cfg = parse_config(text, command=args.command, seed=args.seed)
        if args.out is not None:
            cfg.out_path = args.out
        if args.format is not None:
            cfg.out_format = args.format
        envelope, rows, header, code = run(cfg, verbose=args.verbose)
        paths = emit(envelope, rows, header, cfg.out_path, cfg.out_format)
        if args.verbose:
            for path in paths:
                print(f"wrote {path}", file=sys.stderr)
        print(f"{cfg.command}: exit {code}")
        return code
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except (OrlimarkError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
