"""Command-line front end: sweeps and the validation suite.

Usage examples:

  ptosc probabilities --eta 0.6 --phase 0:6.283185307179586:64
  ptosc probabilities --eta 0:0.95:20 --methods closed_form,trace --format json
  ptosc masses --eta 0:2:81 --ratio 0.5 --output masses.csv
  ptosc cardioid --eta 0.1,0.5,0.9
  ptosc validate --json

Grids are written as a single value ``v``, a comma list ``v1,v2,...`` or a
range ``min:max:steps`` (steps >= 2, linearly spaced, endpoints included).
Flags override an optional ``key = value`` config file (--config).  Output
is deterministic: fixed column order, rows in grid order, floats at 17
significant digits, LF line endings.

Exit codes: 0 success, 1 validation failure, 2 bad configuration (also an
unparsable or non-finite number, an unwritable output), 3 domain error
(exceptional point / broken PT phase / tachyonic mass).
"""

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import BrokenPTPhase, DomainError, ExceptionalPoint, TachyonicMass
from .model import (
    EXCEPTIONAL_POINT_BAND,
    ModelParams,
    eigensystem,
    hermitian_eigenvalues,
    make_params,
    params_from_eta,
    pt_eigenvalues,
)
from .probabilities import (
    hermitian_transition_probability,
    naive_continuation_value,
    survival_probability,
    trace_probabilities,
    transition_probability,
    cardioid_r,
)
from .validation import OracleGrid, check_all

TWO_PI = 2.0 * math.pi

METHOD_ORDER = ("closed_form", "trace", "hermitian", "naive_continuation")
METHOD_COLUMNS = {
    "closed_form": ("pt_survival", "pt_transition"),
    "trace": ("trace_survival", "trace_transition"),
    "hermitian": ("herm_survival", "herm_transition"),
    "naive_continuation": ("naive_transition",),
}

# reference mass scale for eta-parameterised sweeps: (m1^2, m2^2) = (2, 1)
REFERENCE_SUM_SQ = 3.0
REFERENCE_RATIO = 1.0 / 3.0


class _ConfigError(Exception):
    pass


@dataclass
class SweepConfig:
    """Resolved settings for one sweep command."""

    etas: list[float] = field(default_factory=list)
    phases: list[float] = field(default_factory=list)
    t0: float = 0.0
    ratio: float = 0.5
    methods: list[str] = field(default_factory=list)
    fmt: str = "csv"
    output: str | None = None
    params: ModelParams | None = None   # raw-params override
    json_reports: bool = False
    tolerance: float | None = None


# --- parsing helpers -------------------------------------------------------

def _number(text: str, name: str, kind=float):
    """A finite float (or int), else a configuration error naming the flag."""
    try:
        value = kind(text)
    except ValueError:
        raise _ConfigError(f"{name}: cannot parse {text!r} as a number") from None
    if not math.isfinite(value):
        raise _ConfigError(f"{name}: must be finite, got {text!r}")
    return value


def _parse_grid(text: str, name: str) -> list[float]:
    """A single value, a comma list, or min:max:steps."""
    text = text.strip()
    if ":" not in text:
        return [_number(v, name) for v in text.split(",")]
    parts = text.split(":")
    if len(parts) != 3:
        raise _ConfigError(f"{name}: range must be min:max:steps, got {text!r}")
    lo, hi, steps = _number(parts[0], name), _number(parts[1], name), _number(parts[2], name, int)
    if steps < 2:
        raise _ConfigError(f"{name}: steps must be >= 2, got {steps}")
    if not lo < hi:
        raise _ConfigError(f"{name}: need min < max, got {lo} >= {hi}")
    return [float(v) for v in np.linspace(lo, hi, steps)]


def _parse_methods(text: str) -> list[str]:
    methods = [m.strip() for m in text.split(",") if m.strip()]
    for m in methods:
        if m not in METHOD_ORDER:
            raise _ConfigError(
                f"unknown method {m!r}; choose from {', '.join(METHOD_ORDER)}")
    if not methods:
        raise _ConfigError("methods list is empty")
    return sorted(set(methods), key=METHOD_ORDER.index)


def _parse_raw_params(text: str) -> ModelParams:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise _ConfigError(f"--raw-params needs m1sq,m2sq,musq,p, got {text!r}")
    try:
        return make_params(*(_number(p, "--raw-params") for p in parts))
    except DomainError as exc:
        raise _ConfigError(f"--raw-params: {exc}") from exc


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise _ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise _ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return values


def _merged(args: argparse.Namespace, keys: tuple[str, ...]) -> dict[str, str | None]:
    """Flag values override config-file values; missing entries are None."""
    config = _load_config(args.config) if args.config else {}
    unknown = set(config) - set(keys)
    if unknown:
        raise _ConfigError(f"unknown config keys for this command: {sorted(unknown)}")
    out: dict[str, str | None] = {}
    for key in keys:
        flag = getattr(args, key, None)
        out[key] = str(flag) if flag is not None else config.get(key)
    return out


# --- output ----------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalise -0.0
    return f"{value:.17g}"


def _emit(columns: list[str], rows: list[dict], fmt: str, output: str | None) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
    else:
        body = []
        for row in rows:
            cells = ", ".join(
                f'"{c}": ' + (_fmt(row[c]) if row[c] is not None else "null")
                for c in columns)
            body.append("  {" + cells + "}")
        lines = ["[", ",\n".join(body), "]"]
    _write("\n".join(lines) + "\n", output)


def _write(text: str, output: str | None) -> None:
    if output is None or output in ("stdout", "-"):
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise _ConfigError(f"cannot write {output!r}: {exc.strerror or exc}") from exc


# --- commands ----------------------------------------------------------------

def _resolve_probabilities(args: argparse.Namespace) -> SweepConfig:
    merged = _merged(args, ("eta", "phase", "t0", "methods", "format", "output",
                            "raw_params"))
    cfg = SweepConfig()
    cfg.methods = _parse_methods(merged["methods"] or "closed_form,hermitian")
    cfg.phases = _parse_grid(merged["phase"] or f"0:{TWO_PI!r}:64", "--phase")
    cfg.t0 = _number(merged["t0"] or "0", "--t0")
    cfg.fmt = merged["format"] or "csv"
    if cfg.fmt not in ("csv", "json"):
        raise _ConfigError(f"--format must be csv or json, got {cfg.fmt!r}")
    cfg.output = merged["output"]
    if merged["raw_params"] is not None:
        if merged["eta"] is not None:
            raise _ConfigError("--eta and --raw-params are mutually exclusive")
        cfg.params = _parse_raw_params(merged["raw_params"])
        cfg.etas = [cfg.params.eta]
    else:
        cfg.etas = _parse_grid(merged["eta"] or "0:0.95:20", "--eta")
    if any(eta < 0.0 for eta in cfg.etas):
        raise _ConfigError("eta values must be non-negative")
    return cfg


def cmd_probabilities(cfg: SweepConfig) -> int:
    """Survival/transition probabilities on an eta x phase grid."""
    needs_states = [m for m in cfg.methods if m in ("trace", "naive_continuation")]
    for eta in cfg.etas:
        if eta > 1.0 and any(m != "hermitian" for m in cfg.methods):
            raise BrokenPTPhase(f"eta = {eta:.6g} > 1 in the requested range")
        if eta >= 1.0 - EXCEPTIONAL_POINT_BAND and needs_states:
            raise ExceptionalPoint(
                f"eta = {eta:.6g} is at the exceptional point; methods "
                f"{needs_states} are undefined there")

    columns = ["eta", "phase"]
    for method in cfg.methods:
        columns += list(METHOD_COLUMNS[method])

    rows = []
    for eta in cfg.etas:
        if "trace" in cfg.methods:
            params = cfg.params if cfg.params is not None else params_from_eta(
                eta, REFERENCE_SUM_SQ, REFERENCE_RATIO)
            es = eigensystem(params)
            ts = cfg.t0 + 2.0 * np.array(cfg.phases) / es.delta_omega
            survival = trace_probabilities(1, 1, cfg.t0, ts, es)
            transition = trace_probabilities(1, 2, cfg.t0, ts, es)
        for k, phase in enumerate(cfg.phases):
            row = {"eta": eta, "phase": phase}
            for method in cfg.methods:
                if method == "closed_form":
                    row["pt_survival"] = survival_probability(eta, phase)
                    row["pt_transition"] = transition_probability(eta, phase)
                elif method == "trace":
                    row["trace_survival"] = survival[k]
                    row["trace_transition"] = transition[k]
                elif method == "hermitian":
                    herm = hermitian_transition_probability(eta, phase)
                    row["herm_survival"] = 1.0 - herm
                    row["herm_transition"] = herm
                else:
                    row["naive_transition"] = naive_continuation_value(eta, phase)
            rows.append(row)
    _emit(columns, rows, cfg.fmt, cfg.output)
    return 0


def _resolve_masses(args: argparse.Namespace) -> SweepConfig:
    merged = _merged(args, ("eta", "ratio", "format", "output"))
    cfg = SweepConfig()
    cfg.etas = _parse_grid(merged["eta"] or "0:2:81", "--eta")
    cfg.ratio = _number(merged["ratio"] or "0.5", "--ratio")
    if not 0.0 < cfg.ratio < 1.0:
        raise _ConfigError(f"--ratio must lie in (0, 1), got {cfg.ratio}")
    if any(eta < 0.0 for eta in cfg.etas):
        raise _ConfigError("eta values must be non-negative")
    cfg.fmt = merged["format"] or "csv"
    if cfg.fmt not in ("csv", "json"):
        raise _ConfigError(f"--format must be csv or json, got {cfg.fmt!r}")
    cfg.output = merged["output"]
    return cfg


def cmd_masses(cfg: SweepConfig) -> int:
    """Squared eigenmasses over eta, divided by m1^2 + m2^2.

    PT columns are empty for eta > 1 (complex eigenvalues); the Hermitian
    columns extend everywhere, with the lower one going negative past
    eta = sqrt(1/ratio^2 - 1).
    """
    columns = ["eta", "pt_m_plus_sq", "pt_m_minus_sq", "herm_m_plus_sq", "herm_m_minus_sq"]
    rows = []
    for eta in cfg.etas:
        params = params_from_eta(eta, REFERENCE_SUM_SQ, cfg.ratio)
        try:
            pt_plus, pt_minus = pt_eigenvalues(params)
            pt_plus, pt_minus = pt_plus / REFERENCE_SUM_SQ, pt_minus / REFERENCE_SUM_SQ
        except BrokenPTPhase:
            pt_plus = pt_minus = None
        herm_plus, herm_minus = hermitian_eigenvalues(params)
        rows.append({
            "eta": eta,
            "pt_m_plus_sq": pt_plus,
            "pt_m_minus_sq": pt_minus,
            "herm_m_plus_sq": herm_plus / REFERENCE_SUM_SQ,
            "herm_m_minus_sq": herm_minus / REFERENCE_SUM_SQ,
        })
    _emit(columns, rows, cfg.fmt, cfg.output)
    return 0


def _resolve_cardioid(args: argparse.Namespace) -> SweepConfig:
    merged = _merged(args, ("eta", "phase", "format", "output"))
    cfg = SweepConfig()
    cfg.etas = _parse_grid(merged["eta"] or "0.1,0.5,0.9", "--eta")
    cfg.phases = _parse_grid(merged["phase"] or f"0:{TWO_PI!r}:181", "--phase")
    if any(eta < 0.0 for eta in cfg.etas):
        raise _ConfigError("eta values must be non-negative")
    cfg.fmt = merged["format"] or "csv"
    if cfg.fmt not in ("csv", "json"):
        raise _ConfigError(f"--format must be csv or json, got {cfg.fmt!r}")
    cfg.output = merged["output"]
    return cfg


def cmd_cardioid(cfg: SweepConfig) -> int:
    """Dirac-norm polar curve r(phase) and its r(pi)-normalised variant."""
    columns = ["eta", "phase", "r", "r_over_r_pi"]
    rows = []
    for eta in cfg.etas:
        r_pi = cardioid_r(math.pi, eta)
        for phase in cfg.phases:
            r = cardioid_r(phase, eta)
            rows.append({"eta": eta, "phase": phase, "r": r, "r_over_r_pi": r / r_pi})
    _emit(columns, rows, cfg.fmt, cfg.output)
    return 0


def _resolve_validate(args: argparse.Namespace) -> SweepConfig:
    merged = _merged(args, ("eta", "raw_params", "tolerance", "output"))
    cfg = SweepConfig()
    cfg.json_reports = bool(getattr(args, "json", False))
    cfg.output = merged["output"]
    if merged["raw_params"] is not None:
        cfg.params = _parse_raw_params(merged["raw_params"])
    else:
        cfg.params = make_params(2.0, 1.0, 0.3, 0.0)
    if merged["eta"] is not None:
        cfg.etas = _parse_grid(merged["eta"], "--eta")
        if any(not 0.0 <= eta < 1.0 - EXCEPTIONAL_POINT_BAND for eta in cfg.etas):
            raise _ConfigError("validation grid requires 0 <= eta < 1")
    if merged["tolerance"] is not None:
        cfg.tolerance = _number(merged["tolerance"], "--tolerance")
        if cfg.tolerance <= 0.0:
            raise _ConfigError(f"--tolerance must be positive, got {cfg.tolerance}")
    return cfg


def cmd_validate(cfg: SweepConfig) -> int:
    """Run the oracle suite; exit 0 iff every check passed."""
    grid = OracleGrid()
    if cfg.etas:
        grid = OracleGrid(etas=tuple(cfg.etas), tolerance=cfg.tolerance)
    elif cfg.tolerance is not None:
        grid = OracleGrid(tolerance=cfg.tolerance)
    reports = check_all(cfg.params, grid)

    if cfg.json_reports:
        body = []
        for rep in reports:
            body.append(
                "  {" + ", ".join([
                    f'"check_name": "{rep.check_name}"',
                    f'"max_abs_error": {_fmt(rep.max_abs_error)}',
                    f'"tolerance": {_fmt(rep.tolerance)}',
                    f'"passed": {"true" if rep.passed else "false"}',
                    f'"grid_size": {rep.grid_size}',
                ]) + "}")
        text = "[\n" + ",\n".join(body) + "\n]\n"
    else:
        name_width = max(len(rep.check_name) for rep in reports)
        lines = [f"{'check':<{name_width}}  {'points':>7}  {'max_abs_error':>14}  "
                 f"{'tolerance':>10}  status"]
        for rep in reports:
            lines.append(
                f"{rep.check_name:<{name_width}}  {rep.grid_size:>7}  "
                f"{rep.max_abs_error:>14.3e}  {rep.tolerance:>10.1e}  "
                f"{'PASS' if rep.passed else 'FAIL'}")
        n_pass = sum(rep.passed for rep in reports)
        lines.append(f"{n_pass}/{len(reports)} checks passed")
        text = "\n".join(lines) + "\n"

    _write(text, cfg.output)
    return 0 if all(rep.passed for rep in reports) else 1


# --- entry point -------------------------------------------------------------

@functools.cache  # built once per process: parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptosc",
        description="PT-symmetric two-state oscillation sweeps and validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, phase: bool = True) -> None:
        p.add_argument("--eta", help="single value, comma list, or min:max:steps")
        if phase:
            p.add_argument("--phase", help="phase grid (radians): min:max:steps")
        p.add_argument("--format", help="csv | json (default csv)")
        p.add_argument("--output", help="file path or 'stdout' (default)")
        p.add_argument("--config", help="key = value file; flags take precedence")

    p_prob = sub.add_parser("probabilities",
                            help="survival/transition probabilities on an eta x phase grid")
    add_common(p_prob)
    p_prob.add_argument("--t0", help="preparation time for the trace method (default 0)")
    p_prob.add_argument("--methods",
                        help="comma list: closed_form,trace,hermitian,naive_continuation")
    p_prob.add_argument("--raw-params", dest="raw_params",
                        help="m1sq,m2sq,musq,p (mutually exclusive with --eta)")

    p_mass = sub.add_parser("masses", help="squared eigenmasses versus eta")
    add_common(p_mass, phase=False)
    p_mass.add_argument("--ratio", help="(m1^2 - m2^2)/(m1^2 + m2^2), default 0.5")

    p_card = sub.add_parser("cardioid", help="Dirac-norm polar curve")
    add_common(p_card)

    p_val = sub.add_parser("validate", help="run the oracle validation suite")
    p_val.add_argument("--eta", help="override the eta sweep (all < 1)")
    p_val.add_argument("--raw-params", dest="raw_params", help="m1sq,m2sq,musq,p")
    p_val.add_argument("--tolerance", help="override every check tolerance")
    p_val.add_argument("--json", action="store_true", help="machine-readable reports")
    p_val.add_argument("--output", help="file path or 'stdout' (default)")
    p_val.add_argument("--config", help="key = value file; flags take precedence")
    return parser


_COMMANDS = {
    "probabilities": (_resolve_probabilities, cmd_probabilities),
    "masses": (_resolve_masses, cmd_masses),
    "cardioid": (_resolve_cardioid, cmd_cardioid),
    "validate": (_resolve_validate, cmd_validate),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    resolve, run = _COMMANDS[args.command]
    try:
        return run(resolve(args))
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExceptionalPoint, BrokenPTPhase, TachyonicMass) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
