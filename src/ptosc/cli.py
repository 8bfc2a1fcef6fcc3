"""Command-line front end: sweeps and the validation suite.

Usage examples:

  ptosc probabilities --eta 0.6 --phase 0:6.283185307179586:64
  ptosc probabilities --eta 0:0.95:20 --methods closed_form,trace --format json
  ptosc masses --eta 0:2:81 --ratio 0.5 --output masses.csv
  ptosc cardioid --eta 0.1,0.5,0.9
  ptosc validate --json

Grids are written as a single value ``v``, a comma list ``v1,v2,...`` or a
range ``min:max:steps`` (steps >= 2, linearly spaced, endpoints included).
Each setting is declared once, on its sub-parser, with its flag, help,
default and parser, and settings are checked in ``--help`` order.  A flag
overrides an optional ``key = value`` config file (--config), which
overrides the default; an empty value is refused (exit 2).  Output is
deterministic: fixed column order, rows in grid order, floats at 17
significant digits, LF line endings.  Rows are written 256 at a time, so
the text is never held whole; a write that fails mid-sweep can leave the
rows before it.

Exit codes: 0 success, 1 validation failure, 2 bad configuration (also an
unparsable or non-finite number or result, an unwritable output or stdout),
3 domain error (exceptional point / broken PT phase; a sweep prints the
message of the library function that refuses its eta).
"""

import argparse
import functools
import itertools
import math
import os
import sys

import numpy as np

from .errors import BrokenPTPhase, DomainError, ExceptionalPoint
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
    trace_probabilities,
    transition_probability,
    cardioid_r,
)
from .validation import OracleGrid, check_all

TWO_PI = 2.0 * math.pi

METHOD_ORDER = ("closed_form", "trace", "hermitian", "naive_continuation")

# m1^2 + m2^2 of eta-parameterised sweeps, params_from_eta's default
REFERENCE_SUM_SQ = 3.0


# --- parsing helpers -------------------------------------------------------

def _number(text: str, name: str, kind=float):
    """A finite float (or int), else a configuration error naming the flag."""
    try:
        value = kind(text)
    except ValueError:
        raise DomainError(f"{name}: cannot parse {text!r} as a number") from None
    if not math.isfinite(value):
        raise DomainError(f"{name}: must be finite, got {text!r}")
    return value


def _parse_grid(text: str, name: str) -> np.ndarray:
    """A single value, a comma list, or min:max:steps, as a float64 array."""
    text = text.strip()
    if ":" not in text:
        return np.array([_number(v, name) for v in text.split(",")])
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"{name}: range must be min:max:steps, got {text!r}")
    lo, hi, steps = _number(parts[0], name), _number(parts[1], name), _number(parts[2], name, int)
    if steps < 2:
        raise DomainError(f"{name}: steps must be >= 2, got {steps}")
    if not lo < hi:
        raise DomainError(f"{name}: need min < max, got {lo} >= {hi}")
    if not math.isfinite(hi - lo):
        raise DomainError(f"{name}: range {lo}:{hi} is too wide to space evenly")
    try:
        return np.linspace(lo, hi, steps)
    except (ValueError, IndexError, MemoryError):  # numpy's three ways to refuse a size
        raise DomainError(f"{name}: cannot allocate {steps} steps") from None


def _parse_methods(text: str, name: str) -> list[str]:
    methods = [m.strip() for m in text.split(",") if m.strip()]
    for m in methods:
        if m not in METHOD_ORDER:
            raise DomainError(
                f"unknown method {m!r}; choose from {', '.join(METHOD_ORDER)}")
    if not methods:
        raise DomainError("methods list is empty")
    return sorted(set(methods), key=METHOD_ORDER.index)


def _parse_raw_params(text: str, name: str) -> ModelParams:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise DomainError(f"{name} needs m1sq,m2sq,musq,p, got {text!r}")
    values = [_number(p, name) for p in parts]  # already name the flag: not re-prefixed
    try:
        return make_params(*values)
    except DomainError as exc:
        raise DomainError(f"{name}: {exc}") from exc


def _load_config(path: str) -> dict[str, str]:
    if not path:
        raise DomainError("--config: must not be empty")
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DomainError(f"{path}:{lineno}: expected key = value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise DomainError(f"cannot read config {path!r}: {exc}") from exc
    return values


def _text(text: str, name: str) -> str:
    return text


def _checked(parse, ok, message: str):
    """``parse``, then refuse a value that fails ``ok`` with ``message``."""
    def parse_checked(text: str, name: str):
        value = parse(text, name)
        if not ok(value):
            raise DomainError(message.format(name=name, value=value))
        return value
    return parse_checked


# --- settings ----------------------------------------------------------------

def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Parse each setting of the command onto ``args``: flag, else config, else default."""
    settings = _build_parser().commands[args.command].settings
    config = {} if args.config is None else _load_config(args.config)
    unknown = set(config) - set(settings)
    if unknown:
        raise DomainError(f"unknown config keys for this command: {sorted(unknown)}")
    for key, (name, default, parse) in settings.items():
        text = getattr(args, key)
        if text is None:
            text = config.get(key, default)
        if text == "":
            raise DomainError(f"{name}: must not be empty")
        setattr(args, key, None if text is None else parse(text, name))
    return args


# --- output ----------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{float(value) + 0.0:.17g}"  # + 0.0 turns -0.0 into 0.0


# Rows per chunk, one % each: 7-column JSON at ~259 B a row stays near 64 KiB, under glibc's
# 128 KiB mmap threshold, so a chunk's buffers reuse heap pages instead of faulting in fresh ones
_CHUNK_ROWS = 256


def _emit(axes: dict[str, np.ndarray], columns: dict, fmt: str,
          output: str | None) -> None:
    """Write one row per point of the grid spanned by ``axes`` (name -> grid
    values, the first axis slowest), followed by the ``columns`` computed
    over that grid (name -> float array in the same order, or a (values,
    present) pair of arrays whose cells where present is False are missing:
    empty in CSV, null in JSON).  A non-finite cell is refused
    (DomainError) before anything is written."""
    shape = [len(values) for values in axes.values()]
    cells, specs = [], ["%s"] * len(axes)
    for k, values in enumerate(axes.values()):
        strings = ["%.17g" % v for v in (values + 0.0).tolist()]  # once per grid value
        inner, outer = math.prod(shape[k + 1:]), math.prod(shape[:k])
        cells.append([s for s in strings for _ in range(inner)] * outer)
    # one finiteness pass over all the value columns; cells not present are exempt
    data = np.array([np.reshape(c[0] if isinstance(c, tuple) else c, -1)
                     for c in columns.values()]) + 0.0  # + 0.0 turns -0.0 into 0.0
    missing = {k: ~np.broadcast_to(c[1], data.shape[1:]) for k, c in enumerate(columns.values())
               if isinstance(c, tuple) and not np.all(c[1])}
    bad = ~np.isfinite(data)
    for k, absent in missing.items():
        bad[k] &= ~absent
    if bad.any():  # name the first column with a bad cell, at its first
        k, n = np.unravel_index(np.argmax(bad), bad.shape)
        where = ", ".join(f"{axis} = {cell[n]}" for axis, cell in zip(axes, cells))
        raise DomainError(f"{[*columns][k]} is {data[k, n]} at {where}: refusing non-finite output")
    specs += ["%s" if k in missing else "%.17g" for k in range(len(data))]
    names, n_rows = [*axes, *columns], data.shape[1]
    if fmt == "csv":
        head, row, sep, tail, empty = ",".join(names) + "\n", ",".join(specs) + "\n", "", "", ""
    else:
        row = "  {" + ", ".join(f'"{n}": {spec}' for n, spec in zip(names, specs)) + "}"
        head, sep, tail, empty = "[\n", ",\n", "\n]\n", "null"
    def chunks():  # the finiteness pass is done: formatting cannot fail from here
        for lo in range(0, n_rows, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, n_rows)
            part, rows = [c[lo:hi] for c in cells], data[:, lo:hi].tolist()
            for k, m in missing.items():
                rows[k] = [empty if a else "%.17g" % v for v, a in zip(rows[k], m[lo:hi].tolist())]
            template = ((head if lo == 0 else sep) + sep.join([row] * (hi - lo))
                        + (tail if hi == n_rows else ""))
            yield template % tuple(itertools.chain.from_iterable(zip(*part, *rows)))
    _write(chunks(), output)


def _write(pieces, output: str | None) -> None:
    """Write each text piece in turn to the file ``output``, or to stdout."""
    if output is None or output in ("stdout", "-"):
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except OSError as exc:  # stop, and send the exit flush nowhere; a reader leaving is fine
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if not isinstance(exc, BrokenPipeError):
                raise DomainError(f"cannot write stdout: {exc.strerror or exc}") from exc
        return
    try:
        with open(output, "wb") as handle:
            handle.writelines(piece.encode("utf-8") for piece in pieces)
    except OSError as exc:
        raise DomainError(f"cannot write {output!r}: {exc.strerror or exc}") from exc


# --- commands ----------------------------------------------------------------

def cmd_probabilities(cfg: argparse.Namespace) -> int:
    """Survival/transition probabilities on an eta x phase grid."""
    etas, params = cfg.eta, cfg.raw_params
    if params is not None and etas is not None:
        raise DomainError("--eta and --raw-params are mutually exclusive")
    if etas is None:
        etas = np.array([params.eta]) if params is not None else _parse_grid("0:0.95:20", "--eta")
    # each method's library call refuses the etas outside its domain
    eta, phase = etas[:, None], cfg.phase
    columns = {}
    for method in cfg.methods:
        if method == "closed_form":
            transition = transition_probability(eta, phase)
            columns["pt_survival"] = 1.0 - transition  # survival_probability, sin^2 once
            columns["pt_transition"] = transition
        elif method == "trace":
            # one eigensystem stack over the eta grid and one trace call for both j
            es = eigensystem(params if params is not None else params_from_eta(eta))
            ts = cfg.t0 + 2.0 * phase / es.delta_omega
            trace = trace_probabilities(1, np.array([1, 2])[:, None, None], cfg.t0, ts, es)
            columns["trace_survival"], columns["trace_transition"] = trace
        elif method == "hermitian":
            herm = hermitian_transition_probability(eta, phase)
            columns["herm_survival"] = 1.0 - herm
            columns["herm_transition"] = herm
        else:
            columns["naive_transition"] = naive_continuation_value(eta, phase)
    _emit({"eta": etas, "phase": cfg.phase}, columns, cfg.format, cfg.output)
    return 0


def cmd_masses(cfg: argparse.Namespace) -> int:
    """Squared eigenmasses over eta, divided by m1^2 + m2^2.

    PT columns are empty for eta > 1 (complex eigenvalues); the Hermitian
    columns extend everywhere, with the lower one going negative past
    eta = sqrt(1/ratio^2 - 1).
    """
    params = params_from_eta(cfg.eta, REFERENCE_SUM_SQ, cfg.ratio)
    unbroken = params.eta <= 1.0  # complex PT eigenvalues past eta = 1: missing cells
    pt = pt_eigenvalues(params[unbroken])
    columns = {}
    for name, values in zip(("pt_m_plus_sq", "pt_m_minus_sq"), pt):
        column = np.zeros(len(cfg.eta))
        column[unbroken] = values / REFERENCE_SUM_SQ
        columns[name] = (column, unbroken)
    herm_plus, herm_minus = hermitian_eigenvalues(params)
    columns["herm_m_plus_sq"] = herm_plus / REFERENCE_SUM_SQ
    columns["herm_m_minus_sq"] = herm_minus / REFERENCE_SUM_SQ
    _emit({"eta": cfg.eta}, columns, cfg.format, cfg.output)
    return 0


def cmd_cardioid(cfg: argparse.Namespace) -> int:
    """Dirac-norm polar curve r(phase) and its r(pi)-normalised variant."""
    eta = cfg.eta[:, None]
    r = cardioid_r(cfg.phase, eta)
    columns = {"r": r, "r_over_r_pi": r / cardioid_r(math.pi, eta)}
    _emit({"eta": cfg.eta, "phase": cfg.phase}, columns, cfg.format, cfg.output)
    return 0


def cmd_validate(cfg: argparse.Namespace) -> int:
    """Run the oracle suite; exit 0 iff every check passed."""
    grid = OracleGrid(etas=OracleGrid.etas if cfg.eta is None else tuple(cfg.eta.tolist()),
                      tolerance=cfg.tolerance)  # Python-float etas, for Python's eta ** 4
    reports = check_all(cfg.raw_params, grid)

    if cfg.json:
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

    _write([text], cfg.output)
    return 0 if all(rep.passed for rep in reports) else 1


# --- entry point -------------------------------------------------------------

@functools.cache  # built once per process: parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptosc",
        description="PT-symmetric two-state oscillation sweeps and validation.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's sub-parser, for main

    def command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.settings = {}  # key -> (flag, default, parser), in --help order, which is check order
        return p

    def setting(p: argparse.ArgumentParser, flag: str, default, parse, help: str) -> None:
        """A flag beats the config file, which beats the default; None leaves it unset."""
        p.add_argument(flag, help=help)
        p.settings[flag[2:].replace("-", "_")] = (flag, default, parse)

    def add_common(p: argparse.ArgumentParser, eta: str | None, phase: str | None) -> None:
        setting(p, "--eta", eta, _checked(_parse_grid, lambda etas: (etas >= 0.0).all(),
                                          "eta values must be non-negative"),
                "single value, comma list, or min:max:steps")
        if phase is not None:
            setting(p, "--phase", phase, _parse_grid, "phase grid (radians): min:max:steps")
        setting(p, "--format", "csv", _checked(_text, lambda fmt: fmt in ("csv", "json"),
                                               "{name} must be csv or json, got {value!r}"),
                "csv | json (default csv)")
        setting(p, "--output", None, _text, "file path or 'stdout' (default)")
        p.add_argument("--config", help="key = value file; flags take precedence")

    p_prob = command("probabilities", "survival/transition probabilities on an eta x phase grid")
    add_common(p_prob, None, f"0:{TWO_PI!r}:64")  # eta: 0:0.95:20 without --raw-params
    setting(p_prob, "--t0", "0", _number, "preparation time for the trace method (default 0)")
    setting(p_prob, "--methods", "closed_form,hermitian", _parse_methods,
            "comma list: closed_form,trace,hermitian,naive_continuation")
    setting(p_prob, "--raw-params", None, _parse_raw_params,
            "m1sq,m2sq,musq,p (mutually exclusive with --eta)")

    p_mass = command("masses", "squared eigenmasses versus eta")
    add_common(p_mass, "0:2:81", None)
    setting(p_mass, "--ratio", "0.5", _checked(_number, lambda ratio: 0.0 < ratio < 1.0,
                                               "{name} must lie in (0, 1), got {value}"),
            "(m1^2 - m2^2)/(m1^2 + m2^2), default 0.5")

    add_common(command("cardioid", "Dirac-norm polar curve"), "0.1,0.5,0.9", f"0:{TWO_PI!r}:181")

    p_val = command("validate", "run the oracle validation suite")
    setting(p_val, "--eta", None, _checked(
        _parse_grid, lambda etas: ((etas >= 0.0) & (etas < 1.0 - EXCEPTIONAL_POINT_BAND)).all(),
        "validation grid requires 0 <= eta < 1"), "override the eta sweep (all < 1)")
    setting(p_val, "--raw-params", "2,1,0.3,0", _parse_raw_params, "m1sq,m2sq,musq,p")
    setting(p_val, "--tolerance", None, _checked(_number, lambda tolerance: tolerance > 0.0,
                                                 "{name} must be positive, got {value}"),
            "override every check tolerance")
    p_val.add_argument("--json", action="store_true", help="machine-readable reports")
    setting(p_val, "--output", None, _text, "file path or 'stdout' (default)")
    p_val.add_argument("--config", help="key = value file; flags take precedence")
    return parser


_COMMANDS = {
    "probabilities": (_resolve, cmd_probabilities),
    "masses": (_resolve, cmd_masses),
    "cardioid": (_resolve, cmd_cardioid),
    "validate": (_resolve, cmd_validate),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, extra = _build_parser(), True
    try:
        if argv and argv[0] in _COMMANDS:
            # the full parser hands these arguments to this same sub-parser, so
            # it alone parses them alike and prints the same help and errors
            args, extra = parser.commands[argv[0]].parse_known_args(
                argv[1:], argparse.Namespace(command=argv[0]))
        if extra:  # no known command, or arguments left over
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    resolve, run = _COMMANDS[args.command]
    try:
        with np.errstate(over="ignore"):  # what overflows is refused as non-finite
            return run(resolve(args))
    except (ExceptionalPoint, BrokenPTPhase) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
