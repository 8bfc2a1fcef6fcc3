#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ptosc CLI.

Run from the repository root:

    python3 bench/run.py --workload trace_sweep --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print every metric by name with its unit.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.

Load model: one process, one thread (BLAS/OpenMP pinned to 1), one caller
in a closed loop: the next pass starts when the previous one returned.
Times are wall times scaled by a speed probe (see ``SpeedProbe``): a fixed
kernel of benchmark code timed before and after each pass, which takes out
the host's drift in speed; the unscaled wall times are printed beside them.
The program is the ``ptosc`` package under ``src/`` of the checkout this
file sits in, driven in-process through ``ptosc.cli.main(argv)``.  The seed
only shapes the argv (raw parameters, grids, ``t0``); pass ``k`` draws its
inputs from ``(seed, k)``, so the same seed gives the same inputs.

Workloads, and why each was chosen:

* ``trace_sweep``: ``probabilities --methods closed_form,trace`` calls, each
  with its own raw parameters (diagonal orderings alternate, so the swapped
  path runs; ``p > 0``), a dense phase grid and a ``t0`` of a few
  oscillation periods.  This is the paper's trace route as users run it;
  most of its time is in ``probabilities`` and ``states`` (70% of a traced
  pass at the seed), so a batched trace core shows here.
* ``cli_sweep``: ``probabilities --methods closed_form,hermitian,
  naive_continuation`` over a large eta x phase grid, written once as CSV
  and once as JSON.  No states, trace or oracle: the emitter takes about
  half of a pass at the seed.  A trace or oracle change should leave it
  unchanged; emitter rewrites show here.
* ``validate``: ``validate --raw-params .. --eta .. --json --output ..``,
  all 27 oracle families.  Time splits between the oracle, ``inner`` and
  the trace families, so oracle caching or batching in ``inner`` shows
  here and not on the two sweeps.

Not covered: ``masses`` and ``cardioid``; eta at or within 0.03 of the
exceptional point; the default validation grid's eta = 0.999 point;
out-of-domain argv (exit codes 2 and 3); and ``|t0|`` so large that
``t0 + dt`` rounds ``dt`` away, a known defect of the trace route and not
benchmark traffic.  Concurrency is not covered: the CLI has one caller.
"""

import os

# Pinned before numpy loads, so its BLAS starts with one thread.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
TWO_PI = 2.0 * math.pi

# Pass sizes.  A pass is one unit of the closed loop; sizes are fixed so
# pass times differ only through the seeded values, not the grid shapes.
SIZES = {
    "trace_sweep": {"calls": 8, "phase_steps": 64},
    "cli_sweep": {"etas": 20, "phase_steps": 100},
    "validate": {"etas": 8},
}
SETUP_REPEATS = 11

# The 27 families of check_all at the seed; validate requires each of them
# to be reported and passed.
EXPECTED_CHECKS = (
    "eigenvalues_vs_characteristic_polynomial", "eigenvector_residuals",
    "trace_determinant_preservation", "parity_pseudo_hermiticity",
    "cprime_invariance", "theta_parameterisation", "hermitian_limit_eigenvectors",
    "hermitian_eigenvalues_vs_oracle", "sesquilinearity", "cpt_inner_positivity",
    "pt_and_cpt_eigenvector_norms", "cpt_matches_dirac_at_zero_mixing",
    "tilde_biorthonormality", "mixed_basis_orthonormality",
    "cpt_basis_nonorthogonality", "mode_equation_of_motion",
    "cprime_section_identity", "trace_vs_closed_form", "brute_force_vs_closed_form",
    "unitarity", "probability_symmetry", "time_translation_invariance",
    "density_projection_operators", "dirac_norm_closed_form",
    "dirac_overlap_closed_form", "hermitian_gap", "naive_continuation_pathology",
)

# Per call, from ROADMAP's seed baseline (2 cores, min of 3 runs), in us.
ROADMAP_BASELINE_US = {
    "eigensystem": ("model.eigensystem", 9.0),
    "transition_probability": ("probabilities.transition_probability", 0.4),
    "probability_closed_form": ("probabilities.probability_closed_form", 2.8),
    "mixed_basis_pair": ("states.mixed_basis_pair", 16.0),
    "density_operator": ("probabilities.density_operator", 20.0),
    "probability_trace": ("probabilities.probability_trace", 62.0),
    "brute_force_probability": ("oracle.brute_force_probability", 283.0),
    "check_all": ("validation.check_all", 760000.0),
}

# Span names grouped into the per-layer metrics named in BENCHMARK.json.
GROUPS = {
    "probabilities.probability_trace": ("probabilities.probability_trace",),
    "probabilities.operators": ("probabilities.density_operator",
                                "probabilities.projection_operator"),
    "probabilities.closed_form": (
        "probabilities.survival_probability", "probabilities.transition_probability",
        "probabilities.hermitian_transition_probability",
        "probabilities.naive_continuation_value", "probabilities.probability_closed_form"),
    "states.mixed_basis_pair": ("states.mixed_basis_pair",),
    "states.flavour_states": (
        "states.flavour_ket", "states.tilde_bra", "states.cpt_bra", "states.dirac_bra",
        "states.mixed_basis_ket", "states.mixed_basis_bra", "states.xi"),
    "oracle.brute_force_probability": ("oracle.brute_force_probability",),
    "oracle.spectral_data": ("oracle._spectral_data",),
    "inner": ("inner.inner", "inner.pt_conjugate", "inner.cpt_conjugate",
              "inner.pt_inner", "inner.cpt_inner", "inner.dirac_inner"),
    "model.eigensystem": ("model.eigensystem",),
}
SRC_MODULES = ("__init__", "__main__", "cli", "errors", "inner", "model", "oracle",
               "probabilities", "states", "validation")


def tolerance_for_eta(eta: float) -> float:
    """The documented comparison schedule of ptosc.oracle, kept here so the
    check does not trust the program it checks."""
    return 1e-10 if eta <= 0.95 else 1e-8


def _r(x: float) -> str:
    """Full-precision text of a float.  Grid and time flags are passed as
    ``--flag=value`` so that argparse does not read ``-1.2:3:4`` as a flag."""
    return repr(float(x))


def _raw_params(rng, heavy_first: bool, eta_range=(0.05, 0.95)):
    """Seeded (m1^2, m2^2, mu^2, p, delta_omega) with eta in eta_range, p > 0."""
    lo = rng.uniform(0.5, 2.0)
    hi = lo + rng.uniform(0.3, 2.0)
    eta = rng.uniform(*eta_range)
    mu_sq = 0.5 * eta * (hi - lo)
    p = rng.uniform(0.1, 2.0)
    m1, m2 = (hi, lo) if heavy_first else (lo, hi)
    split = 0.5 * (hi - lo) * math.sqrt(1.0 - eta * eta)
    mid = 0.5 * (hi + lo)
    delta_omega = math.sqrt(p * p + mid + split) - math.sqrt(p * p + mid - split)
    return m1, m2, mu_sq, p, delta_omega


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, np.array([[float(v) for v in row] for row in reader], dtype=float)


def read_json_rows(path: Path):
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)
    header = list(records[0]) if records else []
    return header, np.array([[float(rec[c]) for c in header] for rec in records], dtype=float)


def read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Run:
    """Counters of one benchmark run; ``call`` is the only place the
    program runs, and only its duration counts towards ``program_s``."""

    def __init__(self, main):
        self.main = main
        self.program_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bytes_out = 0
        self.rows_out = 0

    def call(self, argv: list[str]) -> bool:
        self.attempted += 1
        captured = io.StringIO()
        error = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = self.main(argv)
        except Exception:  # a traceback is a failed operation, not a crash of the run
            code, error = None, traceback.format_exc(limit=3)
        self.program_s += perf_counter() - t0
        if code == 0 and error is None:
            return True
        self.fail(f"{argv[0]} exit {code}: {(error or captured.getvalue()).strip()[-300:]}")
        return False

    def fail(self, message: str) -> None:
        self.failed += 1
        self.note(message)

    def note(self, message: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(message)

    def read(self, reader, path: Path, label: str):
        """Parse an output file; an unreadable one is a failed operation."""
        try:
            parsed = reader(path)
        except (OSError, ValueError, TypeError, KeyError, IndexError, StopIteration) as exc:
            self.fail(f"{label}: unreadable output {path.name} ({exc!r})")
            return None
        self.bytes_out += path.stat().st_size
        self.rows_out += len(parsed[1] if isinstance(parsed, tuple) else parsed)
        return parsed


# --- workloads: one pass each; return (items, [worst error / tolerance of
# each checked call]) ---------------------------------------------------------

def trace_sweep_pass(run: Run, rng, sizes, work: Path):
    items, worst = 0, []
    out = work / "trace.csv"
    for k in range(sizes["calls"]):
        m1, m2, mu_sq, p, delta_omega = _raw_params(rng, heavy_first=k % 2 == 0)
        eta = 2.0 * mu_sq / abs(m1 - m2)
        lo = rng.uniform(0.0, math.pi)
        hi = lo + rng.uniform(TWO_PI, 2.0 * TWO_PI)
        t0 = rng.uniform(-4.0, 4.0) * TWO_PI / delta_omega
        argv = ["probabilities", "--methods", "closed_form,trace",
                "--raw-params=" + ",".join(map(_r, (m1, m2, mu_sq, p))),
                f"--phase={_r(lo)}:{_r(hi)}:{sizes['phase_steps']}",
                f"--t0={_r(t0)}", "--format", "csv", "--output", str(out)]
        out.unlink(missing_ok=True)
        if not run.call(argv) or (parsed := run.read(read_csv, out, "trace_sweep")) is None:
            continue
        header, data = parsed
        want = ["eta", "phase", "pt_survival", "pt_transition",
                "trace_survival", "trace_transition"]
        if header != want or data.shape != (sizes["phase_steps"], len(want)):
            run.fail(f"trace_sweep: columns {header}, shape {data.shape}")
            continue
        if not np.all(np.isfinite(data)) or np.abs(data[:, 0] - eta).max() > 1e-12:
            run.fail(f"trace_sweep: non-finite value or eta != {eta!r}")
            continue
        tol = tolerance_for_eta(eta)
        err = max(np.abs(data[:, 5] - data[:, 3]).max(),
                  np.abs(data[:, 4] - data[:, 2]).max(),
                  np.abs(data[:, 4] + data[:, 5] - 1.0).max())
        worst.append(float(err) / tol)
        if err > tol:
            run.fail(f"trace_sweep: trace vs closed form {err:.3e} > {tol:.0e} ({argv})")
            continue
        items += 2 * len(data)
    return items, worst


CLI_COLUMNS = ["eta", "phase", "pt_survival", "pt_transition", "herm_survival",
               "herm_transition", "naive_transition"]


def _closed_forms(eta: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """The three closed forms, via sin^2 = (1 - cos 2 phase) / 2 so the
    reference does not share the program's arithmetic."""
    sin_sq = 0.5 * (1.0 - np.cos(2.0 * phase))
    eta_sq = eta * eta
    pt = eta_sq * sin_sq
    herm = eta_sq / (1.0 + eta_sq) * sin_sq
    naive = -eta_sq / (1.0 - eta_sq) * sin_sq
    return np.column_stack([1.0 - pt, pt, 1.0 - herm, herm, naive])


def cli_sweep_pass(run: Run, rng, sizes, work: Path):
    etas = rng.uniform(0.0, 0.97, size=sizes["etas"])
    lo = rng.uniform(-math.pi, math.pi)
    hi = lo + rng.uniform(TWO_PI, 3.0 * TWO_PI)
    steps = sizes["phase_steps"]
    phases = np.linspace(lo, hi, steps)
    base = ["probabilities", "--methods", "closed_form,hermitian,naive_continuation",
            "--eta=" + ",".join(map(_r, etas)), f"--phase={_r(lo)}:{_r(hi)}:{steps}"]
    items, worst, good = 0, [], {}
    want_eta = np.repeat(etas, steps)
    want_phase = np.tile(phases, len(etas))
    for fmt, reader in (("csv", read_csv), ("json", read_json_rows)):
        out = work / f"cli.{fmt}"
        out.unlink(missing_ok=True)
        if not run.call(base + ["--format", fmt, "--output", str(out)]) \
                or (parsed := run.read(reader, out, f"cli_sweep {fmt}")) is None:
            continue
        header, data = parsed
        if header != CLI_COLUMNS or data.shape != (len(want_eta), len(CLI_COLUMNS)):
            run.fail(f"cli_sweep {fmt}: columns {header}, shape {data.shape}")
            continue
        if not np.all(np.isfinite(data)) or not np.array_equal(data[:, 0], want_eta) \
                or np.abs(data[:, 1] - want_phase).max() > 1e-12 * max(1.0, abs(hi)):
            run.fail(f"cli_sweep {fmt}: non-finite value or grid mismatch")
            continue
        ref = _closed_forms(data[:, 0], data[:, 1])
        ratio = (np.abs(data[:, 2:] - ref) / (1e-12 * np.maximum(1.0, np.abs(ref)))).max()
        worst.append(float(ratio))
        if ratio > 1.0:
            run.fail(f"cli_sweep {fmt}: closed forms off by {ratio:.3g} x tolerance")
            continue
        items += len(data)
        good[fmt] = data
    if len(good) == 2 and not np.array_equal(good["csv"], good["json"]):
        run.fail("cli_sweep: CSV and JSON values differ")
        items = 0
    return items, worst


def validate_pass(run: Run, rng, sizes, work: Path):
    m1, m2, mu_sq, p, _ = _raw_params(rng, heavy_first=rng.random() < 0.5)
    etas = np.sort(rng.uniform(0.0, 0.97, size=sizes["etas"]))
    out = work / "validate.json"
    argv = ["validate", "--raw-params=" + ",".join(map(_r, (m1, m2, mu_sq, p))),
            "--eta=" + ",".join(map(_r, etas)), "--json", "--output", str(out)]
    out.unlink(missing_ok=True)
    if not run.call(argv):
        with contextlib.suppress(OSError, ValueError, AttributeError):
            failing = [rep.get("check_name") for rep in read_json(out) if not rep.get("passed")]
            run.note(f"validate: families not passed {failing} ({argv})")
        return 0, []
    reports = run.read(read_json, out, "validate")
    if reports is None:
        return 0, []
    names = {rep.get("check_name") for rep in reports}
    missing = [name for name in EXPECTED_CHECKS if name not in names]
    finite = [rep for rep in reports if math.isfinite(rep.get("max_abs_error", math.nan))]
    bad = [rep.get("check_name") for rep in reports
           if rep.get("passed") is not True or rep not in finite]
    # families with tolerance 0 must be exact; they pass or fail, with no ratio
    worst = max((rep["max_abs_error"] / rep["tolerance"] for rep in finite
                 if rep.get("tolerance", 0.0) > 0.0), default=0.0)
    if missing or bad:
        run.fail(f"validate: missing {missing}, not passed {bad} ({argv})")
        return 0, [worst]
    return sum(rep["grid_size"] for rep in reports), [worst]


PASSES = {"trace_sweep": trace_sweep_pass, "cli_sweep": cli_sweep_pass,
          "validate": validate_pass}


# --- measurement ---------------------------------------------------------

class SpeedProbe:
    """Times a fixed calibration kernel, to put wall times on one scale.

    A virtual machine that shares its physical cores with other tenants can
    drift in speed by up to 1.5x from minute to minute (seen on a 2-vCPU
    Xeon VM); every wall time moves with it, so medians of separate runs
    spread far more than the program's own variation.  The
    kernel is benchmark code that never touches ptosc, with the mix of work
    the program does: float formatting, dict and list building, JSON and
    CSV text, and 2x2 complex NumPy algebra.  It runs right before and after
    each timed step, and the step's time is scaled by ``REFERENCE_S`` over
    the mean of the two kernel times: the result is the step's time on a
    host where the kernel takes ``REFERENCE_S``.  A change to ptosc moves the
    step and not the kernel, so it shows in full.  The cyclic collector is
    off inside the kernel, so the program's heap does not slow it.
    """

    REFERENCE_S = 0.010

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.uniform(-1.0, 1.0, size=(300, 7)).tolist()
        self.matrix = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        self.last = self.kernel_s()

    def kernel_s(self) -> float:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            records = [{f"c{j}": value for j, value in enumerate(row)} for row in self.rows]
            text = json.dumps(records)
            buffer = io.StringIO()
            csv.writer(buffer).writerows([[repr(v) for v in row] for row in self.rows])
            back = json.loads(text)
            m = self.matrix
            for _ in range(100):
                values, vectors = np.linalg.eig(m)
                rho = np.outer(vectors[:, 0], vectors[:, 1].conj())
                m = self.matrix + 1e-3 * (rho @ m) / abs(np.trace(m @ m.conj().T))
            elapsed = perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()
        if len(back) != len(self.rows) or not np.all(np.isfinite(m)):
            raise RuntimeError("speed probe kernel gave a wrong result")
        return elapsed

    def scale(self) -> float:
        """Factor for the step timed since the previous call: REFERENCE_S
        over the mean kernel time before and after it."""
        before, self.last = self.last, self.kernel_s()
        return self.REFERENCE_S / (0.5 * (before + self.last))


def measure_setup(repeats: int, probe: SpeedProbe) -> tuple[float, float]:
    """Median time of ``import ptosc`` in a fresh interpreter, scaled by the
    speed probe; returns (scaled, wall) medians in seconds."""
    code = ("import time; t = time.perf_counter(); import ptosc; "
            "print(repr(time.perf_counter() - t))")
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
    wall, scaled = [], []
    probe.scale()
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        wall.append(float(done.stdout.strip().splitlines()[-1]))
        scaled.append(wall[-1] * probe.scale())
    return statistics.median(scaled), statistics.median(wall)


def load_program():
    if not (SRC / "ptosc" / "__init__.py").is_file():
        raise SystemExit(f"error: no ptosc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ptosc
    import ptosc.cli
    if not Path(ptosc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported ptosc from {ptosc.__file__}, not {SRC}")
    return ptosc


def loop(workload, run: Run, seed: int, first: int, seconds: float, sizes, work,
         probe: SpeedProbe):
    """Closed loop of passes for ``seconds`` (at least one pass); returns
    per-pass program times scaled by the speed probe, the items done, the
    per-call worst error ratios and the per-pass wall times.  Pass ``k``
    draws its inputs from ``(seed, k)``."""
    pass_fn = PASSES[workload]
    times, wall, worst, items = [], [], [], 0
    deadline = perf_counter() + seconds
    k = first
    probe.scale()
    while perf_counter() < deadline or not times:
        before = run.program_s
        n, w = pass_fn(run, np.random.default_rng([seed, k]), sizes, work)
        wall.append(run.program_s - before)
        times.append(wall[-1] * probe.scale())
        worst.extend(w)
        items += n
        k += 1
    return times, items, worst, wall


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten passes beyond it: the 11th
    largest pass time.  Returns (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(times, items, worst, wall, setup, run: Run) -> tuple[dict, list[str]]:
    """Times are scaled by the speed probe; ``wall`` and ``setup[1]`` are the
    unscaled pass times and set-up median, printed beside them."""
    value, pct = tail(times)
    setup_s, setup_wall = setup
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s_p50": (statistics.median(times), "s"),
        "pass_s_tail": (value, "s"),
        "items_per_s": (items / sum(times), "1/s"),
        "max_err_over_tol": (statistics.median(worst) if worst else 0.0, "ratio"),
        "ok_frac": (1.0 - run.failed / run.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [f"pass_s_tail is p{pct:.1f} of {len(times)} passes",
             f"times are on the speed probe's scale (kernel = {SpeedProbe.REFERENCE_S} s); "
             f"wall clock: pass p50 {statistics.median(wall):.6g} s, setup {setup_wall:.6g} s, "
             f"median scale {statistics.median(t / w for t, w in zip(times, wall) if w):.4g}",
             f"failed_frac = {run.failed}/{run.attempted} = {run.failed / run.attempted:.6g}",
             "max_err_over_tol is the median over checked calls of each call's worst "
             f"ratio (worst of the run: {max(worst, default=0.0):.6g})"]
    return metrics, notes


# What each per-layer metric should move, written down before measuring.
# First matching prefix wins.
MOVES = (
    (("probabilities.probability_trace.", "probabilities.operators.",
      "states.mixed_basis_pair."),
     "items_per_s, pass_s_p50 on trace_sweep (most) and validate (some); "
     "cli_sweep unchanged"),
    (("oracle.",), "pass_s_p50 on validate only"),
    (("inner.", "validation.", "states.flavour_states."), "pass_s_p50 on validate"),
    (("cli.",), "pass_s_p50, peak_rss_mb on cli_sweep; a little on trace_sweep"),
    (("probabilities.closed_form.",), "pass_s_p50, items_per_s on cli_sweep"),
    (("model.",), "small on every workload"),
    (("probabilities.non_real_trace.",), "ok_frac on trace_sweep and validate"),
    (("src.lines.",), "none: the line count of src/"),
    (("baseline.",), "none: per-call means next to the seed baseline table"),
    (("trace.",), "none: the cost of tracing"),
)


def moves(metric: str) -> str:
    return next((text for prefixes, text in MOVES if metric.startswith(prefixes)), "")


def per_layer(tracer, summary, passes, run: Run, untraced, traced) -> tuple[dict, list[str]]:
    """Per-pass layer metrics; None where the wrapped name is absent."""
    spans = summary["spans"]
    absent = set(tracer.absent)

    def total(names, field):
        if not any(name in spans for name in names):
            return None
        return sum(spans[name][field] for name in names if name in spans) / passes

    metrics: dict = {}
    for group, names in GROUPS.items():
        metrics[f"{group}.calls"] = (total(names, 0), "count/pass")
        metrics[f"{group}.self_s"] = (total(names, 2), "s/pass")
    metrics["oracle.numeric_eigensystem.calls"] = (
        total(("oracle.numeric_eigensystem",), 0), "count/pass")
    brute = total(("oracle.brute_force_probability",), 0)
    metrics["oracle.spectral_reuse"] = (
        None if brute is None or "oracle._spectral_data" not in spans
        else brute * passes / max(summary["spectral_in_brute"], 1), "ratio")

    # validation families by check_name; a family the workload does not run is 0
    by_family = {tracer.family.get(span, span): spans[span][1]
                 for span in spans if span.startswith("validation._check_")}
    for name in EXPECTED_CHECKS:
        metrics[f"validation.{name}.s"] = (
            None if "validation._check_*" in absent else by_family.get(name, 0.0) / passes,
            "s/pass")

    main_s, run_s, emit_s = (total((name,), 1) for name in ("cli.main", "cli.run", "cli._emit"))
    metrics["cli.parse_s"] = (None if run_s is None else main_s - run_s, "s/pass")
    metrics["cli.compute_s"] = (
        None if run_s is None or emit_s is None else run_s - emit_s, "s/pass")
    metrics["cli.emit_s"] = (emit_s, "s/pass")
    metrics["cli.bytes_out"] = (run.bytes_out / run.attempted, "B/call")
    metrics["cli.rows_out"] = (run.rows_out / run.attempted, "count/call")

    non_real = sum(count for (span, kind), count in tracer.raised.items()
                   if kind == "NonRealTrace" and span in (
                       "probabilities.probability_trace", "oracle.brute_force_probability"))
    metrics["probabilities.non_real_trace.count"] = (non_real, "count")

    notes = []
    for label, (span, seed_us) in ROADMAP_BASELINE_US.items():
        calls, inclusive, own = spans.get(span, (0, None, None))
        incl_us = None if inclusive is None else 1e6 * inclusive / max(calls, 1)
        self_us = None if own is None else 1e6 * own / max(calls, 1)
        metrics[f"baseline.{label}.incl_us"] = (incl_us, "us")
        metrics[f"baseline.{label}.self_us"] = (self_us, "us")
        if calls:
            notes.append(f"baseline {label}: seed table {seed_us:g} us; traced here "
                         f"{incl_us:.4g} us inclusive, {self_us:.4g} us self, {calls} calls")

    package = SRC / "ptosc"
    for module in SRC_MODULES:
        path = package / f"{module}.py"
        metrics[f"src.lines.{module}"] = (
            len(path.read_text(encoding="utf-8").splitlines()) if path.is_file() else None,
            "lines")
    metrics["src.lines.total"] = (
        sum(len(path.read_text(encoding="utf-8").splitlines())
            for path in package.glob("*.py")), "lines")

    p50_untraced, p50_traced = statistics.median(untraced), statistics.median(traced)
    metrics["trace.overhead_s"] = (p50_traced - p50_untraced, "s/pass")
    metrics["trace.overhead_frac"] = (p50_traced / p50_untraced - 1.0, "ratio")
    metrics["trace.spans"] = (summary["n_spans"] / passes, "count/pass")
    notes.append("span times (self_s, baseline.*) are wall clock; trace.overhead_* "
                 "compares pass times on the speed probe's scale")
    if absent:
        notes.append(f"absent, reported as null: {sorted(absent)}")
    return metrics, notes


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  sizes=None, setup_repeats: int = SETUP_REPEATS, work: Path = WORK) -> dict:
    """One benchmark run; returns the result object and prints nothing."""
    sizes = sizes or SIZES[workload]
    work.mkdir(parents=True, exist_ok=True)
    ptosc = load_program()
    probe = SpeedProbe()
    setup = None if trace else measure_setup(setup_repeats, probe)
    run = Run(ptosc.cli.main)

    # warm-up pass: checked and counted, not timed
    loop(workload, run, seed, 0, 0.0, sizes, work, probe)
    if not trace:
        times, items, worst, wall = loop(workload, run, seed, 1, seconds, sizes, work, probe)
        metrics, notes = end_to_end(times, items, worst, wall, setup, run)
    else:
        untraced, _, _, _ = loop(workload, run, seed, 1, seconds / 2, sizes, work, probe)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer, ptosc)
        try:
            run.main = tracer.root(ptosc.cli.main)
            traced, _, _, _ = loop(workload, run, seed, 1 + len(untraced), seconds / 2,
                                   sizes, work, probe)
        finally:
            run.main = ptosc.cli.main
            tracing.uninstall(undo)
        summary = tracing.summarise(tracer)
        tracing.write_spans(tracer, work / f"spans-{workload}.npz")
        metrics, notes = per_layer(tracer, summary, len(traced), run, untraced, traced)
        notes.append(f"{len(traced)} traced passes, {len(untraced)} untraced; spans in "
                     f"{work / f'spans-{workload}.npz'}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "notes": notes,
        "problems": run.problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in result.pop("problems"):
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        value = "absent" if metric["value"] is None else repr(metric["value"])
        note = f"  -> {moves(name)}" if args.trace and moves(name) else ""
        print(f"{name:56s} {value:>24} {metric['unit']}{note}")
    for note in result.pop("notes"):
        print(f"# {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
