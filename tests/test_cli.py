"""CLI behaviour: columns, formats, determinism, config handling, exit codes."""

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

import ptosc
from ptosc import (
    BrokenPTPhase,
    cardioid_r,
    eigensystem,
    hermitian_eigenvalues,
    hermitian_transition_probability,
    naive_continuation_value,
    params_from_eta,
    probability_trace,
    pt_eigenvalues,
    survival_probability,
    transition_probability,
)
from ptosc import cli
from ptosc.cli import _build_parser, _parse_grid, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_domain_error(capsys, *argv):
    """Exit 3 with nothing on stdout and one ``domain error:`` line on stderr."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, ""), argv
    assert err.startswith("domain error: ") and err.count("\n") == 1, (argv, err)


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append({k: (float(v) if v else None) for k, v in zip(header, cells)})
    return header, rows


class TestProbabilities:
    def test_single_point_worked_value(self, capsys):
        code, out, _ = run(capsys, "probabilities", "--eta", "0.6",
                           "--phase", "0:3.141592653589793:3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["eta", "phase", "pt_survival", "pt_transition",
                          "herm_survival", "herm_transition"]
        mid = rows[1]  # phase = pi/2
        assert mid["pt_transition"] == pytest.approx(0.36, abs=1e-12)
        assert mid["herm_transition"] == pytest.approx(0.36 / 1.36, abs=1e-12)

    def test_trace_and_closed_form_columns_agree(self, capsys):
        code, out, _ = run(capsys, "probabilities", "--eta", "0.3,0.7",
                           "--phase", "0:6.283185307179586:17",
                           "--methods", "trace,closed_form")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["eta", "phase", "pt_survival", "pt_transition",
                          "trace_survival", "trace_transition"]
        for row in rows:
            assert row["trace_transition"] == pytest.approx(row["pt_transition"], abs=1e-10)
            assert row["trace_survival"] == pytest.approx(row["pt_survival"], abs=1e-10)

    def test_naive_column(self, capsys):
        code, out, _ = run(capsys, "probabilities", "--eta", "0.75",
                           "--phase", "0:3.141592653589793:3",
                           "--methods", "closed_form,naive_continuation")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[1]["naive_transition"] == pytest.approx(-0.5625 / 0.4375, abs=1e-10)

    def test_raw_params_mode(self, capsys):
        code, out, _ = run(capsys, "probabilities", "--raw-params", "2,1,0.3,0",
                           "--phase", "0:3.141592653589793:3")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["eta"] == pytest.approx(0.6, abs=1e-15)

    def test_deterministic_output(self, capsys):
        args = ("probabilities", "--eta", "0:0.95:7", "--phase", "0:6.283185307179586:9",
                "--methods", "closed_form,trace,hermitian")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "probabilities", "--eta", "0.6",
                           "--phase", "0:1:2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert isinstance(rows, list) and len(rows) == 2
        assert set(rows[0]) == {"eta", "phase", "pt_survival", "pt_transition",
                                "herm_survival", "herm_transition"}

    def test_eta_one_allowed_for_finite_methods(self, capsys):
        code, out, _ = run(capsys, "probabilities", "--eta", "1.0",
                           "--phase", "0:3.141592653589793:3",
                           "--methods", "closed_form,hermitian")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[1]["pt_transition"] == 1.0

    def test_eta_one_with_trace_is_domain_error(self, capsys):
        code, _, err = run(capsys, "probabilities", "--eta", "1.0",
                           "--phase", "0:1:2", "--methods", "trace")
        assert code == 3
        assert "exceptional" in err.lower()
        # trace (its states) and naive_continuation (1 / (1 - eta^2)) are undefined in
        # the exceptional-point band: the library call of the first such column refuses
        for grid in (("--eta", "1.0"), ("--eta", "0.5,0.9999999999999"),
                     ("--raw-params", "2,1,0.5,0"), ("--raw-params", "1,2,0.5,0.7")):
            for methods in ("trace", "naive_continuation", "closed_form,trace",
                            "closed_form,naive_continuation", "trace,hermitian",
                            "hermitian,naive_continuation",
                            "closed_form,trace,hermitian,naive_continuation"):
                assert_domain_error(capsys, "probabilities", *grid, "--methods", methods,
                                    "--phase", "0:1:3")
        assert run(capsys, "probabilities", "--methods", "closed_form", "--eta", "1.0")[0] == 0

    def test_broken_phase_is_domain_error(self, capsys):
        code, _, err = run(capsys, "probabilities", "--eta", "1.2", "--phase", "0:1:2")
        assert code == 3
        assert "domain error" in err
        # past eta = 1 every method but hermitian is undefined
        for grid in (("--eta", "1.2"), ("--eta", "0.5,1.5"), ("--eta", "0:3:7"),
                     ("--raw-params", "2,1,0.6,0"), ("--raw-params", "1,2,0.6,0.7")):
            for methods in ("closed_form", "trace", "naive_continuation", "closed_form,hermitian",
                            "trace,hermitian", "hermitian,naive_continuation",
                            "closed_form,trace,hermitian,naive_continuation"):
                assert_domain_error(capsys, "probabilities", *grid, "--methods", methods,
                                    "--phase", "0:1:3")
        assert run(capsys, "probabilities", "--methods", "hermitian", "--eta", "0:3:7")[0] == 0

    def test_default_surface_saturates_towards_exceptional_point(self, capsys):
        code, out, _ = run(capsys, "probabilities")
        assert code == 0
        _, rows = parse_csv(out)
        # at the quarter-period phase the transition grows monotonically in eta
        target = math.pi / 2.0
        phase = min({row["phase"] for row in rows}, key=lambda v: abs(v - target))
        column = [row["pt_transition"] for row in rows if row["phase"] == phase]
        assert all(a < b for a, b in zip(column, column[1:]))
        assert column[-1] == pytest.approx(0.95 ** 2 * math.sin(phase) ** 2, abs=1e-12)

    def test_output_file(self, capsys, tmp_path):
        """--output FILE holds the bytes stdout gets, on every emitter path:
        sweeps with trace columns as CSV and JSON, masses with missing
        cells, cardioid, and validate as a table and as JSON."""
        target = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "probabilities", "--eta", "0.6", "--phase", "0:1:2",
                           "--output", str(target))
        assert code == 0 and out == ""
        text = target.read_bytes().decode("utf-8")
        assert "\r" not in text
        assert text.startswith("eta,phase,")
        code, stdout_text, _ = run(capsys, "probabilities", "--eta", "0.6", "--phase", "0:1:2")
        assert stdout_text == text
        for argv in [
            ("probabilities", "--eta", "0,0.6", "--phase", "0:1:3", "--t0=-1.5",
             "--methods", "closed_form,trace,hermitian,naive_continuation"),
            ("probabilities", "--raw-params", "1.1,2.3,0.4,0.7", "--phase", "0:1:3",
             "--methods", "closed_form,trace", "--format", "json"),
            ("masses", "--eta", "0:2:5"),                     # PT cells missing past eta = 1
            ("masses", "--eta", "0:2:5", "--format", "json"),
            ("cardioid", "--eta", "0.5", "--phase", "0:3:4"),
            ("validate", "--eta", "0.3"),
            ("validate", "--eta", "0.3", "--json"),
        ]:
            target.unlink()
            code, out, _ = run(capsys, *argv, "--output", str(target))
            assert (code, out) == (0, ""), argv
            assert run(capsys, *argv) == (0, target.read_bytes().decode("utf-8"), ""), argv


# one bad value per argv, each pinned to its exit code and its one stderr line
BAD_CONFIG = {
    ("probabilities", "--eta", "0.5:0.1:5"): "--eta: need min < max, got 0.5 >= 0.1",
    ("probabilities", "--eta", "0:0.9:1"): "--eta: steps must be >= 2, got 1",
    ("probabilities", "--eta", "abc"): "--eta: cannot parse 'abc' as a number",
    ("probabilities", "--methods", "magic"):
        "unknown method 'magic'; choose from closed_form, trace, hermitian, naive_continuation",
    ("probabilities", "--format", "xml"): "--format must be csv or json, got 'xml'",
    ("probabilities", "--eta", "0.5", "--raw-params", "2,1,0.3,0"):
        "--eta and --raw-params are mutually exclusive",
    ("probabilities", "--raw-params", "2,1,0.3"):                   # missing momentum
        "--raw-params needs m1sq,m2sq,musq,p, got '2,1,0.3'",
    ("probabilities", "--raw-params", "1,1,0.3,0"):                 # degenerate diagonal
        "--raw-params: m1_sq == m2_sq: eta is undefined for a degenerate diagonal",
    ("masses", "--ratio", "1.5"): "--ratio must lie in (0, 1), got 1.5",
    ("probabilities", "--eta", "-0.2"): "eta values must be non-negative",
    ("validate", "--tolerance", "-1"): "--tolerance must be positive, got -1.0",
    ("validate", "--eta", "1.5"): "validation grid requires 0 <= eta < 1",
    ("validate", "--raw-params", "0.5,1e-300,0,0", "--eta", "0"):  # lower mass rounds to 0
        "lower squared mass rounds to 0: the diagonal masses 0.5 and 1e-300 are too far apart"
        " to resolve",
    ("probabilities", "--phase=-1e308:1e308:3"):                    # range span overflows
        "--phase: range -1e+308:1e+308 is too wide to space evenly",
    ("probabilities", "--eta", "1.5e308", "--methods", "trace"):   # mu^2 overflows
        "eta = 1.5e+308 is too large: mu^2 = eta * sum_sq * ratio / 2 overflows",
    ("probabilities", "--raw-params", "2,1,1e308,0", "--methods", "hermitian",
     "--phase", "1"):                                               # eta overflows to inf
        "eta = inf: eta^2 is not a finite number",
    ("probabilities", "--eta", "0.5", "--phase", "0,1e308", "--methods", "trace"):
        "time must be finite, got inf",                             # t = 2 phase / dw overflows
    ("probabilities", "--phase", "0:1:99999999999999999999"):       # more steps than numpy sizes
        "--phase: cannot allocate 99999999999999999999 steps",
    ("masses", "--config=", "--eta", "0.5"): "--config: must not be empty",
    ("masses", "--config", "", "--eta", "0.5"): "--config: must not be empty",
}

UNPARSABLE = {
    ("probabilities", "--t0", "abc"): "--t0: cannot parse 'abc' as a number",
    ("masses", "--ratio", "abc"): "--ratio: cannot parse 'abc' as a number",
    ("validate", "--tolerance", "abc"): "--tolerance: cannot parse 'abc' as a number",
    ("probabilities", "--phase", "inf"): "--phase: must be finite, got 'inf'",
    ("cardioid", "--phase", "inf"): "--phase: must be finite, got 'inf'",
    ("probabilities", "--eta", "nan"): "--eta: must be finite, got 'nan'",
    ("probabilities", "--eta", "0:inf:4"): "--eta: must be finite, got 'inf'",
    ("probabilities", "--t0", "inf", "--methods", "closed_form"): "--t0: must be finite, got 'inf'",
    ("probabilities", "--raw-params", "2,1,nan,0"): "--raw-params: must be finite, got 'nan'",
    ("validate", "--tolerance", "nan"): "--tolerance: must be finite, got 'nan'",
}


def test_parse_grid_gives_a_float64_array():
    for text, want in [("0:0.95:20", np.linspace(0.0, 0.95, 20)),
                       ("-3:9:31", np.linspace(-3.0, 9.0, 31)),
                       ("0.5, 1,-0.0", [0.5, 1.0, -0.0]), ("7", [7.0])]:
        grid = _parse_grid(text, "--eta")
        assert type(grid) is np.ndarray and grid.dtype == np.float64
        assert grid.tobytes() == np.array(want, dtype=np.float64).tobytes(), text


class TestBadConfig:
    @pytest.mark.parametrize("argv", list(BAD_CONFIG))
    def test_exit_code_two(self, capsys, argv):
        assert run(capsys, *argv) == (2, "", f"error: {BAD_CONFIG[argv]}\n")

    @pytest.mark.parametrize("t0", ["1e17", "inf", "nan"])
    def test_trace_refuses_unresolvable_t0(self, capsys, t0):
        # t0 + dt rounds dt away at |t0| = 1e17; inf and nan fail the same test
        code, out, err = run(capsys, "probabilities", "--eta", "0.6", "--t0", t0,
                             "--methods", "closed_form,trace")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("etas", ["0.96,0.97", "0.5,0.97", "0.97,0.5", "0,0.3,0.3"])
    def test_trace_over_an_eta_grid_exits_as_its_points_do(self, capsys, etas):
        """One trace call covers the eta grid, and each eta keeps its own
        tolerance: at |t| = 1e7 the phases resolve to about 2.6e-9, inside
        1e-8 above eta = 0.95 and outside 1e-10 below it."""
        argv = ("probabilities", "--methods", "trace", "--t0", "1e7", "--phase", "0:6:5")
        code, out, err = run(capsys, *argv, "--eta", etas)
        singles = [run(capsys, *argv, "--eta", eta) for eta in etas.split(",")]
        assert code == next((c for c, _, _ in singles if c), 0)
        assert code == (2 if any(float(eta) <= 0.95 for eta in etas.split(",")) else 0)
        if code:
            assert out == "" and err.startswith("error: |t| = 1e+07 resolves")
        else:
            rows = [line for _, single, _ in singles for line in single.splitlines()[1:]]
            assert out.splitlines()[1:] == rows

    def test_large_t0_allowed_without_trace(self, capsys):
        code, out, _ = run(capsys, "probabilities", "--eta", "0.6", "--t0", "1e17",
                           "--methods", "closed_form")
        assert code == 0
        assert len(out.strip().split("\n")) == 65

    @pytest.mark.parametrize("argv", list(UNPARSABLE))
    def test_unparsable_or_non_finite_number_exits_two(self, capsys, tmp_path, argv):
        target = tmp_path / "rows.txt"
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert (code, out, err) == (2, "", f"error: {UNPARSABLE[argv]}\n")
        assert not target.exists()

    @pytest.mark.parametrize("argv", [
        ("probabilities", "--eta", "0.6"),
        ("masses",),
        ("cardioid",),
        ("validate", "--eta", "0.3"),
    ])
    def test_unwritable_output_exits_two(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "rows.txt"
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 2
        assert out == "" and not target.exists()
        assert err.startswith("error: cannot write ") and "Traceback" not in err

    def test_unknown_flag_exits_two(self, capsys):
        assert run(capsys, "probabilities", "--frobnicate")[0] == 2

    def test_missing_config_file(self, capsys):
        assert run(capsys, "probabilities", "--config", "/nonexistent.cfg")[0] == 2

    def test_unknown_config_key(self, capsys, tmp_path):
        """--config and --json are flags, not settings: a config file cannot set them."""
        cfg = tmp_path / "bad.cfg"
        for command, key in [("probabilities", "volume"), ("probabilities", "config"),
                             ("validate", "config"), ("validate", "json")]:
            cfg.write_text(f"{key} = 11\n")
            assert run(capsys, command, "--config", str(cfg)) == (
                2, "", f"error: unknown config keys for this command: [{key!r}]\n")

    @pytest.mark.parametrize("command, first, second", [
        ("probabilities", ("--eta", "-1"), ("--methods", "magic")),
        ("masses", ("--format", "xml"), ("--ratio", "2")),
        ("cardioid", ("--phase", "0:1:1"), ("--format", "xml")),
        ("validate", ("--eta", "2"), ("--output=",)),
    ], ids=["probabilities", "masses", "cardioid", "validate"])
    def test_two_bad_settings_report_the_one_listed_first_in_help(
            self, capsys, command, first, second):
        """Settings are checked in --help order, whatever the order of the argv."""
        usage = _build_parser().commands[command].format_usage()
        assert usage.index(first[0] + " ") < usage.index(second[0].rstrip("=") + " ")
        alone = run(capsys, command, *first)
        assert alone[0] == 2 and alone[2].startswith("error: ")
        assert run(capsys, command, *second, *first) == alone
        assert run(capsys, command, *first, *second) == alone

    @pytest.mark.parametrize("command, flag", [(command, flag) for command, flags in {
        "probabilities": ("--eta", "--phase", "--t0", "--methods", "--format", "--output",
                          "--raw-params"),
        "masses": ("--eta", "--ratio", "--format", "--output"),
        "cardioid": ("--eta", "--phase", "--format", "--output"),
        "validate": ("--eta", "--raw-params", "--tolerance", "--output"),
    }.items() for flag in flags])
    def test_empty_value_is_refused(self, capsys, tmp_path, command, flag):
        """An empty flag or config value never falls back to the default."""
        refused = (2, "", f"error: {flag}: must not be empty\n")
        assert run(capsys, command, f"{flag}=") == refused
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(f"{flag[2:]} =\n")
        assert run(capsys, command, "--config", str(cfg)) == refused


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# sweep settings\n"
            "eta = 0.6\n"
            "phase = 0:3.141592653589793:3\n"
            "methods = closed_form\n")
        code, out, _ = run(capsys, "probabilities", "--config", str(cfg))
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["eta", "phase", "pt_survival", "pt_transition"]
        assert rows[1]["pt_transition"] == pytest.approx(0.36, abs=1e-12)

        code, out, _ = run(capsys, "probabilities", "--config", str(cfg),
                           "--eta", "0.5")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[1]["pt_transition"] == pytest.approx(0.25, abs=1e-12)


class TestMasses:
    def test_merging_at_exceptional_point(self, capsys):
        code, out, _ = run(capsys, "masses", "--eta", "0,1,1.7320508075688772,2",
                           "--ratio", "0.5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["eta", "pt_m_plus_sq", "pt_m_minus_sq",
                          "herm_m_plus_sq", "herm_m_minus_sq"]
        at_zero, at_one, at_root3, at_two = rows
        assert at_zero["pt_m_plus_sq"] == pytest.approx(0.75, abs=1e-14)
        assert at_zero["pt_m_minus_sq"] == pytest.approx(0.25, abs=1e-14)
        assert at_one["pt_m_plus_sq"] == pytest.approx(0.5, abs=1e-14)
        assert at_one["pt_m_minus_sq"] == pytest.approx(0.5, abs=1e-14)
        assert abs(at_root3["herm_m_minus_sq"]) < 1e-9     # tachyonic threshold
        assert at_two["pt_m_plus_sq"] is None              # flagged past eta = 1
        assert at_two["pt_m_minus_sq"] is None
        assert at_two["herm_m_minus_sq"] < 0.0

    def test_reference_ratio_reproduces_worked_masses(self, capsys):
        code, out, _ = run(capsys, "masses", "--eta", "0,0.6",
                           "--ratio", "0.3333333333333333")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["pt_m_plus_sq"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert rows[0]["pt_m_minus_sq"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rows[1]["pt_m_plus_sq"] == pytest.approx(1.9 / 3.0, abs=1e-12)
        assert rows[1]["pt_m_minus_sq"] == pytest.approx(1.1 / 3.0, abs=1e-12)

    def test_json_nulls_for_flagged_cells(self, capsys):
        code, out, _ = run(capsys, "masses", "--eta", "1.5,2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["pt_m_plus_sq"] is None
        assert rows[0]["herm_m_plus_sq"] > 0.0


class TestCardioid:
    def test_worked_ratios(self, capsys):
        code, out, _ = run(capsys, "cardioid", "--eta", "0.9",
                           "--phase", "0:6.283185307179586:5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["eta", "phase", "r", "r_over_r_pi"]
        assert rows[0]["r_over_r_pi"] == pytest.approx(0.19 / 1.81, abs=1e-10)
        assert rows[2]["r_over_r_pi"] == pytest.approx(1.0, abs=1e-14)  # phase = pi

    def test_default_etas_cover_three_curves(self, capsys):
        code, out, _ = run(capsys, "cardioid", "--phase", "0:6.283185307179586:3")
        assert code == 0
        _, rows = parse_csv(out)
        assert sorted({row["eta"] for row in rows}) == [0.1, 0.5, 0.9]

    def test_near_circle_at_small_mixing(self, capsys):
        code, out, _ = run(capsys, "cardioid", "--eta", "0.1",
                           "--phase", "0:6.283185307179586:73")
        _, rows = parse_csv(out)
        ratios = [row["r_over_r_pi"] for row in rows]
        assert max(ratios) - min(ratios) < 0.02

    def test_exceptional_point_is_domain_error(self, capsys):
        assert run(capsys, "cardioid", "--eta", "1.0")[0] == 3


class TestValidate:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "validate", "--eta", "0.0,0.3,0.8")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 20

    def test_corrupted_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "validate", "--eta", "0.3", "--tolerance", "1e-30")
        assert code == 1
        assert "FAIL" in out

    def test_json_reports(self, capsys):
        code, out, _ = run(capsys, "validate", "--eta", "0.3", "--json")
        assert code == 0
        reports = json.loads(out)
        assert all(rep["passed"] for rep in reports)
        assert {"check_name", "max_abs_error", "tolerance", "passed",
                "grid_size"} <= set(reports[0])

    def test_raw_params_swapped_orientation(self, capsys):
        code, _, _ = run(capsys, "validate", "--eta", "0.3,0.8",
                         "--raw-params", "1,2,0.3,0")
        assert code == 0

    def test_oracle_refuses_past_its_exceptional_point_bound(self, capsys):
        """1 - eta = 1e-8 is past the oracle's a-priori bound: exit 3 with the
        bound in the message, where a NonRealTrace traceback (exit 1) was."""
        assert_domain_error(capsys, "validate", "--eta", "0.99999999")
        assert run(capsys, "validate", "--eta", "0.99999999")[2].endswith(
            "eps / (1 - eta^2) >= 1e-08\n")
        assert run(capsys, "validate", "--eta", "0.9999999")[0] == 1  # two honest FAILs

    @pytest.mark.parametrize("argv, bound", [
        (("probabilities", "--eta", "0.99999999", "--methods", "closed_form,trace"),
         "4 eps / (1 - eta^2) > 1e-08"),
        (("validate", "--eta", "0.99999997"), "4 eps / (1 - eta^2) > 1e-08"),
        (("validate", "--eta", "0.99999994"), "within its rounding 7.401e-09"),
        (("probabilities", "--eta", "0.999999999", "--phase", "1", "--t0", "0.3",
          "--methods", "closed_form,trace"), "4 eps / (1 - eta^2) > 1e-08"),
    ])
    def test_trace_route_refuses_near_the_exceptional_point(self, capsys, argv, bound):
        """Each of these ended in a NonRealTrace traceback (exit 1), or gave a
        trace value 3.7e-8 off with exit 0 (the last); now one line, exit 3."""
        assert_domain_error(capsys, *argv)
        err = run(capsys, *argv)[2]
        assert "for the trace route: " in err and err.endswith(bound + "\n"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("raw", ["1e-200,2e-200,1e-201,0", "1e-300,2e-300,1e-301,0"])
    def test_tiny_masses_report_failures_without_a_traceback(self, raw):
        """Squared masses far below 1e-154 reach the oracle's solve intact,
        so the brute force passes; the checks that lose precision there
        fail, with exit 1."""
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ptosc.__file__))}
        done = subprocess.run([sys.executable, "-m", "ptosc", "validate", "--raw-params", raw],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1 and "Traceback" not in done.stderr, done.stderr
        status = {line.split()[0]: line.split()[-1] for line in done.stdout.splitlines()[1:-1]}
        assert status["brute_force_vs_closed_form"] == "PASS" and "FAIL" in status.values()

    def test_tiny_masses_fail_two_families_with_nothing_on_stderr(self):
        """The relative errors of two families divide by a scale that
        underflows to 0: their 0/0 gives NaN, which fails them, and warns
        nowhere (a numpy warning would carry the install path)."""
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ptosc.__file__))}
        done = subprocess.run([sys.executable, "-m", "ptosc", "validate", "--raw-params",
                               "1e-200,2e-200,1e-201,0", "--json"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (1, "")
        reports = {line.split('"')[3]: line for line in done.stdout.splitlines()[1:-1]}
        for family in ("eigenvector_residuals", "trace_determinant_preservation"):
            assert '"max_abs_error": nan,' in reports[family], reports[family]
            assert '"passed": false,' in reports[family], reports[family]


def test_parser_built_once_gives_the_output_of_fresh_runs(capsys):
    sequence = [
        ("probabilities", "--eta", "0.6", "--phase", "0:1:3"),
        ("masses", "--ratio", "abc"),                  # exit 2 from the resolver
        ("cardioid", "--eta", "0.5", "--phase", "0:1:2", "--format", "json"),
        ("probabilities", "--frobnicate"),             # exit 2 from argparse
        ("probabilities", "--eta", "0.6", "--phase", "0:1:3"),
    ]
    reused = [run(capsys, *argv) for argv in sequence]
    assert _build_parser() is _build_parser()
    fresh = []
    for argv in sequence:
        _build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 0, 2, 0]
    assert reused[0] == reused[-1]


PARSE_PATHS = [
    ("probabilities", "--bogus", "1"),
    ("probabilities", "extra"),
    ("probabilities", "--eta"),  # missing value
    ("probabilities", "--phase"),
    ("probabilities", "--phase", "0:1:3", "--", "--format", "json"),
    ("bogus",),
    (),
    ("--help",),
    ("probabilities", "--help"),
    ("validate", "--json", "extra"),
    ("validate", "--json=x"),
]


@pytest.mark.parametrize("argv", PARSE_PATHS)
def test_parse_paths_print_what_the_full_parser_prints(capsys, monkeypatch, argv):
    """An argv that main does not read as plain goes to the full parser:
    help, errors and exit codes stay those of its parse_args."""
    monkeypatch.setenv("COLUMNS", "80")
    got = run(capsys, *argv)
    with pytest.raises(SystemExit) as exit_info:
        _build_parser().parse_args(list(argv))
    captured = capsys.readouterr()
    assert got == (exit_info.value.code, captured.out, captured.err)


def test_a_known_command_is_parsed_without_the_full_parser(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("argparse ran")

    parser = _build_parser()
    for p in (parser, *parser.commands.values()):
        monkeypatch.setattr(p, "parse_args", refuse)
        monkeypatch.setattr(p, "parse_known_args", refuse)
    code, out, _ = run(capsys, "probabilities", "--eta", "0.6", "--phase", "0:1:3")
    assert code == 0 and len(out.splitlines()) == 4
    code, out, _ = run(capsys, "probabilities", "--eta=0.6", "--t0=-2.5", "--phase=0:1:3",
                       "--methods", "closed_form,trace", "--format", "json")
    assert code == 0 and len(out.splitlines()) == 5


DECLARED = {command: [flag for action in p._actions for flag in action.option_strings
                      if flag not in ("-h", "--help")]
            for command, p in _build_parser().commands.items()}


@st.composite
def parse_argvs(draw):
    """A command, then flags (declared, help, --, an abbreviation or an
    unknown one), each alone, joined to a value by '=' or followed by it."""
    command = draw(st.sampled_from(sorted(DECLARED)))
    declared = DECLARED[command]
    abbreviation = draw(st.sampled_from(declared).flatmap(
        lambda flag: st.integers(3, len(flag) - 1).map(lambda n: flag[:n])))
    flags = st.sampled_from([*declared, "-h", "--help", "--", abbreviation, "--bogus"])
    values = st.sampled_from(["", "-", "-2.5", "0:1:3", "a=b", "csv"])
    argv = [command]
    for flag, join, value in draw(st.lists(st.tuples(flags, st.sampled_from(["", "=", " "]),
                                                     values), max_size=4)):
        argv += [flag] if join == "" else [flag + "=" + value] if join == "=" else [flag, value]
    return argv


@hyp.settings(max_examples=500, deadline=None)
@hyp.given(argv=parse_argvs())
@hyp.example(argv=["validate", "--json=x"])
@hyp.example(argv=["probabilities", "--t0", "-2.5", "--eta="])
def test_a_plain_argv_is_read_as_argparse_reads_it(argv):
    """main reads an argv without argparse only where argparse would
    return the same namespace; wherever argparse exits, argparse runs."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = vars(_build_parser().parse_args(argv))
    except SystemExit:
        expected = None
    plain = cli._plain_args(argv)
    assert plain is None or vars(plain) == expected, argv


def test_importing_ptosc_leaves_numpy_random_unloaded():
    """Only validate draws random numbers; the other commands do not pay
    for importing numpy.random."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ptosc.__file__))}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, ptosc; print('numpy.random' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"


# --- output identity with the former row-by-row emitter ---------------------

def former_fmt(value):
    """Per-cell formatting as the CLI did it before the template emitter."""
    if value is None:
        return ""
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalise -0.0
    return f"{value:.17g}"


def former_render(columns, rows, fmt):
    """The former emitter: one dict per row, one former_fmt call per cell."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(former_fmt(row[c]) for c in columns) for row in rows]
    else:
        body = []
        for row in rows:
            cells = ", ".join(f'"{c}": ' + (former_fmt(row[c]) if row[c] is not None else "null")
                              for c in columns)
            body.append("  {" + cells + "}")
        lines = ["[", ",\n".join(body), "]"]
    return "\n".join(lines) + "\n"


def listed(values):
    return ",".join(repr(v) for v in values)


REF_ETAS = [0.0, 0.3, 0.6, 0.95]                       # eta = 0: naive_transition is -0.0
REF_PHASES = [-2.5, 0.0, 0.7853981633974483, 1.5707963267948966, 3.0, 11.0]


def reference_probabilities(t0):
    columns = ["eta", "phase", "pt_survival", "pt_transition", "trace_survival",
               "trace_transition", "herm_survival", "herm_transition", "naive_transition"]
    rows = []
    for eta in REF_ETAS:
        es = eigensystem(params_from_eta(eta, 3.0, 1.0 / 3.0))
        for phase in REF_PHASES:
            t = t0 + 2.0 * phase / es.delta_omega
            herm = hermitian_transition_probability(eta, phase)
            rows.append({
                "eta": eta, "phase": phase,
                "pt_survival": survival_probability(eta, phase),
                "pt_transition": transition_probability(eta, phase),
                "trace_survival": probability_trace(1, 1, t0, t, es).value,
                "trace_transition": probability_trace(1, 2, t0, t, es).value,
                "herm_survival": 1.0 - herm, "herm_transition": herm,
                "naive_transition": naive_continuation_value(eta, phase),
            })
    return columns, rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("t0", [0.0, -3.25])
def test_probabilities_match_the_former_rendering(capsys, fmt, t0):
    code, out, _ = run(capsys, "probabilities", "--eta=" + listed(REF_ETAS),
                       "--phase=" + listed(REF_PHASES), f"--t0={t0!r}", "--format", fmt,
                       "--methods", "naive_continuation,hermitian,trace,closed_form")
    assert code == 0
    assert out == former_render(*reference_probabilities(t0), fmt)
    assert "-0," not in out and "-0}" not in out and "-0\n" not in out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_masses_match_the_former_rendering(capsys, fmt):
    etas, ratio = [0.0, 0.5, 1.0, 1.25, 1.7320508075688772, 2.0, 5.0], 0.5
    columns = ["eta", "pt_m_plus_sq", "pt_m_minus_sq", "herm_m_plus_sq", "herm_m_minus_sq"]
    rows = []
    for eta in etas:
        params = params_from_eta(eta, 3.0, ratio)
        try:
            pt = [value / 3.0 for value in pt_eigenvalues(params)]
        except BrokenPTPhase:
            pt = [None, None]
        herm = [value / 3.0 for value in hermitian_eigenvalues(params)]
        rows.append(dict(zip(columns, [eta, *pt, *herm])))
    assert rows[-1]["pt_m_plus_sq"] is None  # eta > 1 gives missing cells
    code, out, _ = run(capsys, "masses", "--eta=" + listed(etas), f"--ratio={ratio!r}",
                       "--format", fmt)
    assert code == 0
    assert out == former_render(columns, rows, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cardioid_matches_the_former_rendering(capsys, fmt):
    etas = [0.0, 0.1, 0.5, 0.9]
    rows = []
    for eta in etas:
        r_pi = cardioid_r(math.pi, eta)
        for phase in REF_PHASES:
            r = cardioid_r(phase, eta)
            rows.append({"eta": eta, "phase": phase, "r": r, "r_over_r_pi": r / r_pi})
    code, out, _ = run(capsys, "cardioid", "--eta=" + listed(etas),
                       "--phase=" + listed(REF_PHASES), "--format", fmt)
    assert code == 0
    assert out == former_render(["eta", "phase", "r", "r_over_r_pi"], rows, fmt)


# --- chunked output: rows go to the writer _CHUNK_ROWS at a time -------------

# row count -> (eta steps, phase steps); probabilities' eta blocks straddle chunks
CHUNK_GRIDS = {1: (1, 1), 255: (5, 51), 256: (4, 64), 257: (1, 257), 1000: (8, 125)}


def grid_flag(lo, hi, steps):
    return f"{lo!r}:{hi!r}:{steps}" if steps > 1 else repr(lo)


def chunk_case(command, n_rows):
    """(argv, column names, reference rows) of a sweep of ``n_rows`` rows."""
    if command == "probabilities":
        n_eta, n_phase = CHUNK_GRIDS[n_rows]
        etas = np.linspace(0.0, 0.9, n_eta) if n_eta > 1 else np.array([0.0])
        phases = np.linspace(-1.0, 7.0, n_phase) if n_phase > 1 else np.array([-1.0])
        argv = ["probabilities", "--eta=" + grid_flag(0.0, 0.9, n_eta),
                "--phase=" + grid_flag(-1.0, 7.0, n_phase)]
        names = ["eta", "phase", "pt_survival", "pt_transition", "herm_survival",
                 "herm_transition"]
        rows = []
        for eta in etas.tolist():
            for phase in phases.tolist():
                herm = hermitian_transition_probability(eta, phase)
                transition = transition_probability(eta, phase)
                rows.append(dict(zip(names, [eta, phase, 1.0 - transition, transition,
                                             1.0 - herm, herm])))
        return argv, names, rows
    # PT cells are missing past eta = 1, about half-way down: across a chunk boundary
    etas = np.linspace(0.0, 2.0, n_rows) if n_rows > 1 else np.array([1.5])
    argv = ["masses", "--eta", grid_flag(0.0, 2.0, n_rows) if n_rows > 1 else "1.5"]
    names = ["eta", "pt_m_plus_sq", "pt_m_minus_sq", "herm_m_plus_sq", "herm_m_minus_sq"]
    rows = []
    for eta in etas.tolist():
        params = params_from_eta(eta, 3.0, 0.5)
        pt = [v / 3.0 for v in pt_eigenvalues(params)] if eta <= 1.0 else [None, None]
        rows.append(dict(zip(names, [eta, *pt, *[v / 3.0 for v in hermitian_eigenvalues(params)]])))
    return argv, names, rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", sorted(CHUNK_GRIDS))
@pytest.mark.parametrize("command", ["probabilities", "masses"])
def test_chunked_output_equals_a_per_cell_reference(capsys, monkeypatch, command, n_rows, fmt):
    argv, names, rows = chunk_case(command, n_rows)
    assert len(rows) == n_rows
    pieces, write = [], cli._write

    def recording_write(chunks, output):
        pieces.extend(chunks)
        write(pieces, output)

    monkeypatch.setattr(cli, "_write", recording_write)
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == b"".join(pieces).decode("ascii") == former_render(names, rows, fmt)  # cell by cell
    # a CSV piece holds one line per row, the first also the header; a JSON row has one "{"
    held = [p.count(b"\n") - (k == 0) if fmt == "csv" else p.count(b"{")
            for k, p in enumerate(pieces)]
    assert sum(held) == n_rows and max(held) <= cli._CHUNK_ROWS, held
    assert len(pieces) == math.ceil(n_rows / cli._CHUNK_ROWS)


# --- every finite double, as a per-cell %.17g reference writes it --------------

# the cells whose text is easiest to get wrong: signed zeros, the subnormal
# and normal extremes, and the points where %.17g moves between fixed and
# exponent notation (a decimal exponent below -4, or of 17 and above)
EDGE_CELLS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
              sys.float_info.max, -sys.float_info.max]
SWITCH_POINTS = [1e-5, 1e-4, 1e16, 1e17]


def ulps_away(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


finite_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals and the smallest normals
    st.sampled_from(EDGE_CELLS),
    st.builds(lambda x, steps, sign: sign * ulps_away(x, steps),
              st.sampled_from(SWITCH_POINTS), st.integers(-4, 4), st.sampled_from([1.0, -1.0])),
)


@st.composite
def emit_cases(draw):
    """(axes, columns) as _emit takes them: one or two axes, one to three
    value columns over their grid, each with or without missing cells."""
    axes = {name: np.array(draw(st.lists(finite_cells, min_size=1, max_size=4)))
            for name in draw(st.sampled_from([("x",), ("x", "y")]))}
    n = math.prod(len(values) for values in axes.values())
    columns = {}
    for name in ("a", "b", "c")[:draw(st.integers(1, 3))]:
        values = np.array(draw(st.lists(finite_cells, min_size=n, max_size=n)))
        if draw(st.booleans()):
            values = (values, np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))))
        columns[name] = values
    return axes, columns


def per_cell_reference(axes, columns, fmt):
    """The text of ``_emit``, one ``"%.17g" % (x + 0.0)`` str per cell."""
    empty = "" if fmt == "csv" else "null"
    grid = list(itertools.product(*(values.tolist() for values in axes.values())))
    rows = [["%.17g" % (x + 0.0) for x in point] for point in grid]
    for column in columns.values():
        values, present = column if isinstance(column, tuple) else (column, [True] * len(grid))
        for row, x, here in zip(rows, values.tolist(), present):
            row.append("%.17g" % (x + 0.0) if here else empty)
    names = [*axes, *columns]
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in [names, *rows])
    body = ("  {" + ", ".join(f'"{name}": {cell}' for name, cell in zip(names, row)) + "}"
            for row in rows)
    return "[\n" + ",\n".join(body) + "\n]\n"


@hyp.settings(max_examples=300, deadline=None)
@hyp.given(case=emit_cases(), fmt=st.sampled_from(["csv", "json"]), chunk_rows=st.integers(1, 5))
def test_emit_writes_every_finite_double_as_a_per_cell_reference(tmp_path_factory, case, fmt,
                                                                 chunk_rows):
    """Byte for byte, to stdout and to a file alike, over chunks of 1 to 5
    rows so that most grids cross a chunk boundary."""
    axes, columns = case
    target = tmp_path_factory.getbasetemp() / "emit.out"
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows), contextlib.redirect_stdout(stdout):
        cli._emit(axes, columns, fmt, None)
        cli._emit(axes, columns, fmt, str(target))
    stdout.flush()
    expected = per_cell_reference(axes, columns, fmt).encode("ascii")
    assert stdout.buffer.getvalue() == target.read_bytes() == expected


def test_a_non_finite_cell_in_a_later_chunk_still_writes_nothing(capsys, tmp_path):
    target = tmp_path / "masses.csv"
    etas = ",".join(repr(k / 100) for k in range(299)) + ",1e160"  # 0 to 2.98, then 1e160
    code, out, err = run(capsys, "masses", "--eta", etas, "--output", str(target))
    assert (code, out) == (2, "")
    assert err == "error: herm_m_plus_sq is inf at eta = 1e+160: refusing non-finite output\n"
    assert not target.exists()


def block_buffered_env() -> dict:
    """A child's environment that imports this ptosc, with a block-buffered stdout as in a shell."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ptosc.__file__))}
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize("lines_read", [1, 0])
@pytest.mark.parametrize("argv", [
    ("probabilities", "--eta", "0:0.95:200", "--phase", "0:6:500"),  # 100,000 rows
    ("validate", "--json"),
])
def test_a_reader_that_closes_stdout_ends_the_run_quietly(argv, lines_read):
    """Once the reader of stdout has gone, the run stops writing and exits
    with its own code, without a BrokenPipeError on stderr.  Its stdout is
    block-buffered, as in most shells, so the interpreter's last flush is
    exercised too."""
    with subprocess.Popen([sys.executable, "-m", "ptosc", *argv], env=block_buffered_env(),
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as child:
        for _ in range(lines_read):
            child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    assert (code, err) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ("validate",),
    ("validate", "--json"),
    ("probabilities", "--eta", "0:0.95:200", "--phase", "0:6:500"),  # 100,000 rows
    ("cardioid",),
])
def test_a_stdout_that_cannot_be_written_exits_two_with_one_error_line(argv):
    """A full stdout is an unwritable output: exit 2 and one error line,
    with no traceback and nothing from the interpreter's last flush."""
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, "-m", "ptosc", *argv], env=block_buffered_env(),
                              stdin=subprocess.DEVNULL, stdout=full, stderr=subprocess.PIPE,
                              timeout=120)
    assert (done.returncode, done.stderr) == (
        2, b"error: cannot write stdout: No space left on device\n")


@pytest.mark.parametrize("argv", [
    ("validate",),
    ("probabilities", "--eta", "0:0.95:200", "--phase", "0:6:500"),
])
def test_a_closed_stdout_exits_two_with_one_error_line(argv):
    """With fd 1 closed at start-up (``>&-`` in a shell) sys.stdout is None:
    refused as an unwritable stdout, not a traceback."""
    done = subprocess.run([sys.executable, "-m", "ptosc", *argv], env=block_buffered_env(),
                          stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
                          preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (
        2, b"error: cannot write stdout: Bad file descriptor\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_failed_stdout_write_leaves_no_descriptor_open(monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails
    with os.fdopen(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        before = len(os.listdir("/proc/self/fd"))
        assert main(["probabilities", "--eta", "0.5", "--phase", "0:1:3"]) == 0
        assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("argv", [
    ("probabilities", "--eta", "1e200", "--methods", "hermitian", "--phase", "1"),
    ("probabilities", "--eta", "0.5,1e160", "--methods", "hermitian"),
    ("masses", "--eta", "1e160"),
    ("masses", "--eta", "0.5,1e160", "--format", "json"),
    # the first column's library call decides: eta^2 overflows in the Hermitian one,
    # and params_from_eta's mu^2 overflows on the trace route
    ("probabilities", "--eta", "0.5,1e200", "--methods", "hermitian,naive_continuation"),
    ("probabilities", "--eta", "1.5e308", "--methods", "trace"),
])
def test_non_finite_output_is_refused(capsys, tmp_path, argv):
    target = tmp_path / "rows.txt"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 2
    assert out == "" and not target.exists()
    assert err.startswith("error: ") and "Traceback" not in err
    assert "Warning" not in err


@pytest.mark.parametrize("argv", [
    ("validate", "--raw-params=0.5,1.0,0,1e160", "--eta=0"),
    ("validate", "--raw-params=1e308,5e307,0,1.3e154", "--eta=0"),  # p^2 + m^2 overflows
    ("probabilities", "--raw-params=0.5,1.0,0.1,1e160", "--methods", "closed_form,trace"),
    ("probabilities", "--raw-params=0.5,1.0,0.1,1e160", "--methods", "closed_form"),
    ("probabilities", "--raw-params=1e308,5e307,0,1.3e154", "--methods", "closed_form,trace"),
])
def test_overflowing_momentum_exits_two_with_one_error_line(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert [str(w.message) for w in caught] == []


# --- the exit-code contract under fuzzed argv ---------------------------------

numbers = st.sampled_from(["0", "0.5", "-0.0", "1", "0.999999999999", "1.2", "-0.3", "3.7",
                           "1e-300", "1e160", "1e200", "1e308", "-1e308", "nan", "inf",
                           "abc", "",  # and 1 - 10^-k for k = 6 to 11, about the EP bounds
                           "0.999999", "0.9999999", "0.99999999", "0.999999999", "0.9999999999",
                           "0.99999999999"]) | st.floats(-5.0, 5.0).map(repr)
ranges = st.builds(lambda lo, hi, n: f"{lo}:{hi}:{n}", numbers, numbers,
                   st.sampled_from(["0", "1", "2", "3", "7", "x"]))
grids = numbers | ranges | st.lists(numbers, min_size=1, max_size=3).map(",".join)
methods = st.lists(st.sampled_from(["closed_form", "trace", "hermitian", "naive_continuation",
                                    "magic", ""]), min_size=1, max_size=4).map(",".join)
flags = {
    "probabilities": {"--eta": grids, "--phase": grids, "--t0": numbers, "--methods": methods,
                      "--format": st.sampled_from(["csv", "json", "xml"]),
                      "--raw-params": st.lists(numbers, min_size=3, max_size=5).map(",".join)},
    "masses": {"--eta": grids, "--ratio": numbers,
               "--format": st.sampled_from(["csv", "json", "xml"])},
    "cardioid": {"--eta": grids, "--phase": grids,
                 "--format": st.sampled_from(["csv", "json", "xml"])},
    # one or two etas keep a validate example short
    "validate": {"--eta": st.lists(numbers, min_size=1, max_size=2).map(",".join),
                 "--tolerance": numbers, "--json": st.just(None),
                 "--raw-params": st.lists(numbers, min_size=4, max_size=4).map(",".join)},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(flags)))
    chosen = draw(st.lists(st.sampled_from(sorted(flags[command])), unique=True, max_size=4))
    if command == "validate" and "--eta" not in chosen:
        chosen.append("--eta")
    argv = [command]
    for flag in chosen:
        value = draw(flags[command][flag])
        argv += [flag] if value is None else [f"{flag}={value}"]
    return argv


@hyp.settings(max_examples=100, deadline=None,
              suppress_health_check=[hyp.HealthCheck.function_scoped_fixture])
@hyp.given(argv=argvs())
def test_fuzzed_argv_keeps_the_exit_code_contract(capsys, tmp_path, argv):
    target = tmp_path / "out.txt"
    target.unlink(missing_ok=True)
    code = main(argv + ["--output", str(target)])
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in captured.err, argv
    assert captured.out == ""
    if code in (2, 3):
        assert not target.exists(), argv
    if code == 0 and argv[0] != "validate":
        text = target.read_text(encoding="utf-8")
        assert "nan" not in text and "inf" not in text, argv
