"""CLI behaviour: columns, formats, determinism, config handling, exit codes."""

import json
import math

import pytest

from ptosc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_broken_phase_is_domain_error(self, capsys):
        code, _, err = run(capsys, "probabilities", "--eta", "1.2", "--phase", "0:1:2")
        assert code == 3
        assert "domain error" in err

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
        target = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "probabilities", "--eta", "0.6", "--phase", "0:1:2",
                           "--output", str(target))
        assert code == 0 and out == ""
        text = target.read_bytes().decode("utf-8")
        assert "\r" not in text
        assert text.startswith("eta,phase,")
        code, stdout_text, _ = run(capsys, "probabilities", "--eta", "0.6", "--phase", "0:1:2")
        assert stdout_text == text


class TestBadConfig:
    @pytest.mark.parametrize("argv", [
        ("probabilities", "--eta", "0.5:0.1:5"),            # min >= max
        ("probabilities", "--eta", "0:0.9:1"),               # steps < 2
        ("probabilities", "--eta", "abc"),
        ("probabilities", "--methods", "magic"),
        ("probabilities", "--format", "xml"),
        ("probabilities", "--eta", "0.5", "--raw-params", "2,1,0.3,0"),
        ("probabilities", "--raw-params", "2,1,0.3"),        # missing momentum
        ("probabilities", "--raw-params", "1,1,0.3,0"),      # degenerate diagonal
        ("masses", "--ratio", "1.5"),
        ("probabilities", "--eta", "-0.2"),
        ("validate", "--tolerance", "-1"),
        ("validate", "--eta", "1.5"),
    ])
    def test_exit_code_two(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err

    @pytest.mark.parametrize("t0", ["1e17", "inf", "nan"])
    def test_trace_refuses_unresolvable_t0(self, capsys, t0):
        # t0 + dt rounds dt away at |t0| = 1e17; inf and nan fail the same test
        code, out, err = run(capsys, "probabilities", "--eta", "0.6", "--t0", t0,
                             "--methods", "closed_form,trace")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_large_t0_allowed_without_trace(self, capsys):
        code, out, _ = run(capsys, "probabilities", "--eta", "0.6", "--t0", "1e17",
                           "--methods", "closed_form")
        assert code == 0
        assert len(out.strip().split("\n")) == 65

    @pytest.mark.parametrize("argv", [
        ("probabilities", "--t0", "abc"),
        ("masses", "--ratio", "abc"),
        ("validate", "--tolerance", "abc"),
        ("probabilities", "--phase", "inf"),
        ("cardioid", "--phase", "inf"),
        ("probabilities", "--eta", "nan"),
        ("probabilities", "--eta", "0:inf:4"),
        ("probabilities", "--t0", "inf", "--methods", "closed_form"),
        ("probabilities", "--raw-params", "2,1,nan,0"),
        ("validate", "--tolerance", "nan"),
    ])
    def test_unparsable_or_non_finite_number_exits_two(self, capsys, tmp_path, argv):
        target = tmp_path / "rows.txt"
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 2
        assert out == "" and not target.exists()
        assert err.startswith("error: ") and "Traceback" not in err

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
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("volume = 11\n")
        assert run(capsys, "probabilities", "--config", str(cfg))[0] == 2


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


def test_parser_built_once_gives_the_output_of_fresh_runs(capsys):
    from ptosc.cli import _build_parser

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
