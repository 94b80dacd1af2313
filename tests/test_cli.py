import math
import sys
import warnings

import pytest

from stokesmg import criteria
from stokesmg.cli import (EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL,
                          fmt_complex, main, parse_angle, parse_theta)

PI = math.pi


class TestAngleParsing:
    @pytest.mark.parametrize("text,want", [
        ("pi", PI), ("-pi", -PI), ("pi/2", PI / 2), ("-pi/4", -PI / 4),
        ("2pi/3", 2 * PI / 3), ("0.5", 0.5), ("-1.25", -1.25), ("0", 0.0),
        ("+pi", PI), ("3pi", 3 * PI),
    ])
    def test_accepted_forms(self, text, want):
        assert parse_angle(text) == pytest.approx(want, abs=1e-15)

    def test_pair(self):
        assert parse_theta("pi/2, 0") == pytest.approx((PI / 2, 0.0))

    def test_rejects_garbage(self):
        for text in ("pie", "pi/0", "nan", "inf", "-infpi", "pi/nan"):
            with pytest.raises(ValueError):
                parse_angle(text)
        with pytest.raises(ValueError):
            parse_theta("pi")


class TestFmtComplex:
    def test_plain(self):
        assert fmt_complex(8 + 0j) == "8 + 0i"
        assert fmt_complex(1j) == "0 + 1i"
        assert fmt_complex(-0.5 - 0.25j) == "-0.5 - 0.25i"

    def test_negative_zero_normalized(self):
        assert fmt_complex(complex(-0.0, -0.0)) == "0 + 0i"


class TestSymbolCommand:
    def test_laplacian_checkerboard(self, capsys):
        assert main(["symbol", "laplacian", "--theta", "pi,pi"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "8 + 0i"

    def test_reads_sys_argv_by_default(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["stokesmg", "symbol", "laplacian", "--theta", "pi,pi"])
        assert main() == EXIT_OK
        assert capsys.readouterr().out.strip() == "8 + 0i"

    def test_pressure_block(self, capsys):
        code = main(["symbol", "pressure_block", "--c", "0.125", "--theta", "pi,pi"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "8 + 0i"

    def test_ddx(self, capsys):
        assert main(["symbol", "ddx", "--theta", "pi/2,0"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0 + 1i"

    def test_mesh_size_flag(self, capsys):
        # second-order operator: quartering h multiplies the symbol by 16
        assert main(["symbol", "laplacian", "--h", "0.25", "--theta", "pi,pi"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "128 + 0i"

    def test_negative_theta_component(self, capsys):
        assert main(["symbol", "ddx", "--theta", "-pi/2,0"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0 - 1i"

    def test_unknown_operator_is_usage_error(self, capsys):
        assert main(["symbol", "gradient", "--theta", "0,0"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_c_is_usage_error(self, capsys):
        assert main(["symbol", "pressure_block", "--theta", "0,0"]) == EXIT_USAGE
        assert "stabilization" in capsys.readouterr().err

    def test_non_finite_input_is_usage_error(self, capsys):
        # a later flag overrides the valid one before it
        for flag, value in (("--c", "nan"), ("--c", "inf"), ("--h", "nan"),
                            ("--h", "inf"), ("--theta", "nan,0"), ("--theta", "pi/0,0")):
            argv = ["symbol", "pressure_block", "--c", "1", "--theta", "0,0", flag, value]
            assert main(argv) == EXIT_USAGE, argv
            assert "error:" in capsys.readouterr().err
        # operators that take no c still reject a bad one
        for kind in ("laplacian", "ddx"):
            for value in ("nan", "inf", "-1"):
                argv = ["symbol", kind, "--c", value, "--theta", "0,0"]
                assert main(argv) == EXIT_USAGE, argv
                assert "stabilization" in capsys.readouterr().err


    @pytest.mark.parametrize("argv", [
        # the symbol overflows although every coefficient is finite
        ["symbol", "pressure_block", "--c", "5e306", "--theta", "pi,pi"],
        # 20c overflows: the stencil has an inf coefficient
        ["symbol", "pressure_block", "--c", "1e308", "--theta", "pi,pi"],
        ["symbol", "laplacian", "--h", "1e-200", "--theta", "pi,pi"],
        ["rep", "pressure_block", "--c", "5e306", "--base", "0.3,0.2"],
        ["rep", "pressure_block", "--c", "1e308", "--base", "0.3,0.2"],
        ["rep", "laplacian", "--h", "1e-200", "--base", "0.3,0.2"],
        ["sweep", "pressure_block", "--c", "5e306", "--n-samples", "17"],
        ["sweep", "pressure_block", "--c", "1e308", "--n-samples", "17"],
        ["sweep", "laplacian", "--h", "1e-200", "--n-samples", "17"],
    ])
    def test_non_finite_result_is_usage_error(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


class TestRepCommand:
    def test_prints_entries_and_oracle_check(self, capsys):
        code = main(["rep", "pressure_block", "--c", "0.125",
                     "--base", "pi/4,pi/4", "--oracle-grid", "16"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "rep[0][0]" in out and "rep[1][1]" in out
        diff = float(out.rsplit("=", 1)[1])
        assert diff < 1e-10

    def test_high_base_rejected(self, capsys):
        assert main(["rep", "laplacian", "--base", "pi,0"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("grid", ["-4", "10"])
    def test_bad_oracle_grid_prints_nothing(self, capsys, grid):
        # -4 is no grid at all, and pi/4 is not on the 10-grid
        assert main(["rep", "pressure_block", "--c", "0.125", "--base", "pi/4,pi/4",
                     "--oracle-grid", grid]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


class TestSweepCommand:
    def test_poisson_output(self, capsys):
        assert main(["sweep", "laplacian", "--n-samples", "129"]) == EXIT_OK
        out = capsys.readouterr().out
        omega = float([ln for ln in out.splitlines() if ln.startswith("omega_opt")][0]
                      .split("=")[1])
        rho = float([ln for ln in out.splitlines() if ln.startswith("rho_opt")][0]
                    .split("=")[1])
        assert omega == pytest.approx(16 / 17, abs=1e-9)
        assert rho == pytest.approx(1 / 17, abs=1e-9)


class TestCurvesCommand:
    def test_csv_shape_and_consistency(self, capsys, tmp_path):
        out_file = tmp_path / "curves.csv"
        code = main(["curves", "--c-min", "0.01", "--c-max", "10",
                     "--n-points", "40", "--scale", "log",
                     "--n-samples", "65", "--output", str(out_file)])
        assert code == EXIT_OK
        text = out_file.read_text()
        assert "\r" not in text
        lines = text.strip().split("\n")
        assert lines[0] == "c,rho_opt_closed,omega_opt_closed,rho_sweep,omega_sweep"
        assert len(lines) == 41
        for line in lines[1:]:
            c, rho_c, om_c, rho_s, om_s = map(float, line.split(","))
            if abs(c - 0.125) > 1e-6:
                assert abs(rho_c - rho_s) < 1e-6
                assert abs(om_c - om_s) < 1e-6
        cs = [float(line.split(",")[0]) for line in lines[1:]]
        assert cs[0] == pytest.approx(0.01) and cs[-1] == pytest.approx(10.0)

    def test_row_near_c_eighth(self, capsys):
        code = main(["curves", "--c-min", "0.124", "--c-max", "0.126",
                     "--n-points", "3", "--scale", "linear", "--n-samples", "65"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        rho = float(lines[2].split(",")[1])
        assert rho == pytest.approx(25 / 217, abs=1e-3)

    def test_bad_range(self, capsys):
        assert main(["curves", "--c-min", "1", "--c-max", "0.5"]) == EXIT_USAGE
        capsys.readouterr()

    def test_no_points_is_usage_error(self, capsys):
        assert main(["curves", "--c-min", "0.1", "--c-max", "1", "--n-points", "0"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "n_points must be >= 1" in captured.err

    def test_c_overflowing_the_pressure_diagonal_is_usage_error(self, capsys):
        # once reported as a divergence, after overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--c", "1e308", "--omega", "1", "--n", "7",
                         "--cycles", "10"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "offset (0, 0) is inf" in captured.err

    def test_c_beyond_closed_forms_is_usage_error(self, capsys):
        assert main(["curves", "--c-min", "1e299", "--c-max", "1e300",
                     "--n-points", "2", "--n-samples", "17"]) == EXIT_USAGE
        assert "closed forms" in capsys.readouterr().err

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "x.csv"
        assert main(["curves", "--c-min", "0.1", "--c-max", "1", "--n-points", "2",
                     "--n-samples", "17", "--output", str(out_file)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert not out_file.parent.exists()


class TestSolveCommand:
    def test_small_run_csv_and_summary(self, capsys, tmp_path):
        out_file = tmp_path / "hist.csv"
        code = main(["solve", "--c", "0.125", "--n", "15", "--cycles", "12",
                     "--output", str(out_file)])
        assert code == EXIT_OK
        summary = capsys.readouterr().out
        assert "rho_observed=" in summary
        rho = float(summary.split("rho_observed=")[1].split()[0])
        assert 0 < rho < 0.35
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "cycle_index,residual_norm,ratio"
        assert len(lines) == 14  # header + cycle 0 + 12 cycles
        assert lines[1].startswith("0,") and lines[1].endswith(",")

    def test_divergence_exit_code(self, capsys):
        code = main(["solve", "--c", "0.005", "--n", "31", "--omega", "1.9",
                     "--cycles", "10"])
        assert code == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert "divergence" in err

    def test_huge_c_converges_with_finite_history(self, capsys, tmp_path):
        # residual entries pass 1e154, so their squares overflow
        out_file = tmp_path / "hist.csv"
        code = main(["solve", "--c", "1e154", "--n", "31", "--omega", "1.0",
                     "--output", str(out_file)])
        assert code == EXIT_OK
        rows = [line.split(",") for line in out_file.read_text().split()[1:]]
        assert len(rows) > 2
        assert all(math.isfinite(float(row[1])) for row in rows)
        assert all(math.isfinite(float(row[2])) for row in rows[1:])
        assert "divergence" not in capsys.readouterr().err

    def test_grid_validation(self, capsys):
        # -1 once reached log2(0) and printed "math domain error", and -5
        # with --levels numpy's "negative dimensions are not allowed"
        for flags in (["--n", "20"], ["--n", "-1"], ["--n", "-5", "--levels", "2"]):
            assert main(["solve", "--c", "0.125", *flags]) == EXIT_USAGE
            assert "n + 1 must be a power of two" in capsys.readouterr().err

    def test_non_finite_c_is_usage_error(self, capsys):
        assert main(["solve", "--c", "nan", "--n", "15", "--omega", "1"]) == EXIT_USAGE
        assert "finite" in capsys.readouterr().err

    def test_c_beyond_closed_forms_is_usage_error(self, capsys):
        # the default omega is the closed form's
        assert main(["solve", "--c", "1e300", "--n", "15"]) == EXIT_USAGE
        assert "closed forms" in capsys.readouterr().err

    def test_overflowing_stencil_names_its_kind_and_c(self, capsys):
        assert main(["solve", "--c", "1e308", "--omega", "1", "--n", "7",
                     "--cycles", "10"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: pressure_block at h = 0.125, c = 1e+308: " in captured.err
        assert "offset (0, 0) is inf" in captured.err

    def test_bottom_grid_too_large_is_usage_error(self, capsys):
        # two-grid at n = 63 leaves a 31x31 bottom grid, beyond the exact solve
        assert main(["solve", "--c", "0.125", "--n", "63", "--levels", "2"]) == EXIT_USAGE
        assert "31x31" in capsys.readouterr().err

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "x.csv"
        assert main(["solve", "--c", "0.125", "--n", "15", "--cycles", "2",
                     "--output", str(out_file)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert not out_file.parent.exists()

    def test_long_run_keeps_its_factor(self, capsys):
        # at n = 7 the residual falls to about 1e-221 in 200 cycles; its
        # squares underflow, and the norm and the factor must not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--c", "0.125", "--n", "7", "--cycles", "200"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("200,")
        assert lines[-1].startswith("rho_observed=0.07686")

    def test_seed_determinism(self, capsys):
        main(["solve", "--c", "0.125", "--n", "15", "--cycles", "10", "--seed", "9"])
        first = capsys.readouterr().out
        main(["solve", "--c", "0.125", "--n", "15", "--cycles", "10", "--seed", "9"])
        assert capsys.readouterr().out == first


class TestTheoremsCommand:
    def test_table_contents_and_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(criteria, "CRITERIA", (criteria.poisson_sweep, criteria.root_c0))
        assert main(["theorems"]) == EXIT_OK
        rows = criteria.poisson_sweep() + criteria.root_c0()
        assert all(row.line().endswith("PASS") for row in rows)
        assert capsys.readouterr().out == "".join(
            row.line() + "\n" for row in rows) + "\nall rows pass\n"

    def test_failing_row_exits_one(self, capsys, monkeypatch):
        stub = criteria.Row("stub row", "1", 0.0, False, "made to fail")
        monkeypatch.setattr(criteria, "CRITERIA", (criteria.root_c0, lambda: [stub]))
        assert main(["theorems"]) == EXIT_VERIFY_FAIL
        out = capsys.readouterr().out
        assert stub.line() in out.splitlines()
        assert "FAIL" in stub.line() and out.rstrip().endswith("1 failing row(s)")
