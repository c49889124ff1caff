import argparse
import ast
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import balmat
from balmat import cli
from balmat.cli import (
    build_parser,
    main,
    parse_matrix_csv,
    render_json,
    run,
)
from balmat.core import TolerancePolicy, matrix_from_rows
from balmat.errors import ParseError
from balmat.genfuzz import FuzzContext, GenSpec, fuzz_campaign

from oracles import serialize_csv
from test_imports import FILE_COMMANDS


def run_cli(argv, cwd_file_content=None):
    """Parse argv, run, capture stdout/stderr; returns (code, out, err)."""
    ns = build_parser().parse_args(argv)
    out, err = io.StringIO(), io.StringIO()
    code = run(ns, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _subparsers():
    """The sub-parser of each command, by name, in --help order."""
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.fixture
def csv_file(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("2,1\n1,2\n")
    return str(p)


class TestParseMatrixCsv:
    def test_all_ones(self):
        assert parse_matrix_csv("1,1\n1,1\n") == matrix_from_rows([[1, 1], [1, 1]])

    def test_whitespace_tolerated(self):
        assert parse_matrix_csv("2, 1\n1, 2\n") == matrix_from_rows([[2, 1], [1, 2]])

    def test_ragged_reports_line(self):
        with pytest.raises(ParseError) as e:
            parse_matrix_csv("1,2\n3\n")
        assert e.value.line == 2

    def test_bad_field_reports_line_and_column(self):
        with pytest.raises(ParseError) as e:
            parse_matrix_csv("1,2\n3,x\n")
        assert e.value.line == 2 and e.value.column == 2

    def test_one_leading_byte_order_mark_dropped(self):
        assert parse_matrix_csv("\ufeff2,1\n1,2\n") == parse_matrix_csv("2,1\n1,2\n")
        with pytest.raises(ParseError) as e:
            parse_matrix_csv("\ufeff\ufeff2,1\n1,2\n")
        assert e.value.line == 1 and e.value.column == 1

    @pytest.mark.parametrize("token", ["inf", "1e400", "nan"])
    def test_non_finite_field_reports_line_and_column(self, token):
        with pytest.raises(ParseError) as e:
            parse_matrix_csv(f"3,4\n4,{token}\n")
        assert str(e.value) == f"not a finite number: {token!r} at line 2, column 2"

    def test_trailing_blank_lines_ok(self):
        assert parse_matrix_csv("1,2\n3,4\n\n\n").shape == (2, 2)

    def test_interior_blank_line_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix_csv("1,2\n\n3,4\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_matrix_csv("\n\n")

    def test_exponents_and_signs(self):
        m = parse_matrix_csv("+1e2,-2.5E-1\n3.0,4\n")
        assert m.entries == (100.0, -0.25, 3.0, 4.0)

    def test_roundtrip_seeded(self):
        rng = random.Random(5)
        for _ in range(50):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            mat = matrix_from_rows(
                [[rng.uniform(-1e6, 1e6) for _ in range(m)] for _ in range(n)]
            )
            assert parse_matrix_csv(serialize_csv(mat)) == mat

    @given(
        st.lists(
            st.lists(
                st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_roundtrip_property(self, rows):
        mat = matrix_from_rows(rows)
        assert parse_matrix_csv(serialize_csv(mat)) == mat


class TestRenderJson:
    def test_reparse_reserialize_byte_identical(self):
        doc = {
            "a": 0.1,
            "b": [1.0, -2.5e-7, 3],
            "c": {"nested": True, "x": None},
            "s": 'quote " and backslash \\',
        }
        text = render_json(doc)
        assert render_json(json.loads(text)) == text

    def test_17_digit_floats(self):
        assert render_json(0.1) == "0.10000000000000001"

    def test_negative_zero_normalized(self):
        text = render_json(-0.0)
        assert text == "0"
        assert render_json(json.loads(text)) == text

    def test_non_finite_floats_read_back(self):
        text = render_json([math.nan, math.inf, -math.inf])
        assert text == "[\n  NaN,\n  Infinity,\n  -Infinity\n]"
        nan, inf, neg_inf = json.loads(text)
        assert math.isnan(nan) and inf == math.inf and neg_inf == -math.inf
        assert render_json(json.loads(text)) == text


class TestCommands:
    def test_check_text(self, csv_file):
        code, out, err = run_cli(["check", csv_file])
        assert code == 0 and err == ""
        assert "fully_balanced: true" in out

    def test_check_json(self, csv_file):
        code, out, _ = run_cli(["check", csv_file, "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "check"
        assert doc["result"]["fully_balanced"] is True
        assert doc["result"]["horizontal_defect"] == 0.0

    def test_check_overflowing_square_sums(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1e200,1e200\n1e200,2e200\n")
        code, out, err = run_cli(["check", str(p)])
        assert code == 0 and err == ""
        assert "fully_balanced: false" in out
        code, out, _ = run_cli(["check", str(p), "--format", "json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["fully_balanced"] is False
        assert math.isnan(result["horizontal_defect"]) and math.isnan(result["vertical_defect"])
        assert result["row_square_sums"] == [math.inf, math.inf]

    def test_spectrum(self, csv_file):
        code, out, _ = run_cli(["spectrum", csv_file, "--format", "json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["exact"] == {"lambda1": 1, "lambda2": 3, "is_complex": False}
        assert result["error"]["max_abs_error"] == 0

    def test_spectrum_hypothesis_failure_exit_1(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,4\n")
        code, out, err = run_cli(["spectrum", str(p)])
        assert code == 1
        assert out == ""
        assert "not-balanced" in err

    def test_quadform(self, csv_file):
        code, out, _ = run_cli(["quadform", csv_file, "--format", "json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["branch"] == "b_lt_a"
        assert result["grid_max_abs_error"] <= 1e-9

    def test_discrepancy(self, csv_file):
        code, out, _ = run_cli(["discrepancy", csv_file, "--fair-eps", "0.6", "--format", "json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["report"]["fair_rows"] is True
        assert result["checks"]["fairness_transfer"]["holds"] is True
        assert result["checks"]["one_fair_row"] == {"not_applicable": True}

    def test_discrepancy_reports_hypothesis_errors_inline(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("1,2\n3,4\n")
        code, out, _ = run_cli(["discrepancy", str(p), "--format", "json"])
        assert code == 0
        checks = json.loads(out)["result"]["checks"]
        assert "hypothesis_error" in checks["fairness_transfer"]

    def test_det(self, tmp_path):
        p = tmp_path / "ones.csv"
        p.write_text("1,1,1\n1,1,1\n1,1,1\n")
        code, out, _ = run_cli(["det", str(p), "--format", "json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["determinant"] == 0
        assert result["rank"] == 1

    def test_det_overflowing_elimination_exit_1(self, tmp_path):
        p = tmp_path / "overflow.csv"
        p.write_text("1e-5,1e305\n0,1\n")
        code, out, err = run_cli(["det", str(p)])
        assert code == 1
        assert out == ""
        assert "non-finite" in err

    def test_det_overflow_above_the_pivots_exit_1(self, tmp_path):
        # Only the back substitution overflows; the message is the library's.
        p = tmp_path / "upper.csv"
        p.write_text("1,1e300,0\n0,1,1e10\n0,0,1\n")
        code, out, err = run_cli(["det", str(p)])
        assert (code, out) == (1, "")
        assert err == "balmat det: error: elimination overflowed: the reduced form has a non-finite entry\n"

    def test_det_non_square_exit_1(self, tmp_path):
        p = tmp_path / "wide.csv"
        p.write_text("1,2,3\n4,5,6\n")
        code, out, err = run_cli(["det", str(p)])
        assert (code, out) == (1, "")
        assert err == "balmat det: error: determinant needs a square matrix, got 2x3\n"

    def test_det_overflowing_determinant(self, tmp_path):
        # The scale factors' product, 1e-600, underflows to 0.0.
        p = tmp_path / "big.csv"
        p.write_text("1e200,0,0\n0,1e200,0\n0,0,1e200\n")
        code, out, _ = run_cli(["det", str(p)])
        assert code == 0
        assert out.endswith("result:\n  determinant: inf\n  rank: 3\n  trail_length: 3\n")
        code, out, _ = run_cli(["det", str(p), "--format", "json"])
        assert code == 0
        assert '"determinant": Infinity,' in out

    def test_interior(self, tmp_path):
        p = tmp_path / "id3.csv"
        p.write_text("1,0,0\n0,1,0\n0,0,1\n")
        code, out, _ = run_cli(["interior", str(p), "--format", "json"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["found"] is True
        assert result["rows"] == [0, 1]

    def test_fuzz(self):
        code, out, _ = run_cli(
            [
                "fuzz",
                "--property",
                "estimator_exact",
                "--kind",
                "symmetric2",
                "--trials",
                "10",
                "--seed",
                "7",
                "--format",
                "json",
            ]
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["passes"] == 10
        assert result["violations"] == 0

    def test_fuzz_unknown_property_exit_1(self):
        code, _, err = run_cli(
            ["fuzz", "--property", "nope", "--kind", "symmetric2", "--trials", "5"]
        )
        assert code == 1
        assert "unknown property" in err

    @pytest.mark.parametrize("eps", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("command", ["fuzz", "discrepancy"])
    def test_fair_eps_not_finite_and_positive_exit_1(self, csv_file, command, eps):
        # The error names the setting the user gave, not a tolerance widened from it.
        if command == "fuzz":
            argv = ["fuzz", "--property", "interior_fair_corollary", "--kind", "constant", "--n", "3", "--trials", "3"]
        else:
            argv = ["discrepancy", csv_file]
        code, out, err = run_cli([*argv, "--fair-eps", eps])
        assert (code, out) == (1, "")
        assert err == f"balmat {command}: error: fair_eps must be finite and positive, got {float(eps)}\n"

    def test_fair_eps_rejected_where_no_trial_reaches_it(self):
        # Every perturbed input fails the balance gate before the fairness one.
        argv = ["fuzz", "--property", "fairness_transfer", "--kind", "perturbed", "--noise", "0.5"]
        code, out, err = run_cli([*argv, "--fair-eps", "inf", "--trials", "20"])
        assert (code, out) == (1, "")
        assert err == "balmat fuzz: error: fair_eps must be finite and positive, got inf\n"

    def test_absurd_dimension_exit_1(self):
        argv = ["fuzz", "--property", "det_nonzero", "--kind", "constant", "--n", "10000000000", "--trials", "1"]
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err == "balmat fuzz: error: dimension must be between 1 and 256, got 10000000000\n"

    @pytest.mark.parametrize("prop, kind", [("closure_add", "constant"), ("quadform_predict", "symmetric2")])
    def test_overflowing_entry_range_exit_1(self, prop, kind):
        argv = ["fuzz", "--property", prop, "--kind", kind, "--entry-high", "1.7e308", "--noise", "1.7e308"]
        code, out, err = run_cli([*argv, "--trials", "5"])
        assert (code, out) == (1, "")
        assert err == "balmat fuzz: error: entry_high + noise must be finite, got 1.7e+308 + 1.7e+308\n"

    @pytest.mark.parametrize("theta", ["inf", "-inf", "nan"])
    def test_theta_not_finite_exit_1(self, theta):
        argv = ["fuzz", "--property", "one_fair_row", "--kind", "constant", "--n", "3", "--trials", "3"]
        code, out, err = run_cli([*argv, f"--theta={theta}"])
        assert (code, out) == (1, "")
        assert err == f"balmat fuzz: error: unfair_theta must be finite, got {float(theta)}\n"

    @pytest.mark.parametrize("theta, shown", [("-inf", "-inf"), ("-nan", "nan"), ("-INFINITY", "-inf")])
    def test_negative_float_after_a_space_reaches_its_check(self, theta, shown):
        argv = ["fuzz", "--property", "closure_add", "--kind", "symmetric2", "--theta", theta]
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err == f"balmat fuzz: error: unfair_theta must be finite, got {shown}\n"

    def test_negative_exponent_float_reaches_its_check(self, csv_file):
        code, out, err = run_cli(["check", csv_file, "--rtol", "-1e-6"])
        assert (code, out) == (1, "")
        assert err == "balmat check: error: rtol must be finite and non-negative, got -1e-06\n"

    @pytest.mark.parametrize("value", ["-1e-6", "-.5", "-2.", "-1E+3"])
    def test_negative_floats_are_values(self, value):
        ns = build_parser().parse_args(["fuzz", "--property", "closure_add", "--kind", "constant", "--theta", value])
        assert ns.unfair_theta == float(value)

    @pytest.mark.parametrize("pivot_tol", ["-1", "0", "nan"])
    def test_pivot_tol_not_positive_exit_1(self, pivot_tol):
        # No trial reaches the elimination: the setting is rejected, not echoed.
        argv = ["fuzz", "--property", "det_nonzero", "--kind", "perturbed", "--n", "3", "--noise", "0.5"]
        code, out, err = run_cli([*argv, "--pivot-tol", pivot_tol, "--trials", "5", "--format", "json"])
        assert (code, out) == (1, "")
        assert err == f"balmat fuzz: error: pivot_tol must be positive, got {float(pivot_tol)}\n"

    def test_one_fair_row_theta_past_the_float_range_exit_1(self):
        argv = ["fuzz", "--property", "one_fair_row", "--kind", "constant", "--n", "3", "--theta", "1e307"]
        code, out, err = run_cli([*argv, "--trials", "1"])
        assert (code, out) == (1, "")
        assert "unfair_theta=1e+307, entry_low=1.0, entry_high=100.0" in err

    @pytest.mark.parametrize("entries", [["--entry-high", "1e155"], ["--entry-low", "1e300", "--entry-high", "1e300"]])
    def test_one_fair_row_overflowing_square_sums_are_not_applicable(self, entries):
        argv = ["fuzz", "--property", "one_fair_row", "--kind", "constant", "--n", "4", *entries]
        code, out, err = run_cli([*argv, "--trials", "5", "--format", "json"])
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert (result["trials"], result["not_applicable"]) == (5, 5)

    def test_missing_file_exit_1(self):
        code, _, err = run_cli(["check", "/nonexistent/path.csv"])
        assert code == 1
        assert err

    def test_parse_error_exit_1(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3\n")
        code, _, err = run_cli(["check", str(p)])
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("command", FILE_COMMANDS)
    def test_bytes_not_utf8_exit_1(self, tmp_path, command):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"3,4\n4,\xff3\n")
        code, out, err = run_cli([command, str(p)])
        assert (code, out) == (1, "")
        assert err == f"balmat {command}: error: not UTF-8: byte 0xff (invalid start byte) at line 2, column 2\n"

    @pytest.mark.parametrize(
        "data, line, column",
        [(b"3,4\r\n4,3\r\n\xe9", 3, 1), (b"3,4\r4,3\r1,\xe9", 3, 2), (b"\xef\xbb\xbf3, \xc3", 1, 2)],
    )
    def test_bad_byte_located_across_newline_styles(self, tmp_path, data, line, column):
        p = tmp_path / "bad.csv"
        p.write_bytes(data)
        code, out, err = run_cli(["check", str(p)])
        assert (code, out) == (1, "")
        assert err.endswith(f" at line {line}, column {column}\n")

    @pytest.mark.parametrize("token", ["inf", "1e400", "nan"])
    def test_non_finite_entry_exit_1(self, tmp_path, token):
        p = tmp_path / "bad.csv"
        p.write_text(f"1,{token}\n")
        code, out, err = run_cli(["check", str(p)])
        assert (code, out) == (1, "")
        assert err == f"balmat check: error: not a finite number: {token!r} at line 1, column 2\n"

    @pytest.mark.parametrize("newline", [b"\r", b"\r\n"])
    def test_universal_newlines(self, tmp_path, newline):
        p = tmp_path / "m.csv"
        p.write_bytes(b"3,4\n4,3\n")
        plain = run_cli(["check", str(p), "--format", "json"])
        p.write_bytes(b"3,4" + newline + b"4,3" + newline)
        assert run_cli(["check", str(p), "--format", "json"]) == plain

    @pytest.mark.parametrize("rows", ["5\n", "1,0\n0,1\n"])
    def test_interior_of_fewer_than_three_rows_exit_1(self, tmp_path, rows):
        p = tmp_path / "small.csv"
        p.write_text(rows)
        code, out, err = run_cli(["interior", str(p)])
        n = rows.count("\n")
        assert (code, out) == (1, "")
        assert err == f"balmat interior: error: interior search needs at least 3 rows, got {n}x{n}\n"

    @pytest.mark.parametrize("command", FILE_COMMANDS)
    def test_byte_order_mark_ignored(self, tmp_path, command):
        # interior needs a matrix larger than its smallest interior (2x2)
        p = tmp_path / "m.csv"
        p.write_bytes(b"3,4,0\n4,3,0\n0,0,5\n" if command == "interior" else b"3,4\n4,3\n")
        plain = run_cli([command, str(p), "--format", "json"])
        assert plain[0] == 0, plain[2]
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        assert run_cli([command, str(p), "--format", "json"]) == plain

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["nope"], "argument command: invalid choice: 'nope'"),
            (["check"], "the following arguments are required: input"),
            (["fuzz", "--property", "estimator_exact", "--kind", "bogus"], "argument --kind: invalid choice: 'bogus'"),
            (["check", "--rtol", "x", "m.csv"], "argument --rtol: invalid float value: 'x'"),
        ],
        ids=["unknown-command", "missing-file", "bad-choice", "bad-float"],
    )
    def test_usage_error_exit_1(self, capsys, argv, message):
        # A mistyped command is a bad input, not an internal error (exit 2).
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        prog = "balmat" if argv == ["nope"] else f"balmat {argv[0]}"
        assert err.startswith(f"usage: {prog} ")
        assert f"\n{prog}: error: {message}" in err

    @pytest.mark.parametrize("argv", [["--help"], ["fuzz", "--help"]])
    def test_help_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: balmat")

    def test_backend_info(self, capsys):
        assert main(["--backend-info"]) == 0
        assert capsys.readouterr().out == "kernel backend: python\n"
        # The benchmark reads it from a fresh `python -m balmat` process.
        env = os.environ.copy()
        root = str(Path(balmat.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "balmat", "--backend-info"], capture_output=True, env=env
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"kernel backend: python\n", b"")

    def test_no_command_exit_1(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err.startswith("usage: balmat")

    def test_internal_error_exit_2(self, csv_file, monkeypatch):
        import balmat.cli as cli_mod

        def boom(ns, a):
            raise RuntimeError("kaboom")

        ns = build_parser().parse_args(["check", csv_file])
        help_text, _, arguments = cli_mod._COMMANDS["check"]
        monkeypatch.setitem(cli_mod._COMMANDS, "check", (help_text, boom, arguments))
        out, err = io.StringIO(), io.StringIO()
        assert cli_mod.run(ns, out=out, err=err) == 2
        assert "internal error" in err.getvalue()
        assert "RuntimeError: kaboom" in err.getvalue()

    def test_closed_stdout_exits_1_without_traceback(self, csv_file):
        # The reader is gone before the report is written, as in
        # `balmat quadform m.csv --format json | head -1`.
        env = os.environ.copy()
        root = str(Path(balmat.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "balmat", "quadform", csv_file, "--format", "json"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert proc.stderr == b""

    def test_json_byte_determinism(self):
        argv = [
            "fuzz",
            "--property",
            "closure_add",
            "--kind",
            "symmetric2",
            "--trials",
            "25",
            "--seed",
            "99",
            "--format",
            "json",
        ]
        _, first, _ = run_cli(argv)
        _, second, _ = run_cli(argv)
        assert first == second

    def test_json_output_reparses_byte_identical(self, csv_file):
        code, out, _ = run_cli(["spectrum", csv_file, "--format", "json"])
        assert code == 0
        body = out.rstrip("\n")
        assert render_json(json.loads(body)) == body

    def test_every_property_reachable_from_cli(self):
        from balmat.genfuzz import PROPERTIES

        for name in PROPERTIES:
            code, out, err = run_cli(
                [
                    "fuzz",
                    "--property",
                    name,
                    "--kind",
                    "symmetric2",
                    "--n",
                    "2",
                    "--trials",
                    "5",
                    "--seed",
                    "3",
                    "--rtol",
                    "0.2",
                    "--format",
                    "json",
                ]
            )
            assert code == 0, f"{name}: {err}"
            assert json.loads(out)["result"]["trials"] == 5


class TestParams:
    """The "params" echo: which settings each command reports, and their values."""

    def test_fuzz_uses_the_cli_theta_default(self):
        # The CLI's --theta default is the library's: 1.0 whatever fair_eps is.
        argv = ["fuzz", "--property", "one_fair_row", "--kind", "constant", "--n", "4"]
        argv += ["--fair-eps", "0.2", "--rtol", "0.1", "--trials", "20", "--format", "json"]
        code, out, err = run_cli(argv)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["params"]["unfair_theta"] == 1.0
        spec, tol = GenSpec(kind="constant", n=4), TolerancePolicy(rtol=0.1, atol=1e-9)
        expected = fuzz_campaign("one_fair_row", spec, 20, FuzzContext(tol, 0.2))
        # another theta gives another campaign, so the test tells them apart
        assert expected != fuzz_campaign("one_fair_row", spec, 20, FuzzContext(tol, 0.2, unfair_theta=2.0))
        assert doc["result"]["passes"] == expected.passes
        assert doc["result"]["violations"] == expected.violations
        assert doc["result"]["not_applicable"] == expected.not_applicable
        assert doc["result"]["worst_slack"] == expected.worst_slack

    def test_params_reproduce_the_report(self):
        # At --min-dim 2 this campaign gives 9 passes and 11 violations, at 4
        # it gives 8 and 12: a report must echo min_dim to be reproducible.
        argv = ["fuzz", "--property", "interior_conjecture", "--kind", "perturbed"]
        argv += ["--noise", "0.01", "--rtol", "0.1", "--n", "5", "--trials", "20", "--format", "json"]
        code, out, err = run_cli(argv + ["--min-dim", "4"])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["params"]["min_dim"] == 4
        assert json.loads(run_cli(argv)[1])["result"] != doc["result"]
        flags = {a.dest: a.option_strings[0] for a in _subparsers()["fuzz"]._actions}
        replay = ["fuzz", "--format", "json"]
        for key, value in doc["params"].items():
            replay += [flags[key], str(value)]
        code, out, err = run_cli(replay)
        assert code == 0, err
        assert json.loads(out) == doc

    @pytest.mark.parametrize("command", list(_subparsers()))
    def test_params_are_every_setting(self, tmp_path, command):
        parser = _subparsers()[command]
        dests = [a.dest for a in parser._actions if a.dest != "help"]
        if "input" in dests:
            p = tmp_path / "m.csv"  # an interior of dimension 3 needs a 4x4
            id4 = "1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n"
            p.write_text(id4 if command == "interior" else "2,1\n1,2\n")
            argv = [command, str(p)]
        else:
            argv = [command, "--property", "closure_add", "--kind", "symmetric2", "--trials", "2"]
        if "min_dim" in dests:
            argv += ["--min-dim", "3"]
        code, out, err = run_cli(argv + ["--format", "json"])
        assert code == 0, err
        params = json.loads(out)["params"]
        assert list(params) == [d for d in dests if d not in ("format", "input")]
        assert params.get("min_dim", 3) == 3

    @pytest.mark.parametrize("command", ["det", "quadform"])
    def test_invalid_rtol_echoed_where_unused(self, csv_file, command):
        code, out, err = run_cli([command, csv_file, "--rtol", "-1", "--format", "json"])
        assert code == 0, err
        assert json.loads(out)["params"]["rtol"] == -1

    def test_invalid_rtol_rejected_where_used(self, csv_file):
        code, out, err = run_cli(["check", csv_file, "--rtol", "-1"])
        assert code == 1
        assert out == ""
        assert "rtol must be finite and non-negative" in err


def test_cli_imports_only_public_balmat_names():
    # The CLI is a client of the library: no module it imports from balmat,
    # and no name it takes from one, starts with an underscore.
    paths = []
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            paths += [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("balmat." * (node.level > 0) + (node.module or "")).strip(".").split(".")
            paths += [[*module, alias.name] for alias in node.names]
    paths = [path for path in paths if path[0] == "balmat"]
    assert ["balmat", "algebra", "rref_with_trail"] in paths
    assert [path for path in paths if any(part.startswith("_") for part in path)] == []
