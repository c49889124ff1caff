import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import balmat
from balmat.cli import (
    build_parser,
    parse_matrix_csv,
    render_json,
    run,
    serialize_csv,
)
from balmat.core import TolerancePolicy, matrix_from_rows
from balmat.errors import ParseError
from balmat.genfuzz import GenSpec, fuzz_campaign


def run_cli(argv, cwd_file_content=None):
    """Parse argv, run, capture stdout/stderr; returns (code, out, err)."""
    ns = build_parser().parse_args(argv)
    out, err = io.StringIO(), io.StringIO()
    code = run(ns, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


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

    def test_internal_error_exit_2(self, csv_file, monkeypatch):
        import balmat.cli as cli_mod

        def boom(ns, a):
            raise RuntimeError("kaboom")

        ns = build_parser().parse_args(["check", csv_file])
        monkeypatch.setattr(cli_mod, "_cmd_check", boom)
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
        # The CLI's --theta default is 1.0, not the library's 10 * fair_eps.
        argv = ["fuzz", "--property", "one_fair_row", "--kind", "constant", "--n", "4"]
        argv += ["--fair-eps", "0.2", "--rtol", "0.1", "--trials", "20", "--format", "json"]
        code, out, err = run_cli(argv)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["params"]["unfair_theta"] == 1.0
        spec, tol = GenSpec(kind="constant", n=4), TolerancePolicy(rtol=0.1, atol=1e-9)
        expected = fuzz_campaign("one_fair_row", spec, 20, tol, 0.2, unfair_theta=1.0)
        # the two defaults give different campaigns, so the test tells them apart
        assert expected != fuzz_campaign("one_fair_row", spec, 20, tol, 0.2)
        assert doc["result"]["passes"] == expected.passes
        assert doc["result"]["violations"] == expected.violations
        assert doc["result"]["not_applicable"] == expected.not_applicable
        assert doc["result"]["worst_slack"] == expected.worst_slack

    def test_min_dim_listed_by_interior_only(self, tmp_path):
        p = tmp_path / "id4.csv"
        p.write_text("1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n")
        code, out, err = run_cli(["interior", str(p), "--min-dim", "3", "--format", "json"])
        assert code == 0, err
        assert json.loads(out)["params"]["min_dim"] == 3
        _, out, _ = run_cli(
            ["fuzz", "--property", "closure_add", "--kind", "symmetric2", "--trials", "2",
             "--min-dim", "3", "--format", "json"]
        )  # fmt: skip
        params = json.loads(out)["params"]
        assert "min_dim" not in params
        assert list(params) == [
            "rtol", "atol", "fair_eps", "unfair_theta", "pivot_tol",
            "property", "kind", "n", "trials", "noise", "seed", "entry_low", "entry_high",
        ]  # fmt: skip

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
