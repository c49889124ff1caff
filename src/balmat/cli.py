"""Command-line front door: CSV matrices in, text or JSON reports out.

Exit status: 0 on success, 1 for usage errors, for domain errors (parse
failures, dimension mismatches, unsatisfied hypotheses) and when the output
stream closes before the report is written (`balmat ... | head`), 2 for
unexpected internal errors. Hypothesis failures are ordinary outcomes when
probing arbitrary matrices, so they exit with a clear message rather than a
traceback.

`_COMMANDS` is the one place that names each command and its arguments: the
parser, the dispatch in `run` and the settings echoed under "params" all come
from it. Handlers read the parsed `argparse.Namespace` directly.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import isfinite
from typing import TYPE_CHECKING

# Only what every command needs loads here; each handler imports the module
# it runs, so a file command never loads the fuzzing harness.
from balmat import _kernels
from balmat.balance import BalanceReport, classify_balance
from balmat.core import GENERATOR_KINDS, CheckRecord, Matrix, TolerancePolicy, matrix_from_rows
from balmat.errors import BalmatError, HypothesisError, ParseError

if TYPE_CHECKING:
    from balmat.discrepancy import DiscrepancyReport
    from balmat.genfuzz import FuzzReport


# ---------------------------------------------------------------------------
# Matrix CSV format
# ---------------------------------------------------------------------------


def parse_matrix_csv(text: str) -> Matrix:
    """Parse comma-separated rows into a Matrix.

    Whitespace around fields and one leading byte-order mark are ignored;
    signs and exponents are accepted; trailing blank lines are permitted.
    Ragged rows and non-numeric or non-finite fields raise ParseError with
    the offending line (and column).
    """
    lines = text.removeprefix("\ufeff").split("\n")
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise ParseError("empty matrix input")
    rows: list[list[float]] = []
    for line_no, line in enumerate(lines, start=1):
        if line.strip() == "":
            raise ParseError("blank row inside matrix", line=line_no)
        fields = line.split(",")
        row = []
        for col_no, raw in enumerate(fields, start=1):
            token = raw.strip()
            try:
                row.append(float(token))
            except ValueError:
                raise ParseError(f"not a number: {token!r}", line=line_no, column=col_no) from None
            if not isfinite(row[-1]):
                raise ParseError(f"not a finite number: {token!r}", line=line_no, column=col_no)
        if rows and len(row) != len(rows[0]):
            raise ParseError(
                f"row has {len(row)} fields, expected {len(rows[0])}", line=line_no
            )
        rows.append(row)
    return matrix_from_rows(rows)


def _read_matrix_csv(path: str) -> Matrix:
    """Parse the UTF-8 CSV file at `path`; lines end at LF, CR LF or CR, as in text mode."""
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # A bad byte's column is the field it sits in, as for a bad token.
        start = data.rfind(b"\n", 0, exc.start) + 1
        line, column = data.count(b"\n", 0, start) + 1, data.count(b",", start, exc.start) + 1
        raise ParseError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})", line, column) from None
    return parse_matrix_csv(text)


def serialize_csv(a: Matrix) -> str:
    """Render a Matrix as CSV that parse_matrix_csv inverts exactly."""
    return "\n".join(",".join(repr(v) for v in a.row(i)) for i in range(a.n_rows)) + "\n"


# ---------------------------------------------------------------------------
# JSON rendering (17 significant digits, byte-stable)
# ---------------------------------------------------------------------------


#: JSON has no literal for these; Python's `json` module writes and reads them as tokens.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _fmt_float(x: float) -> str:
    if x == 0.0:
        x = 0.0  # avoid "-0", which would not round-trip as a float literal
    s = f"{x:.17g}"
    # A finite float's 17-digit form ends in a digit; "nan" and "inf" do not.
    return s if s[-1] <= "9" else _JSON_NON_FINITE[s]


def _escape(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def render_json(obj, indent: int = 0) -> str:
    """Serialize dict/list/str/bool/int/float/None with stable formatting.

    Floats carry 17 significant digits so parsing and re-serializing the
    output is byte-identical. NaN and the infinities are written as `NaN`,
    `Infinity` and `-Infinity`, which `json.loads` reads back.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{_escape(str(k))}: {render_json(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Report builders (dict form shared by text and JSON renderers)
# ---------------------------------------------------------------------------


def _record_dict(rec: CheckRecord) -> dict:
    return {"name": rec.name, "holds": rec.holds, "lhs": rec.lhs, "rhs": rec.rhs, "slack": rec.slack}


def _balance_dict(rep: BalanceReport) -> dict:
    return {
        "is_zero": rep.is_zero,
        "horizontally_balanced": rep.horizontally_balanced,
        "vertically_balanced": rep.vertically_balanced,
        "fully_balanced": rep.fully_balanced,
        "horizontal_defect": rep.horizontal_defect,
        "vertical_defect": rep.vertical_defect,
        "row_square_sums": list(rep.row_square_sums),
        "col_square_sums": list(rep.col_square_sums),
    }


def _discrepancy_dict(rep: DiscrepancyReport) -> dict:
    return {
        "fair_eps": rep.fair_eps,
        "row_sums": list(rep.row_sums),
        "col_sums": list(rep.col_sums),
        "row_means": list(rep.row_means),
        "col_means": list(rep.col_means),
        "max_row_deviation": rep.max_row_deviation,
        "max_col_deviation": rep.max_col_deviation,
        "fair_rows": rep.fair_rows,
        "fair_cols": rep.fair_cols,
        "fair_row_indices": sorted(rep.fair_row_indices),
    }


def _fuzz_dict(rep: FuzzReport) -> dict:
    return {
        "property": rep.property_name,
        "trials": rep.trials,
        "passes": rep.passes,
        "violations": rep.violations,
        "not_applicable": rep.not_applicable,
        "worst_slack": rep.worst_slack,
        "seed": rep.seed,
        "counterexamples": [
            {"matrices": [m.to_rows() for m in cex.matrices], "record": _record_dict(cex.record)}
            for cex in rep.counterexamples
        ],
        "defect_error_pairs": [[d, e] for d, e in rep.defect_error_pairs],
    }


def _tolerance(ns: argparse.Namespace) -> TolerancePolicy:
    return TolerancePolicy(rtol=ns.rtol, atol=ns.atol)


def _cmd_check(ns: argparse.Namespace, a: Matrix) -> dict:
    return _balance_dict(classify_balance(a, _tolerance(ns)))


def _cmd_spectrum(ns: argparse.Namespace, a: Matrix) -> dict:
    from balmat.spectral2 import estimate_spectrum2, exact_spectrum2

    est = estimate_spectrum2(a, _tolerance(ns))
    s = exact_spectrum2(a)
    return {
        "exact": {"lambda1": s.lambda1, "lambda2": s.lambda2, "is_complex": s.is_complex},
        "estimate": {
            "max_estimate": est.max_estimate,
            "min_estimate": est.min_estimate,
            "spread": est.spread,
        },
        "error": {
            "max_abs_error": abs(est.max_estimate - s.max_abs),
            "min_abs_error": abs(est.min_estimate - s.min_abs),
        },
    }


def _cmd_quadform(ns: argparse.Namespace, a: Matrix) -> dict:
    from balmat.spectral2 import (
        QUADFORM_GRID,
        _quadform_coeffs,
        exact_spectrum2,
        quadform_branch_select,
        quadform_eval,
        quadform_predict,
    )

    branch = quadform_branch_select(a)
    s = exact_spectrum2(a)
    coeff_sum_sq, coeff_xy = _quadform_coeffs(s, branch)
    worst = 0.0
    for x, y in QUADFORM_GRID:
        err = abs(quadform_predict(s, branch, x, y) - quadform_eval(a, x, y))
        if err > worst:
            worst = err
    return {
        "branch": branch,
        "coeff_sum_sq": coeff_sum_sq,
        "coeff_xy": coeff_xy,
        "grid": {"low": QUADFORM_GRID[0][0], "high": QUADFORM_GRID[-1][0]},
        "grid_max_abs_error": worst,
    }


def _cmd_discrepancy(ns: argparse.Namespace, a: Matrix) -> dict:
    from balmat.discrepancy import (
        discrepancy_report,
        fairness_propagation_check,
        fairness_transfer_check,
        one_fair_row_check,
    )

    tol = _tolerance(ns)
    checks: dict[str, object] = {}

    def run_check(name, fn):
        try:
            rec = fn()
        except HypothesisError as exc:
            checks[name] = {"hypothesis_error": str(exc)}
            return
        checks[name] = {"not_applicable": True} if rec is None else _record_dict(rec)

    eps = ns.fair_eps
    run_check("fairness_transfer", lambda: fairness_transfer_check(a, tol, eps))
    run_check("one_fair_row", lambda: one_fair_row_check(a, tol, eps, ns.unfair_theta))
    run_check("fairness_propagation", lambda: fairness_propagation_check(a, tol, eps))
    return {"report": _discrepancy_dict(discrepancy_report(a, eps)), "checks": checks}


def _cmd_det(ns: argparse.Namespace, a: Matrix) -> dict:
    from balmat.algebra import _det_rank_steps

    value, rank, steps = _det_rank_steps(a, ns.pivot_tol)
    return {"determinant": value, "rank": rank, "trail_length": steps}


def _cmd_interior(ns: argparse.Namespace, a: Matrix) -> dict:
    from balmat.discrepancy import find_balanced_interior

    match = find_balanced_interior(a, _tolerance(ns), ns.min_dim)
    if match is None:
        return {"found": False}
    return {
        "found": True,
        "rows": list(match.rows),
        "cols": list(match.cols),
        "matrix": match.matrix.to_rows(),
        "report": _balance_dict(match.report),
    }


def _cmd_fuzz(ns: argparse.Namespace) -> dict:
    from balmat.genfuzz import FuzzContext, GenSpec, fuzz_campaign

    spec = GenSpec(
        kind=ns.kind,
        n=ns.n,
        entry_low=ns.entry_low,
        entry_high=ns.entry_high,
        noise=ns.noise,
        seed=ns.seed,
    )
    ctx = FuzzContext(_tolerance(ns), ns.fair_eps, ns.unfair_theta, ns.pivot_tol, ns.min_dim)
    return _fuzz_dict(fuzz_campaign(ns.property, spec, ns.trials, ctx))


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def _render_text(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list, tuple)) and value:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar_text(value)}")
    elif isinstance(obj, (list, tuple)):
        scalar = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if scalar:
            lines.append(f"{pad}[{', '.join(_scalar_text(v) for v in obj)}]")
        else:
            for value in obj:
                lines.extend(_render_text(value, indent))
    else:
        lines.append(f"{pad}{_scalar_text(obj)}")
    return lines


def _scalar_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, (list, tuple)) and not v:
        return "[]"
    if isinstance(v, dict) and not v:
        return "{}"
    if v is None:
        return "none"
    return str(v)


# ---------------------------------------------------------------------------
# Command table
# ---------------------------------------------------------------------------


def _arg(*flags, **options):
    """One argument of a command, as `add_argument` takes it."""
    return flags, options


_COMMON_ARGS = (
    _arg("--rtol", type=float, default=1e-6, help="relative tolerance (default 1e-6)"),
    _arg("--atol", type=float, default=1e-9, help="absolute tolerance (default 1e-9)"),
    _arg("--fair-eps", type=float, default=0.1, help="fairness threshold (default 0.1)"),
    _arg("--theta", dest="unfair_theta", metavar="THETA", type=float, default=1.0,
         help="unfairness threshold (default 1.0)"),
    _arg("--pivot-tol", type=float, default=1e-10,
         help="elimination pivot threshold (default 1e-10)"),
    _arg("--format", choices=("text", "json"), default="text", help="output format (default text)"),
)  # fmt: skip
_INPUT = _arg("input", help="CSV matrix file (one comma-separated row per line)")
_MIN_DIM = _arg("--min-dim", type=int, default=2, help="smallest interior dimension (default 2)")
_FUZZ_ARGS = (
    _arg("--property", required=True, help="registered property name"),
    _arg("--kind", required=True, choices=GENERATOR_KINDS, help="generator family"),
    _arg("--n", type=int, default=2, help="matrix dimension (default 2)"),
    _arg("--trials", type=int, default=100, help="number of trials (default 100)"),
    _arg("--noise", type=float, default=0.0, help="entrywise noise radius (default 0)"),
    _arg("--seed", type=int, default=0, help="campaign seed (default 0)"),
    _arg("--entry-low", type=float, default=1.0, help="entry range low (default 1)"),
    _arg("--entry-high", type=float, default=100.0, help="entry range high (default 100)"),
    _MIN_DIM,
)

#: Every command, in --help order: name -> (help, handler, its own arguments
#: after the common ones). A command with an `input` argument reads that CSV
#: and passes the matrix to its handler.
_COMMANDS = {
    "check": ("classify balance and report defect metrics", _cmd_check, (_INPUT,)),
    "spectrum": ("exact 2x2 eigenvalues vs entry-sum estimates", _cmd_spectrum, (_INPUT,)),
    "quadform": ("spectrum-only quadratic form prediction vs direct evaluation",
                 _cmd_quadform, (_INPUT,)),
    "discrepancy": ("row/column discrepancy report and fairness checks",
                    _cmd_discrepancy, (_INPUT,)),
    "det": ("determinant via the elementary-operation trail", _cmd_det, (_INPUT,)),
    "interior": ("search for a balanced interior submatrix", _cmd_interior, (_INPUT, _MIN_DIM)),
    "fuzz": ("run a randomized theorem/conjecture campaign", _cmd_fuzz, _FUZZ_ARGS),
}  # fmt: skip

#: Parsed names that are not settings: every other one is echoed under "params".
_NOT_PARAMS = ("backend_info", "command", "input", "format")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run(ns: argparse.Namespace, out=None, err=None) -> int:
    """Execute one parsed CLI invocation; returns the process exit status."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    _, handler, _ = _COMMANDS[ns.command]
    input_path = getattr(ns, "input", None)  # `fuzz` reads no file
    try:
        result = handler(ns) if input_path is None else handler(ns, _read_matrix_csv(input_path))
    except (BalmatError, OSError) as exc:
        print(f"balmat {ns.command}: error: {exc}", file=err)
        return 1
    except Exception:
        import traceback

        print(f"balmat {ns.command}: internal error", file=err)
        traceback.print_exc(file=err)
        return 2
    document = {
        "command": ns.command,
        "input": input_path,
        "params": {key: value for key, value in vars(ns).items() if key not in _NOT_PARAMS},
        "result": result,
    }
    text = render_json(document) if ns.format == "json" else "\n".join(_render_text(document))
    try:
        print(text, file=out)
        out.flush()
    except BrokenPipeError:
        # The reader has gone. Point stdout at devnull so the interpreter's
        # flush at exit does not raise again.
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 1, like every other bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="balmat",
        description="Analyze balance, spectra, discrepancy fairness, and determinants "
        "of dense real matrices; fuzz the underlying theorems.",
    )
    parser.add_argument(
        "--backend-info",
        action="store_true",
        help="print the kernel backend (always python) and exit",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, _, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, options in _COMMON_ARGS + arguments:
            p.add_argument(*flags, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.backend_info:
        print(f"kernel backend: {_kernels.BACKEND}")
        return 0
    if ns.command is None:
        parser.print_help(sys.stderr)
        return 1
    return run(ns)
