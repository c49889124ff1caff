"""The benchmark's workloads: their operations, inputs and output checks.

An operation is one call a user makes: one `fuzz_campaign(...)` call of a
fixed trial count in the campaign workloads, one `python -m balmat ...`
process in `cli_invocations`. Each workload runs whole rounds of the same
operations, so every run attempts the same mix. Inputs come from the
benchmark seed through `derive`, never from the program's own seeding, and
the program receives only the generated specs and CSV files.

Base trial counts are sized so every campaign of a workload takes about
the same time here (37-56 ms), so no campaign forms a cluster of its own
that p50 or p90 could jump to. Each round then runs every campaign at each
of `TRIAL_SCALES`, which spreads operation latencies evenly over a 2:1
range (see there). The five file commands of the CLI workload are all
dominated by interpreter start.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

RTOL, ATOL = 1e-6, 1e-9  # the library's and the CLI's default tolerance

#: Each CLI command cycles through this many generated input files.
CSV_VARIANTS = 16

#: Largest absolute estimator error accepted on an exactly symmetric
#: [[a, b], [b, a]] with entries <= 100: a few roundings at scale a + b.
SYM2_ERR_BOUND = 64 * oracles.U * 200.0


def derive(seed: int, *parts) -> int:
    """64-bit seed for one purpose, from the benchmark seed and labels."""
    digest = hashlib.blake2b(repr((seed,) + parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class Campaign:
    """One campaign operation: `trials` trials of a property on a family."""

    prop: str
    kind: str
    n: int
    trials: int
    theorem: bool  # theorem-grade on this exactly balanced family: 0 violations

    def __str__(self) -> str:
        return f"{self.prop}/{self.kind}/n{self.n}"


CAMPAIGNS = {
    # 2x2 theorems: orchestration, gates and spectral2 dominate; kernels
    # take a few microseconds of each trial. `quadform_predict` is left out:
    # `quadform_branch_select` resolves a < b within tolerance to "b_lt_a",
    # so on the rare symmetric2 draw with b just above a the prediction is
    # off by (b - a)(x - y)^2 and a theorem-grade campaign reports a
    # violation on some seeds only.
    "campaign_2x2": (
        Campaign("estimator_exact", "symmetric2", 2, 550, True),
        Campaign("trace_entry", "symmetric2", 2, 1050, True),
        Campaign("emax_additivity", "symmetric2", 2, 500, True),
        Campaign("closure_mul", "perturbed", 2, 780, True),
    ),
    # n = 5..8: submatrix construction, many small balance classifications,
    # the interior scan and rescan, rref and line_stats kernels.
    "campaign_nxn": (
        Campaign("interior_conjecture", "scaled_orthogonal", 5, 60, False),
        Campaign("det_nonzero", "scaled_orthogonal", 8, 100, True),
        Campaign("fairness_transfer", "hadamard_like", 8, 400, True),
        Campaign("edos", "scaled_orthogonal", 6, 250, False),
    ),
}

#: Trial-count multipliers 2^(j/8), j = -4..4, applied to every campaign in
#: every round. The host's speed shifts between phases about 1.4x apart
#: that last 10-30 s. With all latencies in one cluster, a run's p50 snapped
#: to the fast or the slow copy of that cluster, whichever phase held half
#: the run, and read up to 1.5x apart between runs. Spread evenly over a
#: range wider than the phase ratio, p50 moves smoothly with the phase mix.
TRIAL_SCALES = tuple(2.0 ** (j / 8) for j in range(-4, 5))


def campaign_ops(name: str) -> tuple[Campaign, ...]:
    """One round of a campaign workload: each campaign at each trial scale."""
    return tuple(replace(op, trials=round(op.trials * s)) for s in TRIAL_SCALES for op in CAMPAIGNS[name])


#: `quadform` is left out for the same near-tie fault as `quadform_predict`
#: above: on a [[a, b], [b, a]] input with b just above a it reports the
#: wrong branch, which would fail the check on some seeds only.
FILE_COMMANDS = ("check", "spectrum", "det", "interior", "discrepancy")
#: One round of the CLI workload. Two fuzz processes per round put p90 in
#: the middle of the fuzz latencies, with enough of them to be steady.
CLI_COMMANDS = FILE_COMMANDS[:2] + ("fuzz",) + FILE_COMMANDS[2:] + ("fuzz",)
FUZZ_TRIALS = 3000

WORKLOADS = tuple(CAMPAIGNS) + ("cli_invocations",)


def child_env() -> dict[str, str]:
    """Environment for balmat child processes: import from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def import_balmat():
    """Import balmat from this checkout's `src/`, or exit without a result."""
    if not (SRC / "balmat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no balmat sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import balmat

    if Path(balmat.__file__).resolve().parent != SRC / "balmat":
        sys.exit(f"perfbench: imported balmat from {balmat.__file__}, not from {SRC}")
    return balmat


# ---------------------------------------------------------------------------
# Campaign workloads
# ---------------------------------------------------------------------------


class CampaignWorkload:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.balmat = import_balmat()
        self.backend = self.balmat.kernel_backend
        self.ops = campaign_ops(name)

    def warm_up(self) -> None:
        for i, op in enumerate(CAMPAIGNS[self.name]):
            self.call(replace(self.prepare(op, -1 - i), trials=min(op.trials, 10)))

    def prepare(self, op: Campaign, k: int) -> "_Prepared":
        spec = self.balmat.GenSpec(kind=op.kind, n=op.n, seed=derive(self.seed, self.name, k))
        return _Prepared(op, spec, op.trials)

    def call(self, prepared: "_Prepared"):
        return self.balmat.fuzz_campaign(prepared.op.prop, prepared.spec, prepared.trials)

    def counts(self, prepared: "_Prepared", report) -> tuple[int, int, int]:
        """(trials, trials with a check record, output bytes) of one call."""
        return prepared.trials, report.passes + report.violations, 0

    def check(self, prepared: "_Prepared", report) -> list[str]:
        op = prepared.op
        bad = []
        counted = report.passes + report.violations + report.not_applicable
        if report.trials != prepared.trials or counted != prepared.trials:
            bad.append(f"{op}: outcomes {counted} / trials {report.trials} != {prepared.trials}")
        if op.theorem and report.violations:
            bad.append(f"{op}: theorem-grade property has {report.violations} violations")
        if len(report.counterexamples) != min(report.violations, 100):  # the default cap
            bad.append(f"{op}: {len(report.counterexamples)} counterexamples stored")
        for cex in report.counterexamples:
            record = self.balmat.replay_counterexample(op.prop, cex.matrices)
            if record is None or record.holds:
                bad.append(f"{op}: stored counterexample does not replay to a violation")
                break
        if op.prop == "interior_conjecture" and report.counterexamples:
            rows = report.counterexamples[0].matrices[0].to_rows()
            found = oracles.balanced_square_interior(rows, RTOL, ATOL)
            if found is not None:
                bad.append(f"{op}: exact arithmetic finds balanced interior {found}")
        if op.prop == "estimator_exact":
            pairs = report.defect_error_pairs
            if len(pairs) != report.passes:
                bad.append(f"{op}: {len(pairs)} defect/error pairs for {report.passes} passes")
            if any(d != 0.0 or not 0.0 <= e <= SYM2_ERR_BOUND for d, e in pairs):
                bad.append(f"{op}: defect/error pair off the exact symmetric manifold")
        return bad


@dataclass(frozen=True)
class _Prepared:
    op: Campaign
    spec: object
    trials: int


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


def _sym2(rng: random.Random) -> list[list[float]]:
    a, b = rng.uniform(1.0, 100.0), rng.uniform(1.0, 100.0)
    return [[a, b], [b, a]]


def _signed_hadamard(rng: random.Random, n: int) -> list[list[float]]:
    s = rng.uniform(1.0, 100.0)
    rs = [rng.choice((-1.0, 1.0)) for _ in range(n)]
    cs = [rng.choice((-1.0, 1.0)) for _ in range(n)]
    return [[s * rs[i] * cs[j] * v for j, v in enumerate(row)] for i, row in enumerate(oracles.sylvester(n))]


def _cli_matrix(command: str, variant: int, rng: random.Random) -> list[list[float]]:
    if command == "check":
        if variant % 2:
            return [[rng.uniform(-50.0, 50.0) for _ in range(4)] for _ in range(5)]
        return _signed_hadamard(rng, 4)
    if command == "spectrum":
        return _sym2(rng)
    if command == "det":
        n = 6 if variant % 2 else 8
        return [[rng.uniform(-10.0, 10.0) for _ in range(n)] for _ in range(n)]
    if command == "interior":
        if variant % 2:
            return _signed_hadamard(rng, 4)
        s = rng.uniform(1.0, 100.0)
        return [[s * v for v in row] for row in oracles.givens_orthogonal(rng, 5)]
    if command == "discrepancy":
        return [[rng.uniform(1.0, 100.0) for _ in range(6)] for _ in range(6)]
    raise ValueError(command)


@dataclass(frozen=True)
class CliCall:
    command: str
    argv: tuple[str, ...]  # arguments after `python -m balmat`
    rows: list | None  # the input matrix, for the checks
    trials: int  # fuzz trials run by this call, 0 for file commands


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kib: int


class CliWorkload:
    """Cold `python -m balmat` processes, or in-process `cli.main` calls.

    Untraced runs spawn one process per operation. The traced run calls
    `balmat.cli.main` in-process instead, since spans cannot cross a
    process boundary.
    """

    ops = CLI_COMMANDS

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process
        self.env = child_env()
        self.inputs: dict[tuple[str, int], tuple[str, list]] = {}
        for command in FILE_COMMANDS:
            for variant in range(CSV_VARIANTS):
                rng = random.Random(derive(seed, command, variant))
                rows = _cli_matrix(command, variant, rng)
                path = workdir / f"{command}_{variant}.csv"
                path.write_text("\n".join(",".join(repr(v) for v in r) for r in rows) + "\n")
                self.inputs[command, variant] = (os.path.relpath(path, ROOT), rows)
        self.backend = None

    def warm_up(self) -> None:
        """Fill the bytecode cache and learn the backend from one process."""
        result = self._spawn(("--backend-info",))
        text = result.stdout.decode().strip()
        if result.code != 0 or not text.startswith("kernel backend: "):
            sys.exit(f"perfbench: `python -m balmat --backend-info` failed: {result.stderr.decode()[-400:]}")
        self.backend = text.split(": ", 1)[1]
        if self.in_process:
            import_balmat()

    def prepare(self, command: str, k: int) -> CliCall:
        round_no = k // len(CLI_COMMANDS)
        if command == "fuzz":
            argv = (
                "fuzz", "--property", "estimator_exact", "--kind", "symmetric2",
                "--trials", str(FUZZ_TRIALS), "--seed", str(derive(self.seed, "fuzz", k)),
                "--format", "json",
            )  # fmt: skip
            return CliCall(command, argv, None, FUZZ_TRIALS)
        path, rows = self.inputs[command, round_no % CSV_VARIANTS]
        return CliCall(command, (command, path, "--format", "json"), rows, 0)

    def call(self, c: CliCall) -> CliResult:
        return self._main(c.argv) if self.in_process else self._spawn(c.argv)

    def counts(self, c: CliCall, result: CliResult) -> tuple[int, int, int]:
        applicable = 0
        if c.trials and result.code == 0:
            res = json.loads(result.stdout)["result"]
            applicable = res["passes"] + res["violations"]
        return c.trials, applicable, len(result.stdout)

    def _spawn(self, argv) -> CliResult:
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "balmat", *argv], stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            # wait4 reaps this child alone and gives its own peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return CliResult(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss)

    def _main(self, argv) -> CliResult:
        from balmat import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return CliResult(code, out.getvalue().encode(), err.getvalue().encode(), 0)

    def check(self, c: CliCall, result: CliResult) -> list[str]:
        if result.code != 0:
            return [f"{c.command}: exit {result.code}: {result.stderr.decode()[-300:]}"]
        try:
            doc = json.loads(result.stdout)
        except ValueError as exc:
            return [f"{c.command}: output is not JSON ({exc})"]
        if doc.get("command") != c.command:
            return [f"{c.command}: document is for command {doc.get('command')!r}"]
        return [f"{c.command}: {p}" for p in _CLI_CHECKS[c.command](c, doc["result"])]


def _check_check(c: CliCall, res: dict) -> list[str]:
    rows = c.rows
    row_sums, col_sums = oracles.square_sums(rows)
    bad = []
    for label, got, want, terms in (
        ("row_square_sums", res["row_square_sums"], row_sums, len(rows[0])),
        ("col_square_sums", res["col_square_sums"], col_sums, len(rows)),
    ):
        if len(got) != len(want) or not all(oracles.sum_close(g, w, terms) for g, w in zip(got, want)):
            bad.append(f"{label} differ from exact sums")
    h = oracles.all_pairs_close(row_sums, RTOL, ATOL)
    v = oracles.all_pairs_close(col_sums, RTOL, ATOL)
    if (res["horizontally_balanced"], res["vertically_balanced"], res["fully_balanced"]) != (h, v, h and v):
        bad.append("balance verdicts differ from the exact definition")
    for label, sums, got in (
        ("horizontal_defect", row_sums, res["horizontal_defect"]),
        ("vertical_defect", col_sums, res["vertical_defect"]),
    ):
        hi, lo = max(sums), min(sums)
        want = float((hi - lo) / max(Fraction(1), hi))
        if abs(got - want) > 16 * (len(rows) + len(rows[0])) * oracles.U:
            bad.append(f"{label} {got!r} vs exact {want!r}")
    return bad


def _check_spectrum(c: CliCall, res: dict) -> list[str]:
    (a, b), _ = c.rows
    big, small = oracles.sym2_spectrum(a, b)
    ex, est = res["exact"], res["estimate"]
    ok = (
        not ex["is_complex"]
        and oracles.near(abs(ex["lambda2"]), big, big)
        and oracles.near(abs(ex["lambda1"]), small, big)
        and oracles.near(est["max_estimate"], big, big)
        and oracles.near(est["min_estimate"], small, big)
    )
    return [] if ok else [f"spectrum {res} vs closed form ({big!r}, {small!r})"]


def _check_det(c: CliCall, res: dict) -> list[str]:
    n = len(c.rows)
    bad = []
    if not oracles.det_close(res["determinant"], c.rows):
        bad.append(f"determinant {res['determinant']!r} vs exact {float(oracles.det(c.rows))!r}")
    if res["rank"] != n or res["trail_length"] < 1:
        bad.append(f"rank {res['rank']}, trail {res['trail_length']} for a nonsingular {n}x{n}")
    return bad


def _check_interior(c: CliCall, res: dict) -> list[str]:
    want = oracles.balanced_square_interior(c.rows, RTOL, ATOL)
    if want is None:
        return [] if res == {"found": False} else [f"reported {res.get('rows')} x {res.get('cols')}, exact: none"]
    r, col, dim = want
    if not res["found"] or res["rows"] != list(range(r, r + dim)) or res["cols"] != list(range(col, col + dim)):
        return [f"reported {res.get('rows')} x {res.get('cols')}, exact: rows {r}, cols {col}, dim {dim}"]
    if res["matrix"] != [row[col : col + dim] for row in c.rows[r : r + dim]]:
        return ["interior entries differ from the input block"]
    return []


def _check_discrepancy(c: CliCall, res: dict) -> list[str]:
    rep = res["report"]
    row_sums, col_sums = oracles.line_sums(c.rows)
    n, m = len(c.rows), len(c.rows[0])
    ok = all(
        oracles.sum_close(g, w, terms) and oracles.near(mean, float(w / terms), float(w / terms), 4 * terms)
        for got, means, want, terms in (
            (rep["row_sums"], rep["row_means"], row_sums, m),
            (rep["col_sums"], rep["col_means"], col_sums, n),
        )
        for g, mean, w in zip(got, means, want)
    )
    bad = [] if ok else ["line sums or means differ from exact sums"]
    if set(res["checks"]) != {"fairness_transfer", "one_fair_row", "fairness_propagation"}:
        bad.append(f"checks {sorted(res['checks'])}")
    return bad


def _check_fuzz(c: CliCall, res: dict) -> list[str]:
    t = c.trials
    bad = []
    if res["trials"] != t or res["passes"] + res["violations"] + res["not_applicable"] != t:
        bad.append(f"counts {res['passes']}+{res['violations']}+{res['not_applicable']} != {t}")
    if res["violations"] or res["counterexamples"]:
        bad.append(f"theorem-grade estimator_exact has {res['violations']} violations")
    pairs = res["defect_error_pairs"]
    if len(pairs) != res["passes"] or any(d != 0 or not 0 <= e <= SYM2_ERR_BOUND for d, e in pairs):
        bad.append("defect/error pairs off the exact symmetric manifold")
    return bad


_CLI_CHECKS = {
    "check": _check_check,
    "spectrum": _check_spectrum,
    "det": _check_det,
    "interior": _check_interior,
    "discrepancy": _check_discrepancy,
    "fuzz": _check_fuzz,
}


# ---------------------------------------------------------------------------
# Layer checks on generate(...) inputs, independent of any workload
# ---------------------------------------------------------------------------

GENERATED_SEEDS = 40


def check_generated(balmat, seed: int) -> list[str]:
    """Square sums, determinants and 2x2 spectra of generated inputs vs exact."""
    bad = []
    families = (("symmetric2", 2), ("constant", 4), ("hadamard_like", 8)) + tuple(
        ("scaled_orthogonal", n) for n in (5, 6, 7, 8)
    )
    for i in range(GENERATED_SEEDS):
        for kind, n in families:
            m = balmat.generate(balmat.GenSpec(kind=kind, n=n, seed=derive(seed, "generate", kind, i)))
            rows = m.to_rows()
            row_sums, col_sums = oracles.square_sums(rows)
            got_rows, got_cols = balmat.square_sums(m, "rows"), balmat.square_sums(m, "columns")
            if not all(oracles.sum_close(g, w, n) for g, w in zip(got_rows + got_cols, row_sums + col_sums)):
                bad.append(f"generate {kind}/n{n} #{i}: square sums differ from exact")
            value = balmat.det_via_trail(m)
            if not oracles.det_close(value, rows):
                bad.append(f"generate {kind}/n{n} #{i}: det_via_trail {value!r} vs exact {float(oracles.det(rows))!r}")
            if kind == "symmetric2":
                (a, b), _ = rows
                big, small = oracles.sym2_spectrum(a, b)
                s, est = balmat.exact_spectrum2(m), balmat.estimate_spectrum2(m)
                if not all(
                    oracles.near(got, want, big)
                    for got, want in ((s.max_abs, big), (s.min_abs, small), (est.max_estimate, big), (est.min_estimate, small))
                ):
                    bad.append(f"generate symmetric2 #{i}: spectrum {s}, {est} vs ({big!r}, {small!r})")
    return bad


def build(name: str, seed: int, workdir: Path, traced: bool):
    if name == "cli_invocations":
        return CliWorkload(seed, workdir, in_process=traced)
    return CampaignWorkload(name, seed)
