"""Per-layer measurement from outside the program.

`Tracer.install` rebinds balmat's public functions, in every balmat module
that binds them, to wrappers that record one span per call: its duration
and the duration of the spans opened inside it (its children). A span's
parent is the span open when it starts, so self time is duration minus
child time. Aggregates are kept per span name, in memory, for the run.

Also here: the isolated kernel timings (the eight cases of
`benchmarks/bench_kernels.py`, on whichever backend is active) and import
times from `python -X importtime`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import oracles
from workloads import ROOT, child_env

#: Public functions traced, by module. Span names are `<layer>.<function>`.
TRACED = {
    "balance": ("classify_balance", "square_sums", "balance_defect"),
    "spectral2": (
        "estimate_spectrum2", "exact_spectrum2", "trace_entry_check", "emax_additivity_check",
        "quadform_eval", "quadform_predict", "quadform_branch_select", "det_homomorphism_check",
    ),
    "discrepancy": (
        "discrepancy_report", "fairness_transfer_check", "one_fair_row_check",
        "fairness_propagation_check", "interior", "find_balanced_interior",
    ),
    "algebra": ("transpose", "scale", "add", "mul", "det2", "inverse2", "rref_with_trail", "det_via_trail"),
    "genfuzz": ("fuzz_campaign",),
    "cli": ("parse_matrix_csv", "render_json"),
}  # fmt: skip

KERNELS = ("row_square_sums", "col_square_sums", "sums_all_close", "spread_defect", "spectrum2", "rref", "line_stats")

#: Span names that differ from `<layer>.<function>`.
RENAMED = {"genfuzz.fuzz_campaign": "genfuzz.loop", "cli.render_json": "cli.render"}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self._open: list[int] = []  # child time of each open span, innermost last
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        open_spans = self._open
        clock = time.perf_counter_ns
        running = [False]  # recursive calls (render_json) stay inside one span

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if running[0]:
                return fn(*args, **kwargs)
            running[0] = True
            open_spans.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = open_spans.pop()
                running[0] = False
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - child
                if open_spans:
                    open_spans[-1] += duration

        return span

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import balmat
        import balmat.cli
        from balmat import _kernels, core, genfuzz

        modules = [m for n, m in sys.modules.items() if n == "balmat" or n.startswith("balmat.")]
        # Kernel implementation modules keep their own bindings; callers
        # reach kernels through the `balmat._kernels` module attributes.
        callers = [m for m in modules if not m.__name__.startswith("balmat._kernels.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"balmat.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                name = f"{layer}.{fname}"
                wrapper = self.wrap(RENAMED.get(name, name), original)
                for m in callers:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, attr, wrapper)
        for kname in KERNELS:
            self._set(_kernels, kname, self.wrap(f"kernels.{kname}", getattr(_kernels, kname)))
        self._set(core.Matrix, "__post_init__", self.wrap("core.matrix_new", core.Matrix.__post_init__))
        for pname, prop in list(genfuzz.PROPERTIES.items()):
            hooks = {
                "make_inputs": self.wrap("genfuzz.make_inputs", prop.make_inputs),
                "check": self.wrap("genfuzz.check", prop.check),
            }
            if prop.metrics is not None:
                hooks["metrics"] = self.wrap("genfuzz.metrics_hook", prop.metrics)
            self._undo.append((genfuzz.PROPERTIES, pname, prop))
            genfuzz.PROPERTIES[pname] = dataclasses.replace(prop, **hooks)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def total_us(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[1] / 1e3

    def self_us(self, prefix: str) -> float:
        """Self time of one span name, or of every span in a layer (`layer.`)."""
        return sum(s[2] for n, s in self.stats.items() if n == prefix or (prefix.endswith(".") and n.startswith(prefix))) / 1e3

    def layer_calls(self, prefix: str) -> int:
        return sum(s[0] for n, s in self.stats.items() if n.startswith(prefix))


#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER = {
    "genfuzz.make_inputs.self_us_per_trial": "us/trial",
    "genfuzz.check.self_us_per_trial": "us/trial",
    "genfuzz.loop.self_us_per_trial": "us/trial",
    "genfuzz.metrics_hook.us_per_trial": "us/trial",
    "genfuzz.applicable_ratio": "ratio",
    "spectral2.estimate_spectrum2.calls_per_trial": "call/trial",
    "spectral2.exact_spectrum2.calls_per_trial": "call/trial",
    "spectral2.self_us_per_trial": "us/trial",
    "core.matrix_new.calls_per_trial": "call/trial",
    "core.matrix_new.self_us_per_trial": "us/trial",
    "balance.classify_balance.calls_per_trial": "call/trial",
    "balance.classify_balance.self_us_per_trial": "us/trial",
    "discrepancy.find_balanced_interior.self_us_per_trial": "us/trial",
    "discrepancy.interior.calls_per_trial": "call/trial",
    "discrepancy.discrepancy_report.calls_per_trial": "call/trial",
    "algebra.rref_with_trail.calls_per_trial": "call/trial",
    "algebra.self_us_per_trial": "us/trial",
    "kernels.calls_per_trial": "call/trial",
    "kernels.self_us_per_trial": "us/trial",
    **{f"kernels.{case}.ns_per_call": "ns/call" for case in (
        "row_square_sums_8x8", "col_square_sums_8x8", "sums_all_close_k8", "spread_defect_k8",
        "spectrum2", "rref_4x4", "rref_8x8", "line_stats_8x8",
    )},
    "cli.import_ms": "ms",
    **{f"cli.import.{m}_ms": "ms" for m in (
        "balmat", "errors", "kernels", "core", "algebra", "balance", "discrepancy", "spectral2", "genfuzz", "cli",
    )},
    "cli.parse_matrix_csv.us_per_op": "us/op",
    "cli.render.us_per_op": "us/op",
    "cli.render.bytes_per_op": "B/op",
    "cli.rref_with_trail.calls_per_op": "call/op",
    "trace.overhead_ratio": "ratio",
}  # fmt: skip


def layer_metrics(t: Tracer, trials: int) -> dict[str, float]:
    """Per-trial layer figures of the campaign operations traced."""
    per = 1.0 / trials if trials else 0.0
    return {
        "genfuzz.make_inputs.self_us_per_trial": t.self_us("genfuzz.make_inputs") * per,
        "genfuzz.check.self_us_per_trial": t.self_us("genfuzz.check") * per,
        "genfuzz.loop.self_us_per_trial": t.self_us("genfuzz.loop") * per,
        "genfuzz.metrics_hook.us_per_trial": t.total_us("genfuzz.metrics_hook") * per,
        "spectral2.estimate_spectrum2.calls_per_trial": t.calls("spectral2.estimate_spectrum2") * per,
        "spectral2.exact_spectrum2.calls_per_trial": t.calls("spectral2.exact_spectrum2") * per,
        "spectral2.self_us_per_trial": t.self_us("spectral2.") * per,
        "core.matrix_new.calls_per_trial": t.calls("core.matrix_new") * per,
        "core.matrix_new.self_us_per_trial": t.self_us("core.matrix_new") * per,
        "balance.classify_balance.calls_per_trial": t.calls("balance.classify_balance") * per,
        "balance.classify_balance.self_us_per_trial": t.self_us("balance.classify_balance") * per,
        "discrepancy.find_balanced_interior.self_us_per_trial": t.self_us("discrepancy.find_balanced_interior") * per,
        "discrepancy.interior.calls_per_trial": t.calls("discrepancy.interior") * per,
        "discrepancy.discrepancy_report.calls_per_trial": t.calls("discrepancy.discrepancy_report") * per,
        "algebra.rref_with_trail.calls_per_trial": t.calls("algebra.rref_with_trail") * per,
        "algebra.self_us_per_trial": t.self_us("algebra.") * per,
        "kernels.calls_per_trial": t.layer_calls("kernels.") * per,
        "kernels.self_us_per_trial": t.self_us("kernels.") * per,
    }


# ---------------------------------------------------------------------------
# Isolated kernels
# ---------------------------------------------------------------------------


def kernel_cases(seed: int):
    """The eight cases of benchmarks/bench_kernels.py, inputs from `seed`."""
    rng = random.Random(seed)
    m4 = [rng.uniform(-50, 50) for _ in range(16)]
    m8 = [rng.uniform(-50, 50) for _ in range(64)]
    sums = [rng.uniform(0, 100) for _ in range(8)]
    return [
        ("row_square_sums_8x8", "row_square_sums", (m8, 8, 8), 2000),
        ("col_square_sums_8x8", "col_square_sums", (m8, 8, 8), 2000),
        ("sums_all_close_k8", "sums_all_close", (sums, 1e-6, 1e-9), 2000),
        ("spread_defect_k8", "spread_defect", (sums,), 5000),
        ("spectrum2", "spectrum2", (3.0, 1.5, 1.5, 3.0), 5000),
        ("rref_4x4", "rref", (m4, 4, 4, 1e-10), 500),
        ("rref_8x8", "rref", (m8, 8, 8, 1e-10), 100),
        ("line_stats_8x8", "line_stats", (m8, 8, 8), 1000),
    ]


def _check_kernel(case: str, args, out) -> list[str]:
    """Spot checks of each isolated kernel's result against exact values."""
    if case in ("row_square_sums_8x8", "col_square_sums_8x8"):
        rows = [list(args[0][i * 8 : i * 8 + 8]) for i in range(8)]
        want = oracles.square_sums(rows)[0 if case.startswith("row") else 1]
        ok = all(oracles.sum_close(g, w, 8) for g, w in zip(out, want))
    elif case == "sums_all_close_k8":
        ok = out == oracles.all_pairs_close([Fraction(v) for v in args[0]], args[1], args[2])
    elif case == "spread_defect_k8":
        hi, lo = max(args[0]), min(args[0])
        ok = out == (hi - lo) / max(1.0, hi)  # one subtraction, one division
    elif case == "spectrum2":
        ok = tuple(out) == (1.5, 4.5, False)
    elif case.startswith("rref"):
        reduced, _, rank = out
        n = args[1]
        ok = rank == n and reduced == [1.0 if i == j else 0.0 for i in range(n) for j in range(n)]
    else:  # line_stats
        rows = [list(args[0][i * 8 : i * 8 + 8]) for i in range(8)]
        row_sums, col_sums = oracles.line_sums(rows)
        abs_rows, abs_cols = oracles.line_sums([[abs(v) for v in r] for r in rows])
        ok = all(
            oracles.sum_close(g, w, 8, a)
            for g, w, a in zip(out[0] + out[1], row_sums + col_sums, abs_rows + abs_cols)
        )
    return [] if ok else [f"kernel {case}: result differs from the exact value"]


def kernel_timings(seed: int, repeats: int = 5) -> tuple[dict[str, float], list[str]]:
    """ns per call of each isolated kernel case (best of `repeats`)."""
    from balmat import _kernels

    metrics, bad = {}, []
    for case, fname, args, inner in kernel_cases(seed):
        fn = getattr(_kernels, fname)
        bad += _check_kernel(case, args, fn(*args))
        best = math.inf
        for _ in range(repeats):
            start = time.perf_counter_ns()
            for _ in range(inner):
                fn(*args)
            best = min(best, (time.perf_counter_ns() - start) / inner)
        metrics[f"kernels.{case}.ns_per_call"] = best
    return metrics, bad


# ---------------------------------------------------------------------------
# Import time
# ---------------------------------------------------------------------------

#: Modules whose self import time is reported, as `cli.import.<short>_ms`.
#: `kernels` sums `balmat._kernels` and its backend module(s).
IMPORT_MODULES = tuple(n[len("cli.import.") : -len("_ms")] for n in PER_LAYER if n.startswith("cli.import."))


def _short(module: str) -> str:
    if module == "balmat":
        return "balmat"
    tail = module.split(".", 1)[1]
    return "kernels" if tail.startswith("_kernels") else tail


def import_times(samples: int = 5) -> dict[str, float]:
    """Medians over fresh interpreters of `import balmat.cli` import times."""
    runs: dict[str, list[float]] = {}
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import balmat.cli"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, check=True,
        )  # fmt: skip
        total = 0.0
        selfs = dict.fromkeys(IMPORT_MODULES, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = line[len("import time:") :].split("|")
            module = name.strip()
            if module != "balmat" and not module.startswith("balmat."):
                continue
            selfs[_short(module)] += int(self_us) / 1e3
            if len(name) - len(name.lstrip()) == 1:  # top level: its cumulative covers the rest
                total += int(cumulative_us) / 1e3
        for key, value in selfs.items():
            runs.setdefault(f"cli.import.{key}_ms", []).append(value)
        runs.setdefault("cli.import_ms", []).append(total)
    return {k: statistics.median(v) for k, v in runs.items()}
