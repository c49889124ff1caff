import dataclasses
import inspect
import itertools
import math
import random

import pytest

import oracles
from balmat import _kernels, algebra, spectral2
from balmat.algebra import det_via_trail, rref_with_trail
from balmat.balance import balance_defect, classify_balance
from balmat.cli import _tolerance, build_parser
from balmat.core import (
    DEFAULT_TOL,
    CheckRecord,
    Matrix,
    TolerancePolicy,
    constant_matrix,
    identity,
    matrix_from_rows,
)
from balmat.discrepancy import (
    fairness_propagation_check,
    fairness_transfer_check,
    find_balanced_interior,
    one_fair_row_check,
)
from balmat.errors import ConfigurationError, HypothesisError, UnsupportedDimensionError
from balmat.genfuzz import (
    DEFECT_FLOOR,
    MAX_COUNTEREXAMPLES,
    PROPERTIES,
    _KERNEL_MAX_N,
    FuzzContext,
    FuzzReport,
    GenSpec,
    _build_scaled_orthogonal,
    _gaussians,
    _generate_with,
    _householder_kernel,
    _householder_loop,
    _householder_source,
    _mix,
    _scaled_orthogonal,
    fuzz_campaign,
    generate,
    replay_counterexample,
)

from fingerprint_cases import CASES, case_id


def max_defect(m):
    return max(balance_defect(m, "rows"), balance_defect(m, "columns"))


class TestGenSpec:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            GenSpec(kind="sparse")

    def test_entry_low_floor(self):
        with pytest.raises(ConfigurationError):
            GenSpec(kind="constant", entry_low=0.5)

    def test_bounds_ordering(self):
        with pytest.raises(ConfigurationError):
            GenSpec(kind="constant", entry_low=10.0, entry_high=2.0)

    def test_negative_noise(self):
        with pytest.raises(ConfigurationError):
            GenSpec(kind="constant", noise=-0.1)

    @pytest.mark.parametrize("n", [3.0, True, "3", None])
    def test_dimension_must_be_an_int(self, n):
        with pytest.raises(ConfigurationError, match="n must be an integer"):
            GenSpec(kind="scaled_orthogonal", n=n)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "7"])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            GenSpec(kind="constant", seed=seed)

    @pytest.mark.parametrize("name", ["entry_low", "entry_high", "noise"])
    @pytest.mark.parametrize("value", [True, False, "2", "0.1", None])
    def test_float_fields_must_be_numbers(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be an int or a float"):
            GenSpec(kind="constant", **{name: value})

    @pytest.mark.parametrize("name", ["entry_low", "entry_high", "noise"])
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "10**400"]
    )
    def test_float_fields_must_be_finite(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            GenSpec(kind="constant", **{name: value})

    def test_float_fields_take_ints(self):
        as_ints = GenSpec(kind="constant", n=3, entry_low=2, entry_high=5, noise=1, seed=4)
        as_floats = GenSpec(kind="constant", n=3, entry_low=2.0, entry_high=5.0, noise=1.0, seed=4)
        assert generate(as_ints) == generate(as_floats)


class TestGenerate:
    def test_constant_pinned_scale(self):
        m = generate(GenSpec(kind="constant", n=3, entry_low=2.0, entry_high=2.0, seed=1))
        assert m == matrix_from_rows([[2, 2, 2]] * 3)
        assert max_defect(m) == 0.0

    def test_symmetric2_shape(self):
        m = generate(GenSpec(kind="symmetric2", n=2, seed=5))
        a, b, c, d = m.entries
        assert a == d and b == c
        assert max_defect(m) == 0.0

    def test_symmetric2_wrong_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            generate(GenSpec(kind="symmetric2", n=3, seed=5))

    def test_hadamard_sign_pattern(self):
        m = generate(GenSpec(kind="hadamard_like", n=2, entry_low=1.0, entry_high=1.0, seed=9))
        assert m == matrix_from_rows([[1, 1], [1, -1]])
        assert set(m.entries) == {1.0, -1.0}
        from balmat.balance import square_sums

        assert square_sums(m, "rows") == (2.0, 2.0)
        assert square_sums(m, "columns") == (2.0, 2.0)

    def test_hadamard_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            generate(GenSpec(kind="hadamard_like", n=3, seed=1))

    def test_determinism(self):
        spec = GenSpec(kind="scaled_orthogonal", n=4, seed=123)
        assert generate(spec) == generate(spec)

    def test_seed_changes_output(self):
        a = generate(GenSpec(kind="symmetric2", seed=1))
        b = generate(GenSpec(kind="symmetric2", seed=2))
        assert a != b

    @pytest.mark.parametrize("kind", ["constant", "symmetric2", "hadamard_like", "scaled_orthogonal"])
    @pytest.mark.parametrize("seed", [0, 1, 17, 991])
    def test_noise_free_kinds_sit_on_the_balanced_manifold(self, kind, seed):
        n = 2 if kind == "symmetric2" else 4
        m = generate(GenSpec(kind=kind, n=n, seed=seed))
        assert max_defect(m) <= DEFECT_FLOOR

    def test_noise_free_larger_dimensions(self):
        for n in (3, 5, 8):
            m = generate(GenSpec(kind="scaled_orthogonal", n=n, seed=n))
            assert max_defect(m) <= DEFECT_FLOOR
            assert classify_balance(m).fully_balanced

    def test_perturbed_leaves_the_manifold(self):
        spec = GenSpec(kind="perturbed", n=4, noise=0.5, seed=3)
        m = generate(spec)
        assert m.shape == (4, 4)

    def test_noise_applies_to_base_kinds(self):
        clean = generate(GenSpec(kind="constant", n=3, seed=11))
        noisy = generate(GenSpec(kind="constant", n=3, noise=0.1, seed=11))
        assert clean != noisy


#: Both sides of the bound on compiled Householder kernels.
ORTHOGONAL_DIMS = list(range(1, _KERNEL_MAX_N + 3))

#: (draw, n): the sampler at every n above, and the loop called directly at
#: every n it serves a sampler for, so it is pinned where a kernel runs too.
ORTHOGONAL_DRAWS = [("sampler", n) for n in ORTHOGONAL_DIMS] + [("loop", n) for n in ORTHOGONAL_DIMS[1:]]


def draw_orthogonal(draw, rng, n):
    """Flat row-major Q from `_scaled_orthogonal` or from `_householder_loop`."""
    if draw == "loop":
        return flat(_householder_loop(_gaussians(rng, n * n), n))
    return _scaled_orthogonal(rng, n, 1.0)


def hexes(values):
    return [v.hex() for v in values]


def flat(rows):
    return [v for row in rows for v in row]


def rng_pair(seed, pending):
    """Two generators in the same state; `pending` leaves a Gaussian in gauss_next."""
    pair = random.Random(seed), random.Random(seed)
    if pending:
        for rng in pair:
            rng.gauss(0.0, 1.0)
    return pair


class ScriptedRandom(random.Random):
    """A generator whose `random()` returns the given values in order."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)

    def random(self):
        return next(self.values)


def zero_column_script(n, zero_cols, seed):
    """Uniforms for n*n Box-Muller draws that put exact zeros in `zero_cols`.

    A second uniform of 0.0 gives a radius of zero, so both Gaussians of
    that pair are 0.0; every pair that touches a listed column is zeroed.
    """
    rng = random.Random(seed)
    script = []
    for first in range(0, n * n, 2):
        touches = {first % n, (first + 1) % n} if first + 1 < n * n else {first % n}
        script += [rng.random(), 0.0 if touches & zero_cols else rng.random()]
    return script


class TestGaussianDraws:
    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("count", range(1, 11))
    def test_match_random_gauss(self, count, pending):
        for seed in range(20):
            want_rng, got_rng = rng_pair(seed, pending)
            want = [want_rng.gauss(0.0, 1.0) for _ in range(count)]
            got = _gaussians(got_rng, count)
            assert [v.hex() for v in got] == [v.hex() for v in want]
            assert got_rng.getstate() == want_rng.getstate()
            assert repr(got_rng.gauss_next) == repr(want_rng.gauss_next)

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("draw, n", ORTHOGONAL_DRAWS)
    def test_random_orthogonal_matches_the_householder_oracle(self, draw, n, pending):
        for seed in range(40):
            want_rng, got_rng = rng_pair(seed, pending)
            assert hexes(draw_orthogonal(draw, got_rng, n)) == hexes(flat(oracles.random_orthogonal(want_rng, n)))
            assert got_rng.getstate() == want_rng.getstate()

    @pytest.mark.parametrize("draw, n", [(draw, n) for draw, n in ORTHOGONAL_DRAWS if n > 1])
    def test_random_orthogonal_with_zero_columns(self, draw, n):
        # A zero column k makes step k see norm == 0.0 and skip; with
        # column 0 zero, Q is first built at a later step, and with every
        # column zero it stays the identity.
        rng = random.Random(n)
        choices = [{0}, {1}, {0, 1}, {n - 2}, {n - 1}, set(range(n))]
        choices += [set(rng.sample(range(n), rng.randint(1, n))) for _ in range(6)]
        for trial, zero_cols in enumerate(choices):
            script = zero_column_script(n, zero_cols, seed=100 * n + trial)
            sample = _gaussians(ScriptedRandom(script), n * n)
            assert all(sample[i * n + j] == 0.0 for i in range(n) for j in zero_cols)
            got = hexes(draw_orthogonal(draw, ScriptedRandom(script), n))
            assert got == hexes(flat(oracles.random_orthogonal(ScriptedRandom(script), n)))
            if len(zero_cols) == n:
                assert got == hexes(float(i == j) for i in range(n) for j in range(n))

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("n", ORTHOGONAL_DIMS)
    def test_scaled_orthogonal_builder_matches_the_oracle(self, n, pending):
        # s*Q with the sign fix folded into the scale: signed zeros included
        spec = GenSpec(kind="scaled_orthogonal", n=n, entry_low=1.0, entry_high=50.0)
        for seed in range(20):
            want_rng, got_rng = rng_pair(seed, pending)
            s = want_rng.uniform(spec.entry_low, spec.entry_high)
            want = [s * v for v in flat(oracles.random_orthogonal(want_rng, n))]
            assert hexes(_build_scaled_orthogonal(got_rng, spec)) == hexes(want)
            assert got_rng.getstate() == want_rng.getstate()
            assert repr(got_rng.gauss_next) == repr(want_rng.gauss_next)


class TestHouseholderKernel:
    def test_each_dimension_compiles_once(self):
        def draw_every_dimension():
            for n in ORTHOGONAL_DIMS:
                _scaled_orthogonal(random.Random(n), n, 1.0)

        draw_every_dimension()
        info = _householder_kernel.cache_info()
        # one entry per n in 2.._KERNEL_MAX_N; n = 1 and larger n run no kernel
        assert info.currsize <= _KERNEL_MAX_N - 1
        draw_every_dimension()
        assert _householder_kernel.cache_info().misses == info.misses

    def test_larger_dimensions_run_the_loop(self):
        before = _householder_kernel.cache_info()
        for n in (_KERNEL_MAX_N + 1, _KERNEL_MAX_N + 2):
            _scaled_orthogonal(random.Random(n), n, 1.0)
        assert _householder_kernel.cache_info() == before

    def test_source_grows_quadratically(self):
        # a full O(n³) unroll would grow eightfold from n = 8 to n = 16
        assert len(_householder_source(16)) < 4 * len(_householder_source(8))


class TestCampaigns:
    def test_worst_slack_keeps_a_nan_slack(self):
        # Entries near 5e153 leave square sums near the float limit, and
        # scaling by |lam| >= 1 overflows some: their slack is nan.
        spec = GenSpec(kind="constant", n=2, entry_low=4e153, entry_high=6e153, seed=1)
        report = fuzz_campaign("closure_scale", spec, 50)
        assert report.violations == 28
        assert math.isnan(report.worst_slack)

    def test_unknown_property(self):
        with pytest.raises(ConfigurationError):
            fuzz_campaign("no_such_property", GenSpec(kind="symmetric2", seed=1), 5)

    def test_unknown_property_on_replay(self):
        # replay names the known properties exactly as a campaign does
        m = matrix_from_rows([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ConfigurationError) as replayed:
            replay_counterexample("no_such_property", (m,))
        with pytest.raises(ConfigurationError) as campaign:
            fuzz_campaign("no_such_property", GenSpec(kind="symmetric2", seed=1), 5)
        assert str(replayed.value) == str(campaign.value)
        assert ", ".join(sorted(PROPERTIES)) in str(replayed.value)

    def test_trials_validated(self):
        with pytest.raises(ConfigurationError):
            fuzz_campaign("closure_add", GenSpec(kind="symmetric2", seed=1), 0)

    @pytest.mark.parametrize("trials", [True, 2.5, "3", None])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ConfigurationError, match="trials must be an integer"):
            fuzz_campaign("closure_add", GenSpec(kind="symmetric2", seed=1), trials)

    def test_ctx_must_be_a_fuzz_context(self):
        # A tolerance in the context's place must not pass unnoticed:
        # closure_scale never reads its context, so only this guard sees it.
        message = "^ctx must be a FuzzContext, got TolerancePolicy$"
        with pytest.raises(ConfigurationError, match=message):
            fuzz_campaign("closure_scale", GenSpec(kind="constant", seed=1), 5, DEFAULT_TOL)
        with pytest.raises(ConfigurationError, match=message):
            replay_counterexample("closure_add", (BAL2, BAL2), DEFAULT_TOL)

    def test_counts_add_up(self):
        rep = fuzz_campaign("closure_add", GenSpec(kind="perturbed", n=2, noise=0.2, seed=7), 200)
        assert rep.passes + rep.violations + rep.not_applicable == rep.trials

    def test_closure_add_exact(self):
        rep = fuzz_campaign("closure_add", GenSpec(kind="symmetric2", seed=21), 500)
        assert rep.violations == 0
        assert rep.not_applicable == 0

    def test_closure_mul_exact(self):
        rep = fuzz_campaign("closure_mul", GenSpec(kind="symmetric2", seed=22), 500)
        assert rep.violations == 0

    def test_closure_inverse_exact(self):
        rep = fuzz_campaign("closure_inverse", GenSpec(kind="symmetric2", seed=23), 500)
        assert rep.violations == 0

    def test_closure_transpose_any_kind(self):
        rep = fuzz_campaign(
            "closure_transpose", GenSpec(kind="perturbed", n=4, noise=1.0, seed=24), 200
        )
        assert rep.violations == 0
        assert rep.passes == 200

    def test_closure_scale(self):
        rep = fuzz_campaign("closure_scale", GenSpec(kind="perturbed", n=3, noise=0.3, seed=25), 200)
        assert rep.violations == 0

    def test_estimator_exact_on_clean_inputs(self):
        rep = fuzz_campaign("estimator_exact", GenSpec(kind="symmetric2", seed=26), 1000)
        assert rep.violations == 0
        assert rep.passes == 1000
        assert all(d == 0.0 for d, _ in rep.defect_error_pairs)
        assert all(e <= 1e-9 for _, e in rep.defect_error_pairs)

    def test_det_nonzero_on_structured_kinds(self):
        for kind, n in (("symmetric2", 2), ("scaled_orthogonal", 4)):
            rep = fuzz_campaign("det_nonzero", GenSpec(kind=kind, n=n, seed=27), 200)
            assert rep.violations == 0

    def test_det_nonzero_skips_constant_moduli(self):
        rep = fuzz_campaign("det_nonzero", GenSpec(kind="constant", n=3, seed=28), 10)
        assert rep.not_applicable == 10

    def test_estimator_scaling_collects_pairs(self):
        rep = fuzz_campaign(
            "estimator_scaling",
            GenSpec(kind="symmetric2", noise=0.05, seed=29),
            300,
            FuzzContext(TolerancePolicy(rtol=0.3, atol=1e-9)),
        )
        assert rep.violations == 0
        assert len(rep.defect_error_pairs) > 0
        assert any(d > 0 for d, _ in rep.defect_error_pairs)

    def test_one_fair_row_campaign(self):
        rep = fuzz_campaign(
            "one_fair_row",
            GenSpec(kind="constant", n=4, seed=30),
            100,
            FuzzContext(TolerancePolicy(rtol=0.05, atol=1e-9), fair_eps=0.1, unfair_theta=1.0),
        )
        assert rep.passes > 0
        assert rep.violations == 0

    def test_determinism_bit_identical_reports(self):
        spec = GenSpec(kind="perturbed", n=4, noise=0.2, seed=31)
        first = fuzz_campaign("interior_conjecture", spec, 50)
        second = fuzz_campaign("interior_conjecture", spec, 50)
        assert first == second

    def test_counterexamples_replay(self):
        # interior search over random orthogonal matrices finds violations
        # at tight tolerance: the stored inputs must reproduce them
        spec = GenSpec(kind="scaled_orthogonal", n=4, seed=32)
        rep = fuzz_campaign("interior_conjecture", spec, 40)
        assert rep.counterexamples, "expected conjecture counterexample candidates"
        for cex in rep.counterexamples[:10]:
            replayed = replay_counterexample("interior_conjecture", cex.matrices)
            assert replayed is not None and not replayed.holds

    def test_replay_on_hand_built_violation(self):
        # row deviation 0.5 sits inside [eps, 2*eps) for eps = 0.4: rows
        # test unfair while columns test fair at the widened budget, which
        # the transfer check reports as a violation
        m = matrix_from_rows([[2.0, 1.0], [1.0, 2.0]])
        rec = replay_counterexample("fairness_transfer", (m,), FuzzContext(fair_eps=0.4))
        assert rec is not None and not rec.holds

    def test_counterexamples_capped(self):
        spec = GenSpec(kind="scaled_orthogonal", n=4, seed=33)
        rep = fuzz_campaign("interior_conjecture", spec, 150)
        assert rep.violations > MAX_COUNTEREXAMPLES
        assert len(rep.counterexamples) == MAX_COUNTEREXAMPLES

    def test_quadform_property_clean(self):
        rep = fuzz_campaign("quadform_predict", GenSpec(kind="symmetric2", seed=34), 300)
        assert rep.violations == 0

    def test_emax_property_clean(self):
        rep = fuzz_campaign("emax_additivity", GenSpec(kind="symmetric2", seed=35), 300)
        assert rep.violations == 0

    def test_trace_entry_across_kinds(self):
        rep = fuzz_campaign("trace_entry", GenSpec(kind="perturbed", n=2, seed=36), 200)
        assert rep.violations == 0

    def test_fairness_transfer_campaign(self):
        rep = fuzz_campaign(
            "fairness_transfer", GenSpec(kind="constant", n=3, noise=0.01, seed=37),
            200,
            FuzzContext(TolerancePolicy(rtol=0.2, atol=1e-9), fair_eps=0.1),
        )
        assert rep.passes + rep.not_applicable == 200

    def test_det_homomorphism_campaign(self):
        rep = fuzz_campaign(
            "det_homomorphism",
            GenSpec(kind="symmetric2", seed=38),
            200,
            FuzzContext(TolerancePolicy(rtol=0.2, atol=1e-9), fair_eps=0.1),
        )
        assert rep.violations == 0
        assert rep.passes > 0

    def test_det_homomorphism_n_campaign(self):
        rep = fuzz_campaign(
            "det_homomorphism_n",
            GenSpec(kind="constant", n=3, seed=39),
            100,
            FuzzContext(TolerancePolicy(rtol=0.2, atol=1e-9), fair_eps=0.1),
        )
        assert rep.passes > 0

    def test_edos_campaign_runs(self):
        rep = fuzz_campaign(
            "edos",
            GenSpec(kind="perturbed", n=4, noise=0.05, seed=40),
            100,
            FuzzContext(TolerancePolicy(rtol=0.25, atol=1e-9), fair_eps=0.1),
        )
        assert isinstance(rep, FuzzReport)
        assert rep.passes + rep.violations + rep.not_applicable == 100

    def test_interior_fair_corollary_campaign(self):
        rep = fuzz_campaign(
            "interior_fair_corollary",
            GenSpec(kind="constant", n=4, noise=0.01, seed=41),
            100,
            FuzzContext(TolerancePolicy(rtol=0.1, atol=1e-9), fair_eps=0.1),
        )
        assert rep.passes > 0
        assert rep.violations == 0

    def test_estimator_error_grows_with_defect(self):
        # the scaling study's purpose: off-manifold error should trend with
        # the balance defect (aggregate comparison, not a per-point bound)
        rep = fuzz_campaign(
            "estimator_scaling",
            GenSpec(kind="symmetric2", entry_low=2.0, noise=0.5, seed=44),
            400,
            FuzzContext(TolerancePolicy(rtol=0.9, atol=1e-6)),
        )
        pairs = sorted(rep.defect_error_pairs)
        assert len(pairs) >= 100
        third = len(pairs) // 3
        low_err = sum(e for _, e in pairs[:third]) / third
        high_err = sum(e for _, e in pairs[-third:]) / third
        assert high_err >= low_err

    def test_every_registered_property_runs(self):
        for name in PROPERTIES:
            rep = fuzz_campaign(
                name,
                GenSpec(kind="perturbed", n=2, noise=0.01, seed=42),
                20,
                FuzzContext(TolerancePolicy(rtol=0.2, atol=1e-9)),
            )
            assert rep.trials == 20

    def test_every_metrics_hook_is_none(self):
        # The benchmark's tracer reads `PropertyDef.metrics`; the field stays
        # until the benchmark stops reading it.
        assert all(prop.metrics is None for prop in PROPERTIES.values())


class TestOneConfiguration:
    def test_one_default_per_parameter_and_the_benchmark_calls(self):
        ctx = FuzzContext()
        assert ctx.tol == DEFAULT_TOL
        ns = build_parser().parse_args(["fuzz", "--property", "closure_add", "--kind", "constant"])
        assert FuzzContext(_tolerance(ns), ns.fair_eps, ns.unfair_theta, ns.pivot_tol, ns.min_dim) == ctx
        defaults = {field.name: getattr(ctx, field.name) for field in dataclasses.fields(ctx)}
        checks = (
            one_fair_row_check,
            fairness_transfer_check,
            fairness_propagation_check,
            spectral2.det_homomorphism_check,
            rref_with_trail,
            det_via_trail,
            find_balanced_interior,
        )
        for fn in checks:
            shared = {name: p.default for name, p in inspect.signature(fn).parameters.items() if name in defaults}
            assert shared, fn.__name__
            assert shared == {name: defaults[name] for name in shared}, fn.__name__
        # The benchmark's calls: three and two positional arguments, a cap
        # of 100 stored counterexamples, each replaying to a violation.
        prop, spec = "interior_conjecture", GenSpec(kind="scaled_orthogonal", n=4, seed=33)
        report = fuzz_campaign(prop, spec, 150)
        assert report.violations > 100
        assert len(report.counterexamples) == min(report.violations, 100)
        for cex in report.counterexamples:
            record = replay_counterexample(prop, cex.matrices)
            assert record is not None and not record.holds


class TestWorkPerTrial:
    """Each trial does each piece of work once."""

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        calls = [0]
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("name", ["estimator_exact", "estimator_scaling"])
    def test_estimator_runs_once_per_trial(self, monkeypatch, name):
        # The check reads the pair's defect from the estimate: the one
        # balance report is the estimator gate's.
        est = self.count_calls(monkeypatch, spectral2, "estimate_spectrum2")
        exact = self.count_calls(monkeypatch, spectral2, "exact_spectrum2")
        square_sums = self.count_calls(monkeypatch, _kernels, "row_square_sums")
        rep = fuzz_campaign(name, GenSpec(kind="symmetric2", seed=5), 50)
        assert rep.passes + rep.violations == 50
        assert est[0] == exact[0] == 50
        assert square_sums[0] == 50
        assert len(rep.defect_error_pairs) == 50

    def test_one_matrix_per_generated_input(self, monkeypatch):
        built = self.count_calls(monkeypatch, Matrix, "__post_init__")
        rep = fuzz_campaign("trace_entry", GenSpec(kind="perturbed", seed=6), 40)
        assert rep.trials == 40
        assert built[0] == 40

    def test_corollary_classifies_the_input_once(self, monkeypatch):
        # The blocks are checked from one table of run square sums: no
        # block is built as a Matrix or summed by `classify_balance`.
        built = self.count_calls(monkeypatch, Matrix, "__post_init__")
        square_sums = self.count_calls(monkeypatch, _kernels, "row_square_sums")
        rep = fuzz_campaign(
            "interior_fair_corollary",
            GenSpec(kind="constant", n=6, noise=0.01, seed=48),
            10,
            FuzzContext(TolerancePolicy(rtol=0.1, atol=1e-9)),
        )
        assert rep.passes == 10
        assert built[0] == square_sums[0] == 10

    @pytest.mark.parametrize("name", ["estimator_exact", "estimator_scaling"])
    def test_replay_returns_the_record(self, name):
        m = generate(GenSpec(kind="symmetric2", seed=7))
        rec = replay_counterexample(name, (m,))
        assert isinstance(rec, CheckRecord) and rec.name == name

    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec(kind="symmetric2", seed=8),
            GenSpec(kind="perturbed", n=4, noise=0.3, seed=9),
            # nine Gaussian draws per trial leave one cached in gauss_next
            GenSpec(kind="scaled_orthogonal", n=3, seed=10),
            GenSpec(kind="hadamard_like", n=4, noise=0.1, seed=11),
        ],
    )
    def test_trial_inputs_match_a_fresh_generator(self, monkeypatch, spec):
        prop = PROPERTIES["closure_transpose"]
        seen = []

        def recording(rng, spec, ctx):
            seen.append(prop.make_inputs(rng, spec, ctx)[0])
            return (seen[-1],)

        monkeypatch.setitem(PROPERTIES, "closure_transpose", dataclasses.replace(prop, make_inputs=recording))
        fuzz_campaign("closure_transpose", spec, 6)
        assert seen[0] == generate(spec)
        assert seen == [_generate_with(random.Random(_mix(spec.seed, i)), spec) for i in range(6)]


BAL2 = matrix_from_rows([[2, 1], [1, 2]])  # balanced, positive, symmetric
UNBAL2 = matrix_from_rows([[1, 2], [3, 4]])
UNBAL3 = matrix_from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
WIDE = matrix_from_rows([[1, 2, 3], [4, 5, 6]])
CONST3 = constant_matrix(3, 3, 2.0)  # balanced, fair, singular
# Balanced with entries >= 1, but no line is fair at 0.1 and det = 20.
UNFAIR3 = matrix_from_rows([[3, 1, 1], [1, 3, 1], [1, 1, 3]])
HALVES = constant_matrix(3, 3, 0.5)

#: One hand-built input per not-applicable exit of the checks in `genfuzz`:
#: (property, inputs, min_dim, the hypothesis the exit names). Every other
#: parameter is the campaign default.
NOT_APPLICABLE = [
    pytest.param("closure_add", (identity(3), BAL2), 2, "not-2x2", id="closure-not-2x2"),
    pytest.param("closure_add", (matrix_from_rows([[2, -1], [-1, 2]]), BAL2), 2, "not-positive",
                 id="closure-not-positive"),
    pytest.param("closure_mul", (BAL2, UNBAL2), 2, "not-balanced", id="closure-not-balanced"),
    pytest.param("closure_inverse", (identity(3),), 2, "not-2x2", id="inverse-not-2x2"),
    pytest.param("closure_inverse", (UNBAL2,), 2, "not-balanced", id="inverse-not-balanced"),
    # Square sums 5 and 5 + 4e-8: balanced at rtol 1e-6, with defect 8e-9.
    pytest.param("closure_inverse", (matrix_from_rows([[2, 1], [1, 2 + 1e-8]]),), 2,
                 "not-exactly-balanced", id="inverse-not-exactly-balanced"),
    pytest.param("closure_inverse", (constant_matrix(2, 2, 1.0),), 2, "singular", id="inverse-singular"),
    pytest.param("closure_scale", (constant_matrix(2, 2, 0.5), Matrix(1, 1, (2.0,))), 2,
                 "square-sums-below-1", id="scale-square-sums-below-1"),
    pytest.param("closure_scale", (matrix_from_rows([[1e308]]), Matrix(1, 1, (2.0,))), 2,
                 "scaled-overflows", id="scale-scaled-overflows"),
    pytest.param("det_nonzero", (WIDE,), 2, "not-square", id="det_nonzero-not-square"),
    pytest.param("det_nonzero", (UNBAL2,), 2, "not-balanced", id="det_nonzero-not-balanced"),
    pytest.param("det_nonzero", (matrix_from_rows([[1, -1], [1, 1]]),), 2, "equal-moduli",
                 id="det_nonzero-equal-moduli"),
    pytest.param("estimator_exact", (identity(3),), 2, "not-2x2", id="estimator-not-2x2"),
    pytest.param("emax_additivity", (BAL2, identity(3)), 2, "not-2x2", id="emax-not-2x2"),
    pytest.param("trace_entry", (identity(3),), 2, "not-2x2", id="trace-not-2x2"),
    pytest.param("quadform_predict", (identity(3),), 2, "not-2x2", id="quadform-not-2x2"),
    pytest.param("quadform_predict", (UNBAL2,), 2, "not-symmetric", id="quadform-not-symmetric"),
    # Both rows are fair, not exactly one.
    pytest.param("one_fair_row", (CONST3,), 2, "not-one-fair-row", id="one_fair_row-not-one-fair-row"),
    pytest.param("interior_conjecture", (WIDE,), 2, "not-square", id="interior-not-square"),
    pytest.param("interior_conjecture", (identity(3),), 3, "too-small", id="interior-too-small"),
    pytest.param("interior_fair_corollary", (BAL2,), 2, "too-small", id="corollary-too-small"),
    pytest.param("interior_fair_corollary", (UNBAL3,), 2, "not-balanced", id="corollary-not-balanced"),
    pytest.param("interior_fair_corollary", (UNFAIR3,), 2, "not-fair", id="corollary-not-fair"),
    pytest.param("det_homomorphism", (identity(3), BAL2), 2, "not-2x2", id="homomorphism-not-2x2"),
    pytest.param("det_homomorphism_n", (WIDE, WIDE), 2, "not-square", id="homomorphism_n-not-square"),
    pytest.param("det_homomorphism_n", (CONST3, BAL2), 2, "shape-mismatch", id="homomorphism_n-shape-mismatch"),
    pytest.param("det_homomorphism_n", (HALVES, CONST3), 2, "entries-below-1",
                 id="homomorphism_n-a-entries-below-1"),
    pytest.param("det_homomorphism_n", (CONST3, HALVES), 2, "entries-below-1",
                 id="homomorphism_n-b-entries-below-1"),
    pytest.param("det_homomorphism_n", (UNBAL3, CONST3), 2, "not-balanced", id="homomorphism_n-a-not-balanced"),
    pytest.param("det_homomorphism_n", (CONST3, UNBAL3), 2, "not-balanced", id="homomorphism_n-b-not-balanced"),
    pytest.param("det_homomorphism_n", (UNFAIR3, CONST3), 2, "det-not-small", id="homomorphism_n-det-not-small"),
    pytest.param("det_homomorphism_n", (CONST3, UNFAIR3), 2, "not-fair", id="homomorphism_n-not-fair"),
]  # fmt: skip


class TestNotApplicable:
    """A trial is not applicable exactly when its check raises HypothesisError."""

    @pytest.mark.parametrize("name, inputs, min_dim, hypothesis", NOT_APPLICABLE)
    def test_each_exit_names_its_hypothesis(self, name, inputs, min_dim, hypothesis):
        ctx = FuzzContext(min_dim=min_dim)
        with pytest.raises(HypothesisError) as exc:
            PROPERTIES[name].check(inputs, ctx)
        assert exc.value.hypothesis == hypothesis
        assert replay_counterexample(name, inputs, ctx) is None

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_replay_is_none_for_exactly_the_not_applicable_trials(self, monkeypatch, case):
        name, spec_kwargs, trials, kwargs = case
        spec = GenSpec(**spec_kwargs)
        prop = PROPERTIES[name]
        outcomes = []  # (inputs, context, not applicable) per trial

        def recording(inputs, ctx):
            try:
                record = prop.check(inputs, ctx)
            except HypothesisError:
                outcomes.append((inputs, ctx, True))
                raise
            outcomes.append((inputs, ctx, False))
            return record

        monkeypatch.setitem(PROPERTIES, name, dataclasses.replace(prop, check=recording))
        report = fuzz_campaign(name, spec, trials, FuzzContext(**kwargs))
        monkeypatch.undo()  # replay runs the registered check
        assert sum(na for _, _, na in outcomes) == report.not_applicable
        for index, (seen, ctx, not_applicable) in enumerate(outcomes):
            inputs = prop.make_inputs(random.Random(_mix(spec.seed, index)), spec, ctx)
            assert inputs == seen
            assert (replay_counterexample(name, inputs, ctx) is None) == not_applicable


def permutation_matrix(cols, value=1.0):
    """Row i holds `value` in column cols[i] and zeros elsewhere."""
    n = len(cols)
    return Matrix(n, n, tuple(value if j == c else 0.0 for c in cols for j in range(n)))


#: Inputs with zero blocks, zero lines and overflowing square sums.
CONTRACT_INPUTS = [
    permutation_matrix(cols, value)
    for n in range(1, 6)
    for cols in itertools.permutations(range(n))
    for value in (1.0, 1e150)
] + [
    matrix_from_rows([[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]),
    matrix_from_rows([[1.3e154, 0], [1.3e154, 0]]),
    matrix_from_rows([[1.3e154, 1.3e154], [0, 0]]),
    matrix_from_rows([[1e200, 1e200], [1e200, 2e200]]),
    matrix_from_rows([[1e308]]),
]

PAIR_PROPERTIES = {"closure_add", "closure_mul", "emax_additivity", "det_homomorphism", "det_homomorphism_n"}


class TestReplayContract:
    """Replay returns None or a `CheckRecord`, whatever the input."""

    @pytest.mark.parametrize("name", sorted(PROPERTIES))
    def test_replay_raises_nothing(self, name):
        assert len(CONTRACT_INPUTS) == 311
        for m in CONTRACT_INPUTS:
            if name == "closure_scale":
                inputs = (m, Matrix(1, 1, (2.0,)))
            else:
                inputs = (m, m) if name in PAIR_PROPERTIES else (m,)
            record = replay_counterexample(name, inputs)
            assert record is None or isinstance(record, CheckRecord)

    def test_an_all_zero_closest_block_is_a_violation(self):
        # Every 2x2 and 3x3 interior of this permutation matrix is
        # unbalanced, and the closest is all zeros, with defect 0.0.
        record = replay_counterexample("interior_conjecture", (permutation_matrix((1, 3, 0, 2)),))
        assert record == CheckRecord("interior_conjecture", False, 0.0, 0.0, 1.0)


def _result_defect(name, inputs, tol):
    """`classify_balance`'s max defect of a closure's result; closure_scale: its change."""
    if name == "closure_scale":
        a, lam = inputs
        scaled = algebra.scale(lam.entries[0], a)
        return abs(classify_balance(scaled, tol).max_defect - classify_balance(a, tol).max_defect)
    if name == "closure_inverse":
        return classify_balance(algebra.inverse2(inputs[0], tol), tol).max_defect
    return classify_balance(getattr(algebra, name[len("closure_"):])(*inputs), tol).max_defect


class TestOneDefectProducer:
    """Every balance defect a check reads is `classify_balance`'s, bit for bit."""

    CLOSURES = ("closure_add", "closure_inverse", "closure_mul", "closure_scale")

    @staticmethod
    def lhs_hexes(name, all_inputs, ctx):
        """(lhs, want) as hex, NaN equal to NaN, for each applicable input."""
        out = []
        for inputs in all_inputs:
            record = replay_counterexample(name, inputs, ctx)
            if record is not None:
                out.append((record.lhs.hex(), _result_defect(name, inputs, ctx.tol).hex()))
        return out

    @pytest.mark.parametrize("name", CLOSURES)
    def test_closure_lhs_on_a_seeded_sweep(self, name):
        ctx, prop = FuzzContext(), PROPERTIES[name]
        all_inputs = [
            prop.make_inputs(random.Random(_mix(spec.seed, index)), spec, ctx)
            for spec in (
                GenSpec(kind="symmetric2", seed=11),
                GenSpec(kind="perturbed", seed=11),
                GenSpec(kind="perturbed", noise=1e-7, seed=11),
            )
            for index in range(100)
        ]
        pairs = self.lhs_hexes(name, all_inputs, ctx)
        assert len(pairs) >= 100
        assert [got for got, _ in pairs] == [want for _, want in pairs]
        if name != "closure_inverse":  # probed only where it is exactly balanced
            assert any(got != (0.0).hex() for got, _ in pairs)

    @pytest.mark.parametrize("name", CLOSURES)
    def test_closure_lhs_on_overflowing_inputs(self, name):
        # A positive balanced 2x2 whose product's square sums overflow.
        overflow = CONTRACT_INPUTS + [constant_matrix(2, 2, 1e153)]
        if name == "closure_scale":
            all_inputs = [(m, Matrix(1, 1, (2.0,))) for m in overflow]
        else:
            all_inputs = [(m, m) if name in PAIR_PROPERTIES else (m,) for m in overflow]
        pairs = self.lhs_hexes(name, all_inputs, FuzzContext())
        assert pairs and [got for got, _ in pairs] == [want for _, want in pairs]
        if name in ("closure_mul", "closure_scale"):
            assert ("nan", "nan") in pairs

    @pytest.mark.parametrize("name", ["estimator_exact", "estimator_scaling"])
    @pytest.mark.parametrize("kind, noise", [("symmetric2", 0.0), ("perturbed", 1e-7)])
    def test_estimator_pairs_carry_the_gate_defect(self, name, kind, noise):
        spec, ctx, prop = GenSpec(kind=kind, noise=noise, seed=4), FuzzContext(), PROPERTIES[name]
        report = fuzz_campaign(name, spec, 60, ctx)
        want = []
        for index in range(60):
            (a,) = prop.make_inputs(random.Random(_mix(spec.seed, index)), spec, ctx)
            if replay_counterexample(name, (a,), ctx) is not None:
                defect = classify_balance(a, ctx.tol).max_defect
                assert spectral2.estimate_spectrum2(a, ctx.tol).defect.hex() == defect.hex()
                want.append(defect.hex())
        assert len(want) >= 20
        assert [d.hex() for d, _ in report.defect_error_pairs] == want
        assert (noise == 0.0) == all(d == 0.0 for d, _ in report.defect_error_pairs)
