import dataclasses
import math
import random

import pytest

import oracles
from balmat import _kernels, spectral2
from balmat.balance import balance_defect, classify_balance
from balmat.core import (
    DEFAULT_TOL,
    CheckRecord,
    Matrix,
    TolerancePolicy,
    constant_matrix,
    identity,
    matrix_from_rows,
)
from balmat.errors import ConfigurationError, HypothesisError, UnsupportedDimensionError
from balmat.genfuzz import (
    DEFECT_FLOOR,
    PROPERTIES,
    _KERNEL_MAX_N,
    FuzzContext,
    FuzzReport,
    GenSpec,
    _build_scaled_orthogonal,
    _gaussians,
    _generate_with,
    _householder_kernel,
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
    @pytest.mark.parametrize("n", ORTHOGONAL_DIMS)
    def test_random_orthogonal_matches_the_householder_oracle(self, n, pending):
        for seed in range(40):
            want_rng, got_rng = rng_pair(seed, pending)
            assert hexes(_scaled_orthogonal(got_rng, n, 1.0)) == hexes(flat(oracles.random_orthogonal(want_rng, n)))
            assert got_rng.getstate() == want_rng.getstate()

    @pytest.mark.parametrize("n", ORTHOGONAL_DIMS[1:])
    def test_random_orthogonal_with_zero_columns(self, n):
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
            got = hexes(_scaled_orthogonal(ScriptedRandom(script), n, 1.0))
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
            tol=TolerancePolicy(rtol=0.3, atol=1e-9),
        )
        assert rep.violations == 0
        assert len(rep.defect_error_pairs) > 0
        assert any(d > 0 for d, _ in rep.defect_error_pairs)

    def test_one_fair_row_campaign(self):
        rep = fuzz_campaign(
            "one_fair_row",
            GenSpec(kind="constant", n=4, seed=30),
            100,
            tol=TolerancePolicy(rtol=0.05, atol=1e-9),
            fair_eps=0.1,
            unfair_theta=1.0,
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
        rec = replay_counterexample("fairness_transfer", (m,), fair_eps=0.4)
        assert rec is not None and not rec.holds

    def test_counterexamples_capped(self):
        spec = GenSpec(kind="scaled_orthogonal", n=4, seed=33)
        rep = fuzz_campaign("interior_conjecture", spec, 150, max_counterexamples=10)
        assert len(rep.counterexamples) <= 10
        assert bool(rep.counterexamples) == (rep.violations > 0)

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
            tol=TolerancePolicy(rtol=0.2, atol=1e-9),
            fair_eps=0.1,
        )
        assert rep.passes + rep.not_applicable == 200

    def test_det_homomorphism_campaign(self):
        rep = fuzz_campaign(
            "det_homomorphism",
            GenSpec(kind="symmetric2", seed=38),
            200,
            tol=TolerancePolicy(rtol=0.2, atol=1e-9),
            fair_eps=0.1,
        )
        assert rep.violations == 0
        assert rep.passes > 0

    def test_det_homomorphism_n_campaign(self):
        rep = fuzz_campaign(
            "det_homomorphism_n",
            GenSpec(kind="constant", n=3, seed=39),
            100,
            tol=TolerancePolicy(rtol=0.2, atol=1e-9),
            fair_eps=0.1,
        )
        assert rep.passes > 0

    def test_edos_campaign_runs(self):
        rep = fuzz_campaign(
            "edos",
            GenSpec(kind="perturbed", n=4, noise=0.05, seed=40),
            100,
            tol=TolerancePolicy(rtol=0.25, atol=1e-9),
            fair_eps=0.1,
        )
        assert isinstance(rep, FuzzReport)
        assert rep.passes + rep.violations + rep.not_applicable == 100

    def test_interior_fair_corollary_campaign(self):
        rep = fuzz_campaign(
            "interior_fair_corollary",
            GenSpec(kind="constant", n=4, noise=0.01, seed=41),
            100,
            tol=TolerancePolicy(rtol=0.1, atol=1e-9),
            fair_eps=0.1,
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
            tol=TolerancePolicy(rtol=0.9, atol=1e-6),
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
                tol=TolerancePolicy(rtol=0.2, atol=1e-9),
            )
            assert rep.trials == 20

    def test_every_metrics_hook_is_none(self):
        # The benchmark's tracer reads `PropertyDef.metrics`; the field stays
        # until the benchmark stops reading it.
        assert all(prop.metrics is None for prop in PROPERTIES.values())


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
        # The check calls the estimator through the variant that also
        # returns its gate's balance report, for the defect of the pair.
        est = self.count_calls(monkeypatch, spectral2, "_estimate_and_report")
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
            tol=TolerancePolicy(rtol=0.1, atol=1e-9),
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
        ctx = FuzzContext(DEFAULT_TOL, 0.1, 1.0, 1e-10, min_dim)
        with pytest.raises(HypothesisError) as exc:
            PROPERTIES[name].check(inputs, ctx)
        assert exc.value.hypothesis == hypothesis
        assert replay_counterexample(name, inputs, min_dim=min_dim) is None

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
        report = fuzz_campaign(name, spec, trials, **kwargs)
        monkeypatch.undo()  # replay runs the registered check
        assert sum(na for _, _, na in outcomes) == report.not_applicable
        for index, (seen, ctx, not_applicable) in enumerate(outcomes):
            inputs = prop.make_inputs(random.Random(_mix(spec.seed, index)), spec, ctx)
            assert inputs == seen
            assert (replay_counterexample(name, inputs, **kwargs) is None) == not_applicable
