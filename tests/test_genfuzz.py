import dataclasses
import functools
import inspect
import itertools
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from balmat import _kernels, algebra, genfuzz, spectral2
from balmat.algebra import det_via_trail, rref_with_trail
from balmat.balance import balance_defect, classify_balance
from balmat.cli import _tolerance, build_parser
from balmat.core import (
    DEFAULT_TOL,
    GENERATOR_KINDS,
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
    MAX_DIMENSION,
    PROPERTIES,
    _KERNEL_MAX_N,
    FuzzContext,
    FuzzReport,
    GenSpec,
    _build_scaled_orthogonal,
    _gaussians,
    _generate_with,
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

    @pytest.mark.parametrize("n", [0, -1, MAX_DIMENSION + 1, 100_000, 10**10])
    def test_dimension_bound(self, n):
        with pytest.raises(ConfigurationError, match=f"dimension must be between 1 and {MAX_DIMENSION}, got {n}$"):
            GenSpec(kind="scaled_orthogonal", n=n)

    def test_bounds_are_inclusive(self):
        # Only built: a scaled_orthogonal draw at this n takes about a second.
        assert GenSpec(kind="scaled_orthogonal", n=MAX_DIMENSION).n == MAX_DIMENSION
        assert GenSpec(kind="constant", noise=sys.float_info.max / 2).noise == sys.float_info.max / 2

    @pytest.mark.parametrize("noise", [1e308, sys.float_info.max, 10**308])
    def test_noise_width_must_be_finite(self, noise):
        # rng.uniform(-noise, noise) overflows with 2*noise.
        with pytest.raises(ConfigurationError, match="noise must be at most 8.988465674311579e\\+307"):
            GenSpec(kind="constant", noise=noise)

    @pytest.mark.parametrize("high, noise", [(sys.float_info.max, 1e300), (10**308, 10**308)])
    def test_entry_high_plus_noise_must_be_finite(self, high, noise):
        with pytest.raises(ConfigurationError, match=r"entry_high \+ noise must be finite"):
            GenSpec(kind="constant", entry_high=high, noise=noise)

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

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_generated_matrix_equals_the_validated_one(self, kind, noise):
        # Generated entries skip Matrix.__post_init__, and come out as it
        # would have made them: the same tuple of floats.
        for n in (1, 2, 4, 5):
            if (kind == "symmetric2" and n != 2) or (kind == "hadamard_like" and n == 5):
                continue
            for seed in range(5):
                spec = GenSpec(kind=kind, n=n, noise=noise, seed=seed)
                entries = genfuzz._generate_entries(random.Random(_mix(seed, 0)), spec)
                m = generate(spec)
                assert type(m) is Matrix and m.__dict__ == Matrix(n, n, tuple(entries)).__dict__
                (mirrored,) = genfuzz._gen_abs_one(random.Random(_mix(seed, 0)), spec, FuzzContext())
                assert mirrored == Matrix(n, n, tuple(abs(v) for v in entries))

    def test_overflowing_generator_output_raises(self):
        # Noise of radius 1e308 around 1.7e308 would take some entries past
        # the float maximum, to inf: the spec names both settings.
        with pytest.raises(ConfigurationError, match=r"entry_high \+ noise must be finite, got 1\.7e\+308 \+ 1e\+308"):
            GenSpec(kind="constant", n=3, entry_low=1.7e308, entry_high=1.7e308, noise=1e308, seed=0)
        # Noise below half an ulp of the float maximum rounds away.
        top = sys.float_info.max
        for seed in range(5):
            m = generate(GenSpec(kind="constant", n=3, entry_low=top, entry_high=top, noise=1e291, seed=seed))
            assert all(math.isfinite(v) for v in m.entries)

    def test_an_overflowing_product_of_finite_entries_still_builds(self):
        m = generate(GenSpec(kind="constant", n=2, entry_low=1e200, entry_high=1e200, seed=0))
        assert m == Matrix(2, 2, (1e200,) * 4)

    @pytest.mark.parametrize("name", sorted(PROPERTIES))
    def test_input_makers_build_what_matrix_would(self, name):
        # Every input maker's matrices take `_generated_matrix`, which
        # trusts its entries to be floats: they must be what the validating
        # constructor makes of them.
        ctx = FuzzContext(unfair_theta=1)
        for spec in (GenSpec(kind="perturbed", n=2, noise=0.01, seed=3), GenSpec(kind="constant", n=3, seed=3)):
            for index in range(5):
                for m in PROPERTIES[name].make_inputs(random.Random(_mix(spec.seed, index)), spec, ctx):
                    want = Matrix(m.n_rows, m.n_cols, m.entries)
                    assert type(m.entries) is tuple and all(type(v) is float for v in m.entries)
                    assert [v.hex() for v in m.entries] == [v.hex() for v in want.entries]


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
    def test_each_dimension_compiles_once(self, householder_builds):
        def draw_every_dimension():
            for n in ORTHOGONAL_DIMS:
                _scaled_orthogonal(random.Random(n), n, 1.0)

        draw_every_dimension()
        built = list(householder_builds)
        # one source per n in 2.._KERNEL_MAX_N; n = 1 and larger n run no kernel
        assert len(built) <= _KERNEL_MAX_N - 1
        draw_every_dimension()
        assert householder_builds == built

    def test_larger_dimensions_run_the_loop(self, householder_builds):
        for n in (_KERNEL_MAX_N + 1, _KERNEL_MAX_N + 2):
            _scaled_orthogonal(random.Random(n), n, 1.0)
        assert householder_builds == []

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
        # Square sums 5, 5 and 2, 8 pass as balanced only at rtol 0.8. The
        # columns are constant, so fair at eps = 0.2, while the rows deviate
        # by 0.5, past the widened budget 0.4.
        m = matrix_from_rows([[1.0, 2.0], [1.0, 2.0]])
        ctx = FuzzContext(TolerancePolicy(rtol=0.8, atol=1e-9), fair_eps=0.2)
        rec = replay_counterexample("fairness_transfer", (m,), ctx)
        assert rec is not None and not rec.holds
        assert (rec.lhs, rec.rhs) == (0.5, 0.0)

    def test_transfer_holds_where_both_axes_sit_between_eps_and_twice_eps(self):
        # Both deviations are 0.5, in [eps, 2*eps) for eps = 0.4: neither
        # axis is fair at eps, both are at the widened budget.
        m = matrix_from_rows([[2.0, 1.0], [1.0, 2.0]])
        assert replay_counterexample("fairness_transfer", (m,), FuzzContext(fair_eps=0.4)).holds
        rep = fuzz_campaign("fairness_transfer", GenSpec(kind="symmetric2", seed=11), 3000)
        assert (rep.passes, rep.violations) == (3000, 0)

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
    @pytest.mark.parametrize("fair_eps", [math.inf, math.nan, 0.0, -1.0])
    def test_fair_eps_must_be_finite_and_positive(self, fair_eps):
        with pytest.raises(ConfigurationError, match=f"^fair_eps must be finite and positive, got {fair_eps}$"):
            FuzzContext(fair_eps=fair_eps)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_unfair_theta_must_be_finite(self, theta):
        with pytest.raises(ConfigurationError, match=f"^unfair_theta must be finite, got {theta}$"):
            FuzzContext(unfair_theta=theta)

    @pytest.mark.parametrize("pivot_tol", [0.0, -1.0, -math.inf, math.nan])
    def test_pivot_tol_must_be_positive(self, pivot_tol):
        with pytest.raises(ConfigurationError, match=f"^pivot_tol must be positive, got {pivot_tol}$"):
            FuzzContext(pivot_tol=pivot_tol)

    @pytest.mark.parametrize("tol", [None, (1e-6, 1e-9)])
    def test_tol_must_be_a_tolerance_policy(self, tol):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(f'tol must be a TolerancePolicy, got {tol!r}')}$"):
            FuzzContext(tol=tol)

    @pytest.mark.parametrize(
        "name, value",
        [("fair_eps", "0.1"), ("fair_eps", True), ("unfair_theta", None), ("unfair_theta", False), ("pivot_tol", "1")],
    )
    def test_numbers_must_be_ints_or_floats(self, name, value):
        with pytest.raises(ConfigurationError, match=f"^{name} must be an int or a float, got {value!r}$"):
            FuzzContext(**{name: value})

    @pytest.mark.parametrize("min_dim", [1, 0, -5, 2.0, True, "3"])
    def test_min_dim_must_be_an_integer_of_at_least_two(self, min_dim):
        with pytest.raises(ConfigurationError, match=f"^min_dim must be an integer of at least 2, got {min_dim!r}$"):
            FuzzContext(min_dim=min_dim)

    @pytest.mark.parametrize(
        "theta, low, high", [(1e307, 1.0, 100.0), (-1e308, 1.0, 1e308), (1.0, 9e307, 9e307)]
    )
    def test_one_fair_row_entries_past_the_float_range(self, theta, low, high):
        spec = GenSpec(kind="constant", n=3, entry_low=low, entry_high=high)
        with pytest.raises(ConfigurationError) as exc:
            fuzz_campaign("one_fair_row", spec, 1, FuzzContext(unfair_theta=theta))
        assert f"unfair_theta={theta}, entry_low={low}, entry_high={high}" in str(exc.value)

    @pytest.mark.parametrize(
        "n, low, high", [(4, 1.0, 1e155), (4, 1e300, 1e300), (3, 8e307, sys.float_info.max), (9, 1e300, 1e308)]
    )
    def test_one_fair_row_square_sums_that_overflow(self, n, low, high):
        # The row value is computed scaled, so the drawn matrix is finite;
        # its square sums overflow, so no trial is applicable.
        spec = GenSpec(kind="constant", n=n, entry_low=low, entry_high=high)
        for seed in range(5):
            (m,) = PROPERTIES["one_fair_row"].make_inputs(random.Random(seed), spec, FuzzContext())
            assert all(map(math.isfinite, m.entries))
        rep = fuzz_campaign("one_fair_row", spec, 5)
        assert (rep.not_applicable, rep.passes, rep.violations) == (5, 0, 0)

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
        balance = self.count_calls(monkeypatch, _kernels, "balance")
        rep = fuzz_campaign(name, GenSpec(kind="symmetric2", seed=5), 50)
        assert rep.passes + rep.violations == 50
        assert est[0] == exact[0] == 50
        assert balance[0] == 50
        assert len(rep.defect_error_pairs) == 50

    def test_one_matrix_per_generated_input(self, monkeypatch):
        built = self.count_calls(monkeypatch, genfuzz, "_generated_matrix")
        rep = fuzz_campaign("trace_entry", GenSpec(kind="perturbed", seed=6), 40)
        assert rep.trials == 40
        assert built[0] == 40

    def test_corollary_classifies_the_input_once(self, monkeypatch):
        # The blocks are checked from one table of run square sums: no
        # block is built as a Matrix or summed by `classify_balance`.
        built = self.count_calls(monkeypatch, genfuzz, "_generated_matrix")
        post_init = self.count_calls(monkeypatch, Matrix, "__post_init__")
        balance = self.count_calls(monkeypatch, _kernels, "balance")
        rep = fuzz_campaign(
            "interior_fair_corollary",
            GenSpec(kind="constant", n=6, noise=0.01, seed=48),
            10,
            FuzzContext(TolerancePolicy(rtol=0.1, atol=1e-9)),
        )
        assert rep.passes == 10
        assert built[0] == balance[0] == 10
        assert post_init[0] == 0

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

NEG2 = matrix_from_rows([[1, -1], [-1, 1]])  # balanced, not positive

#: The shape, sign and balance premises of the six public theorem checks,
#: and `one_fair_row_check`'s own, each failed by one input: (check,
#: arguments, the hypothesis it names). `test_spectral2` covers the other two
#: premises of `det_homomorphism_check`.
PUBLIC_PREMISES = [
    pytest.param(spectral2.trace_entry_check, (identity(3),), "not-2x2", id="trace-not-2x2"),
    pytest.param(spectral2.trace_entry_check, (NEG2,), "not-positive", id="trace-not-positive"),
    pytest.param(spectral2.trace_entry_check, (UNBAL2,), "not-balanced", id="trace-not-balanced"),
    pytest.param(spectral2.emax_additivity_check, (identity(3), BAL2), "not-2x2", id="emax-a-not-2x2"),
    pytest.param(spectral2.emax_additivity_check, (BAL2, identity(3)), "not-2x2", id="emax-b-not-2x2"),
    pytest.param(spectral2.emax_additivity_check, (NEG2, BAL2), "entries-below-1", id="emax-entries-below-1"),
    pytest.param(spectral2.emax_additivity_check, (BAL2, UNBAL2), "not-balanced", id="emax-not-balanced"),
    pytest.param(spectral2.det_homomorphism_check, (identity(3), BAL2), "not-2x2", id="homomorphism-a-not-2x2"),
    pytest.param(spectral2.det_homomorphism_check, (BAL2, identity(3)), "not-2x2", id="homomorphism-b-not-2x2"),
    pytest.param(spectral2.det_homomorphism_check, (NEG2, BAL2), "entries-below-1",
                 id="homomorphism-entries-below-1"),
    pytest.param(spectral2.det_homomorphism_check, (BAL2, UNBAL2), "not-balanced", id="homomorphism-not-balanced"),
    pytest.param(fairness_transfer_check, (NEG2,), "not-positive", id="transfer-not-positive"),
    pytest.param(fairness_transfer_check, (UNBAL2,), "not-balanced", id="transfer-not-balanced"),
    pytest.param(one_fair_row_check, (NEG2,), "not-positive", id="one_fair_row-not-positive"),
    pytest.param(one_fair_row_check, (UNBAL2,), "not-balanced", id="one_fair_row-not-balanced"),
    pytest.param(one_fair_row_check, (BAL2, DEFAULT_TOL, 0.6, 6.0), "not-one-fair-row",
                 id="one_fair_row-two-fair-rows"),
    pytest.param(fairness_propagation_check, (UNBAL2,), "not-balanced", id="propagation-not-balanced"),
]  # fmt: skip


class TestNotApplicable:
    """A trial is not applicable exactly when its check raises HypothesisError."""

    @pytest.mark.parametrize("check, args, hypothesis", PUBLIC_PREMISES)
    def test_public_checks_raise_the_failed_premise(self, check, args, hypothesis):
        # Never None and never DimensionError: one way to say "not applicable".
        with pytest.raises(HypothesisError) as exc:
            check(*args)
        assert exc.value.hypothesis == hypothesis

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


# ---------------------------------------------------------------------------
# Theorem audit: every theorem-grade property holds on the inputs it covers
# ---------------------------------------------------------------------------


def readme_grades():
    """{property: grade} from README's property table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return dict(re.findall(r"^\| `(\w+)` \| (\w+) \|", readme, re.MULTILINE))


THEOREMS = sorted(name for name, prop in PROPERTIES.items() if prop.grade == "theorem")

#: (spec, trials): every generator kind at n=2, and the kinds that build n=4.
AUDIT_GRID = [
    *(
        (GenSpec(kind=kind, n=2, noise=noise), 2000)
        for kind, noise in (
            ("constant", 0.0),
            ("symmetric2", 0.0),
            ("hadamard_like", 0.0),
            ("scaled_orthogonal", 0.0),
            ("perturbed", 0.0),
            ("perturbed", 1e-7),
        )
    ),
    *((GenSpec(kind=kind, n=4), 100) for kind in ("constant", "hadamard_like", "scaled_orthogonal", "perturbed")),
]

#: Theorems that no spec of the grid reaches past their premises: their
#: checks run, but on no trial.
UNPROBED = {"one_fair_row", "det_homomorphism"}


def test_readme_grades_every_property():
    assert readme_grades() == {name: prop.grade for name, prop in PROPERTIES.items()}
    assert {prop.grade for prop in PROPERTIES.values()} == {"theorem", "conjecture", "monitor"}
    assert len(THEOREMS) == 13


@pytest.mark.parametrize("name", THEOREMS)
def test_theorem_holds_on_the_audit_grid(name):
    applicable = violations = 0
    for spec, trials in AUDIT_GRID:
        report = fuzz_campaign(name, spec, trials)
        applicable += report.trials - report.not_applicable
        violations += report.violations
    assert violations == 0
    assert (applicable == 0) == (name in UNPROBED)


#: A real 2x2 [[a, b], [c, d]] is balanced iff |a| = |d| and |b| = |c|: the
#: four sign classes [[a, b], [+-b, +-a]], of which the generators build
#: only some.
SIGN_CLASSES = [(sb, sa) for sb in (1.0, -1.0) for sa in (1.0, -1.0)]


@pytest.mark.parametrize("name", ["closure_inverse", "closure_transpose", "closure_scale", "det_nonzero"])
@pytest.mark.parametrize("sb, sa", SIGN_CLASSES)
def test_sign_agnostic_theorems_hold_on_every_sign_class(name, sb, sa):
    rng = random.Random(f"{name} {sb} {sa}")
    applicable = 0
    for _ in range(200):
        a, b = (rng.choice((1.0, -1.0)) * rng.uniform(1.0, 100.0) for _ in range(2))
        m = Matrix(2, 2, (a, b, sb * b, sa * a))
        lam = Matrix(1, 1, (rng.choice((1.0, -1.0)) * rng.uniform(1.0, 3.0),))
        inputs = (m, lam) if name == "closure_scale" else (m,)
        record = replay_counterexample(name, inputs)
        if record is not None:
            applicable += 1
            assert record.holds, (m, record)
    assert applicable > 0


@pytest.mark.parametrize(
    "m, rank",
    [
        pytest.param(matrix_from_rows([[1, 2, 1, 2], [1, 2, 1, 2], [2, 1, 2, 1], [2, 1, 2, 1]]), 2, id="repeated-rows"),
        # The circulant circ(1, 2, 2, 1): its determinant is the product
        # of f(w) = 1 + 2w + 2w^2 + w^3 over the 4th roots of unity w, and
        # f(-1) = 0 is the only zero.
        pytest.param(matrix_from_rows([[1, 2, 2, 1], [1, 1, 2, 2], [2, 1, 1, 2], [2, 2, 1, 1]]), 3, id="circ-1-2-2-1"),
        pytest.param(matrix_from_rows([[-1, -1, 0], [-1, 0, -1], [0, -1, 1]]), 2, id="signed-3x3"),
    ],
)
def test_det_nonzero_is_false_from_n_3(m, rank):
    # Exactly balanced, moduli not all equal, and singular: det_nonzero
    # holds only for 2x2, and is graded a conjecture.
    report = classify_balance(m)
    assert (report.horizontal_defect, report.vertical_defect, report.fully_balanced) == (0.0, 0.0, True)
    assert rref_with_trail(m).rank == rank
    assert det_via_trail(m) == 0.0
    assert not replay_counterexample("det_nonzero", (m,)).holds
    assert PROPERTIES["det_nonzero"].grade == "conjecture"


# ---------------------------------------------------------------------------
# Exact audit: theorems replayed on exactly balanced integer inputs
# ---------------------------------------------------------------------------


def circulant(v):
    """circ(v): row i is v shifted right i places, so every line is a cyclic shift of v."""
    n = len(v)
    return [[v[(j - i) % n] for j in range(n)] for i in range(n)]


def cayley(s):
    """The integer P with P/d = (I - S)(I + S)^-1 and d the least common denominator.

    For skew-symmetric S the quotient is orthogonal, so P Pᵀ = d² I and every
    row and column square sum of P is d². (I + S)^-1 commutes with I - S, so
    the quotient solves (I + S) Q = I - S, one exact elimination.
    """
    n = len(s)
    aug = [[Fraction((i == j) + s[i][j]) for j in range(n)] + [Fraction((i == j) - s[i][j]) for j in range(n)]
           for i in range(n)]  # fmt: skip
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [v / lead for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    q = [row[n:] for row in aug]
    d = math.lcm(*(v.denominator for row in q for v in row))
    return [[int(v * d) for v in row] for row in q]


@functools.cache
def exact_inputs():
    """Ten circulants, ten Cayley P and their ten |P| at each n = 3..8: 180 matrices."""
    rng = random.Random("exact balanced inputs")
    found = []
    for n in range(3, 9):
        for _ in range(10):
            found.append(matrix_from_rows(circulant([rng.randint(1, 6) for _ in range(n)])))
        for _ in range(10):
            s = [[0] * n for _ in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                s[i][j] = rng.randint(-2, 2)
                s[j][i] = -s[i][j]
            p = cayley(s)
            found += [matrix_from_rows(p), matrix_from_rows([[abs(v) for v in row] for row in p])]
    return found


def test_exact_inputs_are_exactly_balanced():
    assert len(exact_inputs()) == 180
    for m in exact_inputs():
        report = classify_balance(m)
        assert (report.horizontal_defect, report.vertical_defect, report.fully_balanced) == (0.0, 0.0, True), m


#: Applicable trials of each one-input theorem on the 180 exact inputs, so the
#: audit states what it does not probe. A non-constant integer line sits at
#: least 0.5 from its mean, so only a constant line is fair at 0.1: one |P|
#: has a constant row (the one `one_fair_row` probe), and no input has every
#: row or every column fair, which the corollary needs. `fairness_transfer`
#: needs positive entries: all 60 circulants and 42 of the 60 |P| have them,
#: and no signed P does.
EXACT_APPLICABLE = {
    "closure_transpose": 180,
    "closure_scale": 180,
    "fairness_transfer": 102,
    "one_fair_row": 1,
    "interior_fair_corollary": 0,
}


@pytest.mark.parametrize("name", sorted(EXACT_APPLICABLE))
def test_theorem_holds_on_exact_inputs(name):
    applicable = 0
    for m in exact_inputs():
        inputs = (m, Matrix(1, 1, (2.0,))) if name == "closure_scale" else (m,)
        record = replay_counterexample(name, inputs)
        if record is not None:
            applicable += 1
            assert record.holds, (m, record)
    assert applicable == EXACT_APPLICABLE[name]


def test_det_homomorphism_holds_on_a_constant_and_a_fair_symmetric_2x2():
    # A = t * ones has eigenvalue 0; B = [[x, y], [y, x]] is exactly balanced,
    # and fair at 0.1 since |x - y| < 0.2. No generated spec reaches these premises.
    rng = random.Random("det_homomorphism exact")
    for _ in range(2000):
        t, x = rng.uniform(1.0, 100.0), rng.uniform(2.0, 100.0)
        y = x + rng.uniform(-0.19, 0.19)
        record = replay_counterexample("det_homomorphism", (constant_matrix(2, 2, t), Matrix(2, 2, (x, y, y, x))))
        assert record is not None and record.holds, (t, x, y, record)
