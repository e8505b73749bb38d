"""Discrete argmax-reset chains, continuous error accumulation, retention curve."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from certlab import cat_bulk, dynamics
from certlab.errors import InvalidInputError
from certlab.experiments import EXPERIMENTS, binomial_tail
from certlab.seeding import rng_for


def one_shot_noise(l_star, scale, rng, count, sub_decisional):
    """Reference draw: the kernel's noise as one ``(count, B)`` draw, uniform on
    ``[-scale/2, scale/2)`` for sub-decisional rows and N(0, scale^2) otherwise."""
    shape = (count, len(l_star))
    return rng.uniform(-scale / 2, scale / 2, shape) if sub_decisional else rng.normal(0.0, scale, shape)


class TestNoisyArgmaxCounts:
    def test_zero_scale_keeps_every_row_at_the_argmax(self):
        sizes = dynamics.noisy_argmax_counts([3.0, 1.0, 0.0], 0.0, rng_for(0, "x"), 5)
        assert sizes.tolist() == [5, 0, 0]

    def test_ties_go_to_the_lowest_index(self):
        # zero noise leaves 0 and 2 tied on top: an unconstrained draw counts index 0
        sizes = dynamics.noisy_argmax_counts([1.0, 0.0, 1.0], 0.0, rng_for(0, "x"), 4, sub_decisional=False)
        assert sizes.tolist() == [4, 0, 0]

    def test_every_row_keeps_the_argmax_just_below_the_gap(self):
        logits = np.array([0.0, 2.0, 1.0, 0.5])  # top-two gap 1
        sizes = dynamics.noisy_argmax_counts(logits, 1.0 - 1e-9, rng_for(1, "noise"), 2000)
        assert sizes.tolist() == [0, 2000, 0, 0]

    @pytest.mark.parametrize("sub_decisional", [True, False])
    def test_input_checks(self, sub_decisional):
        with pytest.raises(InvalidInputError):
            dynamics.noisy_argmax_counts([1.0, 0.0], -0.1, rng_for(0, "x"), 1, sub_decisional)

    @pytest.mark.parametrize(
        "logits, scale",
        [([1.0, 1.0, 0.0], 0.1), ([1.0, 1.0, 0.0], 0.0), ([2.0, 1.0, 0.0], 1.0), ([2.0, 1.0, 0.0], 5.0)],
        ids=["tie", "tie-at-zero-scale", "scale-at-the-gap", "scale-over-the-gap"],
    )
    def test_sub_decisional_scale_must_be_below_the_top_two_gap(self, logits, scale):
        with pytest.raises(InvalidInputError, match="must be below the top-two gap"):
            dynamics.noisy_argmax_counts(logits, scale, rng_for(0, "x"), 1)


ZERO_DIVERGENCE = "sub-decisional noise: zero final-token divergences across all specs"
TIGHTNESS = "sub-decisional bound is tight: a gap change just over the margin flips the argmax"


class TestNoiseDiscreteGate:
    @pytest.fixture(autouse=True)
    def _small_run(self, small_constants):
        small_constants(DISCRETE_TRIALS=200, CONTRAST_TRIALS=200)

    def test_listed_once_and_passing(self):
        result = EXPERIMENTS["noise-discrete"].runner(0, {})
        for name in (ZERO_DIVERGENCE, TIGHTNESS):
            listed = [check for check in result.checks if check.name == name]
            assert len(listed) == 1 and listed[0].passed
        assert result.all_passed

    def test_tenfold_bounded_noise_fails_it(self, mutate_streams):
        # noise ten times the bound moves gaps by up to twice the margin, so
        # some trials leave the clean chain: the gate is a theorem that can fail
        mutate_streams(dynamics, "uniform", lambda rng, low, high, size: 10.0 * rng.uniform(low, high, size))
        result = EXPERIMENTS["noise-discrete"].runner(0, {})
        failed = [check for check in result.checks if not check.passed]
        assert [check.name for check in failed] == [ZERO_DIVERGENCE]
        assert failed[0].detail == "5/5 rows over the limit, worst spec 4 (138 divergences) (excess 1.380e+02)"

    def test_a_contrast_run_without_divergences_fails_the_perturbation_check(self, monkeypatch):
        simulate = dynamics.simulate_discrete_chain
        monkeypatch.setattr(
            dynamics, "simulate_discrete_chain",
            lambda spec, trials, seed: simulate(spec, trials, seed) if spec.sub_decisional_only else 0,
        )
        failed = [c for c in EXPERIMENTS["noise-discrete"].runner(0, {}).checks if not c.passed]
        assert [c.name for c in failed] == ["unconstrained large noise does perturb the final token"]
        assert failed[0].detail == "1/1 rows over the limit, worst 0/200 divergences, need > 0 (excess 4.941e-324)"


class TestPrefixLogits:
    SPEC = dynamics.DiscreteChainSpec(steps=6, n_options=5, noise_scale=0.2, logit_seed=9)

    def test_deterministic(self):
        a = dynamics.prefix_logits(self.SPEC, (1, 2))
        b = dynamics.prefix_logits(self.SPEC, (1, 2))
        np.testing.assert_array_equal(a, b)

    def test_prefix_sensitivity(self):
        a = dynamics.prefix_logits(self.SPEC, (1, 2))
        b = dynamics.prefix_logits(self.SPEC, (2, 1))
        assert np.abs(a - b).max() > 1e-6

    def test_margin_floor_enforced(self):
        # exactly: a sub-decisional scale just below MIN_MARGIN must be below every gap
        for logit_seed in range(300):
            spec = dataclasses.replace(self.SPEC, logit_seed=logit_seed)
            for prefix in [(), (0,), (1, 3), (4, 4, 4)]:
                logits = dynamics.prefix_logits(spec, prefix)
                top_two = np.partition(logits, logits.size - 2)[-2:]
                assert top_two[1] - top_two[0] >= dynamics.MIN_MARGIN


class TestDiscreteChain:
    def test_zero_noise_never_diverges(self):
        spec = dynamics.DiscreteChainSpec(steps=6, n_options=5, noise_scale=0.0, logit_seed=1)
        assert dynamics.simulate_discrete_chain(spec, 2000, seed=0) == 0

    def test_sub_decisional_noise_never_diverges(self):
        spec = dynamics.DiscreteChainSpec(steps=6, n_options=5, noise_scale=0.2, logit_seed=1)
        assert dynamics.simulate_discrete_chain(spec, 5000, seed=0) == 0

    @pytest.mark.parametrize("scale, min_margin", [(1.0, 1.0), (5.0, 1.0), (0.5, 0.25)])
    def test_sub_decisional_scale_must_be_below_min_margin(self, monkeypatch, scale, min_margin):
        monkeypatch.setattr(dynamics, "MIN_MARGIN", min_margin)
        with pytest.raises(InvalidInputError, match="sub-decisional noise scale must be below MIN_MARGIN"):
            dynamics.DiscreteChainSpec(steps=2, n_options=3, noise_scale=scale)
        # the bound is on sub-decisional noise only: a Gaussian sigma may exceed the margin
        dynamics.DiscreteChainSpec(steps=2, n_options=3, noise_scale=scale, sub_decisional_only=False)

    def test_unconstrained_large_noise_diverges(self):
        spec = dynamics.DiscreteChainSpec(
            steps=6, n_options=5, noise_scale=5.0, sub_decisional_only=False, logit_seed=1
        )
        assert dynamics.simulate_discrete_chain(spec, 2000, seed=0) > 0

    def test_deterministic_given_seed(self):
        spec = dynamics.DiscreteChainSpec(
            steps=5, n_options=4, noise_scale=3.0, sub_decisional_only=False, logit_seed=2
        )
        a = dynamics.simulate_discrete_chain(spec, 3000, seed=11)
        b = dynamics.simulate_discrete_chain(spec, 3000, seed=11)
        assert a == b

    @pytest.mark.parametrize(
        "steps, options, scale, logit_seed, trials, seed, expected",
        [(5, 4, 3.0, 11, 5000, 7, 3713), (7, 3, 1.5, 12, 3000, 8, 1857)],
    )
    def test_unconstrained_counts_are_pinned(self, steps, options, scale, logit_seed, trials, seed, expected):
        # group order, ranks and streams fix every count, so a walk that keeps
        # them keeps these
        spec = dynamics.DiscreteChainSpec(
            steps=steps, n_options=options, noise_scale=scale, sub_decisional_only=False, logit_seed=logit_seed
        )
        assert dynamics.simulate_discrete_chain(spec, trials, seed) == expected


class TestStreamedDiscreteChain:
    LOGITS = np.array([0.5, 0.0, -0.3])

    # the top-two gap is 0.5: a sub-decisional scale must stay below it
    @pytest.mark.parametrize(
        "scale, sub_decisional", [(0.15, True), (0.45, True), (0.15, False), (5.0, False)]
    )
    def test_counts_equal_the_one_shot_draw(self, scale, sub_decisional):
        count = 3 * cat_bulk.block_rows(3) + 17  # three full blocks and a ragged one
        streamed, fresh = rng_for(4, "group"), rng_for(4, "group")
        sizes = dynamics.noisy_argmax_counts(self.LOGITS, scale, streamed, count, sub_decisional)
        noise = one_shot_noise(self.LOGITS, scale, fresh, count, sub_decisional)
        assert sizes.tolist() == np.bincount(np.argmax(self.LOGITS + noise, axis=1), minlength=3).tolist()
        # both consumed the same variates from the stream
        assert streamed.bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize(
        "sub_decisional_only, options, scale, trials",
        [
            (True, 4, 0.2, 50_000),
            (False, 4, 0.2, 50_000),
            # the largest sub-decisional scale, at five options
            (True, 5, 0.99, 20_000),
        ],
    )
    def test_memory_does_not_grow_with_trials(self, sub_decisional_only, options, scale, trials):
        spec = dynamics.DiscreteChainSpec(
            steps=2, n_options=options, noise_scale=scale, sub_decisional_only=sub_decisional_only, logit_seed=3
        )

        def traced_peak(trials):
            tracemalloc.start()
            try:
                dynamics.simulate_discrete_chain(spec, trials, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(trials)  # warm-up
        # a one-shot draw of 4 options would hold 1.6 MB of noise at 50,000 trials and 6.4 MB at 200,000
        assert traced_peak(4 * trials) <= traced_peak(trials) + 2**20


MONTE_CARLO_GATE = "Monte Carlo within 3 standard errors of the closed form at every cell"


class TestMonteCarloGate:
    @pytest.fixture(autouse=True)
    def _small_run(self, small_constants):
        small_constants(DIMS=(1, 8), STEPS_VALUES=(1, 6), ERROR_TRIALS=1000)

    def _gate(self):
        result = EXPERIMENTS["error-accumulation"].runner(0, {})
        (check,) = [c for c in result.checks if c.name == MONTE_CARLO_GATE]
        return check

    def test_fails_when_the_map_contracts_too_little(self, monkeypatch):
        assert self._gate().passed
        exact = dynamics.monte_carlo_error

        def mutant(config, trials, seed):
            return exact(dataclasses.replace(config, lipschitz=config.lipschitz * (0.81 / 0.8)), trials, seed)

        monkeypatch.setattr(dynamics, "monte_carlo_error", mutant)
        check = self._gate()
        assert not check.passed
        assert check.detail == (
            "2/12 rows over the limit, worst L=1.2 d=8 M=6: |1.566602e+00 - 1.439291e+00| vs 3*2.46e-02 "
            "(excess 5.340e-02); worst pull 5.17 sigma; "
            "nominal false-alarm rate 0.27% per row, 3.2% over 12 rows"
        )


LAW_GATE = "Monte Carlo error variance within 3 standard errors of the chi-squared law at every cell"


UNIT_VARIANCE_LAWS = {
    "laplace": lambda rng, shape: rng.laplace(0.0, math.sqrt(0.5), shape),
    "rademacher": lambda rng, shape: 2.0 * rng.integers(0, 2, shape) - 1.0,
}


class TestLawGate:
    @pytest.fixture(autouse=True)
    def _small_run(self, small_constants):
        small_constants(DIMS=(1, 8), STEPS_VALUES=(1, 6), ERROR_TRIALS=1000)

    def _failed(self):
        result = EXPERIMENTS["error-accumulation"].runner(0, {})
        return {c.name: c.detail for c in result.checks if not c.passed}

    def test_exact_kernel_passes(self):
        assert self._failed() == {}

    @pytest.mark.parametrize(
        "law, detail",
        [
            ("laplace", "9/12 rows over the limit, worst L=1.2 d=8 M=6: |6.720384e-01 - 5.178896e-01| vs 3*3.06e-02 "
             "(excess 6.223e-02); worst pull 25.61 sigma; "
             "nominal false-alarm rate 0.27% per row, 3.2% over 12 rows"),
            ("rademacher", "9/12 rows over the limit, worst L=1.2 d=8 M=6: |3.970389e-01 - 5.178896e-01| vs 3*3.06e-02 "
             "(excess 2.893e-02); worst pull 16.90 sigma; "
             "nominal false-alarm rate 0.27% per row, 3.2% over 12 rows"),
        ],
    )
    def test_fails_on_another_unit_variance_law(self, mutate_streams, law, detail):
        mutate_streams(dynamics, "standard_normal", UNIT_VARIANCE_LAWS[law])
        failed = self._failed()
        assert failed[LAW_GATE] == detail
        if law == "laplace":  # the mean gate sees only E|E_M|^2, which any unit-variance law reproduces
            assert list(failed) == [LAW_GATE]


BINOMIAL_GATE = "empirical retention within binomial 3-sigma of the analytic curve everywhere"


class TestBinomialGate:
    def _gate(self, seed=0):
        result = EXPERIMENTS["accuracy-sweep"].runner(seed, {})
        (check,) = [c for c in result.checks if c.name == BINOMIAL_GATE]
        return check

    def test_one_miss_at_a_near_sure_rate_passes(self):
        # at sigma = 0.1 the rate is Phi(5): 10**5 trials expect 0.029 misses, and
        # seed 24 draws one, a 5.74-sigma pull under the normal approximation
        check = self._gate(24)
        assert check.passed
        assert "worst sigma=0.1: 99999/100000 at rate 9.999997e-01, tail 2.826e-02" in check.detail

    @pytest.mark.parametrize("n, p", [(10, 0.3), (25, 0.5), (40, 0.97), (7, 0.01), (6, 1.0)])
    def test_binomial_tail_is_the_exact_sum(self, n, p):
        terms = [math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)]
        for k in range(n + 1):
            expected = math.fsum(terms[: k + 1] if k < n * p else terms[k:])
            assert abs(binomial_tail(k, n, p) - expected) <= 1e-13 * expected + 1e-300

    def test_fails_when_the_noise_is_five_percent_wider(self, mutate_streams):
        assert self._gate().passed
        mutate_streams(dynamics, "normal", lambda rng, loc, scale, size: rng.normal(loc, 1.05 * scale, size))
        check = self._gate()
        assert not check.passed
        assert check.detail == (
            "5/10 rows over the limit, worst sigma=0.3: 94270/100000 at rate 9.522096e-01, tail 6.521e-43 "
            "(excess 1.350e-03); tail limit 1.350e-03; nominal false-alarm rate 0.27% per row, 2.7% over 10 rows"
        )


class TestClosedForm:
    def test_unit_lipschitz_branch(self):
        config = dynamics.LatentConfig(dim=8, steps=6, lipschitz=1.0, sigma_h=0.1)
        assert abs(dynamics.expected_error_closed_form(config) - 0.48) <= 1e-15

    def test_contractive_value(self):
        config = dynamics.LatentConfig(dim=8, steps=6, lipschitz=0.8, sigma_h=0.1)
        expected = (1.0 - 0.8**12) / (1.0 - 0.64) * 0.08
        assert abs(dynamics.expected_error_closed_form(config) - expected) <= 1e-15

    def test_geometric_limit(self):
        config = dynamics.LatentConfig(dim=1, steps=500, lipschitz=0.8, sigma_h=1.0)
        assert abs(dynamics.expected_error_closed_form(config) - 1.0 / 0.36) <= 1e-9

    def test_branch_boundary_uses_linear_growth(self):
        config = dynamics.LatentConfig(dim=2, steps=9, lipschitz=1.0 + 1e-10, sigma_h=1.0)
        assert dynamics.expected_error_closed_form(config) == 18.0


class TestMonteCarloError:
    def test_zero_noise(self):
        config = dynamics.LatentConfig(dim=4, steps=5, lipschitz=1.1, sigma_h=0.0)
        assert dynamics.monte_carlo_error(config, 500, seed=0) == (0.0, 0.0)

    def test_single_step_mean(self):
        config = dynamics.LatentConfig(dim=8, steps=1, lipschitz=2.0, sigma_h=0.1)
        mean, se = dynamics.monte_carlo_error(config, 30_000, seed=1)
        assert abs(mean - 0.08) <= 3.0 * se

    @pytest.mark.parametrize("lipschitz", [0.8, 1.0, 1.2])
    def test_matches_closed_form(self, lipschitz):
        config = dynamics.LatentConfig(dim=8, steps=6, lipschitz=lipschitz, sigma_h=0.1)
        closed = dynamics.expected_error_closed_form(config)
        mean, se = dynamics.monte_carlo_error(config, 30_000, seed=3)
        assert abs(mean - closed) <= 3.0 * se

    def test_requires_minimum_trials(self):
        config = dynamics.LatentConfig(dim=2, steps=2, lipschitz=1.0, sigma_h=0.1)
        with pytest.raises(InvalidInputError):
            dynamics.monte_carlo_error(config, 50, seed=0)

    def test_deterministic_given_seed(self):
        config = dynamics.LatentConfig(dim=3, steps=4, lipschitz=1.0, sigma_h=0.2)
        assert dynamics.monte_carlo_error(config, 5000, seed=9) == dynamics.monte_carlo_error(
            config, 5000, seed=9
        )


class TestRotatedChain:
    """The chain's map is ``L I`` because isotropic noise makes every map of
    norm L that is ``L`` times an orthogonal ``R`` give the same error law:
    ``R^j eps ~ eps``.  A test-local chain under ``L R`` must meet the same
    closed form."""

    @staticmethod
    def _rotation(dim, seed):
        q, r = np.linalg.qr(rng_for(seed, "rotation", dim).standard_normal((dim, dim)))
        return q * np.sign(np.diag(r))

    def test_rotation_is_orthogonal_with_unit_norm(self):
        q = self._rotation(5, 1)
        np.testing.assert_allclose(q @ q.T, np.eye(5), atol=1e-12)
        assert abs(np.linalg.svd(1.3 * q, compute_uv=False)[0] - 1.3) <= 1e-12

    @pytest.mark.parametrize("lipschitz", [0.8, 1.0, 1.2])
    def test_rotated_chain_matches_the_scalar_closed_form(self, lipschitz):
        config = dynamics.LatentConfig(dim=8, steps=6, lipschitz=lipschitz, sigma_h=0.1)
        matrix = lipschitz * self._rotation(config.dim, 3)
        rng = rng_for(3, "rotated-chain")
        err = np.zeros((30_000, config.dim))
        for _ in range(config.steps):
            err = err @ matrix.T + config.sigma_h * rng.standard_normal(err.shape)
        final_sq = np.sum(err * err, axis=1)
        se = float(final_sq.std(ddof=1)) / math.sqrt(len(final_sq))
        assert abs(float(final_sq.mean()) - dynamics.expected_error_closed_form(config)) <= 3.0 * se


def _reference_monte_carlo_error(config, trials, seed):
    """The error Monte Carlo with a fresh ``(size, dim)`` state per block and one draw per step."""
    sums, sq_sums = [], []
    done = 0
    block_index = 0
    while done < trials:
        size = min(dynamics.MC_BLOCK, trials - done)
        rng = rng_for(seed, "mc-block", block_index)
        err = np.zeros((size, config.dim))
        for _ in range(config.steps):
            err *= config.lipschitz
            err += config.sigma_h * rng.standard_normal((size, config.dim))
        final_sq = np.sum(err * err, axis=1)
        sums.append(float(final_sq.sum()))
        sq_sums.append(float(np.sum(final_sq * final_sq)))
        done += size
        block_index += 1
    mean = math.fsum(sums) / trials
    variance = max(0.0, (math.fsum(sq_sums) - trials * mean * mean) / (trials - 1))
    return mean, math.sqrt(variance / trials)


def _allocating_monte_carlo_error(config, trials, seed):
    """The error Monte Carlo that allocates each chunk's draw, its scaled copy and its squares."""
    state = np.empty((min(dynamics.MC_BLOCK, trials), config.dim))
    final_sq = np.empty(len(state))
    chunk = cat_bulk.block_rows(config.dim)
    sums, sq_sums = [], []
    done = 0
    block_index = 0
    while done < trials:
        size = min(dynamics.MC_BLOCK, trials - done)
        rng = rng_for(seed, "mc-block", block_index)
        err = state[:size]
        err.fill(0.0)
        for _ in range(config.steps):
            err *= config.lipschitz
            for start in range(0, size, chunk):
                rows = err[start:start + chunk]
                rows += config.sigma_h * rng.standard_normal(rows.shape)
        block_sq = final_sq[:size]
        for start in range(0, size, chunk):
            rows = err[start:start + chunk]
            block_sq[start:start + chunk] = np.sum(rows * rows, axis=1)
        sums.append(float(block_sq.sum()))
        sq_sums.append(float(np.sum(block_sq * block_sq)))
        done += size
        block_index += 1
    mean = math.fsum(sums) / trials
    variance = max(0.0, (math.fsum(sq_sums) - trials * mean * mean) / (trials - 1))
    return mean, math.sqrt(variance / trials)


class TestStreamedMonteCarloError:
    @pytest.mark.parametrize("reference", [_reference_monte_carlo_error, _allocating_monte_carlo_error])
    @pytest.mark.parametrize("trials", [100, 8193, 20_000])  # one short block, a one-row block, a ragged block
    @pytest.mark.parametrize("dim", [1, 3, 64, 200])  # 200 rows a chunk fall short of MC_BLOCK, one does not
    def test_equals_the_reference_bit_for_bit(self, trials, dim, reference):
        config = dynamics.LatentConfig(dim=dim, steps=3, lipschitz=1.1, sigma_h=0.3)
        assert dynamics.monte_carlo_error(config, trials, seed=6) == reference(config, trials, 6)

    @pytest.mark.parametrize("trials", [100, 8193, 20_000])
    @pytest.mark.parametrize("dim", [1, 3, 64, 200])
    def test_small_chunks_equal_the_reference_bit_for_bit(self, monkeypatch, trials, dim):
        # 7 cells a block: chunks of 7, 2 or 1 rows, a ragged last chunk, and one row wider than the block
        monkeypatch.setattr(cat_bulk, "STACK_CELLS", 7)
        config = dynamics.LatentConfig(dim=dim, steps=3, lipschitz=1.1, sigma_h=0.3)
        assert dynamics.monte_carlo_error(config, trials, seed=6) == _reference_monte_carlo_error(config, trials, 6)

    def test_memory_does_not_grow_with_trials(self):
        config = dynamics.LatentConfig(dim=64, steps=2, lipschitz=1.0, sigma_h=0.1)

        def traced_peak(trials):
            tracemalloc.start()
            try:
                dynamics.monte_carlo_error(config, trials, seed=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(dynamics.MC_BLOCK)  # warm-up
        peak = traced_peak(4 * dynamics.MC_BLOCK)
        assert peak <= traced_peak(dynamics.MC_BLOCK) + 2**20
        # one reused 4 MiB state and a chunk's draw; a fresh state per block held two states at once
        assert peak <= dynamics.MC_BLOCK * config.dim * 8 + 2**20


# The quadrature oracle's lower limit and its (even) number of Simpson intervals.
SIMPSON_LOWER = -10.0
SIMPSON_INTERVALS = 20_000


def _simpson_normal_cdf(z):
    """Composite-Simpson integral of the standard normal density from SIMPSON_LOWER up to z:
    a quadrature oracle independent of the erf-based ``normal_cdf``."""
    if z <= SIMPSON_LOWER:
        return 0.0
    xs = np.linspace(SIMPSON_LOWER, z, SIMPSON_INTERVALS + 1)
    ys = np.exp(-xs * xs / 2.0) / math.sqrt(2.0 * math.pi)
    h = (z - SIMPSON_LOWER) / SIMPSON_INTERVALS
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()))


class TestAccuracyCurve:
    @pytest.mark.parametrize("z", [-2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0])
    def test_normal_cdf_matches_the_quadrature_oracle(self, z):
        assert abs(dynamics.normal_cdf(z) - _simpson_normal_cdf(z)) <= 1e-9

    def test_normal_cdf_reference_points(self):
        assert dynamics.normal_cdf(0.0) == 0.5
        assert abs(dynamics.normal_cdf(1.0) - 0.8413447460685429) <= 1e-12
        for z in (-3.0, -1.0, 0.3, 2.5):
            assert abs(dynamics.normal_cdf(z) + dynamics.normal_cdf(-z) - 1.0) <= 1e-15

    def test_curve_monotone_with_limits(self):
        curve = dynamics.accuracy_curve(2.0, 4.0, np.geomspace(1e-4, 1e5, 30))
        values = [a for _, a in curve]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] >= 1.0 - 1e-12
        assert abs(values[-1] - 0.5) <= 1e-3

    def test_unit_argument_hits_phi_one(self):
        (_, value), = dynamics.accuracy_curve(2.0, 4.0, (1.0,))
        assert abs(value - 0.8413447460685429) <= 1e-12

    def test_grid_validation(self):
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            dynamics.accuracy_curve(1.0, 1.0, (0.2, 0.1))
        with pytest.raises(InvalidInputError, match="non-empty and positive"):
            dynamics.accuracy_curve(1.0, 1.0, (0.0, 0.1))
        with pytest.raises(InvalidInputError, match="non-empty and positive"):
            dynamics.accuracy_curve(1.0, 1.0, ())
        with pytest.raises(InvalidInputError, match="must be positive"):
            dynamics.accuracy_curve(-1.0, 1.0, (0.1,))
        with pytest.raises(InvalidInputError, match="must be positive"):
            dynamics.accuracy_curve(1.0, 0.0, (0.1,))

    def test_empirical_sweep_matches_curve(self, monkeypatch):
        monkeypatch.setattr(dynamics, "SIGMA_GRID", (0.2, 0.5, 1.0, 2.0, 5.0))
        rows = dynamics.empirical_accuracy_sweep(dim=16, trials=30_000, seed=5)
        assert [sigma for sigma, *_ in rows] == [0.2, 0.5, 1.0, 2.0, 5.0]
        for _, analytic, empirical, _ in rows:
            band = 3.0 * math.sqrt(analytic * (1.0 - analytic) / 30_000)
            assert abs(empirical - analytic) <= band


def _one_shot_retention(dim, margin, sigma_grid, trials, seed):
    """Each sigma's retention from one ``(trials, dim)`` draw, as the sweep measured it before it streamed."""
    row_diff = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    return [
        float(np.mean(rng_for(seed, "accuracy", idx).normal(0.0, sigma, (trials, dim)) @ row_diff < margin))
        for idx, sigma in enumerate(sigma_grid)
    ]


class TestStreamedAccuracySweep:
    @pytest.mark.parametrize(
        "dim, trials, stack_cells",
        [
            (16, 10_001, None),  # blocks of 4,096 rows: two full blocks and a ragged one
            (1, 70_001, None),  # blocks of 65,536 rows, then 4,465
            (9, 1_000, 8),  # dim over STACK_CELLS: one row per block
        ],
    )
    def test_blocks_equal_the_one_shot_draw(self, monkeypatch, dim, trials, stack_cells):
        if stack_cells is not None:
            monkeypatch.setattr(cat_bulk, "STACK_CELLS", stack_cells)
            assert dim > cat_bulk.STACK_CELLS
        sigma_grid = (0.3, 1.0, 4.0)
        monkeypatch.setattr(dynamics, "SIGMA_GRID", sigma_grid)
        rows = dynamics.empirical_accuracy_sweep(dim, trials, seed=11)
        one_shot = _one_shot_retention(dim, dynamics.ACCURACY_MARGIN, sigma_grid, trials, 11)
        assert [empirical for _, _, empirical, _ in rows] == one_shot

    def test_memory_does_not_grow_with_trials(self, monkeypatch):
        monkeypatch.setattr(dynamics, "SIGMA_GRID", (1.0,))

        def traced_peak(trials):
            tracemalloc.start()
            try:
                dynamics.empirical_accuracy_sweep(16, trials, seed=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(100_000)  # warm-up
        # a one-shot draw would hold 12.8 MB at 100,000 trials and 51.2 MB at 400,000
        assert traced_peak(400_000) <= 1.25 * traced_peak(100_000)
