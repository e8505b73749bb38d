"""Discrete argmax-reset chains, continuous error accumulation, retention curve."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from certlab import cat_bulk, dynamics
from certlab.errors import InvalidInputError, SamplingExhaustedError
from certlab.experiments import EXPERIMENTS, default_params
from certlab.seeding import rng_for


def one_shot_rejection(l_star, scale, rng, count):
    """Reference sampler: one ``(count, B)`` draw, then the rows that move the
    argmax redrawn in index order, round by round.  Returns the final rows and
    the number of row redraws."""
    draws = rng.normal(0.0, scale, (count, len(l_star)))
    pending = np.flatnonzero(np.argmax(l_star + draws, axis=1) != np.argmax(l_star))
    redrawn = 0
    while pending.size:
        draws[pending] = rng.normal(0.0, scale, (pending.size, len(l_star)))
        redrawn += pending.size
        pending = pending[np.argmax(l_star + draws[pending], axis=1) != np.argmax(l_star)]
    return draws, redrawn


class TestNoisyArgmaxCounts:
    def test_zero_scale_keeps_every_row_at_the_argmax(self):
        sizes, redrawn = dynamics.noisy_argmax_counts([3.0, 1.0, 0.0], 0.0, rng_for(0, "x"), 5)
        assert sizes.tolist() == [5, 0, 0] and redrawn == 0

    def test_ties_go_to_the_lowest_index(self):
        # zero noise leaves 0 and 2 tied on top: an unconstrained draw counts index 0
        sizes, _ = dynamics.noisy_argmax_counts([1.0, 0.0, 1.0], 0.0, rng_for(0, "x"), 4, sub_decisional=False)
        assert sizes.tolist() == [4, 0, 0]

    def test_every_row_keeps_the_argmax(self):
        logits = np.array([0.0, 2.0, 1.0, 0.5])
        sizes, redrawn = dynamics.noisy_argmax_counts(logits, 0.5, rng_for(1, "noise"), 2000)
        assert sizes.tolist() == [0, 2000, 0, 0]
        assert redrawn > 0  # the redraw rounds ran

    def test_small_scale_accepts_almost_always(self):
        logits = np.array([2.0, 1.0, 0.0])  # margin 1
        draws = 2000
        _, redrawn = dynamics.noisy_argmax_counts(logits, 0.1, rng_for(2, "noise"), draws)
        assert draws / (draws + redrawn) > 0.99

    @pytest.mark.parametrize("sub_decisional", [True, False])
    def test_input_checks(self, sub_decisional):
        with pytest.raises(InvalidInputError):
            dynamics.noisy_argmax_counts([1.0, 0.0], -0.1, rng_for(0, "x"), 1, sub_decisional)

    def test_sub_decisional_needs_a_unique_argmax(self):
        with pytest.raises(InvalidInputError):
            dynamics.noisy_argmax_counts([1.0, 1.0, 0.0], 0.1, rng_for(0, "x"), 1)

    @pytest.mark.parametrize("cap, rounds", [(1, 1), (2, 2)])
    def test_exhaustion_raises_after_the_cap_rounds(self, monkeypatch, cap, rounds):
        # isotropic noise keeps acceptance near 1/B even at huge scales, so
        # the guard is exercised with a small budget: about half of 64 rows
        # move in each round, and every round, the first included, counts once
        monkeypatch.setattr(dynamics, "REJECTION_CAP", cap)
        with pytest.raises(SamplingExhaustedError, match=f"still rejected after {rounds} rounds"):
            dynamics.noisy_argmax_counts([1e-9, 0.0], 1e6, rng_for(3, "noise"), 64)


POSTCONDITION = "rejection sampler postcondition: every draw keeps the argmax"
SMALL_NOISE_DISCRETE = {**default_params("noise-discrete"), "trials": 200, "acceptance_draws": 50}


class TestNoiseDiscretePostcondition:
    def test_listed_once_and_passing(self):
        result = EXPERIMENTS["noise-discrete"].runner(0, SMALL_NOISE_DISCRETE)
        listed = [check for check in result.checks if check.name == POSTCONDITION]
        assert len(listed) == 1 and listed[0].passed
        assert result.all_passed

    def test_one_moved_draw_fails_it(self, monkeypatch):
        count_argmaxes = dynamics.noisy_argmax_counts
        moved_to = {}

        def one_moved(l_star, scale, rng, count, sub_decisional=True):
            sizes, redrawn = count_argmaxes(l_star, scale, rng, count, sub_decisional)
            if count == SMALL_NOISE_DISCRETE["acceptance_draws"]:  # the acceptance draws only
                moved_to["token"] = int(np.argmin(l_star))
                sizes[np.argmax(l_star)] -= 1
                sizes[moved_to["token"]] += 1
            return sizes, redrawn

        monkeypatch.setattr(dynamics, "noisy_argmax_counts", one_moved)
        result = EXPERIMENTS["noise-discrete"].runner(0, SMALL_NOISE_DISCRETE)
        failed = [check for check in result.checks if not check.passed]
        assert [check.name for check in failed] == [POSTCONDITION]
        options = SMALL_NOISE_DISCRETE["options_list"][0]
        assert failed[0].detail == f"1/{options} rows over the limit, worst token {moved_to['token']} (excess 1.000e+00)"


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
        for prefix in [(), (0,), (1, 3), (4, 4, 4)]:
            logits = dynamics.prefix_logits(self.SPEC, prefix)
            top_two = np.partition(logits, logits.size - 2)[-2:]
            assert top_two[1] - top_two[0] >= self.SPEC.min_margin - 1e-12


class TestDiscreteChain:
    def test_zero_noise_never_diverges(self):
        spec = dynamics.DiscreteChainSpec(steps=6, n_options=5, noise_scale=0.0, logit_seed=1)
        assert dynamics.simulate_discrete_chain(spec, 2000, seed=0) == 0

    def test_sub_decisional_noise_never_diverges(self):
        spec = dynamics.DiscreteChainSpec(steps=6, n_options=5, noise_scale=0.2, logit_seed=1)
        assert dynamics.simulate_discrete_chain(spec, 5000, seed=0) == 0

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

    # a margin of 0.5 rejects about 1% of the rows at scale 0.15 and about 63% at scale 5
    @pytest.mark.parametrize("scale", [0.15, 5.0])
    @pytest.mark.parametrize("sub_decisional", [True, False])
    def test_counts_equal_the_one_shot_draw(self, scale, sub_decisional):
        count = 3 * cat_bulk.block_rows(3) + 17  # three full blocks and a ragged one
        streamed, fresh = rng_for(4, "group"), rng_for(4, "group")
        sizes, redrawn = dynamics.noisy_argmax_counts(self.LOGITS, scale, streamed, count, sub_decisional)
        if sub_decisional:
            noise, expected_redrawn = one_shot_rejection(self.LOGITS, scale, fresh, count)
            assert expected_redrawn > count // 200  # the redraw rounds ran
        else:
            noise, expected_redrawn = fresh.normal(0.0, scale, (count, 3)), 0
        assert sizes.tolist() == np.bincount(np.argmax(self.LOGITS + noise, axis=1), minlength=3).tolist()
        assert redrawn == expected_redrawn
        # both consumed the same normals from the stream
        assert streamed.bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize(
        "sub_decisional_only, options, scale, trials",
        [
            (True, 4, 0.2, 50_000),
            (False, 4, 0.2, 50_000),
            # about four in five rows move at every round: the redraw rounds stream too
            (True, 5, 50.0, 20_000),
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
SMALL_ERROR_ACCUMULATION = {
    **default_params("error-accumulation"), "dims": (1, 8), "steps_values": (1, 6), "trials": 1000
}


class TestMonteCarloGate:
    def _gate(self):
        result = EXPERIMENTS["error-accumulation"].runner(0, SMALL_ERROR_ACCUMULATION)
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
            "2/12 rows over the limit, worst L=1.2 d=8 M=6: |1.566602 - 1.439291| vs 3*2.46e-02 "
            "(excess 5.340e-02); worst pull 5.17 sigma over 12 cells"
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


class TestStreamedMonteCarloError:
    @pytest.mark.parametrize("trials", [100, 8193, 20_000])  # one short block, a one-row block, a ragged block
    @pytest.mark.parametrize("dim", [1, 3, 64, 200])  # 200 rows a chunk fall short of MC_BLOCK, one does not
    def test_equals_the_reference_bit_for_bit(self, trials, dim):
        config = dynamics.LatentConfig(dim=dim, steps=3, lipschitz=1.1, sigma_h=0.3)
        assert dynamics.monte_carlo_error(config, trials, seed=6) == _reference_monte_carlo_error(config, trials, 6)

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


class TestAccuracyCurve:
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

    def test_empirical_sweep_matches_curve(self):
        rows, noise_gain = dynamics.empirical_accuracy_sweep(
            dim=16, margin=2.0, sigma_grid=(0.2, 0.5, 1.0, 2.0, 5.0), trials=30_000, seed=5
        )
        assert noise_gain == 16.0
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
        rows, _ = dynamics.empirical_accuracy_sweep(dim, 2.0, sigma_grid, trials, seed=11)
        assert [empirical for _, _, empirical, _ in rows] == _one_shot_retention(dim, 2.0, sigma_grid, trials, 11)

    def test_memory_does_not_grow_with_trials(self):
        def traced_peak(trials):
            tracemalloc.start()
            try:
                dynamics.empirical_accuracy_sweep(16, 2.0, (1.0,), trials, seed=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(100_000)  # warm-up
        # a one-shot draw would hold 12.8 MB at 100,000 trials and 51.2 MB at 400,000
        assert traced_peak(400_000) <= 1.25 * traced_peak(100_000)
