"""Three-state toy world: shortcut bias vs expert-sampled convergence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certlab import curriculum as cur
from certlab.errors import InvalidInputError
from certlab.experiments import EXPERIMENTS
from certlab.seeding import derive_seed, rng_for


class TestWorld:
    def test_feature_map_is_pinned(self):
        np.testing.assert_array_equal(
            cur.FEATURES, [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 0.0]]
        )
        assert cur.EXPERT == 0
        assert not cur.FEATURES.flags.writeable


class TestSuccessRate:
    def test_zero_weights_are_uniform(self):
        assert abs(cur.success_rate(np.zeros(3)) - 1.0 / 3.0) <= 1e-15

    def test_strong_expert(self):
        expected = math.exp(10.0) / (math.exp(10.0) + 2.0)
        assert abs(cur.success_rate(np.array([10.0, 0.0, 0.0])) - expected) <= 1e-12
        assert abs(expected - 0.999909) <= 1e-6

    def test_shortcut_weights_kill_success(self):
        got = cur.success_rate(np.array([0.0, 10.0, 10.0]))
        expected = 1.0 / (1.0 + math.exp(20.0) + math.exp(10.0))
        assert abs(got - expected) <= 1e-20
        assert abs(got - 2.06e-9) <= 1e-11

    def test_common_score_shift_is_invisible(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            theta = rng.uniform(-4, 4, 3)
            shifted = theta + 1.7 * np.array([1.0, 1.0, 0.0])
            assert abs(cur.success_rate(theta) - cur.success_rate(shifted)) <= 1e-12
        # theta in [-5, 5]^3 and a shift c in [-3, 3] per draw, 20 draws on each of four streams
        for seed in range(4):
            rng = rng_for(seed, "score-shift")
            for _ in range(20):
                theta = rng.uniform(-5.0, 5.0, 3)
                shifted = theta + float(rng.uniform(-3.0, 3.0)) * np.array([1.0, 1.0, 0.0])
                assert abs(cur.success_rate(theta) - cur.success_rate(shifted)) <= 1e-12


class TestDrawCounts:
    # counts the sample-array dataset generator gave for the same draws
    @pytest.mark.parametrize(
        "theta, n, seed, expected",
        [
            ((0.5, -0.2, 0.3), 50, 7, [32.0, 13.0, 5.0]),
            ((1.0, 0.0, -0.5), 1000, 123, [621.0, 152.0, 227.0]),
        ],
    )
    def test_pinned_counts(self, theta, n, seed, expected):
        counts = cur.draw_counts(np.array(theta), n, seed)
        assert counts.dtype == np.float64 and counts.shape == (3,)
        np.testing.assert_array_equal(counts, expected)

    def test_curriculum_tracks_expert_frequencies(self):
        theta = np.array([10.0, 0.0, 0.0])
        n = 10_000
        counts = cur.draw_counts(theta, n, 1)
        p = cur.success_rate(theta)
        freq = counts[cur.EXPERT] / n
        assert abs(freq - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n) + 1e-12

    def test_uniform_expert_frequencies(self):
        n = 30_000
        counts = cur.draw_counts(np.zeros(3), n, 2)
        assert counts.sum() == n
        for k in range(3):
            assert abs(counts[k] / n - 1.0 / 3.0) <= 3.0 * math.sqrt((1 / 3) * (2 / 3) / n)

    def test_needs_a_sample(self):
        with pytest.raises(InvalidInputError):
            cur.draw_counts(np.zeros(3), 0, 0)

    @pytest.mark.parametrize("theta", [(50.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 10.0, 10.0), (1.0, 0.0, -0.5)])
    @pytest.mark.parametrize("n", [1, 2, 7, 100, 100_000])
    def test_counts_equal_bincount_of_choice_on_the_same_stream(self, theta, n):
        # numpy does not pin choice's internals (NEP 19): this pins the counts to them
        seed = derive_seed(0, "draw-counts", n)
        samples = rng_for(seed, "dataset", "curriculum").choice(3, size=n, p=cur.state_distribution(theta))
        expected = np.bincount(samples, minlength=3).astype(np.float64)
        np.testing.assert_array_equal(cur.draw_counts(np.array(theta), n, seed), expected)

    def test_non_finite_state_probabilities_are_rejected(self):
        # the shortcut score overflows to inf, so the softmax is NaN
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidInputError, match="not finite"):
            cur.draw_counts(np.full(3, 1e308), 10, 0)


class TestMleFit:
    def test_balanced_data_fits_flat_scores(self):
        theta, grad_norm = cur.mle_fit(np.full(3, 600.0))
        scores = cur.FEATURES @ theta
        assert scores.max() - scores.min() <= 1e-4
        assert abs(cur.success_rate(theta) - 1.0 / 3.0) <= 1e-4
        assert grad_norm < 1e-8

    def test_biased_data_caps_success(self):
        theta, _ = cur.mle_fit(np.array([0.0, 1000.0, 0.0]))
        assert cur.success_rate(theta) <= 0.01

    def test_strong_expert_recovered(self):
        expert = np.array([10.0, 0.0, 0.0])
        theta, _ = cur.mle_fit(cur.draw_counts(expert, 100_000, 3))
        assert abs(cur.success_rate(theta) - cur.success_rate(expert)) <= 0.005

    def test_is_the_first_row_of_fit_rows(self, monkeypatch):
        _fit_settings(monkeypatch, 300, 0.2)
        counts = cur.draw_counts(np.array([2.0, 0.0, 0.0]), 500, 8)
        theta, grad_norm = cur.mle_fit(counts)
        rows_theta, rows_norm = cur.fit_rows(counts[None, :])
        np.testing.assert_array_equal(theta, rows_theta[0])
        assert grad_norm == rows_norm[0]

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        for _ in range(100):
            theta = rng.uniform(-5, 5, 3)
            counts = rng.integers(1, 50, 3).astype(float)
            grad = cur.log_likelihood_grad(theta, counts)
            numeric = np.zeros(3)
            for i in range(3):
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                numeric[i] = (
                    cur.log_likelihood(up, counts) - cur.log_likelihood(down, counts)
                ) / (2 * h)
            assert np.linalg.norm(grad - numeric) <= 1e-6 * max(np.linalg.norm(grad), 1e-9)

    def test_projection_keeps_iterates_in_ball(self, monkeypatch):
        monkeypatch.setattr(cur, "PARAM_BOUND", 3.0)
        _fit_settings(monkeypatch, 200, 5.0)
        theta, _ = cur.mle_fit(np.array([0.0, 10.0, 0.0]))
        assert np.linalg.norm(theta) <= 3.0 + 1e-9


def _fit_settings(patch, iterations, step):
    """Set every fit's iterations and step for the rest of the test."""
    patch.setattr(cur, "FIT_ITERATIONS", iterations)
    patch.setattr(cur, "FIT_STEP", step)


def _reference_fit(counts, iterations, step, param_bound):
    """The scalar projected-gradient loop, one dataset at a time, with its own
    1-d softmax and gradient: the reference ``fit_rows`` must reproduce."""

    def grad(theta):
        scores = cur.FEATURES @ theta
        z = np.exp(scores - scores.max())
        return counts @ cur.FEATURES / counts.sum() - (z / z.sum()) @ cur.FEATURES

    theta = np.zeros(3)
    for _ in range(iterations):
        theta = theta + step * grad(theta)
        norm = float(np.linalg.norm(theta))
        if norm > param_bound:
            theta *= param_bound / norm
    return theta, float(np.linalg.norm(grad(theta)))


def _biased(sizes):
    return [np.array([0.0, n, 0.0]) for n in sizes]


def _counts(theta, sizes, seed):
    return [cur.draw_counts(theta, n, seed + i) for i, n in enumerate(sizes)]


class TestFitRows:
    # the row norm is a sum of squares where the 1-d norm is a BLAS dot, so
    # final gradient norms may differ in the last bits; weights may not
    GRAD_NORM_RTOL = 4 * np.finfo(np.float64).eps

    @pytest.mark.parametrize(
        "counts, iterations, step, param_bound",
        [
            (_biased((100, 1000, 10_000)), 5000, 0.1, cur.PARAM_BOUND),
            (_counts(np.array([2.0, 0.0, 0.0]), (100, 100, 1000, 10_000), 5), 5000, 0.1, 50.0),
            ([np.full(3, 600.0), np.array([1.0, 1.0, 1.0])], 5000, 0.1, 50.0),
            (_biased((10,)) + _counts(np.zeros(3), (30,), 9), 200, 5.0, 3.0),
        ],
        ids=["biased", "curriculum", "balanced", "projection-active"],
    )
    def test_rows_equal_the_scalar_loop(self, monkeypatch, counts, iterations, step, param_bound):
        monkeypatch.setattr(cur, "PARAM_BOUND", param_bound)
        _fit_settings(monkeypatch, iterations, step)
        theta, grad_norm = cur.fit_rows(counts)
        for row, c in enumerate(counts):
            ref_theta, ref_norm = _reference_fit(c, iterations, step, param_bound)
            np.testing.assert_array_equal(theta[row], ref_theta)
            np.testing.assert_allclose(grad_norm[row], ref_norm, rtol=self.GRAD_NORM_RTOL, atol=0.0)
        if param_bound == 3.0:
            assert abs(np.linalg.norm(theta[0]) - 3.0) <= 1e-12  # the projection was active

    def test_projection_sums_the_squares_as_linalg_norm_does(self, monkeypatch):
        # one large step from theta = 0 throws every row outside the ball, so
        # each row is scaled by PARAM_BOUND / norm: that norm must be
        # np.linalg.norm's, ((t0*t0 + t1*t1) + t2*t2), to the last bit
        counts = np.random.default_rng(0).integers(1, 1000, (400, 3)).astype(np.float64)
        step = 1e6
        _fit_settings(monkeypatch, 1, step)
        theta, _ = cur.fit_rows(counts)
        start = np.zeros(counts.shape)
        empirical = counts @ cur.FEATURES / counts.sum(axis=-1, keepdims=True)
        raw = start + step * (empirical - cur.state_distribution(start) @ cur.FEATURES)
        norm = np.linalg.norm(raw, axis=-1)
        assert np.all(norm > cur.PARAM_BOUND)
        np.testing.assert_array_equal(theta, raw * (cur.PARAM_BOUND / norm)[:, None])
        # the rows can tell the orders apart: the other grouping moves some norms
        squares = raw * raw
        assert np.any(np.sqrt(squares[:, 0] + (squares[:, 1] + squares[:, 2])) != norm)

    def test_stacked_groups_equal_separate_calls(self):
        # a curriculum run fits all of its datasets in one call: each group's
        # rows must come out as that group's own call gives them, bit for bit
        groups = [
            _biased((100, 1000, 10_000)),
            _counts(np.array([10.0, 0.0, 0.0]), (100_000,), 3) + [np.full(3, 3333.0)],
            _counts(np.array([2.0, 0.0, 0.0]), (100, 100, 1000, 10_000), 5),
            _counts(np.zeros(3), (10, 30), 9),
        ]
        theta, grad_norm = cur.fit_rows(np.vstack(groups))
        start = 0
        for group in groups:
            group_theta, group_norm = cur.fit_rows(group)
            rows = slice(start, start + len(group))
            np.testing.assert_array_equal(theta[rows], group_theta)
            np.testing.assert_array_equal(grad_norm[rows], group_norm)
            start += len(group)

    @given(
        counts=st.lists(
            # zero cells and counts up to 10**12; a row needs one observation
            st.lists(st.sampled_from((0, 1, 2, 7, 100, 12_345, 10**6, 10**9, 10**12)), min_size=3, max_size=3)
            .filter(any),
            min_size=1,
            max_size=8,
        ),
        iterations=st.integers(1, 50),
        step=st.floats(0.0, 2.0, exclude_min=True),
        # 50 iterations rarely leave the default ball: small bounds make some rows project
        param_bound=st.sampled_from((0.5, 3.0, cur.PARAM_BOUND)),
    )
    @settings(max_examples=100)
    def test_rows_equal_one_row_calls_bit_for_bit(self, counts, iterations, step, param_bound):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cur, "PARAM_BOUND", param_bound)
            _fit_settings(patch, iterations, step)
            theta, grad_norm = cur.fit_rows(np.array(counts, dtype=np.float64))
            for row, c in enumerate(counts):
                row_theta, row_norm = cur.fit_rows(np.array([c], dtype=np.float64))
                assert [float(x).hex() for x in theta[row]] == [float(x).hex() for x in row_theta[0]]
                assert float(grad_norm[row]).hex() == float(row_norm[0]).hex()

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (0, 3), (1, 3, 1)])
    def test_count_matrix_must_be_k_by_3(self, shape):
        with pytest.raises(InvalidInputError):
            cur.fit_rows(np.ones(shape))


def _sweep_grid(patch, n_grid, trials_per_n):
    """Set the sweep's sample sizes and trials per size for the rest of the test."""
    patch.setattr(cur, "N_GRID", n_grid)
    patch.setattr(cur, "TRIALS_PER_N", trials_per_n)


class TestSweep:
    def test_total_variation(self):
        assert cur.total_variation([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == 1.0
        assert cur.total_variation([0.5, 0.5, 0.0], [0.5, 0.5, 0.0]) == 0.0
        np.testing.assert_array_equal(
            cur.total_variation([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]], [0.5, 0.5, 0.0]), [0.5, 0.0]
        )

    def test_curriculum_sweep_shrinks(self, monkeypatch):
        theta = np.array([2.0, 0.0, 0.0])
        _sweep_grid(monkeypatch, (100, 10_000), 6)
        counts = cur.sweep_counts(theta, seed=0)
        fitted, _ = cur.fit_rows(counts)
        result = cur.summarize_sweep(theta, fitted)
        assert [(row.n, row.provenance) for row in result.rows] == [(100, "curriculum"), (10_000, "curriculum")]
        assert result.rows[0].mean_gap > result.rows[-1].mean_gap
        assert result.slope < 0.0

    def test_biased_fits_ignore_n(self):
        theta, _ = cur.fit_rows(_biased((100, 1000)))
        np.testing.assert_array_equal(theta[0], theta[1])

    def test_sweep_counts_are_n_major(self, monkeypatch):
        _sweep_grid(monkeypatch, (100, 1000), 4)
        counts = cur.sweep_counts(np.array([2.0, 0.0, 0.0]), seed=3)
        np.testing.assert_array_equal(counts.sum(axis=1), [100] * 4 + [1000] * 4)

    def test_sweep_rows_are_draw_counts_on_their_streams(self, monkeypatch):
        theta, grid, trials, seed = np.array([2.0, 0.0, 0.0]), (100, 1000), 3, 11
        _sweep_grid(monkeypatch, grid, trials)
        counts = cur.sweep_counts(theta, seed=seed)
        for i, n in enumerate(grid):
            for t in range(trials):
                expected = cur.draw_counts(theta, n, derive_seed(seed, "sweep", n, t))
                np.testing.assert_array_equal(counts[i * trials + t], expected)


def test_run_curriculum_fits_every_dataset_in_one_call(monkeypatch):
    shapes = []
    fit_rows = cur.fit_rows

    def counting(counts, *args, **kwargs):
        shapes.append(np.shape(counts))
        return fit_rows(counts, *args, **kwargs)

    monkeypatch.setattr(cur, "fit_rows", counting)
    result = EXPERIMENTS["curriculum"].runner(0, {})
    # 4 biased + strong + balanced, 4 x 50 sweep trials, 4 x 10 TV trials
    assert shapes == [(246, 3)]
    assert result.all_passed

