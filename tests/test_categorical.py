"""Distribution machinery: divergences, certainty bounds, Dirichlet family."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from certlab import cat_bulk
from certlab import categorical as cat
from certlab.errors import InfiniteDivergenceError, InvalidInputError
from certlab.experiments import (
    ExperimentResult,
    _compositions,
    _simplex_slice_min_reverse_kl,
    run_tradeoff_scan,
)
from certlab.seeding import rng_for

UNIFORM_4 = np.full(4, 0.25)


def logits_strategy(min_size=2, max_size=8, span=30.0):
    return st.lists(
        st.floats(min_value=-span, max_value=span, allow_nan=False),
        min_size=min_size,
        max_size=max_size,
    )


# Bound-vs-sample comparisons recompute 1 - s from a rounded probability;
# past a top-two gap of ~16 nats that cancellation alone exceeds the 1e-9
# slack, so the floor properties are exercised in the regime the sampling
# contracts use (standard-normal logits stay far inside it).
def moderate_logits(min_size=2, max_size=8):
    return logits_strategy(min_size=min_size, max_size=max_size, span=7.0)


SUBNORMALS = np.array([5e-324, 1e-310, 2.2e-308])


@st.composite
def masked_cells(draw):
    """``(w, num, den)`` stacks for the masked path of ``masked_log_sums``.

    Hypothesis draws each row's kept-cell count, ragged and at least one short
    of full somewhere, and a seed; the seed places the kept cells, fills them,
    makes some weights and ``num`` cells subnormal, and may zero ``num`` where
    the weight is zero."""
    cells = draw(st.integers(1, 40))
    kept = draw(st.lists(st.integers(0, cells), min_size=1, max_size=12))
    kept[draw(st.integers(0, len(kept) - 1))] = draw(st.integers(0, cells - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (len(kept), cells)
    w, num, den = rng.uniform(1e-3, 1.0, (3, *shape))
    for values in (w, num):
        subnormal = rng.random(shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))
        values[subnormal] = rng.choice(SUBNORMALS, np.count_nonzero(subnormal))
    w[np.argsort(rng.random(shape), axis=1) >= np.array(kept)[:, None]] = 0.0
    if draw(st.booleans()):
        num[w == 0.0] = 0.0
    return w, num, den


@st.composite
def kl_cases(draw):
    """``(q, rows)`` from a ``masked_cells`` stack: q is its fullest weight row and
    the rows are its ``num`` rows, each normalized, so both carry zeroed and
    subnormal cells, and q may have a single cell."""
    w, num, _ = draw(masked_cells())
    q = w[np.argmax(np.count_nonzero(w, axis=1))]
    assume(q.any() and num.sum(axis=1).all())
    return q / q.sum(), num / num.sum(axis=1, keepdims=True)


def _outcome(function, *args):
    """The value of ``function(*args)``, or the class of the error it raises."""
    try:
        return function(*args)
    except (InvalidInputError, InfiniteDivergenceError) as exc:
        return type(exc)


class TestSoftmax:
    def test_symmetric_logits_give_uniform(self):
        np.testing.assert_allclose(cat.softmax([0.0, 0.0, 0.0, 0.0]), UNIFORM_4, atol=1e-15)

    def test_extreme_logits_do_not_overflow(self):
        p = cat.softmax([1000.0, 0.0])
        assert np.all(np.isfinite(p))
        assert p[0] >= 1.0 - 1e-15
        assert p[1] <= 1e-300

    def test_log_two_example(self):
        np.testing.assert_allclose(cat.softmax([math.log(2.0), 0.0]), [2 / 3, 1 / 3], atol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            cat.softmax([np.inf, 0.0])
        with pytest.raises(InvalidInputError):
            cat.softmax([np.nan, 0.0])

    @given(logits_strategy())
    @settings(max_examples=200)
    def test_output_is_distribution(self, logits):
        p = cat.softmax(logits)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) <= 1e-12


class TestEntropy:
    def test_uniform_is_maximal(self):
        assert abs(cat.entropy(UNIFORM_4) - math.log(4.0)) <= 1e-15

    def test_point_mass_is_zero(self):
        assert cat.entropy([1.0, 0.0, 0.0]) == 0.0

    def test_concentrated_mean_matches_direct_oracle(self):
        # independent evaluation of -sum p log p on the explicit mean vector
        spec = cat.DirichletConcentration(kappa=1e4, n_options=5)
        mean = cat.dirichlet_mean(spec)
        oracle = -(mean[0] * math.log(mean[0]) + 4.0 * mean[1] * math.log(mean[1]))
        assert abs(cat.entropy(mean) - oracle) <= 1e-15
        assert abs(oracle - 4.084e-3) <= 1e-5

    @given(logits_strategy())
    @settings(max_examples=200)
    def test_entropy_bounds(self, logits):
        p = cat.softmax(logits)
        h = cat.entropy(p)
        assert -1e-12 <= h <= math.log(p.size) + 1e-12


class TestKlDivergence:
    def test_identity_is_exact_zero(self):
        q = np.array([0.3, 0.2, 0.5])
        assert cat.kl_divergence(q, q) == 0.0

    def test_hand_value_two_options(self):
        got = cat.kl_divergence([0.5, 0.5], [0.9, 0.1])
        assert abs(got - 0.5108256237659907) <= 1e-15

    def test_uniform_vs_concentrated_mean(self):
        spec = cat.DirichletConcentration(kappa=1e4, n_options=5)
        mean = cat.dirichlet_mean(spec)
        # exact-sum oracle, written out longhand
        oracle = 0.2 * math.log(0.2 / mean[0]) + 4.0 * 0.2 * math.log(0.2 / mean[1])
        got = cat.kl_divergence(np.full(5, 0.2), mean)
        assert abs(got - oracle) <= 1e-12
        assert abs(got - 5.759) <= 1e-3

    def test_support_violation_is_its_own_error(self):
        with pytest.raises(InfiniteDivergenceError):
            cat.kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            cat.kl_divergence([0.5, 0.5], [0.4, 0.3, 0.3])

    @given(logits_strategy(min_size=3, max_size=6), logits_strategy(min_size=3, max_size=6))
    @settings(max_examples=300)
    def test_gibbs_inequality(self, la, lb):
        size = min(len(la), len(lb))
        q = cat.softmax(la[:size])
        p = cat.softmax(lb[:size])
        d = cat.kl_divergence(q, p)
        assert d >= -1e-15
        if cat.kl_divergence(q, p) == 0.0:
            np.testing.assert_allclose(q, p, atol=1e-7)
        if np.abs(q - p).max() > 1e-6:
            assert d > 0.0  # Pinsker keeps separated pairs strictly positive


class TestSymbolicIndexAndMargin:
    def test_symbolic_index_extremes(self):
        assert cat.symbolic_index(UNIFORM_4) == 0.25
        assert cat.symbolic_index([1.0, 0.0]) == 1.0
        assert cat.symbolic_index([0.6, 0.3, 0.1]) == 0.6

    def test_margin_examples(self):
        assert cat.logit_margin([3.0, 1.0, 0.0]) == 2.0
        assert cat.logit_margin([5.0, 5.0, 1.0]) == 0.0

    def test_margin_of_inverted_softmax(self):
        # log-probabilities are valid logits for their own distribution
        logits = np.log([0.99, 0.005, 0.005])
        assert abs(cat.logit_margin(logits) - math.log(198.0)) <= 1e-12


class TestStabilityBound:
    def test_reference_values(self):
        assert abs(cat.stability_lower_bound(0.99) - math.log(99.0)) <= 1e-15
        assert abs(cat.stability_lower_bound(0.6) - math.log(1.5)) <= 1e-15
        assert cat.stability_lower_bound(0.5) == 0.0

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidInputError):
                cat.stability_lower_bound(bad)

    @given(moderate_logits())
    @settings(max_examples=300)
    def test_margin_dominates_bound(self, logits):
        p = cat.softmax(logits)
        s = cat.symbolic_index(p)
        if not (0.0 < s < 1.0):
            return
        assert cat.logit_margin(logits) >= cat.stability_lower_bound(s) - 1e-9

    def test_two_option_equality(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            logits = rng.standard_normal(2)
            p = cat.softmax(logits)
            gap = abs(cat.logit_margin(logits) - cat.stability_lower_bound(cat.symbolic_index(p)))
            assert gap <= 1e-12


class TestDivergenceFloors:
    def test_zero_at_uniform_peak(self):
        for b in range(2, 33):
            assert abs(cat.tradeoff_lower_bound(1.0 / b, b)) <= 1e-12
            assert abs(cat.min_exploration_divergence(1.0 / b, b)) <= 1e-12

    def test_reference_point(self):
        assert abs(cat.tradeoff_lower_bound(0.7, 4) - 0.4458463724645642) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(InvalidInputError):
            cat.tradeoff_lower_bound(0.2, 4)  # below 1/B
        with pytest.raises(InvalidInputError):
            cat.tradeoff_lower_bound(1.0, 4)
        with pytest.raises(InvalidInputError):
            cat.min_exploration_divergence(0.1, 4)
        # every comparison with NaN is false, so only a test of membership refuses it
        for floor in (cat.tradeoff_lower_bound, cat.min_exploration_divergence):
            with pytest.raises(InvalidInputError, match=re.escape("top probability must lie in [1/B, 1)")):
                floor(float("nan"), 4)

    def test_floors_are_attained_by_even_remainders(self):
        for b in (2, 3, 4, 8, 16):
            uniform = np.full(b, 1.0 / b)
            for s in np.linspace(1.0 / b + 0.01, 0.97, 9):
                p = cat.peaked_distribution(float(s), b)
                rev = cat.kl_divergence(p, uniform)
                fwd = cat.kl_divergence(uniform, p)
                assert abs(rev - cat.tradeoff_lower_bound(float(s), b)) <= 1e-9
                assert abs(fwd - cat.min_exploration_divergence(float(s), b)) <= 1e-9

    @given(moderate_logits())
    @settings(max_examples=300)
    def test_floors_hold_for_arbitrary_distributions(self, logits):
        p = cat.softmax(logits)
        b = p.size
        s = cat.symbolic_index(p)
        if s >= 1.0:
            return
        uniform = np.full(b, 1.0 / b)
        assert cat.kl_divergence(p, uniform) >= cat.tradeoff_lower_bound(s, b) - 1e-9
        assert cat.kl_divergence(uniform, p) >= cat.min_exploration_divergence(s, b) - 1e-9

    def test_forward_floor_grows_without_bound(self):
        values = [cat.min_exploration_divergence(s, 4) for s in (0.9, 0.99, 0.999999)]
        assert values[0] < values[1] < values[2]
        assert values[2] > 3.0  # already past log(4); keeps climbing


class TestDirichletFamily:
    def test_symmetric_mean(self, monkeypatch):
        monkeypatch.setattr(cat, "MINORITY_MASS", 5.0)
        spec = cat.DirichletConcentration(kappa=10.0, n_options=2)
        np.testing.assert_allclose(cat.dirichlet_mean(spec), [0.5, 0.5], atol=1e-15)

    def test_concentrated_mean(self):
        spec = cat.DirichletConcentration(kappa=1e4, n_options=5)
        mean = cat.dirichlet_mean(spec)
        np.testing.assert_allclose(mean, [0.9996, 1e-4, 1e-4, 1e-4, 1e-4], atol=1e-15)

    def test_dominant_parameter_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            cat.DirichletConcentration(kappa=4.0, n_options=5)

    @pytest.mark.parametrize(
        "kappa, n_options, message",
        [
            (-5.0, 3, "kappa must be positive, got -5.0"),
            (0.0, 3, "kappa must be positive, got 0.0"),
            (100.0, 1, "need at least 2 options, got 1"),
            # the dominant parameter 2 - 2 * MINORITY_MASS is exactly zero
            (2.0, 3, "kappa too small: dominant parameter 0.0 must be positive"),
        ],
    )
    def test_family_parameters_are_checked(self, kappa, n_options, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            cat.DirichletConcentration(kappa=kappa, n_options=n_options)

    def test_samples_concentrate(self):
        spec = cat.DirichletConcentration(kappa=1e6, n_options=5)
        rng = np.random.default_rng(11)
        hits = sum(cat.symbolic_index(row) > 0.999 for row in cat.dirichlet_sample(spec, rng, 500))
        assert hits / 500 >= 0.99

    def test_concentrated_top_probabilities_are_the_symbolic_index(self):
        # divergence-asymptote reads each draw's top probability as its row maximum
        spec = cat.DirichletConcentration(kappa=1e6, n_options=5)
        draws = cat.dirichlet_sample(spec, np.random.default_rng(6), 2000)
        assert draws.max(axis=1).tolist() == [cat.symbolic_index(row) for row in draws]

    def test_samples_are_distributions(self, monkeypatch):
        monkeypatch.setattr(cat, "MINORITY_MASS", 2.0)
        spec = cat.DirichletConcentration(kappa=50.0, n_options=4)
        rng = np.random.default_rng(3)
        for row in cat.dirichlet_sample(spec, rng, 50):
            cat.as_distribution(row)


class TestRowKernels:
    """The row kernels against the scalar ops they shadow, which stay the reference."""

    @pytest.mark.parametrize("b", [2, 5, 16])  # 16 crosses numpy's 8-way pairwise-sum block
    def test_kl_rows_equal_scalar_kl(self, b):
        rng = np.random.default_rng(b)
        rows = rng.dirichlet(np.ones(b), size=200)
        for q in (np.full(b, 1.0 / b), rng.dirichlet(np.ones(b))):
            bulk = cat_bulk.kl_rows(q, rows)
            assert [float(v) for v in bulk] == [cat.kl_divergence(q, row) for row in rows]

    def test_kl_rows_skip_cells_where_q_is_zero(self):
        q = np.full(17, 1.0 / 16)
        q[1] = 0.0  # 16 cells with mass remain
        rows = np.random.default_rng(1).dirichlet(np.ones(17), size=50)
        rows[::2, 1] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        bulk = cat_bulk.kl_rows(q, rows)
        assert [float(v) for v in bulk] == [cat.kl_divergence(q, row) for row in rows]

    @pytest.mark.parametrize("shape", [(1, 2), (40, 3, 3), (25, 17)])  # 17 cells cross the pairwise block
    def test_all_cells_masked_log_sums_equal_each_rows_np_sum(self, shape):
        rng = np.random.default_rng(shape[-1])
        w, num, den = (rng.dirichlet(np.ones(shape[-1]), size=shape[:-1]) for _ in range(3))
        for args in ((w, num, den), (w, num[0], den), (w, num, 1.0)):  # broadcast num and den
            sums = cat_bulk.masked_log_sums(*args)
            num_b, den_b = (np.broadcast_to(a, shape) for a in args[1:])
            assert sums.tolist() == [float(np.sum(w[r] * np.log(num_b[r] / den_b[r]))) for r in range(shape[0])]

    @given(masked_cells())
    @settings(max_examples=300)
    def test_masked_log_sums_equal_each_rows_np_sum(self, cells):
        w, num, den = cells
        kept = w > 0.0
        expected = [float(np.sum(w[r][m] * np.log(num[r][m] / den[r][m]))) for r, m in enumerate(kept)]
        assert cat_bulk.masked_log_sums(w, num, den).tolist() == expected

    @given(kl_cases())
    @settings(max_examples=300)
    def test_kl_rows_equal_scalar_kl_bit_for_bit(self, case):
        q, rows = case
        scalar = [_outcome(cat.kl_divergence, q, row) for row in rows]
        errors = {v for v in scalar if isinstance(v, type)}
        bulk = _outcome(cat_bulk.kl_rows, q, rows)
        if errors:
            # kl_rows validates every row before it looks for an infinite divergence
            assert bulk is (InvalidInputError if InvalidInputError in errors else InfiniteDivergenceError)
        else:
            assert [float(v).hex() for v in bulk] == [v.hex() for v in scalar]

    def test_kl_rows_errors(self):
        q = np.array([0.5, 0.5])
        with pytest.raises(InfiniteDivergenceError):
            cat_bulk.kl_rows(q, np.array([[0.5, 0.5], [1.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            cat_bulk.kl_rows(q, np.array([[0.5, 0.6]]))
        with pytest.raises(InvalidInputError):
            cat_bulk.kl_rows(q, np.array([[0.5, 0.25, 0.25]]))

    def test_dirichlet_rows_equal_successive_draws(self):
        spec = cat.DirichletConcentration(kappa=1e4, n_options=5)
        bulk = cat.dirichlet_sample(spec, np.random.default_rng(7), 300)
        rng = np.random.default_rng(7)
        assert np.array_equal(bulk, [cat.dirichlet_sample(spec, rng, 1)[0] for _ in range(300)])

    @pytest.mark.parametrize("kappa, options", [(1e2, 2), (1e6, 3), (50.0, 7)])
    def test_one_row_draw_is_one_normalized_gamma_vector(self, kappa, options):
        # make_policy takes row 0 of a one-row draw: the row and the stream
        # position after it are those of one normalized standard_gamma vector
        spec = cat.DirichletConcentration(kappa=kappa, n_options=options)
        for seed in range(20):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            gammas = reference.standard_gamma(spec.alphas)
            assert np.array_equal(cat.dirichlet_sample(spec, rng, 1)[0], gammas / gammas.sum())
            assert rng.integers(options) == reference.integers(options)

    def test_dirichlet_underflow_guard(self, monkeypatch):
        # shape-1e-300 gamma variates underflow to zero
        monkeypatch.setattr(cat, "MINORITY_MASS", 1e-300)
        spec = cat.DirichletConcentration(kappa=2e-300, n_options=2)
        with pytest.raises(InvalidInputError):
            cat.dirichlet_sample(spec, np.random.default_rng(0), 4)


def _reference_compositions(slots, units):
    if slots == 1:
        yield (units,)
        return
    for head in range(units + 1):
        for tail in _reference_compositions(slots - 1, units - head):
            yield (head,) + tail


def _reference_grid_oracle(top, b, resolution):
    """The recursive per-composition grid oracle that the blocked one replaced."""
    best = math.inf
    rest_mass = 1.0 - top

    def reverse_kl(p):
        mask = p > 0
        return float(np.sum(p[mask] * np.log(p[mask] * b)))

    if b == 2:
        return reverse_kl(np.array([top, rest_mass]))
    for combo in _reference_compositions(b - 1, resolution):
        rest = np.array(combo, dtype=np.float64) * (rest_mass / resolution)
        if rest.max() > top + 1e-12:
            continue
        best = min(best, reverse_kl(np.concatenate(([top], rest))))
    even = np.full(b, rest_mass / (b - 1))
    even = np.concatenate(([top], even[:-1]))
    return min(best, reverse_kl(even))


class TestGridOracle:
    def test_compositions_walk_the_recursive_order_in_blocks(self):
        # the oracle's minimum is the even-remainder point on every case below,
        # so only this test sees a composition that is missing or out of order
        for units, slots in ((1, 2), (5, 3), (7, 4), (3, 6), (4, 1)):
            expected = list(_reference_compositions(slots, units))
            for rows in (1, 4, 1000):
                blocks = list(_compositions(units, slots, rows))
                assert all(len(block) <= rows for block in blocks)
                assert [tuple(c) for block in blocks for c in block.tolist()] == expected

    def test_blocks_equal_the_recursive_reference(self):
        cases = [
            (s, b, resolution)
            for b in range(2, 13) for resolution in range(1, 21) for s in (1.0 / b, 0.7)
            if math.comb(resolution + b - 2, b - 2) <= 2000
        ]
        # 23,426 compositions of 5 cells: two blocks of STACK_CELLS cells
        cases.append((0.7, 5, 50))
        assert math.comb(50 + 3, 3) * 5 > cat_bulk.STACK_CELLS
        for s, b, resolution in cases:
            blocked = _simplex_slice_min_reverse_kl(s, b, resolution)
            assert blocked == _reference_grid_oracle(s, b, resolution), (s, b, resolution)

    def test_spot_equals_the_closed_form_at_any_resolution(self):
        for resolution in (1, 2, 7, 60):
            oracle = _simplex_slice_min_reverse_kl(0.7, 4, resolution)
            assert abs(oracle - cat.tradeoff_lower_bound(0.7, 4)) <= 1e-12


def _one_shot_tradeoff_checks(seed, options_set, per_b):
    """The tradeoff-scan panel checks from one ``certainty_panel`` per B over its
    whole draw, as the scan made them before it streamed in blocks."""
    result = ExperimentResult()
    excess = []
    for b in options_set:
        logits = rng_for(seed, "tradeoff-sample", b).standard_normal((per_b, b))
        panel = cat_bulk.certainty_panel(logits)
        excess.append((
            panel.stability_bound - 1e-9 - panel.margin,
            panel.tradeoff_bound - 1e-9 - panel.reverse_kl,
            panel.forward_bound - 1e-9 - panel.forward_kl,
            np.abs(panel.margin - panel.stability_bound) - 1e-12,
        ))
    margin, reverse, forward, equality = map(np.concatenate, zip(*excess))
    two = np.flatnonzero(np.repeat(np.asarray(options_set) == 2, per_b))

    def where(i):
        return f"B={options_set[i // per_b]} row {i % per_b}"

    result.gate("stability floor: margin >= log(s/(1-s)) on random softmax sample", margin, where)
    result.gate("certainty cost floor: D(p||uniform) >= tradeoff bound on the same sample", reverse, where)
    result.gate("exploration floor: D(uniform||p) >= even-remainder bound on the same sample", forward, where)
    result.gate("two-option equality: margin == stability floor exactly", equality[two], lambda i: where(two[i]))
    return result.checks


def _scalar_certainty(logits: np.ndarray) -> tuple:
    """One ``certainty_panel`` row recomputed through the scalar ops, in field order."""
    b = logits.size
    p = cat.softmax(logits)
    s = cat.symbolic_index(p)
    uniform = np.full(b, 1.0 / b)
    return (s, cat.logit_margin(logits), cat.stability_lower_bound(s),
            cat.kl_divergence(p, uniform), cat.tradeoff_lower_bound(s, b),
            cat.kl_divergence(uniform, p), cat.min_exploration_divergence(s, b))


@st.composite
def logit_panels(draw):
    """A (rows, B) logit matrix, B from 2 to 32, of logits in [-7, 7]."""
    b = draw(st.integers(2, 32))
    rows = draw(st.lists(logits_strategy(min_size=b, max_size=b, span=7.0), min_size=1, max_size=8))
    return np.array(rows)


class TestCertaintyPanel:
    # the largest deviation allowed between a panel value and its scalar recomputation
    SCALAR_TOL = 1e-10

    @given(logit_panels())
    @settings(max_examples=300)
    def test_every_field_of_every_row_matches_the_scalar_ops(self, logits):
        panel = cat_bulk.certainty_panel(logits)
        for i, row in enumerate(logits):
            bulk = [float(field[i]) for field in panel]
            assert np.max(np.abs(np.subtract(bulk, _scalar_certainty(row)))) <= self.SCALAR_TOL, (row, bulk)


class TestBlockRows:
    @pytest.mark.parametrize(
        "width, stack_cells, rows",
        [
            (1, 2**16, 2**16),  # one cell a row: the whole stack
            (3, 2**16, 21_845),  # a ragged width rounds down
            (2**16 + 1, 2**16, 1),  # a row wider than the stack still gets one
            (5, 20, 4),  # a patched stack is read at call time
        ],
    )
    def test_rows_fill_the_stack_and_never_fall_to_zero(self, monkeypatch, width, stack_cells, rows):
        monkeypatch.setattr(cat_bulk, "STACK_CELLS", stack_cells)
        assert cat_bulk.block_rows(width) == rows


class TestBlockedTradeoffPanel:
    def test_blocks_equal_one_panel_over_the_whole_draw(self, monkeypatch, small_constants):
        block = cat_bulk.STACK_CELLS // 32  # 2,048 rows of B = 32
        per_b = 2 * block + 517  # two full blocks and a ragged one
        options_set = (2, 32)  # B = 2 for the equality gate, in one block
        panels = {}  # B -> [(logits, panel)] per certainty_panel call
        one_panel = cat_bulk.certainty_panel

        def recording(logits):
            panel = one_panel(logits)
            panels.setdefault(logits.shape[1], []).append((logits.copy(), panel))
            return panel

        monkeypatch.setattr(cat_bulk, "certainty_panel", recording)
        small_constants(TRADEOFF_SAMPLES=len(options_set) * per_b, OPTIONS_SET=options_set)
        checks = run_tradeoff_scan(3, {}).checks
        monkeypatch.undo()

        assert [len(logits) for logits, _ in panels[32]] == [block, block, 517]
        for b in options_set:
            whole = rng_for(3, "tradeoff-sample", b).standard_normal((per_b, b))
            assert np.concatenate([logits for logits, _ in panels[b]]).tobytes() == whole.tobytes()
            for name, field in zip(cat_bulk.CertaintyPanel._fields, one_panel(whole)):
                blocked = np.concatenate([getattr(panel, name) for _, panel in panels[b]])
                assert blocked.tobytes() == field.tobytes(), (b, name)
        expected = _one_shot_tradeoff_checks(3, options_set, per_b)
        assert checks[:len(expected)] == expected


class TestDivergenceAsymptote:
    def test_reference_value(self):
        spec = cat.DirichletConcentration(kappa=1e4, n_options=5)
        expected = 0.8 * math.log(1e4) - math.log(5.0)
        assert abs(cat.cot_divergence_asymptote(spec) - expected) <= 1e-12
        assert abs(expected - 5.7588) <= 1e-3

    def test_matches_exact_divergence_to_order_one_over_kappa(self):
        for kappa in (1e2, 1e3, 1e4, 1e5, 1e6):
            spec = cat.DirichletConcentration(kappa=kappa, n_options=5)
            exact = cat.kl_divergence(np.full(5, 0.2), cat.dirichlet_mean(spec))
            assert abs(exact - cat.cot_divergence_asymptote(spec)) <= 10.0 / kappa

    def test_two_option_reduction(self):
        spec = cat.DirichletConcentration(kappa=777.0, n_options=2)
        assert abs(
            cat.cot_divergence_asymptote(spec) - (0.5 * math.log(777.0) - math.log(2.0))
        ) <= 1e-12

    def test_slope_in_log_kappa_is_exact(self):
        def asym(kappa):
            return cat.cot_divergence_asymptote(
                cat.DirichletConcentration(kappa=kappa, n_options=5)
            )

        slope = (asym(1e6) - asym(1e2)) / (math.log(1e6) - math.log(1e2))
        assert abs(slope - 0.8) <= 1e-12


class TestWorstCaseLatentKl:
    def test_uniform_collapse_cases(self):
        assert abs(cat.worst_case_latent_kl(0.5, 2).exact) <= 1e-12
        for b in range(2, 7):
            delta = (b - 1) / b
            assert abs(cat.worst_case_latent_kl(delta, b).exact) <= 1e-12

    def test_two_option_hand_value(self):
        assert abs(cat.worst_case_latent_kl(0.1, 2).exact - 0.5108256237659907) <= 1e-12

    def test_exact_never_exceeds_simplified(self):
        for delta in (0.05, 0.1, 0.3, 0.5, 0.7):
            for b in range(2, 33):
                if 1.0 - delta < 1.0 / b:
                    continue
                bound = cat.worst_case_latent_kl(delta, b)
                assert bound.exact <= bound.simplified_bound + 1e-12

    def test_two_options_match_half_log_form(self):
        bound = cat.worst_case_latent_kl(0.3, 2)
        assert abs(
            bound.simplified_bound - (-0.5 * math.log(0.3) - bound.scan_constant)
        ) <= 1e-15

    def test_infeasible_cap_rejected(self):
        with pytest.raises(InvalidInputError):
            cat.worst_case_latent_kl(0.9, 4)  # cap 0.1 < 1/4

    def test_caps_the_even_remainder_family(self):
        bound = cat.worst_case_latent_kl(0.3, 5)
        uniform = np.full(5, 0.2)
        for s in np.linspace(0.2, 0.7, 11):
            measured = cat.kl_divergence(uniform, cat.peaked_distribution(float(s), 5))
            assert measured <= bound.exact + 1e-12

    def test_skewed_remainders_can_exceed_the_even_remainder_ceiling(self):
        # documents why the worst case is stated over even remainders: a
        # capped distribution with a lopsided remainder has a larger
        # divergence from uniform than the even-remainder extreme
        skewed = np.array([0.7, 0.295, 0.005])
        bound = cat.worst_case_latent_kl(0.3, 3)
        assert cat.kl_divergence(np.full(3, 1 / 3), skewed) > bound.exact

    def test_scan_constant_nonpositive_tail(self):
        # the infimum includes the analytic limit 0, so it is never positive
        for delta, b in ((0.1, 2), (0.5, 2), (0.9, 16)):
            assert cat.worst_case_latent_kl(delta, b).scan_constant <= 0.0
