"""Conditional information-bottleneck solver against its brute-force oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certlab import cat_bulk, cib, experiments
from certlab.errors import EnumerationTooLargeError, InvalidInputError
from certlab.experiments import frontier_envelope
from certlab.seeding import derive_seed


def two_by_two_problem():
    # matched past/future with 0.45 on each diagonal cell, 0.05 off
    joint = np.array([[[0.45, 0.05], [0.05, 0.45]]])
    return cib.CibProblem(joint=joint)


class TestTypes:
    def test_joint_must_sum_to_one(self):
        with pytest.raises(InvalidInputError):
            cib.CibProblem(joint=np.full((1, 2, 2), 0.3))

    def test_joint_must_be_nonnegative(self):
        joint = np.array([[[0.7, -0.1], [0.2, 0.2]]])
        with pytest.raises(InvalidInputError):
            cib.CibProblem(joint=joint)

    def test_alphabet_minimums(self):
        with pytest.raises(InvalidInputError):
            cib.CibProblem(joint=np.full((1, 1, 2), 0.5))

    def test_encoder_rows_must_normalize(self):
        with pytest.raises(InvalidInputError):
            cib.Encoder(table=np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_info_plane_rejects_future_exceeding_past(self):
        with pytest.raises(InvalidInputError):
            cib.InfoPlanePoint(i_past=0.1, i_future=0.5, beta=1.0, objective=0.0)


class TestConditionalMutualInformation:
    def test_constant_encoder_carries_nothing(self):
        problem = two_by_two_problem()
        encoder = cib.constant_encoder(2, 2)
        assert cib.conditional_mutual_information(problem, encoder, "past") == 0.0
        assert cib.conditional_mutual_information(problem, encoder, "future") == 0.0

    def test_identity_encoder_is_lossless(self):
        problem = two_by_two_problem()
        encoder = cib.identity_encoder(2)
        # direct four-cell evaluation of the past<->future information
        hand = 2 * 0.45 * math.log(0.45 / 0.25) + 2 * 0.05 * math.log(0.05 / 0.25)
        i_past = cib.conditional_mutual_information(problem, encoder, "past")
        i_future = cib.conditional_mutual_information(problem, encoder, "future")
        assert abs(i_past - math.log(2.0)) <= 1e-12  # H(S_past), uniform here
        assert abs(i_future - hand) <= 1e-12
        assert abs(hand - 0.368) <= 1e-3

    def test_future_never_exceeds_past(self):
        rng = np.random.default_rng(0)
        for i in range(20):
            problem = cib.random_problem(3, 3, 2, seed=i)
            table = rng.dirichlet(np.ones(2), size=3)
            encoder = cib.Encoder(table=table)
            i_past = cib.conditional_mutual_information(problem, encoder, "past")
            i_future = cib.conditional_mutual_information(problem, encoder, "future")
            assert i_future <= i_past + 1e-9

    def test_subnormal_encoder_cell_stays_finite(self):
        # p(h=1) * p(f=2) underflows to 0 while p(h=1, f=2) is a subnormal > 0
        problem = cib.CibProblem(joint=np.array([[[0.49, 0.0, 0.01], [0.25, 0.25, 0.0]]]))
        tiny = cib.Encoder(table=np.array([[1 - 4e-322, 4e-322], [1.0, 0.0]]))
        zeroed = cib.Encoder(table=np.array([[1.0, 0.0], [1.0, 0.0]]))
        for value, reference in [
            (cib.conditional_mutual_information(problem, tiny, "future"),
             cib.conditional_mutual_information(problem, zeroed, "future")),
            (cib.dual_objective(problem, tiny, 2.0), cib.dual_objective(problem, zeroed, 2.0)),
        ]:
            assert math.isfinite(value)
            assert abs(value - reference) <= 1e-300

    def test_bad_target_rejected(self):
        with pytest.raises(InvalidInputError):
            cib.conditional_mutual_information(
                two_by_two_problem(), cib.identity_encoder(2), "sideways"
            )


class TestBetaSchedule:
    def test_spot_values(self):
        assert cib.beta_schedule(0, 10) == 0.0
        assert abs(cib.beta_schedule(5, 10) - 1.0) <= 1e-15
        assert abs(cib.beta_schedule(9, 10) - 9.0) <= 1e-12

    def test_monotone_in_stage(self):
        values = [cib.beta_schedule(k, 12) for k in range(12)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_terminal_stage_rejected(self):
        with pytest.raises(InvalidInputError):
            cib.beta_schedule(10, 10)
        with pytest.raises(InvalidInputError):
            cib.beta_schedule(-1, 10)

    def test_a_schedule_that_accepts_the_terminal_stage_fails_the_rejection_test(self, monkeypatch):
        schedule = cib.beta_schedule
        monkeypatch.setattr(cib, "beta_schedule", lambda k, total: math.inf if k == total else schedule(k, total))
        self.test_spot_values()
        self.test_monotone_in_stage()
        with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
            self.test_terminal_stage_rejected()


class TestSolver:
    def test_beta_zero_collapses(self, monkeypatch):
        monkeypatch.setattr(cib, "RESTARTS", 4)
        problem = cib.random_noisy_problem(3, 3, 1, seed=3)
        solution = cib.solve_cib(problem, 0.0, 2, seed=0)
        assert solution.point.i_past <= 1e-6
        assert solution.point.objective <= 1e-12

    def test_large_beta_recovers_all_predictive_information(self, monkeypatch):
        monkeypatch.setattr(cib, "RESTARTS", 8)
        problem = cib.random_noisy_problem(3, 3, 1, seed=3)
        ceiling = cib.conditional_mutual_information(problem, cib.identity_encoder(3), "future")
        solution = cib.solve_cib(problem, 1000.0, 3, seed=0)
        assert abs(solution.point.i_future - ceiling) <= 1e-4

    def test_never_worse_than_brute_force(self, monkeypatch):
        monkeypatch.setattr(cib, "RESTARTS", 8)
        for seed in range(6):
            problem = cib.random_problem(3, 3, 1, seed=seed)
            for beta in (0.5, 2.0):
                solution = cib.solve_cib(problem, beta, 2, seed=seed)
                brute, _ = cib.brute_force_cib(problem, beta, 2)
                assert solution.point.objective <= brute + 1e-8

    def test_objective_trace_monotone(self, monkeypatch):
        monkeypatch.setattr(cib, "RESTARTS", 8)
        problem = cib.grouped_future_problem()
        solution = cib.solve_cib(problem, 2.0, 2, seed=1)
        trace = solution.objective_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_deterministic_given_seed(self, monkeypatch):
        monkeypatch.setattr(cib, "RESTARTS", 6)
        problem = cib.random_problem(3, 3, 2, seed=5)
        a = cib.solve_cib(problem, 1.5, 2, seed=42)
        b = cib.solve_cib(problem, 1.5, 2, seed=42)
        assert a.point == b.point
        np.testing.assert_array_equal(a.encoder.table, b.encoder.table)

    def test_rejects_bad_arguments(self):
        problem = two_by_two_problem()
        with pytest.raises(InvalidInputError):
            cib.solve_cib(problem, -1.0, 2)
        with pytest.raises(InvalidInputError):
            cib.solve_cib(problem, 1.0, 0)


class TestBruteForce:
    def test_beta_zero_minimum_is_constant_map(self):
        problem = cib.random_problem(3, 3, 1, seed=1)
        best, mapping = cib.brute_force_cib(problem, 0.0, 2)
        assert abs(best) <= 1e-12
        assert len(set(mapping)) == 1

    def test_lossless_regime_groups_by_future_profile(self):
        problem = cib.grouped_future_problem()
        _, mapping = cib.brute_force_cib(problem, 5.0, 2)
        assert mapping[0] == mapping[1] != mapping[2]

    def test_enumeration_cap(self):
        problem = cib.random_problem(8, 2, 1, seed=0)
        with pytest.raises(EnumerationTooLargeError):
            cib.brute_force_cib(problem, 1.0, 10)

    def test_golden_grouped_problem_value(self):
        # frozen after the first computation; guards solver and oracle alike
        best, mapping = cib.brute_force_cib(cib.grouped_future_problem(), 2.0, 2)
        assert abs(best - (-0.20289806975715452)) <= 1e-12
        assert mapping[0] == mapping[1] != mapping[2]


class TestDecoderProbability:
    def test_deterministic_future_reaches_one(self):
        joint = np.zeros((1, 2, 2))
        joint[0, 0, 0] = 0.5
        joint[0, 1, 1] = 0.5
        problem = cib.CibProblem(joint=joint)
        assert cib.max_decoder_probability(problem, cib.identity_encoder(2)) == 1.0

    def test_capped_conditionals_cap_every_decoder(self):
        problem = cib.random_noisy_problem(3, 3, 2, seed=9)
        rng = np.random.default_rng(2)
        for _ in range(20):
            encoder = cib.Encoder(table=rng.dirichlet(np.ones(2), size=3))
            assert cib.max_decoder_probability(problem, encoder) <= cib.MAX_CONDITIONAL + 1e-12


class TestFrontier:
    def test_small_frontier_is_clean(self, monkeypatch):
        monkeypatch.setattr(cib, "RESTARTS", 8)
        problem = cib.random_noisy_problem(3, 3, 1, seed=7)
        monkeypatch.setattr(cib, "FRONTIER_BETAS", (0.0, 0.5, 2.0, 50.0))
        points = cib.information_frontier(problem, seed=0)
        excess, _ = frontier_envelope(points)
        assert len(excess) == 3 + 2 and max(excess) <= 0.0
        past = [p.i_past for p in points]
        assert all(b >= a - 1e-9 for a, b in zip(past, past[1:]))

    def test_envelope_rows_flag_a_drop_and_a_convex_kink(self):
        def point(i_past, i_future):
            return cib.InfoPlanePoint(i_past=i_past, i_future=i_future, beta=i_past, objective=0.0)

        excess, where = frontier_envelope([point(0.0, 0.0), point(0.2, 0.1), point(0.4, 0.05), point(0.6, 0.5)])
        over = [label for e, label in zip(excess, where) if e > 0.0]
        assert over == ["i_future drop between beta=0.2 and beta=0.4", "convex kink at beta=0.4 (i_past 0.400000000)"]


class TestSerialization:
    def test_rows_list_the_joint_cells_in_x_s_f_order(self):
        problem = cib.random_problem(3, 4, 2, seed=11)
        rows = cib.problem_to_rows(problem)
        assert [row[:3] for row in rows] == list(np.ndindex(problem.joint.shape))
        np.testing.assert_array_equal([row[3] for row in rows], problem.joint.ravel())


# ---------------------------------------------------------------------------
# Reference: the per-candidate solver loop with its one-table sweep and its
# per-context scalar CMI.  The lockstep solver must reproduce it exactly.
# ---------------------------------------------------------------------------


def _reference_masked_xlogy(w, ratio_num, ratio_den):
    mask = w > 0.0
    return float(np.sum(w[mask] * np.log(ratio_num[mask] / ratio_den[mask])))


def _reference_cmi(joint, table, target):
    p_x = joint.sum(axis=(1, 2))
    total = 0.0
    for x in range(joint.shape[0]):
        if p_x[x] <= 0.0:
            continue
        p_sf = joint[x] / p_x[x]
        p_s = p_sf.sum(axis=1)
        marginal = p_s @ table
        if target == "past":
            w = p_s[:, None] * table
            num = np.broadcast_to(table, w.shape)
            den = np.broadcast_to(marginal[None, :], w.shape)
            total += p_x[x] * _reference_masked_xlogy(w, num, den)
        else:
            p_hf = table.T @ p_sf
            p_f = p_sf.sum(axis=0)
            den = marginal[:, None] * p_f[None, :]
            total += p_x[x] * _reference_masked_xlogy(p_hf, p_hf, den)
    return max(total, 0.0)


def _reference_objective(joint, table, beta):
    return _reference_cmi(joint, table, "past") - beta * _reference_cmi(joint, table, "future")


def _reference_sweep(joint, table, beta):
    p_x = joint.sum(axis=(1, 2))
    exponent = np.zeros_like(table)
    p_s = joint.sum(axis=(0, 2))
    for x in range(joint.shape[0]):
        if p_x[x] <= 0.0:
            continue
        p_sf = joint[x] / p_x[x]
        p_s_x = p_sf.sum(axis=1)
        marginal = p_s_x @ table
        p_hf = table.T @ p_sf
        with np.errstate(divide="ignore", invalid="ignore"):
            log_marginal = np.where(marginal > 0.0, np.log(np.maximum(marginal, 1e-300)), cib.LOG_FLOOR)
            decoder = np.where(marginal[:, None] > 0.0, p_hf / np.maximum(marginal[:, None], 1e-300), 0.0)
            log_decoder = np.where(decoder > 0.0, np.log(np.maximum(decoder, 1e-300)), cib.LOG_FLOOR)
        w_x_given_s = np.where(p_s > 0.0, p_x[x] * p_s_x / np.maximum(p_s, 1e-300), 0.0)
        w_xf_given_s = np.where(
            p_s[:, None] > 0.0, p_x[x] * p_sf / np.maximum(p_s[:, None], 1e-300), 0.0
        )
        exponent += w_x_given_s[:, None] * log_marginal[None, :]
        exponent += beta * (w_xf_given_s @ log_decoder.T)
    exponent -= exponent.max(axis=1, keepdims=True)
    new_table = np.exp(exponent)
    return new_table / new_table.sum(axis=1, keepdims=True)


def _reference_solve(problem, beta, n_latent, restarts, tol, seed, max_iter):
    """(table, i_past, i_future, objective, converged, restart_index, iterations, trace)."""
    joint = problem.joint
    best = None
    for candidate in range(restarts + 1):
        if candidate == 0:
            table = cib.constant_encoder(problem.n_past, n_latent).table
        else:
            rng = cib.rng_for(seed, "cib-restart", candidate)
            table = rng.dirichlet(np.ones(n_latent), size=problem.n_past)
        objective = _reference_objective(joint, table, beta)
        trace = [objective]
        converged = False
        iterations = 0
        for iterations in range(1, max_iter + 1):
            table = _reference_sweep(joint, table, beta)
            new_objective = _reference_objective(joint, table, beta)
            trace.append(new_objective)
            if abs(new_objective - objective) < tol:
                objective = new_objective
                converged = True
                break
            objective = new_objective
        if best is None or objective < best[0]:
            best = (objective, candidate, table, converged, iterations, trace)
    objective, candidate, table, converged, iterations, trace = best
    return (table, _reference_cmi(joint, table, "past"), _reference_cmi(joint, table, "future"),
            objective, converged, candidate, iterations, tuple(trace))


def _reference_corpus():
    """(problem, beta, n_latent, restarts, max_iter) cases, including non-converged
    solves (max_iter 3), every n_latent from 1 to 4 and a joint with zero cells."""
    rng = np.random.default_rng(2024)
    cases = []
    for i in range(16):
        n_past, n_future, n_context = (int(v) for v in rng.integers((2, 2, 1), (5, 4, 4)))
        problem = cib.random_problem(n_past, n_future, n_context, seed=100 + i)
        cases.append((problem, (0.0, 1.0, 1000.0)[i % 3], 1 + i % 4, int(rng.integers(1, 7)),
                      3 if i % 4 == 3 else 10_000))
    sparse = np.array([[[0.3, 0.0, 0.1], [0.0, 0.0, 0.2], [0.1, 0.3, 0.0]]])
    cases.append((cib.CibProblem(joint=sparse), 2.0, 3, 8, 10_000))
    cases.append((cib.CibProblem(joint=sparse), 2.0, 2, 4, 3))
    # a context without mass: every per-context loop skips it
    empty_context = np.zeros((2, 3, 2))
    empty_context[0] = [[0.2, 0.1], [0.05, 0.3], [0.25, 0.1]]
    cases.append((cib.CibProblem(joint=empty_context), 1.5, 2, 5, 10_000))
    # a past symbol without mass in any context: its encoder-update weights
    # p(x|s) and p(x,f|s) take the p(s) = 0 branch
    empty_symbol = np.zeros((2, 3, 3))
    empty_symbol[:, [0, 2]] = rng.dirichlet(np.ones(12)).reshape(2, 2, 3)
    cases.append((cib.CibProblem(joint=empty_symbol), 3.0, 3, 6, 10_000))
    return cases


def _sweep(joint, tables, beta):
    contexts = cib._contexts(joint)
    return cib._encoder_sweep(contexts, tables, cib._moments(contexts, tables), beta)


class TestLockstepSolver:
    @pytest.mark.parametrize("case", range(len(_reference_corpus())))
    def test_solver_equals_per_candidate_reference(self, monkeypatch, case):
        problem, beta, n_latent, restarts, max_iter = _reference_corpus()[case]
        monkeypatch.setattr(cib, "MAX_SWEEPS", max_iter)
        monkeypatch.setattr(cib, "RESTARTS", restarts)
        solution = cib.solve_cib(problem, beta, n_latent, seed=case)
        table, i_past, i_future, objective, converged, restart, iterations, trace = _reference_solve(
            problem, beta, n_latent, restarts, cib.TOL, case, max_iter
        )
        np.testing.assert_array_equal(solution.encoder.table, table)
        assert solution.point == cib.InfoPlanePoint(i_past, i_future, beta, objective, converged)
        assert (solution.restart_index, solution.iterations) == (restart, iterations)
        assert solution.objective_trace == trace

    def test_corpus_covers_non_convergence_and_every_latent_size(self, monkeypatch):
        outcomes = []
        for problem, beta, n_latent, restarts, max_iter in _reference_corpus():
            monkeypatch.setattr(cib, "MAX_SWEEPS", max_iter)
            monkeypatch.setattr(cib, "RESTARTS", restarts)
            outcomes.append((n_latent, cib.solve_cib(problem, beta, n_latent).point.converged))
        assert {n for n, _ in outcomes} == {1, 2, 3, 4}
        assert {c for _, c in outcomes} == {True, False}

    @pytest.mark.parametrize("case", range(len(_reference_corpus())))
    def test_sweep_and_objective_raise_no_floating_point_error(self, monkeypatch, case):
        # the sweep takes logs only of cells clamped to >= 1e-300 and divides
        # only by clamped marginals, so it needs no errstate of its own; the
        # constant encoder, the sparse joint, the massless context and the
        # massless symbol reach the masked branches
        problem, beta, n_latent, restarts, max_iter = _reference_corpus()[case]
        monkeypatch.setattr(cib, "MAX_SWEEPS", max_iter)
        monkeypatch.setattr(cib, "RESTARTS", restarts)
        with np.errstate(divide="raise", invalid="raise"):
            cib.solve_cib(problem, beta, n_latent, seed=case)

    def test_stacked_sweep_equals_per_table_sweeps(self):
        rng = np.random.default_rng(5)
        problem = cib.random_problem(3, 3, 2, seed=4)
        tables = rng.dirichlet(np.ones(3), size=(6, 3))
        tables[2, 0] = (1.0, 0.0, 0.0)  # a row with zero cells
        for beta in (0.0, 2.0, 1000.0):
            stacked = _sweep(problem.joint, tables, beta)
            for r in range(len(tables)):
                single = _sweep(problem.joint, tables[r], beta)
                np.testing.assert_array_equal(stacked[r], single)
                np.testing.assert_array_equal(single, _reference_sweep(problem.joint, tables[r], beta))

    def test_cmi_rows_sum_each_row_on_its_kept_cells(self):
        # 3x3 encoders with 2 zeroed cells keep 7 of 9: zero-padding such a
        # row to 9 cells would sum in numpy's pairwise order and differ in
        # the last bits from the compact np.sum of the 7 kept cells
        rng = np.random.default_rng(11)
        problem = cib.random_problem(3, 3, 1, seed=3)
        tables = rng.dirichlet(np.ones(3), size=(40, 3))
        for table in tables[::2]:
            table[rng.choice(3, size=2, replace=False), rng.choice(3, size=2, replace=False)] = 0.0
        tables /= tables.sum(axis=2, keepdims=True)
        contexts = cib._contexts(problem.joint)
        both = cib._cmi_rows(contexts, tables, cib._moments(contexts, tables))
        for target, rows in zip(("past", "future"), both):
            expected = [_reference_cmi(problem.joint, table, target) for table in tables]
            assert rows.tolist() == expected


# ---------------------------------------------------------------------------
# Reference: the per-map brute force, one dual_objective call per map.  The
# blocked brute force must reproduce it exactly.
# ---------------------------------------------------------------------------


def _reference_brute_force(problem, beta, n_latent):
    best_obj, best_map = math.inf, None
    for assignment in itertools.product(range(n_latent), repeat=problem.n_past):
        table = np.zeros((problem.n_past, n_latent))
        table[np.arange(problem.n_past), assignment] = 1.0
        obj = cib.dual_objective(problem, cib.Encoder(table=table), beta)
        if obj < best_obj:
            best_obj, best_map = obj, assignment
    return best_obj, best_map


@st.composite
def brute_force_cases(draw):
    """A small problem, a beta, an ``n_latent`` and a block size.  The joint's
    cells are a few small weights, zeros and a subnormal, normalized, so maps
    tie exactly (relabelled latents always tie in exact arithmetic); 1 to 64
    cells a block splits an enumeration into one-map blocks, several blocks
    with a ragged last one, or a single block."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(2, 4)), draw(st.integers(2, 3)))
    cells = st.sampled_from((0.0, 5e-324, 0.25, 1.0, 2.0, 3.0))
    weights = draw(st.lists(cells, min_size=math.prod(shape), max_size=math.prod(shape)).filter(sum))
    joint = np.reshape(weights, shape) / sum(weights)
    return cib.CibProblem(joint=joint), draw(st.floats(0.0, 1e3)), draw(st.integers(1, 4)), draw(st.integers(1, 64))


@st.composite
def cmi_stacks(draw):
    """A ``brute_force_cases`` problem and a stack of 1 to 8 encoder tables whose
    rows are drawn from the same weights, zeros and subnormal, then normalized."""
    problem, _, n_latent, _ = draw(brute_force_cases())
    cells = st.sampled_from((0.0, 5e-324, 0.25, 1.0, 2.0, 3.0))
    row = st.lists(cells, min_size=n_latent, max_size=n_latent).filter(sum)
    tables = np.array([[draw(row) for _ in range(problem.n_past)] for _ in range(draw(st.integers(1, 8)))])
    return problem, tables / tables.sum(axis=2, keepdims=True)


class TestStackedCmi:
    @settings(max_examples=100)
    @given(cmi_stacks())
    def test_stacked_cmi_equals_each_tables_scalar_cmi_bit_for_bit(self, case):
        problem, tables = case
        contexts = cib._contexts(problem.joint)
        stacked = cib._cmi_rows(contexts, tables, cib._moments(contexts, tables))
        for target, values in zip(("past", "future"), stacked):
            scalar = [cib.conditional_mutual_information(problem, cib.Encoder(table=t), target) for t in tables]
            assert [float(v).hex() for v in values] == [v.hex() for v in scalar], target


class TestBlockedBruteForce:
    @pytest.mark.parametrize("stack_cells", [1, 20, cat_bulk.STACK_CELLS])
    def test_blocks_equal_the_per_map_reference(self, monkeypatch, stack_cells):
        # stack_cells 1 and 20 split every enumeration into one- to few-map blocks
        monkeypatch.setattr(cat_bulk, "STACK_CELLS", stack_cells)
        rng = np.random.default_rng(31)
        for i in range(12):
            n_past, n_future, n_context = (int(v) for v in rng.integers((2, 2, 1), (5, 4, 4)))
            joint = rng.dirichlet(np.ones(n_past * n_future * n_context)).reshape(n_context, n_past, n_future)
            if i % 3 == 0:  # zeroed cells
                joint[rng.random(joint.shape) < 0.3] = 0.0
                joint /= joint.sum()
            problem = cib.CibProblem(joint=joint)
            for beta in (0.0, 0.5, 2.0, 1000.0):
                n_latent = 1 + i % 4
                assert cib.brute_force_cib(problem, beta, n_latent) == _reference_brute_force(
                    problem, beta, n_latent
                ), (i, beta)

    @settings(max_examples=100)
    @given(brute_force_cases())
    def test_blocks_equal_the_per_map_reference_on_tied_problems(self, case):
        problem, beta, n_latent, stack_cells = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cat_bulk, "STACK_CELLS", stack_cells)
            assert cib.brute_force_cib(problem, beta, n_latent) == _reference_brute_force(problem, beta, n_latent)

    @pytest.mark.parametrize("stack_cells", [1, 20, cat_bulk.STACK_CELLS])
    def test_ties_go_to_the_first_lexicographic_map(self, monkeypatch, stack_cells):
        # dyadic cells: every constant map scores exactly 0 at beta = 0, and
        # one-map blocks put each of the three constant maps in its own block
        monkeypatch.setattr(cat_bulk, "STACK_CELLS", stack_cells)
        joint = np.array([[[0.25, 0.125], [0.125, 0.25], [0.125, 0.125]]])
        best, mapping = cib.brute_force_cib(cib.CibProblem(joint=joint), 0.0, 3)
        assert (best, mapping) == (0.0, (0, 0, 0))

    def test_brute_force_scores_stacks_not_single_maps(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("brute_force_cib scored one map at a time")

        monkeypatch.setattr(cib, "dual_objective", refuse)
        _, mapping = cib.brute_force_cib(cib.grouped_future_problem(), 2.0, 2)
        assert mapping[0] == mapping[1] != mapping[2]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="alternating minimization from random restarts can stop above the deterministic minimum: "
    "here no restart gets below the constant encoder's objective 0",
)
def test_solver_meets_the_brute_force_minimum_at_seed_5_problem_8():
    # the battery's corpus solve at seed 5, problem 8 (one context), beta = 5, rebuilt
    # from the library: the solver reaches 0.0 where brute force finds -0.0305
    problem = cib.random_problem(3, 3, 1, derive_seed(5, "corpus", 8))
    solution = cib.solve_cib(problem, 5.0, experiments.CIB_N_LATENT, seed=derive_seed(5, "corpus-solve", 8, "5.0"))
    brute, _ = cib.brute_force_cib(problem, 5.0, experiments.CIB_N_LATENT)
    assert solution.point.objective <= brute + 1e-8


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the brute force ranges over deterministic encoders only, so the corpus gate cannot see a "
    "stochastic encoder below them: here solver and brute force both stop at the constant encoder's 0",
)
def test_solver_reaches_below_the_constant_encoder_at_seed_0_problem_10():
    # the battery's corpus solve at seed 0, problem 10 (one context), beta = 2, rebuilt
    # from the library: solver and brute force both return 0.0, where solves of 64
    # restarts reach -1.90e-4
    problem = cib.random_problem(3, 3, 1, derive_seed(0, "corpus", 10))
    solution = cib.solve_cib(problem, 2.0, experiments.CIB_N_LATENT, seed=derive_seed(0, "corpus-solve", 10, "2.0"))
    assert solution.point.objective <= -1e-4
