"""Decision-DAG construction, policies, search, and the exact oracle."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certlab import categorical as cat
from certlab import dag, experiments
from certlab.experiments import EXPERIMENTS, default_params
from certlab.errors import EnumerationTooLargeError, InfiniteDivergenceError, InvalidInputError
from certlab.seeding import derive_seed, rng_for


class TestConstruction:
    def test_cycle_rejected(self):
        with pytest.raises(InvalidInputError, match="cycle"):
            dag.DecisionDag(successors=((1,), (0,)), start=0, targets=frozenset({1}))

    def test_unreachable_target_rejected(self):
        with pytest.raises(InvalidInputError, match="not reachable"):
            dag.DecisionDag(successors=((1,), (), ()), start=0, targets=frozenset({2}))

    def test_topological_order_is_consistent(self):
        graph = dag.layered_dag(n_layers=4, width=3, max_out_degree=3, seed=1)
        position = {v: i for i, v in enumerate(graph.topological_order)}
        for v, succ in enumerate(graph.successors):
            for u in succ:
                assert position[v] < position[u]

    def test_trap_structure(self):
        trap = dag.trap_dag(6, 3)
        spine = [v for v in trap.decision_nodes()]
        assert len(spine) == 6
        assert all(len(trap.successors[v]) == 3 for v in spine)
        assert trap.targets == {6}


class TestSerialization:
    def test_round_trip(self):
        for graph in (dag.chain_dag(4), dag.diamond_dag(), dag.trap_dag(3, 3)):
            parsed = dag.parse_dag(dag.format_dag(graph))
            assert parsed.successors == graph.successors
            assert parsed.start == graph.start
            assert parsed.targets == graph.targets

    def test_missing_header_rejected(self):
        with pytest.raises(InvalidInputError, match="header"):
            dag.parse_dag("0: 1\n1:\n")

    def test_bad_node_id_rejected(self):
        with pytest.raises(InvalidInputError, match="bad node id"):
            dag.parse_dag("start: 0\ntargets: 1\nzero: 1\n1:\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("start: x\ntargets: 1\n0: 1\n1:\n", "line 1: bad node id"),
            ("start:\ntargets: 1\n0: 1\n1:\n", "line 1: start: needs one node id"),
            ("start: 0, 1\ntargets: 1\n0: 1\n1:\n", "line 1: start: needs one node id"),
            ("start: 0\ntargets: 1, one\n0: 1\n1:\n", "line 2: bad node id"),
            ("start: 0\ntargets: 1\n0: 1, b\n1:\n", "line 3: bad node id"),
            ("start: 0\ntargets: 1\n0: 1\n1:\n-1: 0\n", "line 5: bad node id"),
            ("start: 0\ntargets: 1\nstart: 1\n0: 1\n1:\n", "line 3: duplicate start"),
            ("start: 0\ntargets: 1\n0: 1\ntargets: 0\n1:\n", "line 4: duplicate targets"),
        ],
    )
    def test_malformed_lines_rejected_with_line_number(self, text, message):
        with pytest.raises(InvalidInputError, match=message):
            dag.parse_dag(text)

    def test_node_cap_is_checked_before_the_graph_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the graph was built")

        monkeypatch.setattr(dag, "DecisionDag", refuse)
        cap = dag.ENUMERATION_NODE_CAP
        with pytest.raises(EnumerationTooLargeError, match=f"node id {cap} makes {cap + 1} nodes, over the {cap} cap"):
            dag.parse_dag(f"start: 0\ntargets: 0\n{cap}:\n")
        with pytest.raises(AssertionError, match="the graph was built"):  # at the cap it is built
            dag.parse_dag(f"start: 0\ntargets: 0\n{cap - 1}:\n")


_POLICY_GRAPHS = {
    "trap": dag.trap_dag(4, 3),
    "diamond": dag.diamond_dag(),
    "layered": dag.layered_dag(n_layers=5, width=4, max_out_degree=3, seed=2),
}


class TestMakePolicy:
    @pytest.mark.parametrize("kind", ["uniform", "concentrated", "non_degenerate"])
    @pytest.mark.parametrize("name", sorted(_POLICY_GRAPHS))
    def test_one_row_per_node_aligned_with_its_successors(self, name, kind):
        graph = _POLICY_GRAPHS[name]
        policy = dag.make_policy(graph, kind, kappa=1e3, seed=5)
        assert len(policy) == graph.n_nodes
        for v, succ in enumerate(graph.successors):
            if not succ:
                assert policy[v] is None
                continue
            assert policy[v].shape == (len(succ),)
            assert abs(float(policy[v].sum()) - 1.0) <= 1e-12

    def test_uniform_kind_equals_prior(self):
        graph = dag.trap_dag(4, 3)
        policy = dag.make_policy(graph, "uniform", seed=0)
        for v in graph.decision_nodes():
            k = len(graph.successors[v])
            assert np.array_equal(policy[v], np.full(k, 1.0 / k))

    def test_concentrated_has_high_certainty(self):
        graph = dag.trap_dag(6, 3)
        hits = 0
        nodes = 0
        for i in range(40):
            policy = dag.make_policy(graph, "concentrated", kappa=1e6, seed=i)
            for v in graph.decision_nodes():
                nodes += 1
                hits += cat.symbolic_index(policy[v]) > 0.999
        assert hits / nodes >= 0.99

    def test_non_degenerate_cap_is_exact(self):
        graph = dag.trap_dag(6, 3)
        for i in range(20):
            policy = dag.make_policy(graph, "non_degenerate", seed=i)
            for v in graph.decision_nodes():
                row = policy[v]
                if row.size >= 2:
                    assert cat.symbolic_index(row) <= 0.7 + 1e-12

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown policy kind"):
            dag.make_policy(dag.diamond_dag(), "greedy", seed=0)

    def test_missing_params_rejected(self):
        with pytest.raises(InvalidInputError, match="concentrated policy needs kappa"):
            dag.make_policy(dag.diamond_dag(), "concentrated", seed=0)


class TestExplorationDivergence:
    def test_uniform_policy_is_zero(self):
        graph = dag.trap_dag(5, 3)
        assert dag.exploration_divergence(graph, dag.make_policy(graph, "uniform", seed=0)) == 0.0

    def test_zero_mass_successor_raises_with_node(self):
        graph = dag.diamond_dag()
        policy = (np.array([1.0, 0.0]), np.ones(1), np.ones(1), None)
        with pytest.raises(InfiniteDivergenceError, match="node 0"):
            dag.exploration_divergence(graph, policy)

    def test_binary_graph_respects_delta_ceiling(self):
        graph = dag.layered_dag(n_layers=5, width=4, max_out_degree=2, seed=9)
        bound = cat.worst_case_latent_kl(0.3, 2)
        ceiling = -0.5 * np.log(0.3) - bound.scan_constant
        for i in range(10):
            policy = dag.make_policy(graph, "non_degenerate", seed=i)
            assert dag.exploration_divergence(graph, policy) <= ceiling + 1e-9


class TestSearchAndOracle:
    def test_chain_always_succeeds(self):
        chain = dag.chain_dag(5)
        policy = dag.make_policy(chain, "uniform", seed=0)
        assert dag.enumerate_paths(chain, policy) == 1.0
        stats = dag.run_search(chain, policy, 500, seed=1)
        assert stats.success_rate == 1.0
        assert stats.mean_path_length == 5.0

    def test_diamond_always_succeeds(self):
        diamond = dag.diamond_dag()
        policy = dag.make_policy(diamond, "uniform", seed=0)
        assert dag.enumerate_paths(diamond, policy) == 1.0
        assert dag.run_search(diamond, policy, 500, seed=1).success_rate == 1.0

    def test_trap_exact_probability(self):
        trap = dag.trap_dag(6, 3)
        policy = dag.make_policy(trap, "uniform", seed=0)
        assert abs(dag.enumerate_paths(trap, policy) - (1.0 / 3.0) ** 6) <= 1e-15

    def test_monte_carlo_tracks_oracle(self):
        trap = dag.trap_dag(4, 3)
        policy = dag.make_policy(trap, "non_degenerate", seed=3)
        exact = dag.enumerate_paths(trap, policy)
        trials = 20_000
        stats = dag.run_search(trap, policy, trials, seed=4)
        se = np.sqrt(exact * (1.0 - exact) / trials)
        assert abs(stats.success_rate - exact) <= 3.0 * se

    def test_run_search_is_deterministic(self):
        trap = dag.trap_dag(5, 3)
        policy = dag.make_policy(trap, "non_degenerate", seed=7)
        a = dag.run_search(trap, policy, 3000, seed=42)
        b = dag.run_search(trap, policy, 3000, seed=42)
        assert a == b

    def test_stats_invariants(self):
        trap = dag.trap_dag(3, 3)
        stats = dag.run_search(trap, dag.make_policy(trap, "uniform", seed=0), 1000, seed=0)
        assert stats.successes <= stats.trials
        assert stats.success_rate == stats.successes / stats.trials


def _scalar_search(graph, policy, trials, seed):
    """Reference: each block's trials walked one step at a time by a scalar loop.

    Block ``b`` opens ``rng_for(seed, "trial-block", b)``; at each step the
    trials at a target or a dead end stop, the live ones draw one uniform
    each from one ``random`` call, and live trial ``j`` moves with ``u[j]``.
    The block ends when no trial is live.
    """
    cumulative = {v: np.cumsum(policy[v]) for v in graph.decision_nodes()}
    successes = 0
    total_steps = 0
    for block, first in enumerate(range(0, trials, dag.SEARCH_BLOCK)):
        rng = rng_for(seed, "trial-block", block)
        live = [graph.start] * min(dag.SEARCH_BLOCK, trials - first)
        while True:
            done = [v for v in live if v in graph.targets or not graph.successors[v]]
            successes += sum(v in graph.targets for v in done)
            live = [v for v in live if v not in graph.targets and graph.successors[v]]
            if not live:
                break
            u = rng.random(len(live))
            total_steps += len(live)
            for j, v in enumerate(live):
                succ = graph.successors[v]
                pick = min(int(np.searchsorted(cumulative[v], u[j], side="right")), len(succ) - 1)
                live[j] = succ[pick]
    return dag.TraversalStats(trials, successes, total_steps / trials, successes / trials)


def _custom_graph():
    text = (Path(__file__).resolve().parents[1] / "configs" / "custom_graph.txt").read_text()
    return dag.parse_dag(text)


# name -> (graph, policy kind, trials); node 1 of "target-with-out-edges"
# is a target that still has a successor.
_SEARCH_CASES = {
    "trap": (dag.trap_dag(6, 3), "non_degenerate", 20_000),
    "chain": (dag.chain_dag(5), "uniform", 2000),
    "diamond": (dag.diamond_dag(), "non_degenerate", 2000),
    "layered": (dag.layered_dag(n_layers=6, width=5, max_out_degree=3, seed=4), "non_degenerate", 20_000),
    "custom-file": (_custom_graph(), "non_degenerate", 20_000),
    "target-with-out-edges": (
        dag.DecisionDag(successors=((1, 2), (3,), (3,), ()), start=0, targets=frozenset({1, 3})),
        "non_degenerate", 3000,
    ),
    "partial-block": (dag.trap_dag(3, 4), "uniform", dag.SEARCH_BLOCK + 17),
}


class TestLockstepSearch:
    @pytest.mark.parametrize("case", sorted(_SEARCH_CASES))
    def test_stats_equal_the_scalar_loop(self, case):
        graph, kind, trials = _SEARCH_CASES[case]
        policy = dag.make_policy(graph, kind, seed=11)
        expected = _scalar_search(graph, policy, trials, seed=5)
        assert dag.run_search(graph, policy, trials, seed=5) == expected

    def test_cdf_ending_below_one_clamps_to_the_last_successor(self):
        graph = dag.trap_dag(3, 3)
        short = np.array([0.2, 0.2, 0.3])  # a draw in [0.7, 1) falls past the CDF
        policy = tuple(short if succ else None for succ in graph.successors)
        expected = _scalar_search(graph, policy, 5000, seed=3)
        assert dag.run_search(graph, policy, 5000, seed=3) == expected

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
    def test_block_sizes_equal_the_scalar_loop(self, block, monkeypatch):
        # block 1 gives every trial its own stream; 64 holds all 50 trials
        graph = dag.trap_dag(4, 3)
        policy = dag.make_policy(graph, "non_degenerate", seed=2)
        monkeypatch.setattr(dag, "SEARCH_BLOCK", block)
        expected = _scalar_search(graph, policy, 50, seed=9)
        assert dag.run_search(graph, policy, 50, seed=9) == expected

    # Roots at the word boundaries of a 64-bit seed.
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    def test_edge_seeds_equal_the_scalar_loop(self, seed, monkeypatch):
        graph = dag.trap_dag(4, 3)
        policy = dag.make_policy(graph, "uniform", seed=0)
        monkeypatch.setattr(dag, "SEARCH_BLOCK", 7)
        expected = _scalar_search(graph, policy, 30, seed)
        assert dag.run_search(graph, policy, 30, seed) == expected

    @given(
        graph=st.one_of(
            st.builds(dag.layered_dag, st.integers(1, 5), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**16)),
            st.builds(dag.trap_dag, st.integers(1, 4), st.integers(2, 3)),  # dead ends stop trials mid-block
        ),
        kind=st.sampled_from(["uniform", "concentrated", "non_degenerate"]),
        trials=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=100)
    def test_small_blocks_equal_the_scalar_loop(self, graph, kind, trials, seed):
        # blocks of 7 trials: several blocks and a ragged last one, cheaply
        policy = dag.make_policy(graph, kind, kappa=50.0, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dag, "SEARCH_BLOCK", 7)
            expected = _scalar_search(graph, policy, trials, seed)
            assert dag.run_search(graph, policy, trials, seed) == expected


class TestSearchPrice:
    def test_longest_walk_stops_at_a_target_or_a_dead_end(self):
        assert dag.longest_walk(dag.chain_dag(100)) == 100
        assert dag.longest_walk(dag.diamond_dag()) == 2
        assert dag.longest_walk(dag.trap_dag(6, 3)) == 6
        # node 1 is a target with a successor: the walk through it stops there, the other runs on
        graph, _, _ = _SEARCH_CASES["target-with-out-edges"]
        assert dag.longest_walk(graph) == 2
        assert dag.longest_walk(dag.DecisionDag(successors=((1,), ()), start=0, targets=frozenset({0, 1}))) == 0

    def test_run_search_refuses_over_the_cap_before_the_first_draw(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_search drew before it priced the search")

        monkeypatch.setattr(dag, "SEARCH_STEP_CAP", 10)
        chain = dag.chain_dag(5)
        policy = dag.make_policy(chain, "uniform")
        assert dag.run_search(chain, policy, 2 * dag.SEARCH_BLOCK, seed=0).success_rate == 1.0  # 10 block-steps
        monkeypatch.setattr(dag, "rng_for", refuse)
        with pytest.raises(EnumerationTooLargeError, match="3 blocks of walks up to 5 steps: 15 block-steps"):
            dag.run_search(chain, policy, 2 * dag.SEARCH_BLOCK + 1, seed=0)
        long_chain = dag.chain_dag(11)
        with pytest.raises(EnumerationTooLargeError, match="1 trials make 1 blocks of walks up to 11 steps"):
            dag.run_search(long_chain, dag.make_policy(long_chain, "uniform"), 1, seed=0)

    def test_default_battery_searches_stay_far_under_the_cap(self):
        params = default_params("dag-exploration")
        searches = [
            (dag.trap_dag(experiments.TRAP_DEPTH, experiments.TRAP_BRANCHING), params["mc_trials"]),
            (dag.chain_dag(5), 2000),
            (dag.diamond_dag(), 2000),
            (_custom_graph(), params["graph_trials"]),
        ]
        for graph, trials in searches:
            blocks = -(-trials // dag.SEARCH_BLOCK)
            assert blocks * dag.longest_walk(graph) <= dag.SEARCH_STEP_CAP / 1000


class TestDominantPlacement:
    def test_aligned_mean_policy_matches_product_bound_exactly(self):
        trap = dag.trap_dag(6, 3)
        kappa, minority = 1e6, cat.MINORITY_MASS
        mean_row = cat.dirichlet_mean(
            cat.DirichletConcentration(kappa=kappa, n_options=3)
        )
        # the trap's continuing successor is first in every successor list
        policy = tuple(mean_row if succ else None for succ in trap.successors)
        bound = (1.0 - 2.0 * minority / kappa) ** 6
        assert abs(dag.enumerate_paths(trap, policy) - bound) <= 1e-15


def test_nan_divergence_on_the_binary_graph_fails_the_delta_ceiling(monkeypatch):
    # a NaN that is not the first row must still fail the gate
    layered, divergence = dag.layered_dag, dag.exploration_divergence
    binary, calls = [], []

    def record_layered(*args, **kwargs):
        binary.append(layered(*args, **kwargs))
        return binary[-1]

    def nan_on_second_binary_draw(graph, policy):
        if binary and graph is binary[0]:
            calls.append(len(calls))
            if calls[-1] == 1:
                return float("nan")
        return divergence(graph, policy)

    monkeypatch.setattr(dag, "layered_dag", record_layered)
    monkeypatch.setattr(dag, "exploration_divergence", nan_on_second_binary_draw)
    params = {**default_params("dag-exploration"), "mc_trials": 1000, "capped_samples": 100}
    result = EXPERIMENTS["dag-exploration"].runner(0, params)
    (check,) = [c for c in result.checks if c.name.startswith("capped-policy divergence on binary graphs")]
    assert not check.passed
    assert check.detail.startswith("1/30 rows over the limit, worst draw 1 ")


SEARCH_GATE = "Monte Carlo search matches the exact oracle within 3 standard errors"
CUSTOM_GATE = "custom graph: sampled success matches the exact oracle"


class TestSearchGates:
    """The trap search and the custom-graph search against the exact oracle, at 3 standard errors."""

    def _gates(self, graph_file, **params):
        params = {**default_params("dag-exploration"), "graph_file": str(graph_file), **params}
        result = EXPERIMENTS["dag-exploration"].runner(0, params)
        return {c.name: c for c in result.checks if c.name in (SEARCH_GATE, CUSTOM_GATE)}

    def test_a_walker_leaning_to_the_first_successor_fails_both(self, mutate_streams):
        graph_file = Path(__file__).resolve().parents[1] / "configs" / "custom_graph.txt"
        assert all(check.passed for check in self._gates(graph_file).values())
        # u ** 1.1 <= u: each draw leans to the first successor, the trap's continuing one
        mutate_streams(dag, "random", lambda rng, size: rng.random(size) ** 1.1)
        gates = self._gates(graph_file)
        assert not gates[SEARCH_GATE].passed and not gates[CUSTOM_GATE].passed
        assert gates[SEARCH_GATE].detail == (
            "1/1 rows over the limit, worst uniform walker on the trap: |2.300000e-03 - 1.371742e-03| "
            "vs 3*1.17e-04 (excess 5.771e-04); worst pull 7.93 sigma; nominal false-alarm rate 0.27% per row"
        )
        assert gates[CUSTOM_GATE].detail == (
            "1/1 rows over the limit, worst uniform walker on the custom graph: |5.347500e-01 - 5.000000e-01| "
            "vs 3*3.54e-03 (excess 2.414e-02); worst pull 9.83 sigma; nominal false-alarm rate 0.27% per row"
        )

    def test_a_sure_outcome_passes_on_the_floor(self, tmp_path):
        # every path succeeds, but nine even branches sum to just over 1: the
        # binomial stderr is 0, and only the 1e-12 floor covers the rounding
        text = "start: 0\ntargets: 10\n0: 1,2,3,4,5,6,7,8,9\n" + "".join(f"{i}: 10\n" for i in range(1, 10)) + "10:\n"
        fan = dag.parse_dag(text)
        assert dag.enumerate_paths(fan, dag.make_policy(fan, "uniform")) == 1.0000000000000002
        (tmp_path / "fan.txt").write_text(text)
        check = self._gates(tmp_path / "fan.txt", mc_trials=1000, capped_samples=100, graph_trials=1000)[CUSTOM_GATE]
        assert check.passed
        assert check.detail == (
            "0/1 rows over the limit, worst uniform walker on the custom graph: |1.000000e+00 - 1.000000e+00| "
            "vs 3*3.33e-13 (excess -9.998e-13); worst pull 0.00 sigma; nominal false-alarm rate 0.27% per row"
        )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="both policy families give each spine node expected mass exactly 1/B on its continuing successor, "
    "so both means have expectation (1/B)^depth, the uniform success: the mean ordering is a coin flip",
)
def test_uniform_success_bounds_both_policy_means_at_seed_2():
    # the battery's policy draws at seed 2, rebuilt from the library: the capped mean is
    # 1.477e-03, above the uniform walker's 1.372e-03
    trap = dag.trap_dag(experiments.TRAP_DEPTH, experiments.TRAP_BRANCHING)
    uniform = dag.enumerate_paths(trap, dag.make_policy(trap, "uniform"))
    draws = default_params("dag-exploration")["policy_draws"]
    means = [
        np.mean([dag.enumerate_paths(trap, dag.make_policy(trap, kind, seed=derive_seed(2, label, i), **law))
                 for i in range(draws)])
        for kind, label, law in (
            ("concentrated", "conc", {"kappa": experiments.DAG_KAPPA}),
            ("non_degenerate", "nd", {}),
        )
    ]
    assert uniform >= max(means)
