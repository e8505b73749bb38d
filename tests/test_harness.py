"""Config parsing, CSV determinism, CLI exit codes, reports."""

import hashlib
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certlab import cli, dag
from certlab.config import (
    ExperimentConfig,
    ParamSpec,
    build_config,
    canonical_text,
    config_hash,
    parse_config_text,
)
from certlab.errors import ConfigError, InfiniteDivergenceError, ReportError
from certlab.experiments import DRAW_CAP, EXPERIMENTS, ExperimentDef, ExperimentResult, default_params, strict_rise
from certlab.manifest import RunManifest, load_manifest, read_csv, write_csv
from certlab.report import emit_svg_charts
from certlab.seeding import derive_seed, rng_for

SMALL_ACCURACY_CFG = """
[run]
experiment = accuracy-sweep
seed = 7

[params]
trials = 5000
dim = 8
"""


class TestConfigParsing:
    def test_round_trip_is_identity(self):
        raw = parse_config_text(SMALL_ACCURACY_CFG)
        config = build_config(
            raw, EXPERIMENTS["accuracy-sweep"].schema, experiment_names=set(EXPERIMENTS)
        )
        canon = canonical_text(config)
        config2 = build_config(
            parse_config_text(canon),
            EXPERIMENTS["accuracy-sweep"].schema,
            experiment_names=set(EXPERIMENTS),
        )
        assert canonical_text(config2) == canon
        assert config_hash(config2) == config_hash(config)

    def test_unknown_param_rejected_with_path(self):
        text = SMALL_ACCURACY_CFG + "trails = 10\n"
        with pytest.raises(ConfigError, match=r"params\.trails"):
            build_config(
                parse_config_text(text),
                EXPERIMENTS["accuracy-sweep"].schema,
                experiment_names=set(EXPERIMENTS),
            )

    def test_unknown_run_key_rejected(self):
        with pytest.raises(ConfigError, match=r"run\.sede"):
            parse_config_text("[run]\nexperiment = curriculum\nsede = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[runn]\nexperiment = curriculum\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("[run]\nseed = 1\nseed = 2\n")

    def test_seed_is_required(self):
        raw = parse_config_text("[run]\nexperiment = accuracy-sweep\n")
        with pytest.raises(ConfigError, match="seed"):
            build_config(
                raw, EXPERIMENTS["accuracy-sweep"].schema, experiment_names=set(EXPERIMENTS)
            )

    def test_seed_range_checked(self):
        with pytest.raises(ConfigError, match="64-bit"):
            parse_config_text("[run]\nseed = -3\n")

    def test_unknown_experiment_rejected(self):
        raw = parse_config_text("[run]\nexperiment = warp-drive\nseed = 0\n")
        with pytest.raises(ConfigError, match="unknown experiment"):
            build_config(raw, {}, experiment_names=set(EXPERIMENTS))

    def test_typed_values(self):
        def params(experiment, lines):
            text = f"[run]\nexperiment = {experiment}\nseed = 1\n[params]\n{lines}"
            return build_config(
                parse_config_text(text), EXPERIMENTS[experiment].schema, experiment_names=set(EXPERIMENTS)
            ).params

        numbers = params("error-accumulation", "lipschitz_values = 0.5, 1.5\ntrials = 500\n")
        assert numbers["lipschitz_values"] == (0.5, 1.5)
        assert numbers["trials"] == 500
        assert params("dag-exploration", "graph_file = graphs/my dag.txt\n")["graph_file"] == "graphs/my dag.txt"
        # a parameter's type is its default's: an int reads as a float on a float key
        # (test_float_for_an_int_key_exits_two checks the reverse)
        floats = params("accuracy-sweep", "margin = 5\nsigma_grid = 1, 2.5\n")
        values = (floats["margin"], *floats["sigma_grid"])
        assert [(x, type(x)) for x in values] == [(5.0, float), (1.0, float), (2.5, float)]

    def test_every_default_has_a_parse_type(self):
        # an int, float or str, or a non-empty tuple whose items share one of those types
        for experiment, definition in EXPERIMENTS.items():
            for key, spec in definition.schema.items():
                items = spec.default if isinstance(spec.default, tuple) else (spec.default,)
                kinds = {type(item) for item in items}
                assert items and len(kinds) == 1 and kinds <= {int, float, str}, f"{experiment}: {key}"

    def test_bad_value_names_key(self):
        text = SMALL_ACCURACY_CFG + "margin = wide\n"
        with pytest.raises(ConfigError, match=r"params\.margin"):
            build_config(
                parse_config_text(text),
                EXPERIMENTS["accuracy-sweep"].schema,
                experiment_names=set(EXPERIMENTS),
            )

    def test_minimum_checked_on_every_list_item(self):
        schema = {"sizes": ParamSpec((2,), minimum=2)}
        raw = parse_config_text("[run]\nexperiment = x\nseed = 0\n[params]\nsizes = 3, 1\n")
        with pytest.raises(ConfigError, match=r"params\.sizes: must be >= 2"):
            build_config(raw, schema, experiment_names={"x"})


class TestSeeding:
    def test_children_are_distinct_and_stable(self):
        a = derive_seed(42, "alpha", 1)
        assert a == derive_seed(42, "alpha", 1)
        assert a != derive_seed(42, "alpha", 2)
        assert a != derive_seed(42, "beta", 1)
        assert a != derive_seed(43, "alpha", 1)

    def test_streams_reproduce(self):
        x = rng_for(7, "stream", 3).standard_normal(4)
        y = rng_for(7, "stream", 3).standard_normal(4)
        np.testing.assert_array_equal(x, y)

    def test_canary_address(self):
        assert derive_seed(0, "canary") == 2619220909240995087

    # The first draws of every Generator method certlab calls, pinned bit for
    # bit: numpy does not promise to keep its streams (NEP 19), and a change
    # should fail here, under the method's name, before it moves the pinned
    # digests.  ``standard_gamma`` is called by ``categorical.dirichlet_sample``.
    @pytest.mark.parametrize(
        ("method", "args", "kwargs", "expected"),
        [
            ("random", (3,), {}, ["0x1.05a085ed863f0p-5", "0x1.99b550e4ce172p-2", "0x1.84955cd76fa18p-3"]),
            ("standard_normal", (3,), {}, ["0x1.154705775bc85p-3", "0x1.42c5387b5df1cp-2", "-0x1.e752a041ca8a8p-2"]),
            ("normal", (1.0, 2.0, 3), {}, ["0x1.4551c15dd6f21p+0", "0x1.a1629c3daef8ep+0", "0x1.8ad5fbe357580p-5"]),
            ("uniform", (-1.0, 1.0, 3), {}, ["-0x1.df4bef424f382p-1", "-0x1.992abc6cc7a38p-3", "-0x1.3db55194482f4p-1"]),
            ("standard_gamma", ([0.5, 2.0, 7.0],), {}, ["0x1.0b60b5be02b4fp-10", "0x1.1feb356dde3a8p+0", "0x1.d17ac000f7f0dp+2"]),
            ("dirichlet", ([0.5, 1.0, 4.0],), {}, ["0x1.25794a2a10745p-13", "0x1.d31effa589a77p-5", "0x1.e2bbb87104c49p-1"]),
            ("integers", (0, 1000, 3), {}, [422, 31, 201]),
            ("integers", (7,), {}, 2),
            ("choice", (50,), {"size": 4, "replace": False}, [9, 1, 19, 20]),
        ],
        ids=["random", "standard_normal", "normal", "uniform", "standard_gamma", "dirichlet", "integers", "integers-scalar", "choice"],
    )
    def test_stream_canary(self, method, args, kwargs, expected):
        out = np.asarray(getattr(rng_for(0, "canary"), method)(*args, **kwargs))
        first = [x.hex() for x in out.tolist()] if out.dtype.kind == "f" else out.tolist()
        assert first == expected


class TestCsv:
    def test_floats_round_trip_bitwise(self, tmp_path):
        rows = [(0.1 + 0.2, 1e-300, 123456789.123456789, 3)]
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c", "d"], rows)
        _, parsed = read_csv(path)
        assert float(parsed[0][0]) == rows[0][0]
        assert float(parsed[0][1]) == rows[0][1]
        assert float(parsed[0][2]) == rows[0][2]
        assert int(parsed[0][3]) == 3

    def test_write_is_deterministic(self, tmp_path):
        rows = [(1.5, 2), (2.5, 3)]
        d1 = write_csv(tmp_path / "a.csv", ["x", "y"], rows)
        d2 = write_csv(tmp_path / "b.csv", ["x", "y"], rows)
        assert d1 == d2
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_numpy_scalars_render_as_plain_values(self, tmp_path):
        rows = [(np.float64(0.25), np.int64(7), np.bool_(True))]
        write_csv(tmp_path / "n.csv", ["a", "b", "c"], rows)
        assert (tmp_path / "n.csv").read_text().splitlines()[1] == "0.25,7,true"


class TestRowChecks:
    def test_gate_counts_rows_over_the_limit_and_names_the_worst(self):
        result = ExperimentResult()
        result.gate("g", [-1.0, 0.5, 0.0, 2.0], lambda i: f"row {i}", "extra")
        (check,) = result.checks
        assert not check.passed
        assert check.detail == "2/4 rows over the limit, worst row 3 (excess 2.000e+00); extra"

    def test_gate_passes_on_zero_rows_and_fails_on_nan(self):
        result = ExperimentResult()
        result.gate("empty", [], lambda i: 1 / 0)
        result.gate("nan", [-1.0, float("nan")], lambda i: f"row {i}")
        assert [c.passed for c in result.checks] == [True, False]
        assert result.checks[0].detail == "0/0 rows over the limit"

    @pytest.mark.parametrize(
        "values, passed, rows",
        [
            ([0.1, 0.2, 0.3], True, 2),
            ([0.1, 0.1, 0.3], False, 2),  # an equal neighbour is not a rise
            ([0.1, float("nan"), 0.3], False, 2),
            ([1.0, np.nextafter(1.0, 2.0)], True, 1),  # the smallest rise still counts
            ([0.5], True, 0),
        ],
    )
    def test_strict_rise_gates_every_neighbour_pair(self, values, passed, rows):
        result = ExperimentResult()
        excess = strict_rise(values)
        result.gate("rise", excess, lambda i: f"pair {i}")
        assert excess.size == rows
        assert result.checks[0].passed is passed

    def test_audit_rows_gates_the_scalar_deviation(self):
        result = ExperimentResult()
        bulk = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        result.audit_rows("exact", [0, 2], lambda i: bulk[i], lambda i: tuple(bulk[i]))
        result.audit_rows("drift", [0, 1], lambda i: bulk[i], lambda i: bulk[i] + (1e-6 if i == 1 else 0.0))
        assert [c.passed for c in result.checks] == [True, False]
        assert "worst row 1" in result.checks[1].detail


class TestSigmaGate:
    def _check(self, observed, expected, stderr):
        result = ExperimentResult()
        result.sigma_gate("g", observed, expected, stderr, lambda i: f"row {i}")
        (check,) = result.checks
        return check

    def test_zero_stderr_passes_a_zero_difference(self):
        check = self._check([0.5], [0.5], [0.0])
        assert check.passed
        assert check.detail == (
            "0/1 rows over the limit, worst row 0: |5.000000e-01 - 5.000000e-01| vs 3*0.00e+00 "
            "(excess 0.000e+00); worst pull 0.00 sigma; nominal false-alarm rate 0.27% per row"
        )

    def test_zero_stderr_fails_any_difference_and_reads_pull_zero(self):
        check = self._check([0.5, 0.25], [0.5, 0.5], [0.0, 0.0])
        assert not check.passed
        assert check.detail == (
            "1/2 rows over the limit, worst row 1: |2.500000e-01 - 5.000000e-01| vs 3*0.00e+00 "
            "(excess 2.500e-01); worst pull 0.00 sigma; "
            "nominal false-alarm rate 0.27% per row, 0.5% over 2 rows"
        )

    def test_a_nan_observation_fails(self):
        check = self._check([0.5, float("nan"), 0.5], [0.5, 0.5, 0.5], [0.1, 0.1, 0.1])
        assert not check.passed
        assert check.detail.startswith("1/3 rows over the limit, worst row 1: |nan - 5.000000e-01| vs 3*1.00e-01")

    def test_one_row_states_only_the_rate_per_row(self):
        assert self._check([1.0], [0.0], [1.0]).detail.endswith(
            "; worst pull 1.00 sigma; nominal false-alarm rate 0.27% per row"
        )

    def test_the_worst_pull_may_come_from_another_row(self):
        # row 0 has the larger excess (1 - 0.6), row 1 the larger pull (0.1 / 0.001)
        check = self._check([1.0, 0.1], [0.0, 0.0], [0.2, 0.001])
        assert not check.passed
        assert check.detail == (
            "2/2 rows over the limit, worst row 0: |1.000000e+00 - 0.000000e+00| vs 3*2.00e-01 "
            "(excess 4.000e-01); worst pull 100.00 sigma; "
            "nominal false-alarm rate 0.27% per row, 0.5% over 2 rows"
        )


# float64 values from the subnormals to near the top of the range, both zeros and both infinities
_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=False, width=64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e308]),
)
_TOLERANCE = st.one_of(st.floats(min_value=0.0, max_value=1.7976931348623157e308), st.sampled_from([0.0, 5e-324]))


class TestWithin:
    def _check(self, observed, expected, tol, where=None):
        result = ExperimentResult()
        result.within("w", observed, expected, tol, where)
        (check,) = result.checks
        return check

    def test_zero_tolerance_passes_equal_values_and_both_zeros(self):
        check = self._check([0.5, 0.0], [0.5, -0.0], 0.0)
        assert check.passed
        assert check.detail == "0/2 rows over the limit, worst |0.5 - 0.5| vs tol 0.0 (excess 0.000e+00)"

    def test_zero_tolerance_fails_the_next_float(self):
        check = self._check(np.nextafter(1.0, 2.0), 1.0, 0.0)
        assert not check.passed
        assert check.detail == "1/1 rows over the limit, worst |1.0000000000000002 - 1.0| vs tol 0.0 (excess 2.220e-16)"

    def test_a_nan_row_fails(self):
        check = self._check([0.5, float("nan")], 0.5, 1.0, lambda i: f"row {i}")
        assert not check.passed
        assert check.detail == "1/2 rows over the limit, worst row 1: |nan - 0.5| vs tol 1.0 (excess nan)"

    def test_scalars_broadcast_and_where_names_the_worst_row(self):
        check = self._check(2.0, [2.0, 2.5, 1.0, 2.1], [0.0, 1.0, 0.5, 0.5], lambda i: f"cell {i}")
        assert not check.passed
        assert check.detail == "1/4 rows over the limit, worst cell 2: |2.0 - 1.0| vs tol 0.5 (excess 5.000e-01)"

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(*(st.lists(d, min_size=n, max_size=n) for d in (_ANY_FLOAT, _ANY_FLOAT, _TOLERANCE)))
        )
    )
    @settings(max_examples=300)
    def test_verdict_is_the_plain_comparison(self, rows):
        observed, expected, tol = rows
        assert self._check(observed, expected, tol).passed is all(
            abs(a - b) <= t for a, b, t in zip(observed, expected, tol)
        )


def _write_cfg(tmp_path: Path, text: str) -> str:
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


# A manifest's scalar fields, before the list fields the malformed-report cases vary.
_MANIFEST_HEAD = b'{"experiment": "accuracy-sweep", "config_hash": "x", "seed": 7, '


# (experiment, key, value): a count or list the key does not accept
_BELOW_MINIMUM_CASES = [
    ("dag-exploration", "capped_samples", 0),
    ("divergence-asymptote", "concentration_draws", 0),
    ("dag-exploration", "divergence_draws", 0),
    ("dag-exploration", "policy_draws", 1),
    ("curriculum", "tv_trials", 0),
    ("divergence-asymptote", "sample_draws", 1),
    ("tradeoff-scan", "options_set", 1),
    ("tradeoff-scan", "scan_options", "2, 1"),
    ("tradeoff-scan", "oracle_resolution", 0),
    ("divergence-asymptote", "kappas", 100.0),
    ("dag-exploration", "mc_trials", 0),
    ("dag-exploration", "graph_trials", 0),
    ("curriculum", "grad_checks", 0),
    ("curriculum", "trials_per_n", 1),
    ("curriculum", "iterations", 0),
    ("accuracy-sweep", "dim", 0),
    ("error-accumulation", "trials", 99),
]

# (experiment, a kernel that must not run, keys): each key is a module constant, so a
# config that sets it fails on an unknown key.  The module that uses a value owns it:
# minority_mass is categorical.MINORITY_MASS, min_margin dynamics.MIN_MARGIN,
# restarts, tol and max_conditional cib.RESTARTS, cib.TOL and cib.MAX_CONDITIONAL,
# and delta dag.CAP_DELTA; schedule_scale is gone, as the schedule is k / (M - k);
# every other key is a constant of certlab.experiments
_CONSTANT_KEYS = [
    ("divergence-asymptote", "categorical.dirichlet_sample", ("options", "minority_mass")),
    ("noise-discrete", "dynamics.simulate_discrete_chain",
     ("steps_list", "options_list", "noise_over_margin", "min_margin")),
    ("cib-frontier", "cib.solve_cib",
     ("problem_seed", "corpus_size", "corpus_betas", "n_latent", "frontier_betas", "restarts", "tol",
      "max_conditional", "schedule_scale")),
    ("curriculum", "curriculum.fit_rows", ("rate_theta",)),
    ("dag-exploration", "dag.make_policy",
     ("depth", "branching", "kappa", "minority_mass", "delta", "capped_deltas", "capped_options_max")),
]


class TestCli:
    def test_run_reruns_byte_identical(self, tmp_path):
        cfg = _write_cfg(tmp_path, SMALL_ACCURACY_CFG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(out2)]) == 0
        csv1 = (out1 / "accuracy_sweep.csv").read_bytes()
        csv2 = (out2 / "accuracy_sweep.csv").read_bytes()
        assert csv1 == csv2
        manifest = load_manifest(out1 / "manifest.json")
        listed = {Path(f["path"]).name for f in manifest.files}
        assert "accuracy_sweep.csv" in listed
        assert manifest.all_passed

    def test_thread_count_does_not_change_output(self, tmp_path):
        cfg = _write_cfg(
            tmp_path,
            "[run]\nexperiment = error-accumulation\nseed = 3\n"
            "[params]\ntrials = 2000\ndims = 1, 4\nsteps_values = 1, 3\n",
        )
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert cli.main(["run", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(out2), "--threads", "4"]) == 0
        assert (out1 / "error_accumulation.csv").read_bytes() == (
            out2 / "error_accumulation.csv"
        ).read_bytes()

    def test_unknown_experiment_is_config_error(self, tmp_path):
        cfg = _write_cfg(tmp_path, "[run]\nexperiment = warp-drive\nseed = 0\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_bad_param_is_config_error_with_path(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, SMALL_ACCURACY_CFG + "trails = 10\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "params.trails" in capsys.readouterr().err

    def test_float_for_an_int_key_exits_two(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[run]\nexperiment = accuracy-sweep\nseed = 0\n[params]\ntrials = 5.0\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "ConfigError: params.trials: cannot parse '5.0' as int\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment, key, value", _BELOW_MINIMUM_CASES)
    def test_count_below_minimum_exits_two_before_any_output(self, tmp_path, capsys, experiment, key, value):
        cfg = _write_cfg(tmp_path, f"[run]\nexperiment = {experiment}\nseed = 0\n[params]\n{key} = {value}\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"params.{key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_below_minimum_cases_cover_every_minimum(self):
        # a case for a key the schema no longer has would pass on the unknown-key error
        cases = {(experiment, key) for experiment, key, _ in _BELOW_MINIMUM_CASES}
        assert all(key in EXPERIMENTS[experiment].schema for experiment, key in cases)
        minimums = {
            (experiment, key)
            for experiment, definition in EXPERIMENTS.items()
            for key, spec in definition.schema.items()
            if spec.minimum is not None
        }
        assert minimums <= cases

    @pytest.mark.parametrize(
        "experiment, key, value, message, kernel",
        [
            ("curriculum", "n_grid", "1000, 100", "n grid must be increasing", "curriculum.fit_rows"),
            ("curriculum", "n_grid", "100", "n grid must be increasing", "curriculum.fit_rows"),
            ("curriculum", "n_grid", "100, 100", "n grid must be increasing", "curriculum.fit_rows"),
            ("curriculum", "strong_theta", "10.0, 0.0", "params.strong_theta: need 3 weights", "curriculum.fit_rows"),
            ("curriculum", "step", "0.0", "params.step: must be positive", "curriculum.fit_rows"),
            # 3 (PARAM_BOUND + step)^2, the projection's largest squared norm, is not finite
            ("curriculum", "step", "1e160\niterations = 5",
             "params.step: 1e+160 overflows the projection's squared norm", "curriculum.sweep_counts"),
            ("curriculum", "step", "1e300\niterations = 5",
             "params.step: 1e+300 overflows the projection's squared norm", "curriculum.sweep_counts"),
            # finite weights whose scores overflow: the softmax is NaN
            ("curriculum", "strong_theta", "1e308, 1e308, 1e308",
             "params.strong_theta: the state probabilities are not finite", "curriculum.draw_counts"),
            ("error-accumulation", "lipschitz_values", "0.8, 1.0, -1.0", "lipschitz must be positive",
             "dynamics.monte_carlo_error"),
            ("noise-discrete", "contrast_noise_over_margin", "-1.0", "noise scale must be >= 0",
             "dynamics.simulate_discrete_chain"),
            # zero noise cannot move an argmax, so the contrast check would fail
            ("noise-discrete", "contrast_noise_over_margin", "0.0",
             "params.contrast_noise_over_margin: must be positive, got 0.0", "dynamics.simulate_discrete_chain"),
            # the bounded law needs no rejection sampler, so the key that sized its
            # acceptance check is unknown (spelled in two parts: no live code names it)
            ("noise-discrete", "acceptance" "_draws", "2000", "unknown parameter keys: params.acceptance" "_draws",
             "dynamics.simulate_discrete_chain"),
            # every trap node draws from the Dirichlet family at out-degree 3
            ("dag-exploration", "kappa_grid", "100.0, 1.5", "kappa too small", "dag.make_policy"),
            # 122,071 blocks of walks up to the trap's depth 6 are over the search cap
            ("dag-exploration", "mc_trials", "1000000000",
             "params.mc_trials: 1000000000 trials make 122071 blocks of walks up to 6 steps", "dag.make_policy"),
            # the divergence-growth gate compares neighbours of an increasing grid
            ("dag-exploration", "kappa_grid", "1e6, 1e2", "params.kappa_grid: need at least two strictly increasing",
             "dag.make_policy"),
            ("dag-exploration", "kappa_grid", "100.0", "params.kappa_grid: need at least two strictly increasing",
             "dag.make_policy"),
            ("dag-exploration", "kappa_grid", "100.0, 100.0",
             "params.kappa_grid: need at least two strictly increasing", "dag.make_policy"),
            ("error-accumulation", "lipschitz_values", "0.8, 0.8",
             "params.lipschitz_values: the values must be distinct", "dynamics.monte_carlo_error"),
            # a value may end in further `key = value` lines
            ("divergence-asymptote", "kappas", "1.0, 10.0\nsample_draws = 20\nconcentration_draws = 100",
             "params.kappas: each kappa must exceed 1", "categorical.dirichlet_sample"),
            ("divergence-asymptote", "kappas", "100.0, 2.0", "kappa too small", "categorical.dirichlet_sample"),
            # two distinct kappas whose logs are equal: the slopes would divide by zero
            ("divergence-asymptote", "kappas", "1e6, 1000000.0000000002", "params.kappas: the slope checks need",
             "categorical.dirichlet_sample"),
            ("tradeoff-scan", "scan_options", "2, 16", "params.scan_options: the oracle at B=16",
             "cat_bulk.certainty_panel"),
            # 999,999 compositions of 1,000,000 cells each: about 10**12 cells
            ("tradeoff-scan", "scan_options", "2, 1000000\noracle_resolution = 1",
             "params.scan_options: the oracle at B=1000000", "cat_bulk.certainty_panel"),
            ("tradeoff-scan", "scan_grid", "0.5, 1.5", "top probability must lie in [1/B, 1)",
             "cat_bulk.certainty_panel"),
            # below 1/B for every B: the scan would have no rows
            ("tradeoff-scan", "scan_grid", "0.1", "params.scan_grid: no value is at least 1/B",
             "cat_bulk.certainty_panel"),
            # the closed form is 0 at zero noise, underflows to 0 at 1e-200, and its square overflows at 1e100
            ("error-accumulation", "sigma_h", "0.0", "params.sigma_h: the closed form at L=0.8 d=1 M=1 is 0.0;",
             "dynamics.monte_carlo_error"),
            ("error-accumulation", "sigma_h", "1e-200", "params.sigma_h: the closed form at L=0.8 d=1 M=1 is 0.0;",
             "dynamics.monte_carlo_error"),
            ("error-accumulation", "sigma_h", "1e100", "params.sigma_h: the closed form at L=0.8 d=1 M=1 is 1e+200;",
             "dynamics.monte_carlo_error"),
            # a float power out of range (sigma_h ** 2, L ** 12) raised OverflowError: the closed form reads inf
            ("error-accumulation", "sigma_h", "1e200", "params.sigma_h: the closed form at L=0.8 d=1 M=1 is inf;",
             "dynamics.monte_carlo_error"),
            ("error-accumulation", "lipschitz_values", "0.8, 1e100",
             "params.sigma_h: the closed form at L=1e+100 d=1 M=6 is inf;", "dynamics.monte_carlo_error"),
            # the sums of fourth powers, trials * closed^2 * (1 + 2/d) in expectation, would overflow
            ("error-accumulation", "sigma_h", "1e74\ndims = 64\nsteps_values = 2, 12\ntrials = 20000",
             "params.sigma_h: the closed form at L=1.0 d=64 M=12 is 7.679999999999999e+150;",
             "dynamics.monte_carlo_error"),
            ("error-accumulation", "sigma_h", "1e75\ndims = 64\nsteps_values = 2, 12\ntrials = 1000",
             "params.sigma_h: the closed form at L=0.8 d=64 M=2 is 1.0496e+152;", "dynamics.monte_carlo_error"),
            # at one step every Lipschitz value gives the same closed form d sigma^2
            ("error-accumulation", "steps_values", "1",
             "params.steps_values: the Lipschitz ordering needs at least 2 steps, got 1",
             "dynamics.monte_carlo_error"),
            # every walk runs to a target or a dead end: the key that capped its steps is gone
            ("dag-exploration", "graph_max_steps", "64", "unknown parameter keys: params.graph_max_steps",
             "dag.run_search"),
            # the map is the scalar L I: the key that picked a rotation map is gone
            ("error-accumulation", "transition", "rotation_scaling", "unknown parameter keys: params.transition",
             "dynamics.monte_carlo_error"),
            # at dim 16 the 0.75 crossing leaves the sigma grid above twice this margin, or below this one
            ("accuracy-sweep", "margin", "2000.0",
             "params.margin: the margin-doubling check needs the 0.75 crossing at margin 4000.0",
             "dynamics.empirical_accuracy_sweep"),
            ("accuracy-sweep", "margin", "1e-5",
             "params.margin: the margin-doubling check needs the 0.75 crossing at margin 1e-05",
             "dynamics.empirical_accuracy_sweep"),
            # fewer samples than options_set's 6 values: no row for some B, so no draw at all
            ("tradeoff-scan", "samples", "-5", "params.samples: need at least one row per B, 6 in all, got -5",
             "experiments.rng_for"),
            ("tradeoff-scan", "samples", "5", "params.samples: need at least one row per B, 6 in all, got 5",
             "experiments.rng_for"),
            *[
                (experiment, key, "1", f"unknown parameter keys: params.{key}", kernel)
                for experiment, kernel, keys in _CONSTANT_KEYS for key in keys
            ],
        ],
    )
    def test_bad_param_exits_two_before_the_kernel(
        self, tmp_path, capsys, monkeypatch, experiment, key, value, message, kernel
    ):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{kernel} ran before the params were validated")

        module, name = kernel.split(".")
        monkeypatch.setattr(importlib.import_module(f"certlab.{module}"), name, refuse)
        cfg = _write_cfg(tmp_path, f"[run]\nexperiment = {experiment}\nseed = 0\n[params]\n{key} = {value}\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "experiment, key, value",
        [
            ("dag-exploration", "kappa_grid", "100.0, -inf"),
            ("error-accumulation", "sigma_h", "NaN"),
            ("error-accumulation", "lipschitz_values", "0.8, 1e999"),
        ],
    )
    def test_non_finite_float_exits_two_before_any_output(self, tmp_path, capsys, experiment, key, value):
        cfg = _write_cfg(tmp_path, f"[run]\nexperiment = {experiment}\nseed = 0\n[params]\n{key} = {value}\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"params.{key}: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "graph, message",
        [
            (b"start: x\ntargets: 1\n0: 1\n1:\n", "InvalidInputError: line 1"),
            # one node over the enumeration cap
            (b"start: 0\ntargets: 0\n1000000:\n",
             "EnumerationTooLargeError: node id 1000000 makes 1000001 nodes, over the 1000000 cap"),
            (b"start: 0\ntargets: 1\n0: 1\n1:\n\xff\n", "InvalidInputError: {path}: not UTF-8 text ("),
        ],
        ids=["malformed", "over-the-node-cap", "not-utf8"],
    )
    def test_bad_graph_file_exits_two_before_any_graph_is_built(self, tmp_path, capsys, monkeypatch, graph, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a graph was built before the graph file was checked")

        monkeypatch.setattr(dag, "DecisionDag", refuse)
        graph_path = tmp_path / "graph.txt"
        graph_path.write_bytes(graph)
        cfg = _write_cfg(
            tmp_path, f"[run]\nexperiment = dag-exploration\nseed = 0\n[params]\ngraph_file = {graph_path}\n"
        )
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message.format(path=graph_path)) and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_non_utf8_config_exits_two_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(SMALL_ACCURACY_CFG.encode() + b"\xff\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ConfigError: {cfg}: not UTF-8 text (") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "verify-all", "report-md", "report-svg"])
    @pytest.mark.parametrize(
        "error, code",
        [
            (InfiniteDivergenceError("node 3: reference mass 0.5 on option 1 where p is zero"), 2),
            (OSError("disk full"), 4),
            (ReportError("bad table"), 4),
            (MemoryError("Unable to allocate 364. TiB"), 2),
        ],
    )
    def test_runtime_errors_map_to_one_exit_code(self, tmp_path, capsys, monkeypatch, command, error, code):
        def failing(*args, **kwargs):
            raise error

        if command.startswith("report-"):
            # the renderers raise once a valid manifest has loaded
            manifest = tmp_path / "manifest.json"
            RunManifest(experiment="accuracy-sweep", config_hash="x", seed=7).save(manifest)
            monkeypatch.setattr(cli, "emit_markdown", failing)
            monkeypatch.setattr(cli, "emit_svg_charts", failing)
            argv = ["report", "--manifest", str(manifest), "--format", command.removeprefix("report-")]
        else:
            name = "accuracy-sweep"  # first in verify-all's order
            monkeypatch.setitem(EXPERIMENTS, name, ExperimentDef(failing, EXPERIMENTS[name].schema))
            argv = ["run", "--config", _write_cfg(tmp_path, SMALL_ACCURACY_CFG)] if command == "run" else [command]
            argv += ["--out", str(tmp_path / "o")]
        assert cli.main(argv) == code
        prefix = {OSError: "i/o error", MemoryError: "out of memory"}.get(type(error), type(error).__name__)
        assert capsys.readouterr().err == f"{prefix}: {error}\n"

    def test_unallocatable_samples_exit_two_without_a_traceback(self, tmp_path, capsys):
        # four excess vectors of 10**13 // 6 * 6 float64 rows: 291 TiB, beyond the 128 TiB
        # x86-64 user address space, so the allocation is refused at once and nothing is touched
        cfg = _write_cfg(tmp_path, "[run]\nexperiment = tradeoff-scan\nseed = 0\n[params]\nsamples = 10000000000000\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("out of memory: Unable to allocate") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "experiment, key, value",
        [
            ("noise-discrete", "trials", 10**12),
            ("error-accumulation", "trials", 10**12),
            ("accuracy-sweep", "trials", 10**12),
        ],
    )
    def test_huge_trials_exit_two_at_the_draw_cap(self, tmp_path, capsys, experiment, key, value):
        # the streamed kernels allocate a fixed amount at any trial count, so
        # without the cap these runs would draw for days instead of failing
        cfg = _write_cfg(tmp_path, f"[run]\nexperiment = {experiment}\nseed = 0\n[params]\n{key} = {value}\n")
        started = time.perf_counter()
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"EnumerationTooLargeError: params.{key}: the run would draw ")
        assert err.endswith(f"variates, over the cap {DRAW_CAP}\n") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_missing_config_is_io_error(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == 4

    def test_missing_experiment_exits_two(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[run]\nseed = 0\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "ConfigError: run.experiment is required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params",
        [
            "scan_grid = 0.99999999999",  # no scan row at s = 0.7, B = 4: the oracle spot stands alone
            "scan_options = 2, 1200\noracle_resolution = 1",  # 1,199 compositions of 1,200 cells each
        ],
    )
    def test_tradeoff_scan_edge_inputs_exit_zero(self, tmp_path, params):
        cfg = _write_cfg(
            tmp_path, f"[run]\nexperiment = tradeoff-scan\nseed = 0\n[params]\nsamples = 1000\n{params}\n"
        )
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_asymptote_kappas_out_of_order_exit_without_a_traceback(self, tmp_path):
        # the exact-slope check divides by the log range of the smallest and largest kappa
        cfg = _write_cfg(
            tmp_path,
            "[run]\nexperiment = divergence-asymptote\nseed = 0\n"
            "[params]\nkappas = 100.0, 1000.0, 100.0\nsample_draws = 20\nconcentration_draws = 100\n",
        )
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) in (0, 3)

    def test_failed_check_exits_three(self, tmp_path):
        # an unconstrained-noise contrast at a vanishing scale never flips a
        # token, so its "perturbs the final token" check honestly fails
        cfg = _write_cfg(
            tmp_path,
            "[run]\nexperiment = noise-discrete\nseed = 0\n"
            "[params]\ntrials = 2000\ncontrast_noise_over_margin = 1e-9\n",
        )
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_report_markdown_and_svg(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, SMALL_ACCURACY_CFG)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["report", "--manifest", str(out / "manifest.json"), "--format", "md"]) == 0
        report = (out / "report.md").read_text()
        assert "ALL CHECKS PASSED" in report
        assert cli.main(["report", "--manifest", str(out / "manifest.json"), "--format", "svg"]) == 0
        svg = (out / "accuracy_sweep.svg").read_text()
        assert svg.count("<polyline") == 2  # analytic + empirical series

    def test_report_from_another_directory(self, tmp_path, capsys, monkeypatch):
        cfg = _write_cfg(tmp_path, SMALL_ACCURACY_CFG)
        run_dir, report_dir = tmp_path / "a", tmp_path / "b"
        run_dir.mkdir()
        report_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert cli.main(["run", "--config", cfg, "--out", "runs/a"]) == 0
        manifest = str(run_dir / "runs" / "a" / "manifest.json")
        monkeypatch.chdir(report_dir)
        assert cli.main(["report", "--manifest", manifest, "--format", "md"]) == 0
        assert cli.main(["report", "--manifest", manifest, "--format", "svg"]) == 0
        assert (run_dir / "runs" / "a" / "accuracy_sweep.svg").exists()

    def test_report_missing_csv_is_io_error(self, tmp_path):
        cfg = _write_cfg(tmp_path, SMALL_ACCURACY_CFG)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        (out / "accuracy_sweep.csv").unlink()
        assert cli.main(["report", "--manifest", str(out / "manifest.json"), "--format", "md"]) == 4

    @pytest.mark.parametrize(
        "filename, text",
        [
            ("accuracy_sweep.csv", b"sigma,analytic,empirical,std_error\n0.1,0.5\n"),
            ("accuracy_sweep.csv", b"sigma,analytic,empirical,std_error\n"),  # no data rows to chart
            ("accuracy_sweep.csv", b"sigma,analytic,empirical,std_error\n\xff\n"),  # not UTF-8
            ("manifest.json", b"{not json"),
            # hand-edited manifests: every field a report reads is checked on load
            ("manifest.json", _MANIFEST_HEAD + b'"files": [{"sha256": "ab"}], "checks": []}'),
            ("manifest.json", _MANIFEST_HEAD + b'"files": [{"path": "a.csv"}], "checks": []}'),
            ("manifest.json", _MANIFEST_HEAD + b'"files": 5, "checks": []}'),
            ("manifest.json", _MANIFEST_HEAD + b'"files": ["a.csv"], "checks": []}'),
            ("manifest.json", _MANIFEST_HEAD + b'"files": [], "checks": [{"name": "c"}]}'),
            ("manifest.json", _MANIFEST_HEAD + b'"files": [], "checks": [{"name": "c", "passed": 1}]}'),
            ("manifest.json", _MANIFEST_HEAD + b'"files": [], "checks": [{"passed": true}]}'),
            ("manifest.json", _MANIFEST_HEAD + b'"checks": [{"name": "c", "passed": true, "detail": 5}], "files": []}'),
            ("manifest.json", _MANIFEST_HEAD + b'"files": [], "checks": "abc"}'),
            ("manifest.json", b'{"experiment": ["accuracy-sweep"], "config_hash": "x", "seed": 7}'),
        ],
    )
    def test_malformed_report_input_is_report_error(self, tmp_path, capsys, filename, text):
        cfg = _write_cfg(tmp_path, SMALL_ACCURACY_CFG)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        (out / filename).write_bytes(text)
        capsys.readouterr()
        # a bad manifest fails in either format; a bad CSV only where it is charted
        for fmt in ("svg", "md") if filename == "manifest.json" else ("svg",):
            assert cli.main(["report", "--manifest", str(out / "manifest.json"), "--format", fmt]) == 4
            err = capsys.readouterr().err
            assert err.startswith("ReportError: ") and err.count("\n") == 1
            assert str((out / filename).resolve()) in err  # the error names the file

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = _write_cfg(tmp_path, SMALL_ACCURACY_CFG)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert cli.main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(out2), "--seed", "8"]) == 0
        h1 = json.loads((out1 / "manifest.json").read_text())
        h2 = json.loads((out2 / "manifest.json").read_text())
        assert h1["config_hash"] != h2["config_hash"]
        assert h2["seed"] == 8

    @pytest.mark.parametrize("command", ["run", "verify-all"])
    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--seed", "-5", "--seed: must be an unsigned 64-bit integer, got -5"),
            ("--seed", str(2**65), f"--seed: must be an unsigned 64-bit integer, got {2**65}"),
            ("--threads", "0", "--threads: must be >= 1, got 0"),
            ("--threads", "-1", "--threads: must be >= 1, got -1"),
        ],
    )
    def test_bad_seed_or_threads_exits_two_before_any_run(
        self, tmp_path, capsys, monkeypatch, command, option, value, message
    ):
        def refuse(seed, params, threads=1):
            raise AssertionError("an experiment ran before the options were checked")

        for name, definition in list(EXPERIMENTS.items()):
            monkeypatch.setitem(EXPERIMENTS, name, ExperimentDef(refuse, definition.schema))
        argv = ["run", "--config", _write_cfg(tmp_path, SMALL_ACCURACY_CFG)] if command == "run" else [command]
        assert cli.main(argv + ["--out", str(tmp_path / "o"), option, value]) == 2
        assert capsys.readouterr().err == f"ConfigError: {message}\n"
        assert not (tmp_path / "o").exists()


# experiment -> (CSV name, header, rows): small tables in each experiment's
# column layout, some rows out of x order
CHART_FIXTURES = {
    "accuracy-sweep": (
        "accuracy_sweep.csv", ["sigma", "analytic", "empirical", "std_error"],
        [(0.1, 0.99, 0.98, 0.01), (0.5, 0.9, 0.88, 0.01), (2.0, 0.6, 0.62, 0.02)],
    ),
    "error-accumulation": (
        "error_accumulation.csv", ["L_F", "M", "d", "sigma_h", "closed_form", "mc_mean", "mc_stderr"],
        [
            (lf, m, d, 0.1, lf * m * d / 100, lf * m * d / 100 + 0.001, 0.001)
            for lf in (1.5, 0.5, 1.0) for m in (4, 1, 2) for d in (16, 1, 4)
        ],
    ),
    "curriculum": (
        "curriculum_sweep.csv", ["n", "provenance", "mean_gap", "stddev", "slope_so_far"],
        [
            (10, "biased", 0.98, 0.0, 0.0), (1000, "biased", 0.97, 0.0, 0.0),
            (100, "biased", 0.98, 0.0, 0.0), (100, "curriculum", 0.1, 0.01, -0.5),
            (10, "curriculum", 0.3, 0.02, 0.0), (1000, "curriculum", 0.03, 0.01, -0.5),
        ],
    ),
    "cib-frontier": (
        "cib_frontier.csv", ["beta", "i_past", "i_future", "objective", "converged"],
        [(2.0, 0.8, 0.5, -0.2, True), (0.5, 0.1, 0.05, 0.075, True), (1.0, 0.4, 0.3, -0.2, False)],
    ),
    "divergence-asymptote": (
        "divergence_asymptote.csv",
        ["kappa", "exact_kl", "asymptote", "abs_diff", "sampled_mean", "sampled_std"],
        [
            (10.0, 1.5, 1.7, 0.2, 1.4, 0.1), (100.0, 3.4, 3.5, 0.1, 3.3, 0.1),
            (1000.0, 5.2, 5.2, 0.01, 5.1, 0.1),
        ],
    ),
    "tradeoff-scan": (
        "tradeoff_scan.csv", ["i_s", "B", "bound", "empirical_min_kl"],
        [(s, b, s * b / 10, s * b / 10 + 0.01) for b in (3, 2) for s in (0.9, 0.6, 0.75)],
    ),
    "dag-exploration": (
        "dag_divergence.csv", ["kappa", "mean_divergence"], [(10.0, 0.4), (100.0, 1.1), (1000.0, 1.9)]
    ),
    "noise-discrete": (
        "noise_discrete.csv", ["spec", "steps", "options", "noise_scale", "mode", "trials", "divergences"],
        [("a", 4, 3, 0.5, "bounded", 100, 0)],
    ),
}
# sha256 of each fixture's chart as drawn by the per-experiment chart code
# that the CHARTS table replaced; noise-discrete has no chart
CHART_SHA256 = {
    "accuracy-sweep": "c47a4c4e64759177a59dea9de233ca089423fcb49bbdcd3cf50e5daa59a7fed6",
    "error-accumulation": "6ddfc2e7a8e73f41192ff5db7c59022005cbdd06837f848c3f561ba41e4d6cc8",
    "curriculum": "6137d10ca712a8a0a0df51861f9d3f16c7f179bdbcd65a4e895936aacbc541da",
    "cib-frontier": "44760e702d90889907f7199df8acf16f6e1c080facb191c6278a1489cb768694",
    "divergence-asymptote": "78361cf9300c19168b6155bd816651514aec53d7744758ecae2d7c4dd3ee4211",
    "tradeoff-scan": "f266e4b83e91f8b384ccf9e2ec470f5ca7569499df9ef24ac1d4c087b3e2853c",
    "dag-exploration": "7c81dd8f0c89ce6f51c419f2181def8a0905672414f03236a2f023f05b9fa16c",
}


class TestCharts:
    @pytest.mark.parametrize("experiment", sorted(CHART_FIXTURES))
    def test_chart_bytes_match_the_reference(self, tmp_path, experiment):
        filename, header, rows = CHART_FIXTURES[experiment]
        manifest = RunManifest(experiment=experiment, config_hash="0" * 64, seed=0)
        manifest.add_file(tmp_path / filename, write_csv(tmp_path / filename, header, rows))
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in emit_svg_charts(manifest, tmp_path)]
        assert digests == ([CHART_SHA256[experiment]] if experiment in CHART_SHA256 else [])

    def test_verify_all_writes_every_report(self, tmp_path, capsys, monkeypatch):
        for name, (filename, header, rows) in CHART_FIXTURES.items():
            result = ExperimentResult(tables={filename: (header, rows)})
            stub = lambda seed, params, threads=1, result=result: result  # noqa: E731
            monkeypatch.setitem(EXPERIMENTS, name, ExperimentDef(stub, EXPERIMENTS[name].schema))
        assert cli.main(["verify-all", "--out", str(tmp_path)]) == 0
        assert all((tmp_path / name / "report.md").exists() for name in EXPERIMENTS)
        charts = {p.parent.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.rglob("*.svg")}
        assert charts == CHART_SHA256
        assert capsys.readouterr().out.splitlines()[-1] == "verify-all: ALL CHECKS PASSED"


class TestErrorAccumulationChartData:
    def test_final_values_ordered_by_lipschitz(self, tmp_path):
        cfg = _write_cfg(
            tmp_path,
            "[run]\nexperiment = error-accumulation\nseed = 5\n"
            "[params]\ntrials = 4000\ndims = 8\nsteps_values = 1, 6, 12\n",
        )
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "error_accumulation.csv")
        finals = {}
        for row in rows:
            lf, steps, mean = float(row[0]), int(row[1]), float(row[5])
            if steps == 12:
                finals[lf] = mean
        ordered = [finals[k] for k in sorted(finals)]
        assert ordered == sorted(ordered)
        assert cli.main(["report", "--manifest", str(out / "manifest.json"), "--format", "svg"]) == 0
        svg = (out / "error_accumulation.svg").read_text()
        assert svg.count("<polyline") == 3


class TestCustomGraph:
    def test_graph_file_param_round_trips_through_the_cli(self, tmp_path):
        graph_text = "start: 0\ntargets: 3\n0: 1,2\n1: 3\n2: 3\n3:\n"
        graph_path = tmp_path / "graph.txt"
        graph_path.write_text(graph_text)
        cfg = _write_cfg(
            tmp_path,
            "[run]\nexperiment = dag-exploration\nseed = 1\n"
            "[params]\n"
            f"graph_file = {graph_path}\n"
            "graph_trials = 2000\n"
            "policy_draws = 30\nmc_trials = 4000\ndivergence_draws = 4\n"
            "capped_samples = 300\nkappa_grid = 100.0, 10000.0\n",
        )
        out = tmp_path / "o"
        code = cli.main(["run", "--config", cfg, "--out", str(out)])
        header, rows = read_csv(out / "custom_graph.csv")
        assert header[0] == "nodes"
        assert float(rows[0][2]) == 1.0  # every path in this graph succeeds
        assert (out / "trap_graph.txt").exists()
        manifest = load_manifest(out / "manifest.json")
        listed = {Path(f["path"]).name for f in manifest.files}
        assert {"custom_graph.csv", "trap_graph.txt"} <= listed
        assert code in (0, 3)  # small-sample ordering checks may fluctuate

    def test_chain_over_the_search_cap_exits_two_before_any_output(self, tmp_path, capsys, monkeypatch):
        # the default 20000 trials make 3 blocks, so one step more than a third of
        # the cap puts the search over it
        def refuse(*args, **kwargs):
            raise AssertionError("dag-exploration computed before it priced the custom search")

        length = dag.SEARCH_STEP_CAP // 3 + 1
        graph_path = tmp_path / "chain.txt"
        graph_path.write_text(dag.format_dag(dag.chain_dag(length)))
        monkeypatch.setattr(dag, "make_policy", refuse)
        monkeypatch.setattr(dag, "run_search", refuse)
        cfg = _write_cfg(
            tmp_path, f"[run]\nexperiment = dag-exploration\nseed = 0\n[params]\ngraph_file = {graph_path}\n"
        )
        started = time.perf_counter()
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr().err == (
            f"EnumerationTooLargeError: params.graph_trials: 20000 trials make 3 blocks of walks up to {length} "
            f"steps: {3 * length} block-steps, over the cap {dag.SEARCH_STEP_CAP}\n"
        )
        assert not (tmp_path / "o").exists()

    def test_long_chain_walks_to_its_target(self, tmp_path, capsys):
        # 100 steps: every walk reaches the target, as the exact oracle says
        graph_path = tmp_path / "chain.txt"
        graph_path.write_text(dag.format_dag(dag.chain_dag(100)))
        cfg = _write_cfg(
            tmp_path, f"[run]\nexperiment = dag-exploration\nseed = 0\n[params]\ngraph_file = {graph_path}\n"
        )
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "custom_graph.csv").read_text().splitlines()[1] == "101,20000,1.0,1.0,100.0"


class TestDefaults:
    def test_every_experiment_has_complete_defaults(self):
        for name, definition in EXPERIMENTS.items():
            params = default_params(name)
            assert set(params) == set(definition.schema)

    def test_config_dataclass_round_trip_via_text(self):
        config = ExperimentConfig(
            experiment="curriculum", seed=123, params=default_params("curriculum"),
            output_dir="out",
        )
        raw = parse_config_text(canonical_text(config))
        rebuilt = build_config(
            raw, EXPERIMENTS["curriculum"].schema, experiment_names=set(EXPERIMENTS)
        )
        assert canonical_text(rebuilt) == canonical_text(config)


REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLE_CONFIGS = sorted((REPO_ROOT / "configs").glob("*.cfg"))


class TestExampleConfigs:
    @pytest.mark.parametrize("path", EXAMPLE_CONFIGS, ids=lambda path: path.name)
    def test_config_builds_against_its_experiment_schema(self, path):
        raw = parse_config_text(path.read_text())
        assert raw.experiment in EXPERIMENTS
        build_config(raw, EXPERIMENTS[raw.experiment].schema, experiment_names=set(EXPERIMENTS))

    def test_custom_graph_file_resolves_from_the_repo_root(self):
        path = REPO_ROOT / "configs" / "dag_custom.cfg"
        assert path in EXAMPLE_CONFIGS
        config = build_config(
            parse_config_text(path.read_text()), EXPERIMENTS["dag-exploration"].schema,
            experiment_names=set(EXPERIMENTS),
        )
        graph = dag.parse_dag((REPO_ROOT / config.params["graph_file"]).read_text())
        assert graph.n_nodes > 0 and graph.targets


class TestBenchmarkContract:
    def test_child_sets_up_every_experiment_traced(self, tmp_path):
        # bench/child.py builds every config and installs the tracer: this
        # catches drift in build_config's keywords, the experiment schemas and
        # the arguments the tracer reads by name
        spec = {
            "src": str(REPO_ROOT / "src"), "work": str(tmp_path), "experiments": sorted(EXPERIMENTS),
            "seed": 0, "threads": 1, "trace": True, "setup_only": True,
        }
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        child = subprocess.run(
            [sys.executable, str(REPO_ROOT / "bench" / "child.py"), str(tmp_path / "spec.json")],
            capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert "setup_done" in json.loads((tmp_path / "RESULT.json").read_text())

    @staticmethod
    def _tracer():
        """bench/tracer.py, loaded read-only under a private name."""
        spec = importlib.util.spec_from_file_location("certlab_bench_tracer", REPO_ROOT / "bench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        return tracer

    def test_every_traced_function_resolves(self):
        tracer = self._tracer()
        missing = [
            f"{module}.{name}"
            for module, name in tracer.TRACED
            if not callable(getattr(importlib.import_module(f"certlab.{module}"), name, None))
        ]
        assert not missing

    def test_work_counters_find_the_parameters_they_read(self):
        # the tracer reads run_search's and monte_carlo_error's trials and write_csv's
        # path by name: a traced run dies on a parameter that a signature lost
        tracer = self._tracer()

        def function(module, name):
            return getattr(importlib.import_module(f"certlab.{module}"), name)

        for module, name, parameter in (
            ("dag", "run_search", "trials"),
            ("dynamics", "monte_carlo_error", "trials"),
            ("manifest", "write_csv", "path"),
        ):
            assert parameter in inspect.signature(function(module, name)).parameters
        for module, name in tracer.TRACED:
            tracer._work_counter(module, name, function(module, name))
