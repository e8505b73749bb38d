"""Config parsing, CSV determinism, CLI exit codes, reports."""

import ast
import dataclasses
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certlab import cli, dag, dynamics, experiments
from certlab.config import (
    ExperimentConfig,
    build_config,
    canonical_text,
    config_hash,
    parse_config_text,
)
from certlab.errors import ConfigError, EnumerationTooLargeError, InfiniteDivergenceError, ReportError
from certlab.experiments import EXPERIMENTS, ExperimentResult, strict_rise
from certlab.manifest import Check, RunManifest, load_manifest, read_csv, write_csv
from certlab.report import emit_markdown, emit_svg_charts
from certlab.seeding import derive_seed, rng_for

ACCURACY_CFG = """
[run]
experiment = accuracy-sweep
seed = 7

[params]
"""


@pytest.fixture
def small_accuracy(small_constants):
    """ACCURACY_CFG's run at 5,000 trials of dimension 8."""
    small_constants(ACCURACY_TRIALS=5000, ACCURACY_DIM=8)


class TestConfigParsing:
    def test_round_trip_is_identity(self):
        raw = parse_config_text(ACCURACY_CFG)
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
        text = ACCURACY_CFG + "trails = 10\n"
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

    def test_graph_file_is_kept_as_written(self):
        text = "[run]\nexperiment = dag-exploration\nseed = 1\n[params]\ngraph_file = graphs/my dag.txt\n"
        config = build_config(
            parse_config_text(text), EXPERIMENTS["dag-exploration"].schema, experiment_names=set(EXPERIMENTS)
        )
        assert config.params == {"graph_file": "graphs/my dag.txt"}

    @pytest.mark.parametrize(
        "line, value",
        [("output_dir = runs/#3", "runs/#3"), ("output_dir = out  # CLI --out overrides", "out"),
         ("output_dir = out\t# after a tab", "out"), ("# output_dir = elsewhere", None)],
        ids=["in-value", "inline", "after-tab", "whole-line"],
    )
    def test_a_comment_starts_at_a_hash_after_whitespace_only(self, line, value):
        assert parse_config_text(f"[run]\n{line}\n").output_dir == value

    def test_a_run_writes_into_an_output_dir_holding_a_hash(self, tmp_path, monkeypatch, small_accuracy):
        monkeypatch.chdir(tmp_path)
        cfg = _write_cfg(tmp_path, ACCURACY_CFG.replace("[params]", "output_dir = runs/#3\n[params]"))
        assert cli.main(["run", "--config", cfg]) == 0
        assert sorted(path.name for path in (tmp_path / "runs").iterdir()) == ["#3"]
        assert (tmp_path / "runs" / "#3" / "manifest.json").is_file()

    def test_a_graph_file_holding_a_hash_is_the_file_read(self, tmp_path, monkeypatch):
        (tmp_path / "graphs").mkdir()
        (tmp_path / "graphs" / "#1.txt").write_text("start: 0\ntargets: 1\n0: 1\n1:\n")
        monkeypatch.chdir(tmp_path)
        text = "[run]\nexperiment = dag-exploration\nseed = 1\n[params]\ngraph_file = graphs/#1.txt\n"
        definition = EXPERIMENTS["dag-exploration"]
        config = build_config(parse_config_text(text), definition.schema, experiment_names=set(EXPERIMENTS))
        assert config.params == {"graph_file": "graphs/#1.txt"}
        assert definition.precheck(config.params)["graph_file"].n_nodes == 2

    def test_a_hash_in_a_value_round_trips_through_canonical_text(self):
        config = ExperimentConfig(experiment="curriculum", seed=0, output_dir="out#2")
        raw = parse_config_text(canonical_text(config))
        assert raw.output_dir == "out#2"
        assert canonical_text(build_config(raw, {}, experiment_names=set(EXPERIMENTS))) == canonical_text(config)


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

    def test_writes_stay_in_the_manifest_module(self):
        # manifest.write_text_file is the one write path (UTF-8, directory made once):
        # no other module writes or opens a file itself
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            if path.name == "manifest.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                    assert name not in ("write_text", "write_bytes", "open"), f"{path.name}:{node.lineno} calls {name}"


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
_ASYMPTOTE_HEADER = b"kappa,exact_kl,asymptote,abs_diff,sampled_mean,sampled_std\n"


# (experiment, keys): each key is a module constant, so a config that sets it fails
# on an unknown key; graph_file is the one key left.  The module that uses a value owns it: minority_mass is
# categorical.MINORITY_MASS; min_margin, margin and sigma_grid are
# dynamics.MIN_MARGIN, ACCURACY_MARGIN and SIGMA_GRID; frontier_betas, restarts,
# tol and max_conditional are cib.FRONTIER_BETAS, RESTARTS, TOL and
# MAX_CONDITIONAL; n_grid, trials_per_n, iterations and step are
# curriculum.N_GRID, TRIALS_PER_N, FIT_ITERATIONS and FIT_STEP; delta is
# dag.CAP_DELTA; schedule_scale is gone, as the schedule is k / (M - k); every
# other key is a constant of certlab.experiments
_CONSTANT_KEYS = [
    ("tradeoff-scan", ("samples", "options_set", "scan_options", "scan_grid", "oracle_resolution")),
    ("divergence-asymptote", ("options", "minority_mass", "kappas", "sample_draws", "concentration_draws")),
    ("noise-discrete",
     ("trials", "steps_list", "options_list", "noise_over_margin", "min_margin", "contrast_noise_over_margin")),
    ("error-accumulation", ("lipschitz_values", "dims", "steps_values", "sigma_h", "trials")),
    ("accuracy-sweep", ("dim", "trials", "margin", "sigma_grid")),
    ("cib-frontier",
     ("problem_seed", "corpus_size", "corpus_betas", "n_latent", "frontier_betas", "restarts", "tol",
      "max_conditional", "schedule_scale")),
    ("curriculum",
     ("rate_theta", "strong_theta", "n_grid", "trials_per_n", "iterations", "step", "grad_checks", "tv_trials")),
    ("dag-exploration",
     ("policy_draws", "mc_trials", "divergence_draws", "capped_samples", "graph_trials", "depth", "branching",
      "kappa", "minority_mass", "delta", "capped_deltas", "capped_options_max", "kappa_grid")),
]

# (experiment, key, value, message): a key that no code reads any more, and that exits 2 as unknown
_BAD_PARAM_CASES = [
    # the bounded law needs no rejection sampler, so the key that sized its
    # acceptance check is unknown (spelled in two parts: no live code names it)
    ("noise-discrete", "acceptance" "_draws", "2000", "unknown parameter keys: params.acceptance" "_draws"),
    # every walk runs to a target or a dead end: the key that capped its steps is gone
    ("dag-exploration", "graph_max_steps", "64", "unknown parameter keys: params.graph_max_steps"),
    # the map is the scalar L I: the key that picked a rotation map is gone
    ("error-accumulation", "transition", "rotation_scaling", "unknown parameter keys: params.transition"),
]


def _config_text(experiment: str, key: str, value) -> str:
    return f"[run]\nexperiment = {experiment}\nseed = 0\n[params]\n{key} = {value}\n"


@pytest.fixture
def refuse_runners(monkeypatch):
    """Make every experiment's runner raise, so a refusal must come before any runner starts."""

    def refuse(seed, params, threads=1):
        raise AssertionError("an experiment ran before its params and options were checked")

    for name, definition in list(EXPERIMENTS.items()):
        monkeypatch.setitem(EXPERIMENTS, name, dataclasses.replace(definition, runner=refuse))


class TestCli:
    def test_run_reruns_byte_identical(self, tmp_path, small_accuracy):
        cfg = _write_cfg(tmp_path, ACCURACY_CFG)
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

    def test_thread_count_does_not_change_output(self, tmp_path, small_constants):
        small_constants(ERROR_TRIALS=2000, DIMS=(1, 4), STEPS_VALUES=(1, 3))
        cfg = _write_cfg(tmp_path, "[run]\nexperiment = error-accumulation\nseed = 3\n")
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
        cfg = _write_cfg(tmp_path, ACCURACY_CFG + "trails = 10\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "params.trails" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, key, value, message",
        [
            *_BAD_PARAM_CASES,
            *[
                (experiment, key, "1", f"unknown parameter keys: params.{key}")
                for experiment, keys in _CONSTANT_KEYS for key in keys
            ],
        ],
    )
    def test_bad_param_exits_two_before_the_runner(
        self, tmp_path, capsys, refuse_runners, experiment, key, value, message
    ):
        cfg = _write_cfg(tmp_path, _config_text(experiment, key, value))
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "graph, message",
        [
            (b"start: x\ntargets: 1\n0: 1\n1:\n", "InvalidInputError: params.graph_file: line 1"),
            # one node over the enumeration cap
            (b"start: 0\ntargets: 0\n1000000:\n",
             "EnumerationTooLargeError: params.graph_file: node id 1000000 makes 1000001 nodes, over the 1000000 cap"),
            (b"start: 0\ntargets: 1\n0: 1\n1:\n\xff\n",
             "InvalidInputError: params.graph_file: {path}: not UTF-8 text ("),
        ],
        ids=["malformed", "over-the-node-cap", "not-utf8"],
    )
    def test_bad_graph_file_exits_two_before_any_graph_is_built(
        self, tmp_path, capsys, monkeypatch, refuse_runners, graph, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a graph was built before the graph file was checked")

        monkeypatch.setattr(dag, "DecisionDag", refuse)
        graph_path = tmp_path / "graph.txt"
        graph_path.write_bytes(graph)
        cfg = _write_cfg(tmp_path, _config_text("dag-exploration", "graph_file", graph_path))
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message.format(path=graph_path)) and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_non_utf8_config_exits_two_naming_the_file(self, tmp_path, capsys, refuse_runners):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(ACCURACY_CFG.encode() + b"\xff\n")
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
            monkeypatch.setitem(EXPERIMENTS, name, dataclasses.replace(EXPERIMENTS[name], runner=failing))
            argv = ["run", "--config", _write_cfg(tmp_path, ACCURACY_CFG)] if command == "run" else [command]
            argv += ["--out", str(tmp_path / "o")]
        assert cli.main(argv) == code
        prefix = {OSError: "i/o error", MemoryError: "out of memory"}.get(type(error), type(error).__name__)
        assert capsys.readouterr().err == f"{prefix}: {error}\n"

    def test_missing_config_is_io_error(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == 4

    def test_missing_experiment_exits_two(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[run]\nseed = 0\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "ConfigError: run.experiment is required" in capsys.readouterr().err

    def test_failed_check_exits_three(self, tmp_path, monkeypatch):
        # a chain simulator that never flips a token fails only the unconstrained
        # contrast's "perturbs the final token" check
        monkeypatch.setattr(dynamics, "simulate_discrete_chain", lambda *args: 0)
        cfg = _write_cfg(tmp_path, "[run]\nexperiment = noise-discrete\nseed = 0\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        failed = [c["name"] for c in load_manifest(tmp_path / "o" / "manifest.json").checks if not c["passed"]]
        assert failed == ["unconstrained large noise does perturb the final token"]

    def test_report_markdown_and_svg(self, tmp_path, capsys, small_accuracy):
        cfg = _write_cfg(tmp_path, ACCURACY_CFG)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["report", "--manifest", str(out / "manifest.json"), "--format", "md"]) == 0
        report = (out / "report.md").read_text()
        assert "ALL CHECKS PASSED" in report
        assert cli.main(["report", "--manifest", str(out / "manifest.json"), "--format", "svg"]) == 0
        svg = (out / "accuracy_sweep.svg").read_text()
        assert svg.count("<polyline") == 2  # analytic + empirical series

    def test_report_from_another_directory(self, tmp_path, capsys, monkeypatch, small_accuracy):
        cfg = _write_cfg(tmp_path, ACCURACY_CFG)
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

    def test_report_missing_csv_is_io_error(self, tmp_path, small_accuracy):
        cfg = _write_cfg(tmp_path, ACCURACY_CFG)
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
            # a lone surrogate escape is no UTF-8 text, so no report can write it
            ("manifest.json", _MANIFEST_HEAD + b'"files": [], "checks": [{"name": "\\udcff", "passed": true}]}'),
            ("manifest.json", _MANIFEST_HEAD + b'"files": [], "checks": [{"name": "c", "passed": true, "detail": "\\udcff"}]}'),
            ("manifest.json", _MANIFEST_HEAD + b'"started_at": "\\udcff", "files": [], "checks": []}'),
            ("manifest.json", b'{"experiment": "\\udcff", "config_hash": "x", "seed": 7, "files": [], "checks": []}'),
            ("manifest.json", b'{"experiment": "accuracy-sweep", "config_hash": "\\udcff", "seed": 7, "files": [], "checks": []}'),
            # a charted cell that is text, zero on the log axis, or not finite, on a divergence-asymptote run
            ("divergence_asymptote.csv", _ASYMPTOTE_HEADER + b"100.0,abc,4.0,0.1,4.0,0.1\n1000.0,5.5,5.5,0.0,5.5,0.1\n"),
            ("divergence_asymptote.csv", _ASYMPTOTE_HEADER + b"0.0,4.0,4.0,0.0,4.0,0.1\n1000.0,5.5,5.5,0.0,5.5,0.1\n"),
            ("divergence_asymptote.csv", _ASYMPTOTE_HEADER + b"100.0,nan,4.0,0.1,4.0,0.1\n1000.0,5.5,5.5,0.0,5.5,0.1\n"),
        ],
    )
    def test_malformed_report_input_is_report_error(self, tmp_path, capsys, small_accuracy, filename, text):
        experiment = "divergence-asymptote" if filename == "divergence_asymptote.csv" else "accuracy-sweep"
        cfg = _write_cfg(tmp_path, f"[run]\nexperiment = {experiment}\nseed = 7\n")
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
            if experiment == "divergence-asymptote":  # and a bad cell's column and row
                assert re.search(r": column (kappa|exact_kl), row 1: ", err)

    def test_seed_override_changes_hash(self, tmp_path, small_accuracy):
        cfg = _write_cfg(tmp_path, ACCURACY_CFG)
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
        self, tmp_path, capsys, refuse_runners, command, option, value, message
    ):
        argv = ["run", "--config", _write_cfg(tmp_path, ACCURACY_CFG)] if command == "run" else [command]
        assert cli.main(argv + ["--out", str(tmp_path / "o"), option, value]) == 2
        assert capsys.readouterr().err == f"ConfigError: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "verify-all"])
    def test_out_that_is_not_utf8_exits_two_before_any_precheck(self, tmp_path, capsys, monkeypatch, command):
        # a path argument holding the byte 0xff reaches argv as the lone surrogate U+DCFF
        def refuse(*args, **kwargs):
            raise AssertionError("an experiment was prechecked or run before --out was checked")

        for name, definition in list(EXPERIMENTS.items()):
            monkeypatch.setitem(EXPERIMENTS, name, dataclasses.replace(definition, runner=refuse, precheck=refuse))
        argv = ["run", "--config", _write_cfg(tmp_path, ACCURACY_CFG)] if command == "run" else [command]
        assert cli.main(argv + ["--out", str(tmp_path / "o\udcff")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: --out: not UTF-8 text (") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == (["exp.cfg"] if command == "run" else [])

    @pytest.mark.parametrize(
        "command, out, source",
        [
            ("run", ["--out", "o"], "--out"),
            ("run", [], "run.output_dir"),  # the default output directory, out
            ("verify-all", ["--out", "o"], "--out"),
        ],
    )
    def test_working_directory_that_is_not_utf8_exits_two_before_any_precheck(
        self, tmp_path, capsys, monkeypatch, command, out, source
    ):
        # a relative output directory under a working directory named with the byte 0xff
        # resolves to an absolute path holding the lone surrogate U+DCFF, which the
        # manifest would record
        def refuse(*args, **kwargs):
            raise AssertionError("an experiment was prechecked or run before the output directory was checked")

        for name, definition in list(EXPERIMENTS.items()):
            monkeypatch.setitem(EXPERIMENTS, name, dataclasses.replace(definition, runner=refuse, precheck=refuse))
        argv = ["run", "--config", _write_cfg(tmp_path, ACCURACY_CFG)] if command == "run" else [command]
        cwd = bytes(tmp_path) + b"/cwd\xff"
        os.mkdir(cwd)
        monkeypatch.chdir(cwd)
        assert cli.main(argv + out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ConfigError: {source}: not UTF-8 text (") and err.count("\n") == 1
        assert os.listdir(cwd) == []


class TestPrecheck:
    def test_every_key_named_in_experiments_is_in_its_schema(self):
        # a key read as params["..."] by an experiment's runner or precheck or a module
        # function they call is in its schema; so is the key of every refusal message,
        # in experiments.py and in _BAD_PARAM_CASES (unknown-key rows aside)
        source = Path(experiments.__file__).read_text()
        tree = ast.parse(source)
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

        def named_keys(name, seen):
            seen.add(name)
            for node in ast.walk(functions[name]):
                if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "params":
                    if isinstance(node.slice, ast.Constant):
                        yield node.slice.value
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions.keys() - seen:
                    yield from named_keys(node.func.id, seen)

        for name, definition in EXPERIMENTS.items():
            for phase in (definition.runner, definition.precheck):
                keys = set(named_keys(phase.__name__, set()))
                assert keys <= set(definition.schema), f"{name}: {phase.__name__} names {keys - set(definition.schema)}"
        assert set(re.findall(r"params\.(\w+):", source)) == {"graph_file"}
        for experiment, key, value, message in _BAD_PARAM_CASES:
            named = re.match(r"params\.(\w+):", message)
            assert named is None or named[1] in EXPERIMENTS[experiment].schema, f"{experiment}: {message}"

    def test_refusals_stay_out_of_the_runners(self):
        # a runner may assume valid params: it raises nothing, and every experiment
        # declares the precheck that refuses its params
        tree = ast.parse(Path(experiments.__file__).read_text())
        runners = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("run_")]
        assert len(runners) == len(EXPERIMENTS)
        for runner in runners:
            for node in ast.walk(runner):
                assert not isinstance(node, ast.Raise), f"{runner.name} raises at line {node.lineno}"
        (registry,) = [
            node.value for node in tree.body
            if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "EXPERIMENTS"
        ]
        assert len(registry.values) == len(EXPERIMENTS)
        for entry in registry.values:
            assert len(entry.args) == 3 or "precheck" in {keyword.arg for keyword in entry.keywords}

    def test_each_precheck_returns_the_params_its_runner_reads(self):
        # precheck_no_params hands its params on unchanged; dag-exploration's turns an unset
        # graph_file into no graph
        for name, definition in EXPERIMENTS.items():
            params = dict(definition.schema)
            expected = {"graph_file": None} if name == "dag-exploration" else params
            assert definition.precheck(params) == expected

    def test_the_runner_receives_what_its_precheck_returned(self, tmp_path, monkeypatch):
        checked, received = {"checked": True}, []

        def runner(seed, params, threads=1):
            received.append(params)
            return ExperimentResult()

        definition = dataclasses.replace(EXPERIMENTS["curriculum"], runner=runner, precheck=lambda params: checked)
        monkeypatch.setitem(EXPERIMENTS, "curriculum", definition)
        cfg = _write_cfg(tmp_path, "[run]\nexperiment = curriculum\nseed = 0\n")
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(received) == 1 and received[0] is checked

    def test_prechecks_open_no_stream(self, tmp_path, monkeypatch):
        # every precheck at its defaults, and dag-exploration's on a custom graph it
        # accepts and on one over the search cap, with every certlab binding of
        # rng_for made to raise
        def refuse(*labels):
            raise AssertionError(f"a precheck opened the stream {labels}")

        patched = {
            name for name, module in sys.modules.items() if name.startswith("certlab.") and hasattr(module, "rng_for")
        }
        assert {"certlab.experiments", "certlab.curriculum", "certlab.dag", "certlab.dynamics"} <= patched
        for name in patched:
            monkeypatch.setattr(sys.modules[name], "rng_for", refuse)
        for definition in EXPERIMENTS.values():
            definition.precheck(dict(definition.schema))
        precheck = EXPERIMENTS["dag-exploration"].precheck
        precheck({"graph_file": str(REPO_ROOT / "configs" / "custom_graph.txt")})
        chain = tmp_path / "chain.txt"
        chain.write_text(dag.format_dag(dag.chain_dag(dag.SEARCH_STEP_CAP // 3 + 1)))
        with pytest.raises(EnumerationTooLargeError, match=r"^params\.graph_file: 20000 trials make 3 blocks"):
            precheck({"graph_file": str(chain)})


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

    @pytest.mark.parametrize("column, cell", [("L_F", "nan"), ("d", "abc")], ids=["group", "middle"])
    def test_bad_group_or_middle_cell_is_report_error(self, tmp_path, column, cell):
        filename, header, rows = CHART_FIXTURES["error-accumulation"]
        at = header.index(column)
        rows = [(*row[:at], cell, *row[at + 1:]) if i == 1 else row for i, row in enumerate(rows)]
        manifest = RunManifest(experiment="error-accumulation", config_hash="0" * 64, seed=0)
        manifest.add_file(tmp_path / filename, write_csv(tmp_path / filename, header, rows))
        with pytest.raises(ReportError, match=f": column {column}, row 2: '{cell}' is not a finite number$"):
            emit_svg_charts(manifest, tmp_path)

    @pytest.mark.parametrize(
        "experiment, column, cell, kind",
        [
            ("divergence-asymptote", "kappa", "-100.0", "a positive finite number, as the log axis needs"),
            ("divergence-asymptote", "kappa", "inf", "a positive finite number, as the log axis needs"),
            ("divergence-asymptote", "asymptote", "-inf", "a finite number"),
            ("accuracy-sweep", "empirical", "", "a finite number"),
            ("tradeoff-scan", "B", "two", "a finite number"),
        ],
        ids=["negative-log-x", "infinite-log-x", "infinite-y", "empty-y", "text-group"],
    )
    def test_bad_charted_cell_is_report_error(self, tmp_path, experiment, column, cell, kind):
        filename, header, rows = CHART_FIXTURES[experiment]
        at = header.index(column)
        rows = [(*row[:at], cell, *row[at + 1:]) if i == 1 else row for i, row in enumerate(rows)]
        manifest = RunManifest(experiment=experiment, config_hash="0" * 64, seed=0)
        manifest.add_file(tmp_path / filename, write_csv(tmp_path / filename, header, rows))
        with pytest.raises(ReportError) as caught:
            emit_svg_charts(manifest, tmp_path)
        assert str(caught.value) == f"{tmp_path / filename}: column {column}, row 2: {cell!r} is not {kind}"
        assert not list(tmp_path.glob("*.svg"))

    def test_negative_cells_off_the_log_axis_are_charted(self, tmp_path):
        # only the log axis needs positive cells: a negative x and y on linear axes draw
        filename, header, rows = CHART_FIXTURES["cib-frontier"]
        rows = [(-0.4, -0.3, *row[2:]) if i == 1 else row for i, row in enumerate(rows)]
        manifest = RunManifest(experiment="cib-frontier", config_hash="0" * 64, seed=0)
        manifest.add_file(tmp_path / filename, write_csv(tmp_path / filename, header, rows))
        (chart,) = emit_svg_charts(manifest, tmp_path)
        assert "nan" not in chart.read_text().lower()

    def test_verify_all_writes_every_report(self, tmp_path, capsys, monkeypatch):
        for name, (filename, header, rows) in CHART_FIXTURES.items():
            result = ExperimentResult(tables={filename: (header, rows)})
            stub = lambda seed, params, threads=1, result=result: result  # noqa: E731
            monkeypatch.setitem(EXPERIMENTS, name, dataclasses.replace(EXPERIMENTS[name], runner=stub))
        assert cli.main(["verify-all", "--out", str(tmp_path)]) == 0
        assert all((tmp_path / name / "report.md").exists() for name in EXPERIMENTS)
        charts = {p.parent.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.rglob("*.svg")}
        assert charts == CHART_SHA256
        assert capsys.readouterr().out.splitlines()[-1] == "verify-all: ALL CHECKS PASSED"


class TestReportText:
    def test_chart_text_from_a_csv_is_escaped(self, tmp_path):
        # a curriculum chart labels each line with its provenance cell
        filename, header, rows = CHART_FIXTURES["curriculum"]
        rows = [(n, "R&D <x>" if provenance == "curriculum" else provenance, *rest) for n, provenance, *rest in rows]
        manifest = RunManifest(experiment="curriculum", config_hash="0" * 64, seed=0)
        manifest.add_file(tmp_path / filename, write_csv(tmp_path / filename, header, rows))
        (chart,) = emit_svg_charts(manifest, tmp_path)
        texts = [node.firstChild.data for node in minidom.parse(str(chart)).getElementsByTagName("text")]
        assert "R&D <x>" in texts and "biased" in texts

    def test_each_check_is_one_markdown_row_of_three_cells(self, tmp_path):
        manifest = RunManifest(experiment="curriculum", config_hash="0" * 64, seed=0)
        manifest.add_checks([Check("gap | bound", True, "ok"), Check("two\nlines", False, "a | b\r\nc")])
        report = emit_markdown(manifest, tmp_path / "report.md").read_text().splitlines()
        rows = report[report.index("|---|---|---|") + 1:][:2]
        assert rows == ["| gap \\| bound | pass | ok |", "| two lines | FAIL | a \\| b c |"]


class TestErrorAccumulationChartData:
    def test_final_values_ordered_by_lipschitz(self, tmp_path, small_constants):
        small_constants(ERROR_TRIALS=4000, DIMS=(8,))
        cfg = _write_cfg(tmp_path, "[run]\nexperiment = error-accumulation\nseed = 5\n")
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
    def test_graph_file_param_round_trips_through_the_cli(self, tmp_path, small_constants):
        graph_text = "start: 0\ntargets: 3\n0: 1,2\n1: 3\n2: 3\n3:\n"
        graph_path = tmp_path / "graph.txt"
        graph_path.write_text(graph_text)
        small_constants(GRAPH_TRIALS=2000, POLICY_DRAWS=30, MC_TRIALS=4000, DIVERGENCE_DRAWS=4, CAPPED_SAMPLES=300)
        cfg = _write_cfg(
            tmp_path, f"[run]\nexperiment = dag-exploration\nseed = 1\n[params]\ngraph_file = {graph_path}\n"
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

    def test_chain_over_the_search_cap_exits_two_before_any_output(self, tmp_path, capsys, refuse_runners):
        # the default 20000 trials make 3 blocks, so one step more than a third of
        # the cap puts the search over it
        length = dag.SEARCH_STEP_CAP // 3 + 1
        graph_path = tmp_path / "chain.txt"
        graph_path.write_text(dag.format_dag(dag.chain_dag(length)))
        cfg = _write_cfg(tmp_path, _config_text("dag-exploration", "graph_file", graph_path))
        started = time.perf_counter()
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr().err == (
            f"EnumerationTooLargeError: params.graph_file: 20000 trials make 3 blocks of walks up to {length} "
            f"steps: {3 * length} block-steps, over the cap {dag.SEARCH_STEP_CAP}\n"
        )
        assert not (tmp_path / "o").exists()

    def test_search_is_priced_at_the_graph_trials_read_at_call_time(self, tmp_path, small_constants):
        # the chain that 3 blocks of walks put over the cap fits when GRAPH_TRIALS makes one block
        length = dag.SEARCH_STEP_CAP // 3 + 1
        graph_path = tmp_path / "chain.txt"
        graph_path.write_text(dag.format_dag(dag.chain_dag(length)))
        precheck = EXPERIMENTS["dag-exploration"].precheck
        with pytest.raises(EnumerationTooLargeError, match="^params.graph_file: 20000 trials make 3 blocks"):
            precheck({"graph_file": str(graph_path)})
        small_constants(GRAPH_TRIALS=dag.SEARCH_BLOCK)
        precheck({"graph_file": str(graph_path)})

    def test_example_config_reads_its_graph_once(self, tmp_path, monkeypatch, capsys):
        reads = []
        read_text_file = experiments.read_text_file
        monkeypatch.setattr(
            experiments, "read_text_file", lambda path, error: reads.append(path) or read_text_file(path, error)
        )
        monkeypatch.chdir(REPO_ROOT)
        assert cli.main(["run", "--config", "configs/dag_custom.cfg", "--out", str(tmp_path / "o")]) == 0
        assert reads == ["configs/custom_graph.txt"]
        assert (tmp_path / "o" / "custom_graph.csv").is_file()

    def test_runner_walks_the_checked_graph_after_its_file_is_gone(self, tmp_path, small_constants):
        graph_path = tmp_path / "graph.txt"
        graph_path.write_text("start: 0\ntargets: 3\n0: 1,2\n1: 3\n2: 3\n3:\n")
        small_constants(GRAPH_TRIALS=2000, POLICY_DRAWS=3, MC_TRIALS=500, DIVERGENCE_DRAWS=2, CAPPED_SAMPLES=20)
        definition = EXPERIMENTS["dag-exploration"]
        checked = definition.precheck({"graph_file": str(graph_path)})
        graph_path.unlink()
        header, rows = definition.runner(0, checked).tables["custom_graph.csv"]
        assert rows == [(4, 2000, 1.0, 1.0, 2.0)]

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


# each constant that replaced a schema key (and noise-discrete's inline contrast count), at the
# value that key defaulted to
_FORMER_DEFAULTS = {
    "TRADEOFF_SAMPLES": 100_000, "OPTIONS_SET": (2, 3, 4, 8, 16, 32),
    "DISCRETE_TRIALS": 100_000, "CONTRAST_TRIALS": 20_000,
    "LIPSCHITZ_VALUES": (0.8, 1.0, 1.2), "DIMS": (1, 8, 64), "STEPS_VALUES": (1, 6, 12), "SIGMA_H": 0.1,
    "ERROR_TRIALS": 100_000,
    "ACCURACY_DIM": 16, "ACCURACY_TRIALS": 100_000,
    "POLICY_DRAWS": 200, "MC_TRIALS": 100_000, "DIVERGENCE_DRAWS": 30, "CAPPED_SAMPLES": 10_000,
    "GRAPH_TRIALS": 20_000,
}


def _types(value):
    """``value``'s type, or a tuple's type with its items' types."""
    return (tuple, [type(item) for item in value]) if isinstance(value, tuple) else type(value)


def _accuracy_rows_at(dim, trials):
    return dynamics.empirical_accuracy_sweep(dim=dim, trials=trials, seed=derive_seed(3, "accuracy"))


# experiment: (small constants, a table of its seed-3 run, what that table shows of them)
_CALL_TIME_CASES = {
    "tradeoff-scan": (
        dict(TRADEOFF_SAMPLES=40, OPTIONS_SET=(2, 4), SCAN_OPTIONS=(4,), SCAN_GRID=(0.5, 0.9), ORACLE_RESOLUTION=6),
        "tradeoff_scan.csv", lambda header, rows: [row[:2] for row in rows] == [(0.5, 4), (0.9, 4)],
    ),
    "noise-discrete": (
        dict(DISCRETE_TRIALS=30, CONTRAST_TRIALS=20),
        "noise_discrete.csv", lambda header, rows: [row[5] for row in rows] == [30] * 5 + [20],
    ),
    "error-accumulation": (
        dict(LIPSCHITZ_VALUES=(0.9, 1.1), DIMS=(2,), STEPS_VALUES=(1, 3), SIGMA_H=0.25, ERROR_TRIALS=200),
        "error_accumulation.csv",
        lambda header, rows: [row[:4] for row in rows] == [(lf, m, 2, 0.25) for lf in (0.9, 1.1) for m in (1, 3)],
    ),
    "accuracy-sweep": (
        dict(ACCURACY_DIM=4, ACCURACY_TRIALS=1000),
        "accuracy_sweep.csv", lambda header, rows: rows == _accuracy_rows_at(4, 1000) != _accuracy_rows_at(8, 1000),
    ),
    "dag-exploration": (
        dict(POLICY_DRAWS=3, MC_TRIALS=500, DIVERGENCE_DRAWS=2, CAPPED_SAMPLES=20),
        "dag_exploration.csv", lambda header, rows: [row[1] for row in rows] == [1, 3, 3],
    ),
}


class TestDefaults:
    def test_graph_file_is_the_only_param(self):
        # every other input is a module constant (_CONSTANT_KEYS)
        schemas = {name: definition.schema for name, definition in EXPERIMENTS.items() if definition.schema}
        assert schemas == {"dag-exploration": {"graph_file": ""}}

    @pytest.mark.parametrize("name, value", list(_FORMER_DEFAULTS.items()), ids=list(_FORMER_DEFAULTS))
    def test_constant_holds_the_former_default_with_its_type(self, name, value):
        # a CSV cell renders by type (1.0 is not 1), so a constant keeps its value's exact type too
        constant = getattr(experiments, name)
        assert constant == value
        assert _types(constant) == _types(value)

    def test_small_constants_refuses_an_unknown_name(self, small_constants):
        with pytest.raises(AttributeError):
            small_constants(DISCRETE_TRAILS=10)
        assert not hasattr(experiments, "DISCRETE_TRAILS")

    @pytest.mark.parametrize("experiment", sorted(_CALL_TIME_CASES))
    def test_runner_reads_its_constants_at_call_time(self, small_constants, experiment):
        constants, table, expected = _CALL_TIME_CASES[experiment]
        small_constants(**constants)
        definition = EXPERIMENTS[experiment]
        header, rows = definition.runner(3, definition.precheck(dict(definition.schema))).tables[table]
        assert expected(header, rows)

    def test_config_dataclass_round_trip_via_text(self):
        config = ExperimentConfig(
            experiment="dag-exploration", seed=123, params={"graph_file": "graphs/my dag.txt"}, output_dir="out",
        )
        raw = parse_config_text(canonical_text(config))
        rebuilt = build_config(
            raw, EXPERIMENTS["dag-exploration"].schema, experiment_names=set(EXPERIMENTS)
        )
        assert canonical_text(rebuilt) == canonical_text(config)


class TestKernelSettings:
    # each kernel has one production caller, which always passed the same values:
    # they are module constants of the kernel's module, not parameters
    @pytest.mark.parametrize(
        "module, name, parameters",
        [
            ("curriculum", "fit_rows", ["counts"]),
            ("curriculum", "mle_fit", ["counts"]),
            ("curriculum", "sweep_counts", ["expert_theta", "seed"]),
            ("curriculum", "summarize_sweep", ["expert_theta", "theta"]),
            ("dynamics", "empirical_accuracy_sweep", ["dim", "trials", "seed"]),
            ("cib", "information_frontier", ["problem", "seed"]),
        ],
    )
    def test_kernel_takes_no_setting(self, module, name, parameters):
        function = getattr(importlib.import_module(f"certlab.{module}"), name)
        assert list(inspect.signature(function).parameters) == parameters

    @pytest.mark.parametrize(
        "owner, name",
        [
            ("curriculum", "FIT_ITERATIONS"),
            ("curriculum", "FIT_STEP"),
            ("curriculum", "N_GRID"),
            ("curriculum", "TRIALS_PER_N"),
            ("dynamics", "ACCURACY_MARGIN"),
            ("dynamics", "SIGMA_GRID"),
            ("cib", "FRONTIER_BETAS"),
        ],
    )
    def test_setting_is_assigned_in_its_kernels_module_only(self, owner, name):
        assigners = set()
        for path in Path(experiments.__file__).parent.glob("*.py"):
            for node in ast.parse(path.read_text()).body:
                targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
                # experiments.py spelled the frontier's grid CIB_FRONTIER_BETAS
                if {getattr(target, "id", None) for target in targets} & {name, f"CIB_{name}"}:
                    assigners.add(path.stem)
        assert assigners == {owner}


REPO_ROOT =Path(__file__).resolve().parents[1]
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

    # the two configs that run in about a second; error_accumulation.cfg takes about 9 s and exits 3 at
    # its seed 42, where its chi-squared variance gate fails at L=0.8 d=1 M=6
    @pytest.mark.parametrize("name", ["dag_custom.cfg", "cib_frontier.cfg"])
    def test_fast_config_runs_from_the_repo_root(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.chdir(REPO_ROOT)
        assert cli.main(["run", "--config", f"configs/{name}", "--out", str(tmp_path / "o")]) == 0, capsys.readouterr()
        assert (tmp_path / "o" / "manifest.json").is_file()


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


# the public module-level functions and classes of src/certlab that nothing in src/certlab
# references, besides the TRACED names of bench/tracer.py, each with why it stays
_UNREFERENCED = {
    "categorical.softmax": "scalar reference: the categorical tests build their distributions with it",
    "categorical.logit_margin": "scalar reference: the tests check the stability bound against it",
    "curriculum.log_likelihood": "scalar reference: the curriculum tests check log_likelihood_grad against it",
    "dag.chain_dag": "test graph: the search-cap and long-walk tests build chains with it",
    "dag.diamond_dag": "test graph: the dag oracle tests walk it",
    "cib.beta_schedule": "library API that README documents as the stage schedule",
}


class TestReferences:
    def test_every_public_definition_is_referenced_in_the_package(self):
        # by an AST name or attribute anywhere in src/certlab, not by a docstring or an import
        package = Path(experiments.__file__).parent
        trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
        defined = {
            f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        }
        referenced = {
            node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
        }
        tracer = ast.parse((REPO_ROOT / "bench" / "tracer.py").read_text())
        (traced,) = [
            ast.literal_eval(node.value) for node in tracer.body
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
        ]
        unreferenced = {name for name in defined if name.split(".")[1] not in referenced}
        assert unreferenced - {f"{module}.{name}" for module, name in traced} == set(_UNREFERENCED)
