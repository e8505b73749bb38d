"""Acceptance suite: one test per exit criterion, at full stated scale.

Every test prints a single ``[acceptance] criterion N ... PASS/FAIL`` line
and enforces the criterion's tolerances and runtime budget.  Seeds are
fixed so the suite is reproducible; statistical gates (3-sigma bands) are
evaluated on pinned streams.

Criteria 6-10 run no experiment themselves.  The session fixture ``battery``
runs ``verify-all --seed 0`` once at one thread, and each of these criteria
reads its experiment's outcome from that run's output directory: the failed
checks and the ``started_at``/``finished_at`` runtime from
``<out>/<experiment>/manifest.json``, and the rows from the CSVs next to it
(floats are written with ``repr``, so ``float`` reads them back exactly).
Criterion 11 runs ``verify-all`` a second time, at two threads, and compares
the two runs' outputs byte for byte and with the pinned digests.
"""

import hashlib
import json
import math
import time
from datetime import datetime
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from certlab import cat_bulk, cib
from certlab import categorical as cat
from certlab import cli, dynamics
from certlab.experiments import _simplex_slice_min_reverse_kl, capped_peak_bound_audit
from certlab.manifest import load_manifest, read_csv
from certlab.seeding import derive_seed, rng_for

SEED = 0
SAMPLE_OPTIONS = range(2, 33)
# sha256 of every seed-0 output of verify-all, pinned by the benchmark
GOLDEN_DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "digests.json"


class Battery(NamedTuple):
    """One ``verify-all`` run: its exit code, output directory and wall time."""

    code: int
    out: Path
    seconds: float


def _verify_all(out: Path, threads: int) -> Battery:
    start = time.monotonic()
    code = cli.main(["verify-all", "--out", str(out), "--seed", str(SEED), "--threads", str(threads)])
    return Battery(code, out, time.monotonic() - start)


@pytest.fixture(scope="session")
def battery(tmp_path_factory) -> Battery:
    """The seed-0 battery at one thread, run once for criteria 6-11."""
    return _verify_all(tmp_path_factory.mktemp("battery-1-thread"), 1)


def _experiment_outcome(battery: Battery, name: str) -> tuple[list[str], float]:
    """One experiment's failed check names and its runtime in seconds, from its manifest."""
    manifest = load_manifest(battery.out / name / "manifest.json")
    failed = [c["name"] for c in manifest.checks if not c["passed"]]
    runtime = datetime.fromisoformat(manifest.finished_at) - datetime.fromisoformat(manifest.started_at)
    return failed, runtime.total_seconds()


def _outputs(out: Path) -> dict[str, bytes]:
    """The bytes of every CSV and text output under ``out``, keyed by its relative path."""
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.suffix in (".csv", ".txt")}


def _verdict(number: int, title: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {title}: {status}{suffix}")
    assert passed, f"criterion {number} {title}: {detail}"


def _sample_panels(total: int):
    per_b = -(-total // len(SAMPLE_OPTIONS))  # ceil: at least `total` overall
    for b in SAMPLE_OPTIONS:
        rng = rng_for(SEED, "acceptance-panel", b)
        yield b, cat_bulk.certainty_panel(rng.standard_normal((per_b, b)))


def test_criterion_01_symbolic_stability():
    start = time.monotonic()
    violations = 0
    total = 0
    for b, panel in _sample_panels(100_000):
        total += panel.margin.size
        violations += int(np.sum(panel.margin < panel.stability_bound - 1e-9))
    spot_99 = cat.stability_lower_bound(0.99)
    spot_60 = cat.stability_lower_bound(0.6)
    elapsed = time.monotonic() - start
    ok = (
        violations == 0
        and spot_99 >= 4.595
        and abs(spot_99 - 4.595) <= 1e-3
        and spot_60 >= 0.405
        and abs(spot_60 - 0.405) <= 1e-3
        and elapsed < 5.0
    )
    _verdict(
        1, "symbolic stability bound", ok,
        f"{violations}/{total} violations, spots {spot_99:.4f}/{spot_60:.4f}, {elapsed:.1f}s",
    )


def test_criterion_02_tradeoff_bound():
    start = time.monotonic()
    violations = 0
    total = 0
    for b, panel in _sample_panels(100_000):
        total += panel.reverse_kl.size
        violations += int(np.sum(panel.reverse_kl < panel.tradeoff_bound - 1e-9))
    zero_worst = max(abs(cat.tradeoff_lower_bound(1.0 / b, b)) for b in SAMPLE_OPTIONS)
    oracle = _simplex_slice_min_reverse_kl(0.7, 4, 60)
    elapsed = time.monotonic() - start
    ok = (
        violations == 0
        and zero_worst <= 1e-12
        and abs(oracle - 0.4458) <= 1e-3
        and abs(cat.tradeoff_lower_bound(0.7, 4) - oracle) <= 1e-6
        and elapsed < 30.0
    )
    _verdict(
        2, "exploration-execution trade-off bound", ok,
        f"{violations}/{total} violations, oracle {oracle:.6f}, {elapsed:.1f}s",
    )


def test_criterion_03_divergence_asymptote():
    start = time.monotonic()
    kappas = (1e2, 1e3, 1e4, 1e5, 1e6)
    uniform = np.full(5, 0.2)
    exact = []
    diffs_ok = True
    for kappa in kappas:
        spec = cat.DirichletConcentration(kappa=kappa, n_options=5, minority_mass=1.0)
        value = cat.kl_divergence(uniform, cat.dirichlet_mean(spec))
        exact.append(value)
        diffs_ok &= abs(value - cat.cot_divergence_asymptote(spec)) <= 10.0 / kappa
    slope = float(np.polyfit([math.log(k) for k in kappas], exact, 1)[0])
    elapsed = time.monotonic() - start
    ok = diffs_ok and 0.784 <= slope <= 0.816 and elapsed < 1.0
    _verdict(
        3, "concentration divergence asymptote", ok,
        f"slope {slope:.4f}, {elapsed:.2f}s",
    )


def test_criterion_04_capped_divergence_ceiling():
    start = time.monotonic()
    audit = capped_peak_bound_audit(
        derive_seed(SEED, "acceptance-capped"), (0.1, 0.3, 0.5), 16, 10_000
    )
    elapsed = time.monotonic() - start
    ok = len(audit.checks) == 2 and audit.all_passed and elapsed < 30.0
    _verdict(
        4, "capped-certainty divergence ceiling", ok,
        "; ".join(f"{c.name}: {c.detail}" for c in audit.checks) + f", {elapsed:.1f}s",
    )


def test_criterion_05_discrete_chain_integrity():
    start = time.monotonic()
    specs = [(6, 5), (4, 3), (8, 2), (6, 4), (10, 6)]
    counts = []
    for index, (steps, options) in enumerate(specs):
        spec = dynamics.DiscreteChainSpec(
            steps=steps, n_options=options, noise_scale=0.2,
            sub_decisional_only=True,
            logit_seed=derive_seed(SEED, "acceptance-chain", index),
        )
        counts.append(
            dynamics.simulate_discrete_chain(
                spec, 100_000, derive_seed(SEED, "acceptance-chain-run", index)
            )
        )
    elapsed = time.monotonic() - start
    ok = all(c == 0 for c in counts) and elapsed < 60.0
    _verdict(
        5, "discrete-chain symbolic integrity", ok,
        f"divergences {counts} over 5x100000 trials, {elapsed:.1f}s",
    )


def test_criterion_06_compounding_error(battery):
    failed, runtime = _experiment_outcome(battery, "error-accumulation")
    rows = read_csv(battery.out / "error-accumulation" / "error_accumulation.csv")[1]
    reference = [r for r in rows if (float(r[0]), int(r[1]), int(r[2])) == (1.0, 6, 8)]
    ok = (
        not failed
        and len(rows) == 27
        and reference
        and abs(float(reference[0][4]) - 0.48) <= 1e-12
        and runtime < 120.0
    )
    _verdict(
        6, "compounding latent error", ok,
        f"{len(rows)} cells, failed={failed}, {runtime:.1f}s",
    )


def test_criterion_07_accuracy_curve(battery):
    start = time.monotonic()
    failed, runtime = _experiment_outcome(battery, "accuracy-sweep")
    phi = dynamics.normal_cdf(1.0)
    elapsed = runtime + time.monotonic() - start
    ok = not failed and abs(phi - 0.84134) <= 1e-5 and elapsed < 60.0
    _verdict(
        7, "normalized accuracy curve", ok,
        f"Phi(1) = {phi:.7f}, failed={failed}, {elapsed:.1f}s",
    )


def test_criterion_08_bottleneck_machinery(battery):
    start = time.monotonic()
    failed, runtime = _experiment_outcome(battery, "cib-frontier")
    golden, _ = cib.brute_force_cib(cib.grouped_future_problem(), 2.0, 2)
    golden_ok = abs(golden - (-0.20289806975715452)) <= 1e-12
    schedule_ok = (
        cib.beta_schedule(0, 10) == 0.0
        and abs(cib.beta_schedule(5, 10) - 1.0) <= 1e-15
        and abs(cib.beta_schedule(9, 10) - 9.0) <= 1e-12
    )
    corpus_rows = read_csv(battery.out / "cib-frontier" / "cib_corpus.csv")[1]
    elapsed = runtime + time.monotonic() - start
    ok = (
        not failed
        and golden_ok
        and schedule_ok
        and len({int(r[0]) for r in corpus_rows}) >= 20
        and elapsed < 120.0
    )
    _verdict(
        8, "information-bottleneck machinery", ok,
        f"golden {golden:.12f}, failed={failed}, {elapsed:.1f}s",
    )


def test_criterion_09_curriculum_necessity(battery):
    failed, runtime = _experiment_outcome(battery, "curriculum")
    ok = not failed and runtime < 180.0
    _verdict(
        9, "curriculum necessity and convergence", ok,
        f"failed={failed}, {runtime:.1f}s",
    )


def test_criterion_10_exploration_analog(battery):
    failed, runtime = _experiment_outcome(battery, "dag-exploration")
    rows = {r[0]: r for r in read_csv(battery.out / "dag-exploration" / "dag_exploration.csv")[1]}
    conc, capped, uniform = (float(rows[p][2]) for p in ("concentrated", "non_degenerate", "uniform"))
    ordering = conc < capped and uniform >= capped and uniform >= conc and int(rows["concentrated"][1]) >= 200
    ok = not failed and ordering and runtime < 60.0
    _verdict(
        10, "trap-graph exploration analog", ok,
        f"means conc {conc:.2e} / capped {capped:.2e} / uniform {uniform:.2e}, {runtime:.1f}s",
    )


def test_criterion_11_harness_determinism(battery, tmp_path):
    second = _verify_all(tmp_path / "threads-2", 2)
    outputs1, outputs2 = _outputs(battery.out), _outputs(second.out)
    golden = json.loads(GOLDEN_DIGESTS.read_text())
    mismatched = sorted(
        f"{run}:{name}"
        for run, outputs in (("1-thread", outputs1), ("2-thread", outputs2))
        for name in outputs.keys() | golden.keys()
        if name not in outputs or hashlib.sha256(outputs[name]).hexdigest() != golden.get(name)
    )
    n_csv = sum(name.endswith(".csv") for name in outputs1)
    elapsed = battery.seconds + second.seconds
    ok = (
        battery.code == 0 and second.code == 0 and outputs1 == outputs2 and n_csv >= 8 and not mismatched
        and elapsed < 600.0
    )
    _verdict(
        11, "harness determinism (verify-all at 1 and 2 threads)", ok,
        f"exit codes {battery.code}/{second.code}, {len(outputs1)} outputs byte-compared, "
        f"{len(golden)} pinned digests, mismatched {mismatched}, {elapsed:.1f}s",
    )
