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
import re
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
        spec = cat.DirichletConcentration(kappa=kappa, n_options=5)
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
    audit = capped_peak_bound_audit(derive_seed(SEED, "acceptance-capped"), 10_000)
    elapsed = time.monotonic() - start
    ok = len(audit.checks) == 1 and audit.all_passed and elapsed < 30.0
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


# Every (experiment, check name) pair of the seed-0 battery, sorted: a check
# that disappears or is renamed fails by name.
BATTERY_CHECKS = [
    ('accuracy-sweep', 'analytic curve is monotone non-increasing'),
    ('accuracy-sweep', 'doubling the margin doubles the three-quarter retention crossing'),
    ('accuracy-sweep', 'empirical retention within binomial 3-sigma of the analytic curve everywhere'),
    ('accuracy-sweep', 'retention falls to the coin-flip 0.5 as sigma -> inf'),
    ('accuracy-sweep', 'retention plateau at 1 as sigma -> 0'),
    ('cib-frontier', 'all corpus solves converged within the sweep cap'),
    ('cib-frontier', 'beta = 0 collapses to a constant encoder (i_past ~ 0)'),
    ('cib-frontier', 'decoder stays non-degenerate at every finite beta'),
    ('cib-frontier', 'every point obeys the predictive-information ceiling'),
    ('cib-frontier', 'frontier has no monotonicity or concavity defects'),
    ('cib-frontier', 'frontier saturates at the full predictive information'),
    ('cib-frontier', 'no frontier point is Pareto-dominated by another'),
    ('cib-frontier', 'objective non-increasing across solver sweeps (1e-9 slack)'),
    ('cib-frontier', 'reference problem: solver matches or beats the deterministic minimum'),
    ('cib-frontier', 'solver never beaten by any deterministic encoder (within 1e-8)'),
    ('curriculum', 'biased data: success <= 0.01 and expert gap > 0.98 at every sample size'),
    ('curriculum', "biased fits push the shortcut score far above the expert's"),
    ('curriculum', 'biased gap shows no decay with dataset size'),
    ('curriculum', 'curriculum gap at the largest sample size <= 0.01'),
    ('curriculum', 'curriculum gap non-increasing (allowing one inversion per decade)'),
    ('curriculum', 'curriculum log-log convergence slope within [-0.65, -0.35]'),
    ('curriculum', 'fitted-vs-expert total variation within 3*sqrt(log n / n)'),
    ('curriculum', 'near-deterministic expert recovered within 0.005 at the largest n'),
    ('curriculum', 'perfectly balanced data fits to equal scores (1e-4) with tiny gradient'),
    ('dag-exploration', 'Monte Carlo search matches the exact oracle within 3 standard errors'),
    ('dag-exploration', 'capped policy respects the certainty cap at every node'),
    ('dag-exploration', 'capped-peak sample: measured divergence <= exact worst case <= simplified bound'),
    ('dag-exploration', 'capped-policy divergence on binary graphs stays under the delta ceiling'),
    ('dag-exploration', 'exploration divergence grows with concentration'),
    ('dag-exploration', 'trap medians separate the three regimes strictly'),
    ('dag-exploration', 'trap ordering: concentrated mean success < capped-certainty mean success'),
    ('dag-exploration', 'trap ordering: uniform success >= both policy means'),
    ('dag-exploration', "uniform walker's exact trap success equals the closed form"),
    ('divergence-asymptote', 'asymptote error within 10/kappa at every kappa'),
    ('divergence-asymptote', 'asymptote slope exactly (B-1)/B'),
    ('divergence-asymptote', 'concentration: top prob > 0.999 in at least 99% of draws at kappa = 1e6'),
    ('divergence-asymptote', 'divergence slope vs log kappa within 2% of (B-1)/B'),
    ('divergence-asymptote', 'mean entropy scaling kappa*H/log(kappa) stays bounded'),
    ('divergence-asymptote', 'two-option asymptote reduces to log(kappa)/2 - log 2'),
    ('error-accumulation', 'Monte Carlo error variance within 3 standard errors of the chi-squared law at every cell'),
    ('error-accumulation', 'Monte Carlo within 3 standard errors of the closed form at every cell'),
    ('error-accumulation', 'contractive chain error approaches the geometric limit'),
    ('error-accumulation', 'final error ordering follows the Lipschitz constant'),
    ('error-accumulation', 'unit-Lipschitz closed form equals steps * dim * sigma^2 (0.48 reference)'),
    ('noise-discrete', 'sub-decisional bound is tight: a gap change just over the margin flips the argmax'),
    ('noise-discrete', 'sub-decisional noise: zero final-token divergences across all specs'),
    ('noise-discrete', 'unconstrained large noise does perturb the final token'),
    ('tradeoff-scan', 'both floors vanish at the uniform point s = 1/B'),
    ('tradeoff-scan', 'certainty cost floor attained by even-remainder distributions'),
    ('tradeoff-scan', 'certainty cost floor: D(p||uniform) >= tradeoff bound on the same sample'),
    ('tradeoff-scan', 'exploration floor: D(uniform||p) >= even-remainder bound on the same sample'),
    ('tradeoff-scan', 'floors increase monotonically on s in [0.5, 0.999]'),
    ('tradeoff-scan', 'grid-search oracle reproduces the s=0.7, B=4 minimum ~ 0.4458'),
    ('tradeoff-scan', 'scan: bound <= grid-search minimum at every row'),
    ('tradeoff-scan', 'stability floor at 0.5 == 0'),
    ('tradeoff-scan', 'stability floor at 0.6 ~ 0.405'),
    ('tradeoff-scan', 'stability floor at 0.99 ~ 4.595'),
    ('tradeoff-scan', 'stability floor: margin >= log(s/(1-s)) on random softmax sample'),
    ('tradeoff-scan', 'two-option equality: margin == stability floor exactly'),
]


def test_battery_lists_every_check_by_name(battery):
    names = sorted(
        (manifest.parent.name, check["name"])
        for manifest in battery.out.glob("*/manifest.json")
        for check in load_manifest(manifest).checks
    )
    assert len(list(battery.out.glob("*/manifest.json"))) == 8
    assert names == BATTERY_CHECKS


def test_every_check_states_a_detail(battery):
    manifests = sorted(battery.out.glob("*/manifest.json"))
    assert len(manifests) == 8
    silent = [
        (manifest.parent.name, check["name"])
        for manifest in manifests
        for check in load_manifest(manifest).checks
        if not check.get("detail")
    ]
    assert silent == []


def test_every_check_is_a_gate(battery):
    # ExperimentResult.gate builds every check, so every detail opens with its row count
    manifests = sorted(battery.out.glob("*/manifest.json"))
    assert len(manifests) == 8
    ungated = [
        (manifest.parent.name, check["name"])
        for manifest in manifests
        for check in load_manifest(manifest).checks
        if not re.match(r"\d+/\d+ rows over the limit", check.get("detail", ""))
    ]
    assert ungated == []
