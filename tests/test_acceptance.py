"""Acceptance suite: one test per exit criterion, at full stated scale.

Every test prints a single ``[acceptance] criterion N ... PASS/FAIL`` line
and enforces the criterion's tolerances and runtime budget.  Seeds are
fixed so the suite is reproducible; statistical gates (3-sigma bands) are
evaluated on pinned streams.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from certlab import cat_bulk, cib
from certlab import categorical as cat
from certlab import cli, dynamics
from certlab.experiments import (
    EXPERIMENTS,
    _simplex_slice_min_reverse_kl,
    capped_peak_bound_audit,
    default_params,
)
from certlab.seeding import derive_seed, rng_for

SEED = 0
SAMPLE_OPTIONS = range(2, 33)
# sha256 of every seed-0 output of verify-all, pinned by the benchmark
GOLDEN_DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "digests.json"


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


def _experiment_checks(name: str, params: dict | None = None):
    result = EXPERIMENTS[name].runner(SEED, {**default_params(name), **(params or {})})
    failed = [c for c in result.checks if not c.passed]
    return result, failed


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


def test_criterion_06_compounding_error():
    start = time.monotonic()
    result, failed = _experiment_checks("error-accumulation")
    rows = result.tables["error_accumulation.csv"][1]
    reference = [r for r in rows if (r[0], r[1], r[2]) == (1.0, 6, 8)]
    elapsed = time.monotonic() - start
    ok = (
        not failed
        and len(rows) == 27
        and reference
        and abs(reference[0][4] - 0.48) <= 1e-12
        and elapsed < 120.0
    )
    _verdict(
        6, "compounding latent error", ok,
        f"{len(rows)} cells, failed={[c.name for c in failed]}, {elapsed:.1f}s",
    )


def test_criterion_07_accuracy_curve():
    start = time.monotonic()
    result, failed = _experiment_checks("accuracy-sweep")
    phi = dynamics.normal_cdf(1.0)
    elapsed = time.monotonic() - start
    ok = not failed and abs(phi - 0.84134) <= 1e-5 and elapsed < 60.0
    _verdict(
        7, "normalized accuracy curve", ok,
        f"Phi(1) = {phi:.7f}, failed={[c.name for c in failed]}, {elapsed:.1f}s",
    )


def test_criterion_08_bottleneck_machinery():
    start = time.monotonic()
    result, failed = _experiment_checks("cib-frontier")
    golden, _ = cib.brute_force_cib(cib.grouped_future_problem(), 2.0, 2)
    golden_ok = abs(golden - (-0.20289806975715452)) <= 1e-12
    schedule_ok = (
        cib.beta_schedule(0, 10) == 0.0
        and abs(cib.beta_schedule(5, 10) - 1.0) <= 1e-15
        and abs(cib.beta_schedule(9, 10) - 9.0) <= 1e-12
    )
    corpus_rows = result.tables["cib_corpus.csv"][1]
    elapsed = time.monotonic() - start
    ok = (
        not failed
        and golden_ok
        and schedule_ok
        and len({r[0] for r in corpus_rows}) >= 20
        and elapsed < 120.0
    )
    _verdict(
        8, "information-bottleneck machinery", ok,
        f"golden {golden:.12f}, failed={[c.name for c in failed]}, {elapsed:.1f}s",
    )


def test_criterion_09_curriculum_necessity():
    start = time.monotonic()
    result, failed = _experiment_checks("curriculum")
    elapsed = time.monotonic() - start
    ok = not failed and elapsed < 180.0
    _verdict(
        9, "curriculum necessity and convergence", ok,
        f"failed={[c.name for c in failed]}, {elapsed:.1f}s",
    )


def test_criterion_10_exploration_analog():
    start = time.monotonic()
    result, failed = _experiment_checks("dag-exploration")
    rows = {r[0]: r for r in result.tables["dag_exploration.csv"][1]}
    elapsed = time.monotonic() - start
    ordering = (
        rows["concentrated"][2] < rows["non_degenerate"][2]
        and rows["uniform"][2] >= rows["non_degenerate"][2]
        and rows["uniform"][2] >= rows["concentrated"][2]
        and rows["concentrated"][1] >= 200
    )
    ok = not failed and ordering and elapsed < 60.0
    _verdict(
        10, "trap-graph exploration analog", ok,
        f"means conc {rows['concentrated'][2]:.2e} / capped {rows['non_degenerate'][2]:.2e} "
        f"/ uniform {rows['uniform'][2]:.2e}, {elapsed:.1f}s",
    )


def test_criterion_11_harness_determinism(tmp_path):
    start = time.monotonic()
    out1, out2 = tmp_path / "pass1", tmp_path / "pass2"
    code1 = cli.main(["verify-all", "--out", str(out1), "--seed", str(SEED)])
    code2 = cli.main(["verify-all", "--out", str(out2), "--seed", str(SEED)])
    csv1 = sorted(p.relative_to(out1) for p in out1.rglob("*.csv"))
    csv2 = sorted(p.relative_to(out2) for p in out2.rglob("*.csv"))
    identical = csv1 == csv2 and all(
        (out1 / rel).read_bytes() == (out2 / rel).read_bytes() for rel in csv1
    )
    digests = {
        p.relative_to(out1).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out1.rglob("*")
        if p.suffix in (".csv", ".txt")
    }
    golden = json.loads(GOLDEN_DIGESTS.read_text())
    mismatched = sorted(k for k in digests.keys() | golden.keys() if digests.get(k) != golden.get(k))
    elapsed = time.monotonic() - start
    ok = (
        code1 == 0 and code2 == 0 and identical and len(csv1) >= 8 and not mismatched
        and elapsed < 600.0
    )
    _verdict(
        11, "harness determinism (verify-all twice)", ok,
        f"exit codes {code1}/{code2}, {len(csv1)} CSVs byte-compared, "
        f"{len(digests)} outputs against pinned digests, mismatched {mismatched}, {elapsed:.1f}s",
    )
