"""Named experiments: each runs one battery of checks and emits CSV tables.

Every experiment is a pure function of (seed, params): it returns its data
tables and a list of named pass/fail checks, and the CLI turns check
failures into a nonzero exit code.  Every check over many rows is one
``ExperimentResult.gate``, recording how many rows exceed the limit and the
worst row, so a NaN row fails it; every Monte Carlo comparison, one row or
many, is one ``ExperimentResult.sigma_gate``, the gate of the 3-sigma rule,
or, for a count of successes, one ``ExperimentResult.binomial_gate`` on its
exact tail; every closed-form comparison ``|observed - expected| <= tol`` is one
``ExperimentResult.within``.  ``gate`` builds every check, so each reports its
worst row and excess: ``x <= t`` is the row ``x - t`` and ``x >= t`` the row
``t - x`` (for finite floats the rounded difference is <= 0 exactly when the
comparison holds), a strict ``x < t`` is ``strict_rise([x, t])``, a compound
``and`` is one row per clause, and a structural fact is one row, 0 when it
holds and 1 when not.  Heavy sampling loops run as numpy row kernels.  The
checks test the paper's claims against closed forms, oracles and Monte Carlo
runs, never a kernel against the scalar op it shadows: the test suite holds
those comparisons, over every row it draws.

Every input of an experiment is a module constant: beside its experiment's
other constants here, or, where a library function reads it (curriculum's
sweep grid and fit settings, the accuracy sweep's margin and sigma grid, the
frontier's betas), beside that function's other constants.  The runners read
them at call time, so a small test run patches them.  The one param is
dag-exploration's ``graph_file``, a path to user input: its
``precheck(params)`` parses that graph, prices its search and returns it for
the runner to walk, so the runner sees only a graph it accepted; it draws
nothing and names ``params.graph_file`` in every refusal.  The other
experiments share ``precheck_no_params``, which returns its params.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import cat_bulk
from . import categorical as cat
from . import cib, curriculum, dag, dynamics
from .errors import EnumerationTooLargeError, InvalidInputError
from .manifest import Check, read_text_file
from .seeding import derive_seed, rng_for

# Chance that a standard normal lies more than 3 from 0: the nominal false-alarm
# rate of one 3-sigma row.
THREE_SIGMA_RATE = math.erfc(3.0 / math.sqrt(2.0))


def nominal_rate(rows: int) -> str:
    """The false-alarm rate of a gate whose every row rejects with chance THREE_SIGMA_RATE, over ``rows`` rows."""
    text = f"nominal false-alarm rate {THREE_SIGMA_RATE:.2%} per row"
    return f"{text}, {1.0 - (1.0 - THREE_SIGMA_RATE) ** rows:.1%} over {rows} rows" if rows > 1 else text


def binomial_tail(k: int, n: int, p: float) -> float:
    """The tail of X ~ Binomial(n, p) on k's side of the mean, P(X <= k) if k < n p, else P(X >= k);
    the other tail is at least 1/2, as the median lies between floor(n p) and ceil(n p).

    The ``math.lgamma`` terms shrink from k outward: the sum stops at the first that no longer changes it."""
    if not 0.0 < p < 1.0:  # a sure outcome: X = n p
        return float(k == n * p)
    step = -1 if k < n * p else 1
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    tail = 0.0
    for j in range(k, -1 if step < 0 else n + 1, step):
        term = math.exp(log_n - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * log_p + (n - j) * log_q)
        if tail + term == tail:
            break
        tail += term
    return tail


@dataclass
class ExperimentResult:
    tables: dict[str, tuple[list[str], list[tuple]]] = field(default_factory=dict)
    texts: dict[str, str] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)

    def gate(self, name: str, excess, where, detail: str = "") -> None:
        """One check over many rows: row i passes when ``excess[i] <= 0``.

        ``excess[i]`` is row i's observed value minus its limit, slack
        included, and ``where(i)`` describes row i.  A NaN row counts as
        over the limit; a gate over zero rows passes.
        """
        excess = np.asarray(excess, dtype=np.float64)
        over = int(np.sum(~(excess <= 0.0)))
        text = f"{over}/{excess.size} rows over the limit"
        if excess.size:
            worst = int(np.argmax(excess))  # the first NaN, if any
            text += f", worst {where(worst)} (excess {excess[worst]:.3e})"
        self.checks.append(Check(name=name, passed=over == 0, detail=f"{text}; {detail}" if detail else text))

    def sigma_gate(self, name: str, observed, expected, stderr, where) -> None:
        """The 3-sigma gate: row i passes when ``|observed[i] - expected[i]| <= 3 * stderr[i]``.

        The detail adds the worst pull (0 where the stderr is 0) and the rule's nominal false-alarm rate."""
        observed, expected, stderr = (np.asarray(a, dtype=np.float64) for a in (observed, expected, stderr))
        diff = np.abs(observed - expected)
        pulls = np.divide(diff, stderr, out=np.zeros_like(diff), where=stderr > 0)
        self.gate(
            name, diff - 3.0 * stderr,
            lambda i: f"{where(i)}: |{observed[i]:.6e} - {expected[i]:.6e}| vs 3*{stderr[i]:.2e}",
            f"worst pull {np.max(pulls, initial=0.0):.2f} sigma; {nominal_rate(diff.size)}",
        )

    def binomial_gate(self, name: str, counts, trials: int, rates, where) -> None:
        """The exact binomial gate: row i fails when ``counts[i]`` of ``trials`` lies in the tail of
        Binomial(trials, rates[i]) on its side of the mean with mass under THREE_SIGMA_RATE / 2.

        That is the 3-sigma rule's rate, free of the normal approximation that fails at
        n (1 - p) << 1.  The detail adds the tail limit and the nominal false-alarm rate."""
        tails = np.array([binomial_tail(k, trials, p) for k, p in zip(counts, rates)])
        self.gate(
            name, THREE_SIGMA_RATE / 2 - tails,
            lambda i: f"{where(i)}: {counts[i]}/{trials} at rate {rates[i]:.6e}, tail {tails[i]:.3e}",
            f"tail limit {THREE_SIGMA_RATE / 2:.3e}; {nominal_rate(len(tails))}",
        )

    def within(self, name: str, observed, expected, tol, where=None) -> None:
        """The closed-form gate: row i passes when ``|observed[i] - expected[i]| <= tol[i]``.

        Scalars broadcast over the rows, and a ``tol`` of 0 asks for equality; for a
        finite ``tol``, ``|a - b| - tol <= 0`` holds exactly when ``|a - b| <= tol``.
        The detail prints the worst row's observed value, expected value and tolerance,
        after ``where(i)`` if a ``where`` names the rows."""
        arrays = (np.asarray(a, dtype=np.float64) for a in (observed, expected, tol))
        observed, expected, tol = (np.ravel(a) for a in np.broadcast_arrays(*arrays))

        def row(i):
            text = f"|{float(observed[i])!r} - {float(expected[i])!r}| vs tol {float(tol[i])!r}"
            return f"{where(i)}: {text}" if where else text

        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf or an overflow: the row fails, unwarned
            self.gate(name, np.abs(observed - expected) - tol, row)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def strict_rise(values) -> np.ndarray:
    """Per neighbour pair, the excess of ``values[i + 1] > values[i]``: for finite
    floats ``b > a`` holds exactly when ``nextafter(a, inf) <= b``, so a gate over
    these rows stays strict."""
    values = np.asarray(values, dtype=np.float64)
    return np.nextafter(values[:-1], np.inf) - values[1:]


def deterministic_map(fn, items, threads: int):
    """Order-preserving map; thread count cannot affect the result list."""
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# tradeoff-scan: certainty bounds on random softmax distributions
# ---------------------------------------------------------------------------

# Random softmax rows: TRADEOFF_SAMPLES in all, split evenly over the B of OPTIONS_SET.
TRADEOFF_SAMPLES = 100_000
OPTIONS_SET = (2, 3, 4, 8, 16, 32)
# The oracle scan: a row for each top probability of SCAN_GRID at least 1/B, for each
# B of SCAN_OPTIONS, each scored over compositions of ORACLE_RESOLUTION units.
SCAN_OPTIONS = (2, 4)
SCAN_GRID = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
ORACLE_RESOLUTION = 60


def _compositions(units: int, slots: int, rows: int):
    """Every split of ``units`` over ``slots`` non-negative counts, in lexicographic order,
    as arrays of at most ``rows`` rows: stars and bars over ``units + slots - 1`` places."""
    bars = itertools.combinations(range(units + slots - 1), slots - 1)
    while block := list(itertools.islice(bars, rows)):
        edges = np.pad(np.array(block, dtype=np.int64), ((0, 0), (1, 1)), constant_values=(-1, units + slots - 1))
        yield np.diff(edges, axis=1) - 1


def _simplex_slice_min_reverse_kl(top: float, n_options: int, resolution: int) -> float:
    """Grid-search min of D(p || uniform) over p with max entry == top.

    Enumerates integer compositions of the remaining mass (filtered so no
    remainder entry exceeds the peak), always including the even-remainder
    point.  Deliberately independent of the closed-form bound it checks.
    """
    b = n_options
    rest_mass = 1.0 - top
    even = np.concatenate(([top], np.full(b - 1, rest_mass / (b - 1))))[None]
    best = float(cat_bulk.masked_log_sums(even, even * b, 1.0)[0])  # the p * log(p * b) terms: x / 1.0 is exact
    if b == 2:  # the even remainder is the only one
        return best
    for counts in _compositions(resolution, b - 1, cat_bulk.block_rows(b)):
        p = np.concatenate((np.full((len(counts), 1), top), counts * (rest_mass / resolution)), axis=1)
        p = p[p.max(axis=1) <= top + 1e-12]
        if len(p):
            best = min(best, float(cat_bulk.masked_log_sums(p, p * b, 1.0).min()))
    return best


def run_tradeoff_scan(seed: int, params: dict, threads: int = 1) -> ExperimentResult:
    result = ExperimentResult()
    per_b = TRADEOFF_SAMPLES // len(OPTIONS_SET)

    # per row, each floor's excess over its bound, filled block by block
    margin, reverse, forward, equality = np.empty((4, len(OPTIONS_SET) * per_b))
    for k, b in enumerate(OPTIONS_SET):
        rng = rng_for(seed, "tradeoff-sample", b)
        block = cat_bulk.block_rows(b)
        for start in range(0, per_b, block):
            logits = rng.standard_normal((min(block, per_b - start), b))
            panel = cat_bulk.certainty_panel(logits)
            rows = slice(k * per_b + start, k * per_b + start + len(logits))
            margin[rows] = panel.stability_bound - 1e-9 - panel.margin
            reverse[rows] = panel.tradeoff_bound - 1e-9 - panel.reverse_kl
            forward[rows] = panel.forward_bound - 1e-9 - panel.forward_kl
            equality[rows] = np.abs(panel.margin - panel.stability_bound) - 1e-12
    two = np.flatnonzero(np.repeat(np.asarray(OPTIONS_SET) == 2, per_b))  # the B=2 rows

    def where(i):
        return f"B={OPTIONS_SET[i // per_b]} row {i % per_b}"

    result.gate("stability floor: margin >= log(s/(1-s)) on random softmax sample", margin, where)
    result.gate("certainty cost floor: D(p||uniform) >= tradeoff bound on the same sample", reverse, where)
    result.gate("exploration floor: D(uniform||p) >= even-remainder bound on the same sample", forward, where)
    result.gate("two-option equality: margin == stability floor exactly", equality[two], lambda i: where(two[i]))

    for s, odds, paper in ((0.99, 99.0, 4.595), (0.6, 1.5, 0.405)):
        result.within(
            f"stability floor at {s} ~ {paper}", cat.stability_lower_bound(s), [math.log(odds), paper], [1e-12, 1e-3],
            lambda i: ("log(s/(1-s))", "the paper's value")[i],
        )
    result.within("stability floor at 0.5 == 0", cat.stability_lower_bound(0.5), 0.0, 0.0)

    floors = (("certainty cost", cat.tradeoff_lower_bound), ("exploration", cat.min_exploration_divergence))
    result.within(
        "both floors vanish at the uniform point s = 1/B",
        [floor(1.0 / b, b) for _, floor in floors for b in range(2, 33)], 0.0, 1e-12,
        lambda i: f"{floors[i // 31][0]} floor at B={i % 31 + 2}",
    )
    grid = np.linspace(0.5, 0.999, 200)
    result.gate(
        "floors increase monotonically on s in [0.5, 0.999]",
        np.concatenate([strict_rise([floor(s, 4) for s in grid]) for _, floor in floors]),
        lambda i: f"{floors[i // (len(grid) - 1)][0]} floor at s={grid[i % (len(grid) - 1) + 1]:.4f}",
    )

    # equality case of the certainty cost floor at even remainders
    peaks = [(b, float(s)) for b in (2, 3, 4, 8) for s in np.linspace(1.0 / b + 0.02, 0.97, 12)]
    result.within(
        "certainty cost floor attained by even-remainder distributions",
        [cat.kl_divergence(cat.peaked_distribution(s, b), np.full(b, 1.0 / b)) for b, s in peaks],
        [cat.tradeoff_lower_bound(s, b) for b, s in peaks], 1e-9, lambda i: f"B={peaks[i][0]} s={peaks[i][1]:.4f}",
    )

    rows = [
        (s, b, cat.tradeoff_lower_bound(s, b), _simplex_slice_min_reverse_kl(s, b, ORACLE_RESOLUTION))
        for b in SCAN_OPTIONS for s in SCAN_GRID if s >= 1.0 / b
    ]
    result.tables["tradeoff_scan.csv"] = (["i_s", "B", "bound", "empirical_min_kl"], rows)
    result.gate(
        "scan: bound <= grid-search minimum at every row",
        [bound - (empirical + 1e-12) for _, _, bound, empirical in rows],
        lambda i: f"s={rows[i][0]} B={rows[i][1]}: bound {rows[i][2]!r}, oracle {rows[i][3]!r}",
    )
    result.within(
        "grid-search oracle reproduces the s=0.7, B=4 minimum ~ 0.4458",
        _simplex_slice_min_reverse_kl(0.7, 4, ORACLE_RESOLUTION), 0.4458463724645642, 1e-3,
    )
    return result


# ---------------------------------------------------------------------------
# divergence-asymptote: concentration makes the explorer's divergence grow
# ---------------------------------------------------------------------------

# The option count B of every Dirichlet family of the experiment, its kappas, and the
# draws per kappa and at kappa = 1e6.
ASYMPTOTE_OPTIONS = 5
ASYMPTOTE_KAPPAS = (1e2, 1e3, 1e4, 1e5, 1e6)
SAMPLE_DRAWS = 2000
CONCENTRATION_DRAWS = 10_000


def run_divergence_asymptote(seed: int, params: dict, threads: int = 1) -> ExperimentResult:
    result = ExperimentResult()
    log_k = [math.log(k) for k in ASYMPTOTE_KAPPAS]
    b = ASYMPTOTE_OPTIONS
    specs = [cat.DirichletConcentration(kappa=kappa, n_options=b) for kappa in ASYMPTOTE_KAPPAS]
    spec6 = cat.DirichletConcentration(kappa=1e6, n_options=b)
    uniform = np.full(b, 1.0 / b)
    rows = []
    exact_values = []
    entropy_scalings = []
    for idx, (kappa, spec) in enumerate(zip(ASYMPTOTE_KAPPAS, specs)):
        mean = cat.dirichlet_mean(spec)
        exact = cat.kl_divergence(uniform, mean)
        asym = cat.cot_divergence_asymptote(spec)
        draws = cat.dirichlet_sample(spec, rng_for(seed, "asymptote-draws", idx), SAMPLE_DRAWS)
        sampled = cat_bulk.kl_rows(uniform, draws)
        rows.append(
            (kappa, exact, asym, abs(exact - asym), float(sampled.mean()), float(sampled.std(ddof=1)))
        )
        exact_values.append(exact)
        entropy_scalings.append(cat.entropy(mean) * kappa / math.log(kappa))
    result.tables["divergence_asymptote.csv"] = (
        ["kappa", "exact_kl", "asymptote", "abs_diff", "sampled_mean", "sampled_std"],
        rows,
    )
    result.within(
        "asymptote error within 10/kappa at every kappa", exact_values, [r[2] for r in rows],
        [10.0 / kappa for kappa in ASYMPTOTE_KAPPAS], lambda i: f"kappa={rows[i][0]}",
    )
    slope = float(np.polyfit(log_k, exact_values, 1)[0])
    lo, hi = (b - 1) / b * 0.98, (b - 1) / b * 1.02
    result.gate(
        "divergence slope vs log kappa within 2% of (B-1)/B", [lo - slope, slope - hi],
        lambda i: f"slope {slope:.6f} vs band {('floor', 'ceiling')[i]} {(lo, hi)[i]:.4f}",
    )
    asym_slope = (
        cat.cot_divergence_asymptote(specs[-1]) - cat.cot_divergence_asymptote(specs[0])
    ) / (log_k[-1] - log_k[0])
    result.within("asymptote slope exactly (B-1)/B", asym_slope, (b - 1) / b, 1e-12)
    two_opt = cat.DirichletConcentration(kappa=1000.0, n_options=2)
    result.within(
        "two-option asymptote reduces to log(kappa)/2 - log 2",
        cat.cot_divergence_asymptote(two_opt), 0.5 * math.log(1000.0) - math.log(2.0), 1e-12,
    )
    result.gate(
        "mean entropy scaling kappa*H/log(kappa) stays bounded",
        np.subtract(entropy_scalings, 5.0),
        lambda i: f"kappa={rows[i][0]} (scaling {entropy_scalings[i]:.4f})",
    )
    tops = cat.dirichlet_sample(spec6, rng_for(seed, "concentration"), CONCENTRATION_DRAWS).max(axis=1)
    freq = int(np.sum(tops > 0.999)) / CONCENTRATION_DRAWS
    result.gate(
        "concentration: top prob > 0.999 in at least 99% of draws at kappa = 1e6",
        [0.99 - freq], lambda i: f"frequency {freq:.4f}, floor 0.99",
    )
    return result


# ---------------------------------------------------------------------------
# noise-discrete: argmax reset makes sub-decisional noise harmless
# ---------------------------------------------------------------------------

# Spec i's chain: CHAIN_STEPS[i] steps over CHAIN_OPTIONS[i] options, logit margins
# of at least dynamics.MIN_MARGIN, and sub-decisional noise NOISE_OVER_MARGIN times it;
# the unconstrained contrast runs spec 0 at CONTRAST_NOISE_OVER_MARGIN times it.  Each
# sub-decisional spec runs DISCRETE_TRIALS trials, the contrast CONTRAST_TRIALS.
DISCRETE_TRIALS = 100_000
CONTRAST_TRIALS = 20_000
CHAIN_STEPS = (6, 4, 8, 6, 10)
CHAIN_OPTIONS = (5, 3, 2, 4, 6)
NOISE_OVER_MARGIN = 0.2
CONTRAST_NOISE_OVER_MARGIN = 5.0


def run_noise_discrete(seed: int, params: dict, threads: int = 1) -> ExperimentResult:
    result = ExperimentResult()
    specs = list(zip(CHAIN_STEPS, CHAIN_OPTIONS))

    def chain_spec(index, noise_over_margin, sub_decisional_only=True):
        steps, options = specs[index]
        return dynamics.DiscreteChainSpec(
            steps=steps, n_options=options, noise_scale=noise_over_margin * dynamics.MIN_MARGIN,
            sub_decisional_only=sub_decisional_only, logit_seed=derive_seed(seed, "chain-spec", index),
        )

    chain_specs = [chain_spec(index, NOISE_OVER_MARGIN) for index in range(len(specs))]
    contrast = chain_spec(0, CONTRAST_NOISE_OVER_MARGIN, sub_decisional_only=False)

    def run_spec(item):
        index, spec = item
        return dynamics.simulate_discrete_chain(spec, DISCRETE_TRIALS, derive_seed(seed, "chain-run", index))

    counts = deterministic_map(run_spec, list(enumerate(chain_specs)), threads)
    rows = [
        (index, spec.steps, spec.n_options, spec.noise_scale, "sub_decisional", DISCRETE_TRIALS, divergences)
        for index, (spec, divergences) in enumerate(zip(chain_specs, counts))
    ]
    result.gate(
        "sub-decisional noise: zero final-token divergences across all specs",
        np.asarray(counts, dtype=np.float64), lambda i: f"spec {i} ({counts[i]} divergences)",
    )

    contrast_count = dynamics.simulate_discrete_chain(
        contrast, CONTRAST_TRIALS, derive_seed(seed, "chain-contrast")
    )
    rows.append(
        (len(specs), contrast.steps, contrast.n_options, contrast.noise_scale,
         "unconstrained", CONTRAST_TRIALS, contrast_count)
    )
    result.gate(
        "unconstrained large noise does perturb the final token",
        strict_rise([0, contrast_count]), lambda i: f"{contrast_count}/{CONTRAST_TRIALS} divergences, need > 0",
    )
    result.tables["noise_discrete.csv"] = (
        ["spec", "steps", "options", "noise_scale", "mode", "trials", "divergences"],
        rows,
    )

    # the bound is tight: on the first step's clean logits, a fixed perturbation
    # (top down, runner-up up) that moves the top-two gap by just over that gap
    # flips the argmax, and one that moves it by just under does not
    logits = dynamics.prefix_logits(chain_specs[0], ())
    runner_up, top = np.argsort(logits)[-2:]
    gap = float(logits[top] - logits[runner_up])

    def moved_argmax(change):
        shift = np.zeros_like(logits)
        shift[top], shift[runner_up] = -change / 2, change / 2
        return int(np.argmax(logits + shift))

    over, under = moved_argmax(gap * (1 + 1e-9)), moved_argmax(gap * (1 - 1e-9))
    result.within(
        "sub-decisional bound is tight: a gap change just over the margin flips the argmax",
        [over, under], [runner_up, top], 0,
        lambda i: f"top-two gap {gap:.6f}, argmax just {('over', 'under')[i]} it",
    )
    return result


# ---------------------------------------------------------------------------
# error-accumulation: continuous chains compound noise geometrically
# ---------------------------------------------------------------------------

# The Monte Carlo cells: every (L, d, M) of LIPSCHITZ_VALUES x DIMS x STEPS_VALUES, L-major,
# each at noise SIGMA_H over ERROR_TRIALS trials.
LIPSCHITZ_VALUES = (0.8, 1.0, 1.2)
DIMS = (1, 8, 64)
STEPS_VALUES = (1, 6, 12)
SIGMA_H = 0.1
ERROR_TRIALS = 100_000


def run_error_accumulation(seed: int, params: dict, threads: int = 1) -> ExperimentResult:
    result = ExperimentResult()
    cells = [(lf, d, m) for lf in LIPSCHITZ_VALUES for d in DIMS for m in STEPS_VALUES]
    configs = [dynamics.LatentConfig(dim=d, steps=m, lipschitz=lf, sigma_h=SIGMA_H) for lf, d, m in cells]
    closed = [dynamics.expected_error_closed_form(config) for config in configs]
    trials = ERROR_TRIALS

    def run_cell(item):
        cell, config = item
        return dynamics.monte_carlo_error(config, trials, derive_seed(seed, "mc-cell", *[str(x) for x in cell]))

    outcomes = deterministic_map(run_cell, list(zip(cells, configs)), threads)
    rows = [(lf, m, d, SIGMA_H, c, *outcome) for (lf, d, m), c, outcome in zip(cells, closed, outcomes)]
    result.tables["error_accumulation.csv"] = (
        ["L_F", "M", "d", "sigma_h", "closed_form", "mc_mean", "mc_stderr"],
        rows,
    )
    closed = np.array(closed)
    means, stderrs = np.array(outcomes).T
    labels = [f"L={lf} d={d} M={m}" for lf, d, m in cells]
    result.sigma_gate(
        "Monte Carlo within 3 standard errors of the closed form at every cell",
        means, closed, stderrs, lambda i: labels[i],
    )
    # the law: |E_M|^2 = s^2 chi^2_d with s^2 = closed / d, so its variance is
    # 2 d s^4, and the sample variance (trials * stderr^2) has standard error
    # s^4 sqrt((mu_4 - mu_2^2) / trials) = s^4 sqrt((8 d^2 + 48 d) / trials)
    dims = np.array([d for _, d, _ in cells])
    s4 = (closed / dims) ** 2
    result.sigma_gate(
        "Monte Carlo error variance within 3 standard errors of the chi-squared law at every cell",
        trials * stderrs * stderrs, 2 * dims * s4, s4 * np.sqrt((8 * dims * dims + 48 * dims) / trials),
        lambda i: labels[i],
    )

    reference = dynamics.LatentConfig(dim=8, steps=6, lipschitz=1.0, sigma_h=0.1)
    result.within(
        "unit-Lipschitz closed form equals steps * dim * sigma^2 (0.48 reference)",
        dynamics.expected_error_closed_form(reference), 0.48, 1e-12,
    )
    geometric = dynamics.LatentConfig(dim=8, steps=400, lipschitz=0.8, sigma_h=0.1)
    result.within(
        "contractive chain error approaches the geometric limit",
        dynamics.expected_error_closed_form(geometric), 8 * 0.1**2 / (1 - 0.8**2), 1e-9,
    )
    # at d = 8 and the longest M, sorted by L
    lipschitz = sorted(LIPSCHITZ_VALUES)
    final_cf = [
        dynamics.expected_error_closed_form(
            dynamics.LatentConfig(dim=8, steps=max(STEPS_VALUES), lipschitz=lf, sigma_h=SIGMA_H)
        )
        for lf in lipschitz
    ]
    result.gate(
        "final error ordering follows the Lipschitz constant",
        strict_rise(final_cf),
        lambda i: f"L={lipschitz[i + 1]} after L={lipschitz[i]}",
        f"final closed forms {final_cf}",
    )
    return result


# ---------------------------------------------------------------------------
# accuracy-sweep: retention probability decays along the normal CDF
# ---------------------------------------------------------------------------

# The chain's dimension, the gain of its retention curve, and the trials at each sigma.
ACCURACY_DIM = 16
ACCURACY_TRIALS = 100_000


def _crossing_sigma(margin: float, gain: float, level: float) -> float:
    """Sigma where the analytic retention curve crosses ``level`` (interpolated).

    At level 0.75 the crossing is margin / (0.6745 sqrt(gain)), inside the grid for
    any gain up to 10**6."""
    grid = np.geomspace(1e-3, 1e3, 4001)
    curve = np.array([retention for _, retention in dynamics.accuracy_curve(margin, gain, grid)])
    idx = int(np.argmax(curve < level))
    x0, x1 = grid[idx - 1], grid[idx]
    y0, y1 = curve[idx - 1], curve[idx]
    return float(x0 + (level - y0) * (x1 - x0) / (y1 - y0))


def run_accuracy_sweep(seed: int, params: dict, threads: int = 1) -> ExperimentResult:
    result = ExperimentResult()
    gain, margin, trials = float(ACCURACY_DIM), dynamics.ACCURACY_MARGIN, ACCURACY_TRIALS
    rows = dynamics.empirical_accuracy_sweep(dim=ACCURACY_DIM, trials=trials, seed=derive_seed(seed, "accuracy"))
    result.tables["accuracy_sweep.csv"] = (["sigma", "analytic", "empirical", "std_error"], rows)
    sigmas, analytic, empirical = np.array([r[:3] for r in rows]).T
    result.binomial_gate(
        "empirical retention within binomial 3-sigma of the analytic curve everywhere",
        [round(e * trials) for e in empirical], trials, analytic,  # e is a count over trials: exact
        lambda i: f"sigma={sigmas[i]}",
    )
    result.gate(
        "analytic curve is monotone non-increasing",
        analytic[1:] - analytic[:-1], lambda i: f"sigma={rows[i + 1][0]} after sigma={rows[i][0]}",
    )
    limits = dict(dynamics.accuracy_curve(margin, gain, (1e-6, 1e6)))
    result.gate(
        "retention plateau at 1 as sigma -> 0", [1.0 - 1e-12 - limits[1e-6]],
        lambda i: f"retention {limits[1e-6]!r} at sigma 1e-06, floor 1 - 1e-12",
    )
    result.within("retention falls to the coin-flip 0.5 as sigma -> inf", limits[1e6], 0.5, 1e-3)
    result.within(
        "doubling the margin doubles the three-quarter retention crossing",
        _crossing_sigma(2.0 * margin, gain, 0.75) / _crossing_sigma(margin, gain, 0.75), 2.0, 0.02,
    )
    return result


# ---------------------------------------------------------------------------
# cib-frontier: bottleneck solver vs brute force, frontier geometry
# ---------------------------------------------------------------------------

# The frontier's noisy problem seed, and the corpus; the frontier's betas are cib's.
CIB_PROBLEM_SEED = 7
CIB_CORPUS_SIZE = 20
CIB_CORPUS_BETAS = (0.5, 1.0, 2.0, 5.0)
CIB_N_LATENT = 2


def frontier_envelope(points) -> tuple[list[float], list[str]]:
    """The excess and description of each envelope row of frontier points sorted by
    i_past: one drop row per neighbour pair (i_future may fall by at most 1e-6)
    and one kink row per triple (the envelope is concave within 1e-6)."""
    excess, where = [], []
    for a, b in zip(points, points[1:]):
        excess.append(a.i_future - 1e-6 - b.i_future)
        where.append(f"i_future drop between beta={a.beta} and beta={b.beta}")
    for a, b, c in zip(points, points[1:], points[2:]):
        left = (b.i_future - a.i_future) * (c.i_past - b.i_past)
        right = (c.i_future - b.i_future) * (b.i_past - a.i_past)
        excess.append(right - (left + 1e-6))
        where.append(f"convex kink at beta={b.beta} (i_past {b.i_past:.9f})")
    return excess, where


def run_cib_frontier(seed: int, params: dict, threads: int = 1) -> ExperimentResult:
    result = ExperimentResult()
    noisy = cib.random_noisy_problem(3, 3, 1, CIB_PROBLEM_SEED)
    result.tables["cib_problem.csv"] = (
        ["x", "s_past", "s_future", "prob"], cib.problem_to_rows(noisy)
    )

    # frontier with a lossless-capable latent alphabet
    pts = cib.information_frontier(noisy, seed=derive_seed(seed, "frontier"))
    result.tables["cib_frontier.csv"] = (
        ["beta", "i_past", "i_future", "objective", "converged"],
        [(p.beta, p.i_past, p.i_future, p.objective, p.converged) for p in pts],
    )
    envelope, envelope_rows = frontier_envelope(pts)
    result.gate(
        "frontier has no monotonicity or concavity defects", envelope, lambda i: envelope_rows[i]
    )
    predictive_ceiling = cib.conditional_mutual_information(
        noisy, cib.identity_encoder(noisy.n_past), "future"
    )
    result.within(
        "frontier saturates at the full predictive information", max(p.i_future for p in pts), predictive_ceiling, 1e-4,
    )
    beta0 = min(pts, key=lambda p: p.beta)
    result.gate(
        "beta = 0 collapses to a constant encoder (i_past ~ 0)",
        [beta0.i_past - 1e-6], lambda i: f"beta={beta0.beta}: i_past {beta0.i_past:.2e}, ceiling 1e-06",
    )
    # a dominates b when a.i_past <= b.i_past - 1e-9 and a.i_future >= b.i_future + 1e-9;
    # the pair's row passes when either inequality fails, each kept strict by nextafter
    pairs = [(a, b) for a in pts for b in pts if a is not b]
    result.gate(
        "no frontier point is Pareto-dominated by another",
        [np.minimum(np.nextafter(b.i_past - 1e-9, np.inf) - a.i_past,
                    np.nextafter(a.i_future, np.inf) - (b.i_future + 1e-9)) for a, b in pairs],
        lambda i: f"beta={pairs[i][1].beta} by beta={pairs[i][0].beta}",
    )
    result.gate(
        "every point obeys the predictive-information ceiling",
        [p.i_future - (predictive_ceiling + 1e-9) for p in pts], lambda i: f"beta={pts[i].beta}",
    )

    # solver vs deterministic brute force on a seeded corpus
    corpus_rows = []
    rises = []  # per solve, the objective's largest rise over one sweep, less the slack
    for index in range(CIB_CORPUS_SIZE):
        contexts = 1 if index % 2 == 0 else 2
        problem = cib.random_problem(3, 3, contexts, derive_seed(seed, "corpus", index))
        for beta in CIB_CORPUS_BETAS:
            solution = cib.solve_cib(
                problem, beta, CIB_N_LATENT, seed=derive_seed(seed, "corpus-solve", index, str(beta))
            )
            brute, _ = cib.brute_force_cib(problem, beta, CIB_N_LATENT)
            corpus_rows.append((index, contexts, beta, solution.point.objective, brute,
                                solution.point.converged))
            trace = np.array(solution.objective_trace)
            rises.append(np.max(trace[1:] - (trace[:-1] + 1e-9), initial=-np.inf))
    result.tables["cib_corpus.csv"] = (
        ["problem", "contexts", "beta", "solver_objective", "brute_objective", "converged"],
        corpus_rows,
    )

    def corpus_row(i):
        return f"problem {corpus_rows[i][0]} beta={corpus_rows[i][2]}"

    result.gate(
        "solver never beaten by any deterministic encoder (within 1e-8)",
        [objective - (brute + 1e-8) for _, _, _, objective, brute, _ in corpus_rows],
        lambda i: f"{corpus_row(i)}: solver {float(corpus_rows[i][3])!r}, brute {float(corpus_rows[i][4])!r}",
    )
    result.gate("objective non-increasing across solver sweeps (1e-9 slack)", rises, corpus_row)
    result.gate(
        "all corpus solves converged within the sweep cap", [float(not r[5]) for r in corpus_rows], corpus_row
    )

    # golden pin: brute-force minimum on the fixed grouped-future problem
    grouped = cib.grouped_future_problem()
    golden, golden_map = cib.brute_force_cib(grouped, 2.0, 2)
    gold_solution = cib.solve_cib(grouped, 2.0, 2, seed=derive_seed(seed, "golden"))
    result.tables["cib_golden.csv"] = (
        ["beta", "n_latent", "brute_objective", "solver_objective", "brute_map"],
        [(2.0, 2, golden, gold_solution.point.objective, "".join(map(str, golden_map)))],
    )
    result.gate(
        "reference problem: solver matches or beats the deterministic minimum",
        [gold_solution.point.objective - (golden + 1e-8)],
        lambda i: f"solver {gold_solution.point.objective!r} vs brute {golden!r} + 1e-08",
    )

    # decoder non-degeneracy at finite beta on the capped-conditional problem
    tops = np.array([
        cib.max_decoder_probability(
            noisy, cib.solve_cib(noisy, beta, 2, seed=derive_seed(seed, "decoder", str(beta))).encoder
        )
        for beta in CIB_CORPUS_BETAS
    ])
    result.gate(
        "decoder stays non-degenerate at every finite beta",
        np.maximum(tops - (1.0 - 1e-4), tops - (cib.MAX_CONDITIONAL + 1e-9)),
        lambda i: f"beta={CIB_CORPUS_BETAS[i]}: {tops[i]:.6f}",
    )
    return result


# ---------------------------------------------------------------------------
# curriculum: biased data caps success; expert-sampled data converges
# ---------------------------------------------------------------------------

# The expert weights behind the strong-expert fit, and those behind the convergence
# sweep and the total-variation fits; the total-variation fits per size.  The
# sweep's grid and every fit's settings are curriculum's constants.
STRONG_THETA = (10.0, 0.0, 0.0)
RATE_THETA = (2.0, 0.0, 0.0)
TV_TRIALS = 10


def run_curriculum(seed: int, params: dict, threads: int = 1) -> ExperimentResult:
    result = ExperimentResult()
    strong = np.asarray(STRONG_THETA)
    rate_theta = np.asarray(RATE_THETA)
    expert_strong = curriculum.success_rate(strong)

    # one lockstep fit for every count vector of the experiment, stacked in
    # three blocks: the policy rows (the all-shortcut biased counts per n, the
    # strong-expert counts and the balanced counts; they are
    # curriculum_policies.csv), the convergence-sweep rows and the
    # total-variation rows.
    grid = curriculum.N_GRID
    sweep_data = curriculum.sweep_counts(rate_theta, seed=derive_seed(seed, "sweep"))
    policy_counts = [[0.0, float(n), 0.0] for n in grid]
    policy_counts += [
        curriculum.draw_counts(strong, grid[-1], derive_seed(seed, "strong")),
        np.full(3, 3333.0),
    ]
    tv_counts = [
        curriculum.draw_counts(rate_theta, n, derive_seed(seed, "tv", n, t))
        for n in grid
        for t in range(TV_TRIALS)
    ]
    all_thetas, all_grad_norms = curriculum.fit_rows(np.vstack([policy_counts, sweep_data, tv_counts]))
    policies, sweep_end = len(policy_counts), len(policy_counts) + len(sweep_data)
    thetas, grad_norms = all_thetas[:policies], all_grad_norms[:policies]
    successes = curriculum.state_distribution(thetas)[:, curriculum.EXPERT]
    gaps = np.abs(successes - expert_strong)
    biased = slice(0, len(grid))
    # a row passes at excess <= 0, so nextafter keeps "gap > 0.98" strict
    result.gate(
        "biased data: success <= 0.01 and expert gap > 0.98 at every sample size",
        np.maximum(successes[biased] - 0.01, np.nextafter(0.98, 1.0) - gaps[biased]),
        lambda i: f"n={grid[i]} (success {successes[i]:.2e}, gap {gaps[i]:.4f})",
    )
    drift = thetas[biased, 1] + thetas[biased, 2]
    result.gate(
        "biased fits push the shortcut score far above the expert's",
        5.0 - drift,
        lambda i: f"n={grid[i]} (s2+s3 = {drift[i]:.2f})",
    )
    log_gaps = [math.log(max(gap, 1e-300)) for gap in gaps[biased].tolist()]
    result.within(
        "biased gap shows no decay with dataset size",
        np.polyfit([math.log(n) for n in grid], log_gaps, 1)[0], 0.0, 0.01, lambda i: "log-log slope",
    )

    sweep = curriculum.summarize_sweep(rate_theta, all_thetas[policies:sweep_end])
    rows = [(n, "biased", gap, 0.0, 0.0) for n, gap in zip(grid, gaps[biased].tolist())]
    rows.extend(sweep.rows)
    result.tables["curriculum_sweep.csv"] = (
        ["n", "provenance", "mean_gap", "stddev", "slope_so_far"], rows
    )
    result.gate(
        "curriculum log-log convergence slope within [-0.65, -0.35]", [-0.65 - sweep.slope, sweep.slope + 0.35],
        lambda i: f"slope {sweep.slope:.4f} vs band {('floor -0.65', 'ceiling -0.35')[i]}",
    )
    final_gap = sweep.rows[-1].mean_gap
    result.gate(
        "curriculum gap at the largest sample size <= 0.01",
        [final_gap - 0.01], lambda i: f"mean gap {final_gap:.5f} at n={sweep.rows[-1].n}",
    )
    means = [r.mean_gap for r in sweep.rows]
    inversions = sum(b > a for a, b in zip(means, means[1:]))
    decades = math.log10(grid[-1] / grid[0])
    result.gate(
        "curriculum gap non-increasing (allowing one inversion per decade)",
        [inversions - max(1, int(decades))], lambda i: f"{inversions} inversions over {decades:.1f} decades",
    )

    strong_gap = float(gaps[-2])
    result.gate(
        "near-deterministic expert recovered within 0.005 at the largest n",
        [strong_gap - 0.005], lambda i: f"gap {strong_gap:.2e}",
    )

    expert_dist = curriculum.state_distribution(rate_theta)
    tvs = curriculum.total_variation(curriculum.state_distribution(all_thetas[sweep_end:]), expert_dist)
    mean_tvs = [float(np.mean(row)) for row in tvs.reshape(len(grid), -1)]
    tv_bounds = [3.0 * math.sqrt(math.log(n) / n) for n in grid]
    result.gate(
        "fitted-vs-expert total variation within 3*sqrt(log n / n)",
        np.subtract(mean_tvs, tv_bounds),
        lambda i: f"n={grid[i]} (mean TV {mean_tvs[i]:.4f}, bound {tv_bounds[i]:.4f})",
    )

    scores = curriculum.FEATURES @ thetas[-1]
    spread = float(scores.max() - scores.min())
    sym_grad = float(grad_norms[-1])
    balanced = float(successes[-1])
    result.gate(
        "perfectly balanced data fits to equal scores (1e-4) with tiny gradient",
        [spread - 1e-4, abs(balanced - 1.0 / 3.0) - 1e-4, *strict_rise([sym_grad, 1e-8])],
        lambda i: (f"score spread {spread:.2e}, ceiling 1e-04", f"success {balanced:.6f} vs 1/3, tol 1e-04",
                   f"grad norm {sym_grad:.2e}, ceiling 1e-08")[i],
    )

    result.tables["curriculum_policies.csv"] = (["theta_0", "theta_1", "theta_2"], [tuple(t) for t in thetas])
    return result


# ---------------------------------------------------------------------------
# dag-exploration: the trap-graph analog of the exploration gap
# ---------------------------------------------------------------------------

# The one param: an optional custom graph (adjacency text), searched by GRAPH_TRIALS walks.
DAG_SCHEMA = {"graph_file": ""}
GRAPH_TRIALS = 20_000
# The policies drawn per family for the trap ordering, the trap search's walks, the
# policies drawn per kappa and for the binary graphs, and the capped-peak audit's samples.
POLICY_DRAWS = 200
MC_TRIALS = 100_000
DIVERGENCE_DRAWS = 30
CAPPED_SAMPLES = 10_000
# The trap's shape, the concentrated policies' kappa, the kappas of the divergence
# growth gate, and the capped-peak audit's deltas and largest B.
TRAP_DEPTH = 6
TRAP_BRANCHING = 3
DAG_KAPPA = 1e6
DAG_KAPPA_GRID = (1e2, 1e3, 1e4, 1e5, 1e6)
CAPPED_DELTAS = (0.1, 0.3, 0.5)
CAPPED_OPTIONS_MAX = 16


def capped_peak_bound_audit(seed: int, samples: int) -> ExperimentResult:
    """Audit the worst-case chain on random capped-peak distributions.

    For every delta of ``CAPPED_DELTAS`` and every B up to
    ``CAPPED_OPTIONS_MAX`` draws ``samples`` even-remainder distributions
    whose peak is a simplex draw's maximum capped at ``1 - delta``, measures
    D(uniform || p) with ``kl_rows``, and checks measured <= exact worst case
    <= simplified bound.  Each (delta, B) stream is drawn in blocks of
    ``block_rows(B)`` rows, the rows of one whole draw in order, so memory
    stays fixed whatever ``samples`` is.  Returns a result holding that one check.
    """
    audit = ExperimentResult()
    pairs = [(delta, b) for delta in CAPPED_DELTAS for b in range(2, CAPPED_OPTIONS_MAX + 1)]
    excess = []  # per pair, the largest measured excess, then the chain's excess
    for delta, b in pairs:
        bound = cat.worst_case_latent_kl(delta, b)
        rng, block, measured = rng_for(seed, "capped", str(delta), b), cat_bulk.block_rows(b), -np.inf
        for start in range(0, samples, block):
            p = rng.dirichlet(np.ones(b), size=min(block, samples - start))
            s = np.maximum(np.minimum(p.max(axis=1), 1.0 - delta), 1.0 / b)
            if start == 0:
                s[0] = 1.0 - delta  # include the cap itself so the extreme is always exercised
            p[:] = ((1.0 - s) / (b - 1))[:, None]  # overwrite the draws with peaked_distribution rows
            p[:, 0] = s
            p /= p.sum(axis=1, keepdims=True)
            kl = cat_bulk.kl_rows(np.full(b, 1.0 / b), p)
            measured = np.maximum(measured, np.max(kl - (bound.exact + 1e-9)))  # a NaN row stays NaN
        excess += [measured, bound.exact - (bound.simplified_bound + 1e-12)]
    audit.gate(
        "capped-peak sample: measured divergence <= exact worst case <= simplified bound",
        excess, lambda i: f"delta={pairs[i // 2][0]} B={pairs[i // 2][1]} {('measured', 'chain')[i % 2]}",
    )
    return audit


def _custom_graph(params: dict) -> dict:
    """dag-exploration's precheck: ``graph_file`` as its file's graph, priced for ``GRAPH_TRIALS``
    walks, or None when unset; the runner walks that graph and never opens the file.  A
    refusal of the file, its graph or its search names the key."""
    if not params["graph_file"]:
        return {"graph_file": None}
    try:
        graph = dag.parse_dag(read_text_file(params["graph_file"], InvalidInputError))
        dag.price_search(graph, GRAPH_TRIALS)
    except (InvalidInputError, EnumerationTooLargeError) as exc:
        raise type(exc)(f"params.graph_file: {exc}") from None
    return {"graph_file": graph}


def run_dag_exploration(seed: int, params: dict, threads: int = 1) -> ExperimentResult:
    result = ExperimentResult()
    custom = params["graph_file"]
    trap = dag.trap_dag(TRAP_DEPTH, TRAP_BRANCHING)
    uniform_policy = dag.make_policy(trap, "uniform")
    uniform_exact = dag.enumerate_paths(trap, uniform_policy)
    result.within(
        "uniform walker's exact trap success equals the closed form",
        uniform_exact, (1.0 / TRAP_BRANCHING) ** TRAP_DEPTH, 1e-15,
    )

    def draw_success(kind, index):
        if kind == "concentrated":
            policy = dag.make_policy(trap, "concentrated", kappa=DAG_KAPPA, seed=derive_seed(seed, "conc", index))
        else:
            policy = dag.make_policy(trap, "non_degenerate", seed=derive_seed(seed, "nd", index))
        return dag.enumerate_paths(trap, policy)

    draws = POLICY_DRAWS
    conc = np.array([draw_success("concentrated", i) for i in range(draws)])
    nd = np.array([draw_success("non_degenerate", i) for i in range(draws)])
    conc_mean, nd_mean = float(conc.mean()), float(nd.mean())
    result.tables["dag_exploration.csv"] = (
        ["policy", "draws", "mean_success", "median_success", "stderr", "exact_uniform"],
        [
            ("uniform", 1, uniform_exact, uniform_exact, 0.0, uniform_exact),
            ("concentrated", draws, conc_mean, float(np.median(conc)),
             float(conc.std(ddof=1) / math.sqrt(draws)), uniform_exact),
            ("non_degenerate", draws, nd_mean, float(np.median(nd)),
             float(nd.std(ddof=1) / math.sqrt(draws)), uniform_exact),
        ],
    )
    result.gate(
        "trap ordering: concentrated mean success < capped-certainty mean success",
        strict_rise([conc_mean, nd_mean]), lambda i: f"concentrated mean {conc_mean:.3e} vs capped {nd_mean:.3e}",
    )
    regimes = ("concentrated", "capped", "uniform")
    result.gate(
        "trap ordering: uniform success >= both policy means", [conc_mean - uniform_exact, nd_mean - uniform_exact],
        lambda i: f"{regimes[i]} mean {(conc_mean, nd_mean)[i]:.3e} vs uniform {uniform_exact:.3e}",
    )
    medians = (float(np.median(conc)), float(np.median(nd)), uniform_exact)
    result.gate(
        "trap medians separate the three regimes strictly", [*strict_rise(medians[:2]), medians[1] - medians[2]],
        lambda i: f"{regimes[i]} median {medians[i]:.3e} vs {regimes[i + 1]} {medians[i + 1]:.3e}",
    )

    stats = dag.run_search(trap, uniform_policy, MC_TRIALS, derive_seed(seed, "mc"))
    result.binomial_gate(
        "Monte Carlo search matches the exact oracle within 3 standard errors",
        [stats.successes], MC_TRIALS, [uniform_exact], lambda i: "uniform walker on the trap",
    )

    kappa_rows = []
    divergence_means = []
    for kappa in DAG_KAPPA_GRID:
        vals = []
        for i in range(DIVERGENCE_DRAWS):
            policy = dag.make_policy(trap, "concentrated", kappa=kappa, seed=derive_seed(seed, "kdiv", str(kappa), i))
            vals.append(dag.exploration_divergence(trap, policy))
        divergence_means.append(float(np.mean(vals)))
        kappa_rows.append((kappa, divergence_means[-1]))
    result.tables["dag_divergence.csv"] = (["kappa", "mean_divergence"], kappa_rows)
    result.gate(
        "exploration divergence grows with concentration",
        strict_rise(divergence_means),
        lambda i: f"kappa={kappa_rows[i + 1][0]} after kappa={kappa_rows[i][0]}",
        f"means {['%.3f' % m for m in divergence_means]}",
    )

    binary = dag.layered_dag(n_layers=6, width=4, max_out_degree=2, seed=derive_seed(seed, "binary"))
    half_bound = -0.5 * math.log(dag.CAP_DELTA) - cat.worst_case_latent_kl(dag.CAP_DELTA, 2).scan_constant
    nd_divs = []
    peaks = []  # (draw, node, top probability) at every decision node with two or more options
    for i in range(DIVERGENCE_DRAWS):
        policy = dag.make_policy(binary, "non_degenerate", seed=derive_seed(seed, "ndbin", i))
        nd_divs.append(dag.exploration_divergence(binary, policy))
        peaks += [(i, v, cat.symbolic_index(policy[v])) for v in binary.decision_nodes() if policy[v].size >= 2]
    result.gate(
        "capped policy respects the certainty cap at every node",
        [top - (1.0 - dag.CAP_DELTA + 1e-12) for _, _, top in peaks],
        lambda k: f"draw {peaks[k][0]} node {peaks[k][1]} (top {peaks[k][2]:.6f})",
    )
    result.gate(
        "capped-policy divergence on binary graphs stays under the delta ceiling",
        np.subtract(nd_divs, half_bound + 1e-9), lambda i: f"draw {i}",
        f"max divergence {np.max(nd_divs):.4f}, ceiling {half_bound:.4f}",
    )

    result.checks += capped_peak_bound_audit(derive_seed(seed, "capped-audit"), CAPPED_SAMPLES).checks

    result.texts["trap_graph.txt"] = dag.format_dag(trap)

    if custom is not None:
        policy = dag.make_policy(custom, "uniform")
        exact = dag.enumerate_paths(custom, policy)
        mc = dag.run_search(custom, policy, GRAPH_TRIALS, derive_seed(seed, "custom-mc"))
        result.tables["custom_graph.csv"] = (
            ["nodes", "trials", "exact_success", "empirical_success", "mean_path_length"],
            [(custom.n_nodes, mc.trials, exact, mc.success_rate, mc.mean_path_length)],
        )
        # a sure outcome's exact sum can round past 1: clipped, it is the sure rate 1
        result.binomial_gate(
            "custom graph: sampled success matches the exact oracle",
            [mc.successes], GRAPH_TRIALS, [float(np.clip(exact, 0.0, 1.0))],
            lambda i: "uniform walker on the custom graph",
        )
    return result


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentDef:
    """An experiment: ``precheck(params)`` refuses bad params or returns them checked for
    ``runner(seed, checked, threads)``.  ``schema`` maps each param to its default."""

    runner: object
    schema: dict[str, str]
    precheck: object


def precheck_no_params(params: dict) -> dict:
    """The precheck of an experiment without params: every input is a module constant."""
    return params


EXPERIMENTS: dict[str, ExperimentDef] = {
    "tradeoff-scan": ExperimentDef(run_tradeoff_scan, {}, precheck_no_params),
    "divergence-asymptote": ExperimentDef(run_divergence_asymptote, {}, precheck_no_params),
    "noise-discrete": ExperimentDef(run_noise_discrete, {}, precheck_no_params),
    "error-accumulation": ExperimentDef(run_error_accumulation, {}, precheck_no_params),
    "accuracy-sweep": ExperimentDef(run_accuracy_sweep, {}, precheck_no_params),
    "cib-frontier": ExperimentDef(run_cib_frontier, {}, precheck_no_params),
    "curriculum": ExperimentDef(run_curriculum, {}, precheck_no_params),
    "dag-exploration": ExperimentDef(run_dag_exploration, DAG_SCHEMA, _custom_graph),
}
