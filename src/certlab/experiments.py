"""Named experiments: each runs one battery of checks and emits CSV tables.

Every experiment is a pure function of (seed, params): it returns its data
tables and a list of named pass/fail checks, and the CLI turns check
failures into a nonzero exit code.  Every check over many rows is one
``ExperimentResult.gate``, recording how many rows exceed the limit and the
worst row, so a NaN row fails it; every Monte Carlo comparison, one row or
many, is one ``ExperimentResult.sigma_gate``, the gate of the 3-sigma rule;
every closed-form comparison ``|observed - expected| <= tol`` is one
``ExperimentResult.within``; ``strict_rise`` gives the rows of a "strictly
increasing" check, and ``check`` records one-sided thresholds, bands, orderings
and structural facts.  Heavy sampling loops run as
numpy row kernels; where a kernel shadows a scalar module operation,
``ExperimentResult.audit_rows`` re-evaluates a random subsample through the
public scalar op and gates the deviation, so the fast path cannot silently
drift from the contract it is testing.
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
from .config import ParamSpec
from .errors import EnumerationTooLargeError, InvalidInputError
from .manifest import Check, read_text_file
from .seeding import derive_seed, rng_for

# Rows per spot audit, and the deviation allowed between a bulk value and its
# scalar recomputation.
SPOT_SUBSAMPLE = 200
SPOT_TOL = 1e-10
# Chance that a standard normal lies more than 3 from 0: the nominal false-alarm
# rate of one 3-sigma row.
THREE_SIGMA_RATE = math.erfc(3.0 / math.sqrt(2.0))


def nominal_rate(rows: int) -> str:
    """The false-alarm rate of a gate whose every row rejects with chance THREE_SIGMA_RATE, over ``rows`` rows."""
    text = f"nominal false-alarm rate {THREE_SIGMA_RATE:.2%} per row"
    return f"{text}, {1.0 - (1.0 - THREE_SIGMA_RATE) ** rows:.1%} over {rows} rows" if rows > 1 else text


@dataclass
class ExperimentResult:
    tables: dict[str, tuple[list[str], list[tuple]]] = field(default_factory=dict)
    texts: dict[str, str] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name=name, passed=bool(passed), detail=detail))

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
        self.check(name, over == 0, f"{text}; {detail}" if detail else text)

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

    def audit_rows(self, name: str, rows, bulk, scalar) -> None:
        """Spot audit: at every row i of ``rows``, gate the fast path's value
        (or vector of values) ``bulk(i)`` against ``scalar(i)``, the same row
        recomputed through the public scalar ops."""
        deviation = [np.max(np.abs(np.subtract(scalar(i), bulk(i)))) for i in rows]
        self.gate(name, np.asarray(deviation, dtype=np.float64) - SPOT_TOL, lambda k: f"row {rows[k]}")

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def spot_rows(rng: np.random.Generator, n_rows: int) -> np.ndarray:
    """SPOT_SUBSAMPLE distinct random row indices in increasing order (all rows if fewer)."""
    return np.sort(rng.choice(n_rows, size=min(SPOT_SUBSAMPLE, n_rows), replace=False))


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

TRADEOFF_SCHEMA = {
    "samples": ParamSpec(100_000),
    "options_set": ParamSpec((2, 3, 4, 8, 16, 32), minimum=2),
    "scan_options": ParamSpec((2, 4), minimum=2),
    "scan_grid": ParamSpec((0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)),
    "oracle_resolution": ParamSpec(60, minimum=1),
}
# Most cells (remainder compositions times B) the grid-search oracle may score for one B.
ORACLE_CAP = 10**7
# Most noise variates a Monte Carlo runner may plan to draw.  Its kernels stream
# fixed-size blocks, so no allocation fails on a huge trial count; this cap stops
# the run before its first draw instead.
DRAW_CAP = 10**10


def _cap_draws(draws: int) -> None:
    """Refuse, before any draw, a run whose ``params.trials`` would draw more than ``DRAW_CAP`` variates."""
    if draws > DRAW_CAP:
        raise EnumerationTooLargeError(f"params.trials: the run would draw {draws} variates, over the cap {DRAW_CAP}")


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


def _scalar_certainty(logits: np.ndarray) -> tuple:
    """One ``certainty_panel`` row recomputed through the scalar ops, in field order."""
    b = logits.size
    p = cat.softmax(logits)
    s = cat.symbolic_index(p)
    uniform = np.full(b, 1.0 / b)
    return (s, cat.logit_margin(logits), cat.stability_lower_bound(s),
            cat.kl_divergence(p, uniform), cat.tradeoff_lower_bound(s, b),
            cat.kl_divergence(uniform, p), cat.min_exploration_divergence(s, b))


def run_tradeoff_scan(seed: int, params: dict, threads: int = 1) -> ExperimentResult:
    result = ExperimentResult()
    resolution = params["oracle_resolution"]
    for b in sorted({4, *params["scan_options"]}):  # B = 4 for the oracle's spot check
        compositions = math.comb(resolution + b - 2, b - 2)
        if compositions * b > ORACLE_CAP:
            key = "scan_options" if b in params["scan_options"] else "oracle_resolution"
            raise EnumerationTooLargeError(
                f"params.{key}: the oracle at B={b} would score {compositions} compositions "
                f"of {resolution} units, {compositions * b} cells, over the cap {ORACLE_CAP}"
            )
    # every scan row's bound is evaluated, and so validated, before any panel
    scan = [
        (float(s), b, cat.tradeoff_lower_bound(float(s), b))
        for b in params["scan_options"] for s in params["scan_grid"] if s >= 1.0 / b
    ]
    if not scan:
        raise InvalidInputError("params.scan_grid: no value is at least 1/B for any B of params.scan_options")
    options_set = params["options_set"]
    per_b = params["samples"] // len(options_set)
    if per_b < 1:
        raise InvalidInputError(
            f"params.samples: need at least one row per B, {len(options_set)} in all, got {params['samples']}"
        )

    # per row, each floor's excess over its bound, filled block by block
    margin, reverse, forward, equality = np.empty((4, len(options_set) * per_b))
    for k, b in enumerate(options_set):
        rng = rng_for(seed, "tradeoff-sample", b)
        # the spot rows are picked up front so only they, not every row, are kept
        picks = spot_rows(rng_for(seed, "tradeoff-spot", b), per_b)
        spot = {}  # picked row -> (panel values, scalar recomputation)
        block = cat_bulk.block_rows(b)
        for start in range(0, per_b, block):
            logits = rng.standard_normal((min(block, per_b - start), b))
            panel = cat_bulk.certainty_panel(logits)
            rows = slice(k * per_b + start, k * per_b + start + len(logits))
            margin[rows] = panel.stability_bound - 1e-9 - panel.margin
            reverse[rows] = panel.tradeoff_bound - 1e-9 - panel.reverse_kl
            forward[rows] = panel.forward_bound - 1e-9 - panel.forward_kl
            equality[rows] = np.abs(panel.margin - panel.stability_bound) - 1e-12
            for i in picks[(picks >= start) & (picks < start + len(logits))]:
                spot[i] = ([field[i - start] for field in panel], _scalar_certainty(logits[i - start]))
        result.audit_rows(
            f"scalar-vs-vectorized consistency at B={b}", picks, lambda i: spot[i][0], lambda i: spot[i][1],
        )
    two = np.flatnonzero(np.repeat(np.asarray(options_set) == 2, per_b))  # the B=2 rows

    def where(i):
        return f"B={options_set[i // per_b]} row {i % per_b}"

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

    rows = [(s, int(b), bound, _simplex_slice_min_reverse_kl(s, b, resolution)) for s, b, bound in scan]
    result.tables["tradeoff_scan.csv"] = (["i_s", "B", "bound", "empirical_min_kl"], rows)
    result.gate(
        "scan: bound <= grid-search minimum at every row",
        [bound - (empirical + 1e-12) for _, _, bound, empirical in rows],
        lambda i: f"s={rows[i][0]} B={rows[i][1]}: bound {rows[i][2]!r}, oracle {rows[i][3]!r}",
    )
    result.within(
        "grid-search oracle reproduces the s=0.7, B=4 minimum ~ 0.4458",
        _simplex_slice_min_reverse_kl(0.7, 4, resolution), 0.4458463724645642, 1e-3,
    )
    return result


# ---------------------------------------------------------------------------
# divergence-asymptote: concentration makes the explorer's divergence grow
# ---------------------------------------------------------------------------

ASYMPTOTE_SCHEMA = {
    "kappas": ParamSpec((1e2, 1e3, 1e4, 1e5, 1e6)),
    "sample_draws": ParamSpec(2000, minimum=2),
    "concentration_draws": ParamSpec(10_000, minimum=1),
}
# The option count B of every Dirichlet family of the experiment.
ASYMPTOTE_OPTIONS = 5


def run_divergence_asymptote(seed: int, params: dict, threads: int = 1) -> ExperimentResult:
    result = ExperimentResult()
    if min(params["kappas"]) <= 1.0:  # the checks divide by log kappa
        raise InvalidInputError(f"params.kappas: each kappa must exceed 1, got {min(params['kappas'])!r}")
    log_k = [math.log(k) for k in params["kappas"]]
    if len(set(log_k)) < 2:  # the slopes divide by a difference of logs
        raise InvalidInputError("params.kappas: the slope checks need at least two distinct values")
    b = ASYMPTOTE_OPTIONS
    # every family is built, and so validated, before the first draw
    specs = [cat.DirichletConcentration(kappa=kappa, n_options=b) for kappa in params["kappas"]]
    spec6 = cat.DirichletConcentration(kappa=1e6, n_options=b)
    uniform = np.full(b, 1.0 / b)
    rows = []
    samples = []
    exact_values = []
    entropy_scalings = []
    for idx, (kappa, spec) in enumerate(zip(params["kappas"], specs)):
        mean = cat.dirichlet_mean(spec)
        exact = cat.kl_divergence(uniform, mean)
        asym = cat.cot_divergence_asymptote(spec)
        draws = cat.dirichlet_sample(spec, rng_for(seed, "asymptote-draws", idx), params["sample_draws"])
        sampled = cat_bulk.kl_rows(uniform, draws)
        samples.append((draws, sampled))
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
        [10.0 / kappa for kappa in params["kappas"]], lambda i: f"kappa={rows[i][0]}",
    )
    slope = float(np.polyfit(log_k, exact_values, 1)[0])
    lo, hi = (b - 1) / b * 0.98, (b - 1) / b * 1.02
    result.check(
        "divergence slope vs log kappa within 2% of (B-1)/B",
        lo <= slope <= hi,
        f"slope {slope:.6f}, band [{lo:.4f}, {hi:.4f}]",
    )
    low, high = int(np.argmin(log_k)), int(np.argmax(log_k))  # two distinct values: a nonzero divisor
    asym_slope = (
        cat.cot_divergence_asymptote(specs[high]) - cat.cot_divergence_asymptote(specs[low])
    ) / (log_k[high] - log_k[low])
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
    draws6 = cat.dirichlet_sample(spec6, rng_for(seed, "concentration"), params["concentration_draws"])
    tops = draws6.max(axis=1)
    freq = int(np.sum(tops > 0.999)) / params["concentration_draws"]
    result.check(
        "concentration: top prob > 0.999 in at least 99% of draws at kappa = 1e6",
        freq >= 0.99,
        f"frequency {freq:.4f}",
    )
    all_draws, all_sampled = (np.concatenate(parts) for parts in zip(*samples))
    result.audit_rows(
        "spot audit: sampled divergences match kl_divergence",
        spot_rows(rng_for(seed, "asymptote-spot"), len(all_sampled)),
        lambda i: all_sampled[i], lambda i: cat.kl_divergence(uniform, all_draws[i]),
    )
    result.audit_rows(
        "spot audit: concentration top probabilities match symbolic_index",
        spot_rows(rng_for(seed, "concentration-spot"), len(tops)),
        lambda i: tops[i], lambda i: cat.symbolic_index(draws6[i]),
    )
    return result


# ---------------------------------------------------------------------------
# noise-discrete: argmax reset makes sub-decisional noise harmless
# ---------------------------------------------------------------------------

NOISE_DISCRETE_SCHEMA = {
    "trials": ParamSpec(100_000),
    "contrast_noise_over_margin": ParamSpec(5.0),
}
# Spec i's chain: CHAIN_STEPS[i] steps over CHAIN_OPTIONS[i] options, logit margins
# of at least dynamics.MIN_MARGIN, and sub-decisional noise NOISE_OVER_MARGIN times it.
CHAIN_STEPS = (6, 4, 8, 6, 10)
CHAIN_OPTIONS = (5, 3, 2, 4, 6)
NOISE_OVER_MARGIN = 0.2


def run_noise_discrete(seed: int, params: dict, threads: int = 1) -> ExperimentResult:
    result = ExperimentResult()
    specs = list(zip(CHAIN_STEPS, CHAIN_OPTIONS))

    def chain_spec(index, noise_over_margin, sub_decisional_only=True):
        steps, options = specs[index]
        return dynamics.DiscreteChainSpec(
            steps=steps, n_options=options, noise_scale=noise_over_margin * dynamics.MIN_MARGIN,
            sub_decisional_only=sub_decisional_only, logit_seed=derive_seed(seed, "chain-spec", index),
        )

    # every chain spec is built, and so validated, before any simulation
    chain_specs = [chain_spec(index, NOISE_OVER_MARGIN) for index in range(len(specs))]
    zero_spec = chain_spec(0, 0.0)
    contrast = chain_spec(0, params["contrast_noise_over_margin"], sub_decisional_only=False)
    # zero noise cannot move an argmax, so the contrast check would fail by construction
    if params["contrast_noise_over_margin"] <= 0:
        raise InvalidInputError(
            f"params.contrast_noise_over_margin: must be positive, got {params['contrast_noise_over_margin']!r}"
        )
    # one draw per option per step and trial; the cap counts the sub-decisional runs
    _cap_draws(params["trials"] * sum(steps * options for steps, options in specs))

    def run_spec(item):
        index, spec = item
        return dynamics.simulate_discrete_chain(spec, params["trials"], derive_seed(seed, "chain-run", index))

    counts = deterministic_map(run_spec, list(enumerate(chain_specs)), threads)
    rows = [
        (index, spec.steps, spec.n_options, spec.noise_scale, "sub_decisional", params["trials"], divergences)
        for index, (spec, divergences) in enumerate(zip(chain_specs, counts))
    ]
    result.gate(
        "sub-decisional noise: zero final-token divergences across all specs",
        np.asarray(counts, dtype=np.float64), lambda i: f"spec {i} ({counts[i]} divergences)",
    )

    zero_count = dynamics.simulate_discrete_chain(zero_spec, 1000, derive_seed(seed, "chain-zero"))
    result.within("zero noise: zero divergences", zero_count, 0, 0)

    contrast_trials = min(params["trials"], 20_000)
    contrast_count = dynamics.simulate_discrete_chain(
        contrast, contrast_trials, derive_seed(seed, "chain-contrast")
    )
    rows.append(
        (len(specs), contrast.steps, contrast.n_options, contrast.noise_scale,
         "unconstrained", contrast_trials, contrast_count)
    )
    result.check(
        "unconstrained large noise does perturb the final token",
        contrast_count > 0,
        f"{contrast_count}/{contrast_trials} divergences",
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
    result.check(
        "sub-decisional bound is tight: a gap change just over the margin flips the argmax",
        over == runner_up and under == top,
        f"top-two gap {gap:.6f} (tokens {top}, {runner_up}): argmax {over} just over, {under} just under",
    )
    return result


# ---------------------------------------------------------------------------
# error-accumulation: continuous chains compound noise geometrically
# ---------------------------------------------------------------------------

ERROR_ACCUMULATION_SCHEMA = {
    "lipschitz_values": ParamSpec((0.8, 1.0, 1.2)),
    "dims": ParamSpec((1, 8, 64)),
    "steps_values": ParamSpec((1, 6, 12)),
    "sigma_h": ParamSpec(0.1),
    "trials": ParamSpec(100_000, minimum=100),
}
# Headroom kept between the expected sum of fourth powers a Monte Carlo cell
# accumulates and the float range: a realized sum 2**10 times its expectation
# needs one chi-squared draw hundreds of times its mean, a chance below 1e-100.
FOURTH_POWER_HEADROOM = 2.0**10


def run_error_accumulation(seed: int, params: dict, threads: int = 1) -> ExperimentResult:
    result = ExperimentResult()
    longest = max(params["steps_values"])
    if longest < 2:  # at one step every L gives d sigma^2: the ordering needs two
        raise InvalidInputError(f"params.steps_values: the Lipschitz ordering needs at least 2 steps, got {longest}")
    if len(set(params["lipschitz_values"])) < len(params["lipschitz_values"]):  # the ordering is strict
        raise InvalidInputError("params.lipschitz_values: the values must be distinct")
    cells = [
        (lf, d, m)
        for lf in params["lipschitz_values"]
        for d in params["dims"]
        for m in params["steps_values"]
    ]
    _cap_draws(params["trials"] * sum(d * m for _, d, m in cells))
    # every cell's config and closed form are built, and so validated, before any
    # simulation; the gates divide by the closed form and the law gate squares it,
    # and the Monte Carlo sums |E_M|^4, whose expectation over the trials is
    # trials * closed^2 * (1 + 2/d) (the chi-squared law below)
    configs = [
        dynamics.LatentConfig(dim=d, steps=m, lipschitz=lf, sigma_h=params["sigma_h"]) for lf, d, m in cells
    ]
    closed = []
    for (lf, d, m), config in zip(cells, configs):
        try:
            value = dynamics.expected_error_closed_form(config)
        except OverflowError:  # a float power out of range: sigma_h ** 2 or L ** (2 M)
            value = math.inf
        fourth = params["trials"] * value * value * (1.0 + 2.0 / d) * FOURTH_POWER_HEADROOM
        if not (0.0 < value * value < math.inf and fourth < math.inf):
            raise InvalidInputError(
                f"params.sigma_h: the closed form at L={lf} d={d} M={m} is {value!r}; it, its square and "
                f"{FOURTH_POWER_HEADROOM:g} times the expected fourth-power sum of {params['trials']} trials "
                "must be positive and finite"
            )
        closed.append(value)

    def run_cell(item):
        cell, config = item
        return dynamics.monte_carlo_error(
            config, params["trials"], derive_seed(seed, "mc-cell", *[str(x) for x in cell])
        )

    outcomes = deterministic_map(run_cell, list(zip(cells, configs)), threads)
    rows = [(lf, m, d, params["sigma_h"], c, *outcome) for (lf, d, m), c, outcome in zip(cells, closed, outcomes)]
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
    trials = params["trials"]
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
    lipschitz = sorted(params["lipschitz_values"])
    final_cf = [
        dynamics.expected_error_closed_form(
            dynamics.LatentConfig(dim=8, steps=longest, lipschitz=lf, sigma_h=params["sigma_h"])
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

ACCURACY_SCHEMA = {
    "dim": ParamSpec(16, minimum=1),
    "margin": ParamSpec(2.0),
    "sigma_grid": ParamSpec((0.1, 0.17, 0.3, 0.5, 0.85, 1.4, 2.4, 4.0, 6.7, 11.0)),
    "trials": ParamSpec(100_000),
}


# The quadrature oracle's lower limit and its (even) number of Simpson intervals.
SIMPSON_LOWER = -10.0
SIMPSON_INTERVALS = 20_000


def _simpson_normal_cdf(z: float) -> float:
    """Composite-Simpson integral of the standard normal density from SIMPSON_LOWER up to z.

    Independent quadrature oracle for the erf-based implementation.
    """
    if z <= SIMPSON_LOWER:
        return 0.0
    xs = np.linspace(SIMPSON_LOWER, z, SIMPSON_INTERVALS + 1)
    ys = np.exp(-xs * xs / 2.0) / math.sqrt(2.0 * math.pi)
    h = (z - SIMPSON_LOWER) / SIMPSON_INTERVALS
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()))


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


def _crossing_sigma(margin: float, gain: float, level: float) -> float:
    """Sigma where the analytic retention curve crosses ``level`` (interpolated)."""
    grid = np.geomspace(1e-3, 1e3, 4001)
    curve = np.array([retention for _, retention in dynamics.accuracy_curve(margin, gain, grid)])
    idx = int(np.argmax(curve < level))
    if idx == 0:
        raise InvalidInputError(
            f"params.margin: the margin-doubling check needs the {level} crossing at margin {margin!r}, "
            f"which lies off the sigma grid [{grid[0]:g}, {grid[-1]:g}]"
        )
    x0, x1 = grid[idx - 1], grid[idx]
    y0, y1 = curve[idx - 1], curve[idx]
    return float(x0 + (level - y0) * (x1 - x0) / (y1 - y0))


def run_accuracy_sweep(seed: int, params: dict, threads: int = 1) -> ExperimentResult:
    result = ExperimentResult()
    # both crossings are found before the sweep, so a margin whose crossing lies
    # off the grid is rejected first; the readout's noise gain is exactly dim
    gain = float(params["dim"])
    crossing = _crossing_sigma(params["margin"], gain, 0.75)
    ratio = _crossing_sigma(2.0 * params["margin"], gain, 0.75) / crossing
    _cap_draws(params["trials"] * params["dim"] * len(params["sigma_grid"]))
    rows = dynamics.empirical_accuracy_sweep(
        dim=params["dim"],
        margin=params["margin"],
        sigma_grid=params["sigma_grid"],
        trials=params["trials"],
        seed=derive_seed(seed, "accuracy"),
    )
    result.tables["accuracy_sweep.csv"] = (["sigma", "analytic", "empirical", "std_error"], rows)
    sigmas, analytic, empirical = np.array([r[:3] for r in rows]).T
    # a row fails when its retained count lies in either exact binomial tail of mass under
    # THREE_SIGMA_RATE / 2: the 3-sigma rate, free of the normal approximation that fails at n (1 - p) << 1
    trials = params["trials"]
    retained = [round(e * trials) for e in empirical]  # e is a count over trials: exact
    tails = np.array([binomial_tail(k, trials, p) for k, p in zip(retained, analytic)])
    result.gate(
        "empirical retention within binomial 3-sigma of the analytic curve everywhere",
        THREE_SIGMA_RATE / 2 - tails,
        lambda i: f"sigma={sigmas[i]}: {retained[i]}/{trials} retained at rate {analytic[i]:.6e}, tail {tails[i]:.3e}",
        f"tail limit {THREE_SIGMA_RATE / 2:.3e}; {nominal_rate(len(tails))}",
    )
    result.gate(
        "analytic curve is monotone non-increasing",
        analytic[1:] - analytic[:-1], lambda i: f"sigma={rows[i + 1][0]} after sigma={rows[i][0]}",
    )
    limits = dict(dynamics.accuracy_curve(params["margin"], gain, (1e-6, 1e6)))
    result.check(
        "retention plateau at 1 as sigma -> 0", limits[1e-6] >= 1.0 - 1e-12,
        f"retention {limits[1e-6]!r} at sigma 1e-06, floor 1 - 1e-12",
    )
    result.within("retention falls to the coin-flip 0.5 as sigma -> inf", limits[1e6], 0.5, 1e-3)

    result.within(
        "Phi(1) ~ 0.84134 against the quadrature oracle",
        dynamics.normal_cdf(1.0), [_simpson_normal_cdf(1.0), 0.8413447460685429], [1e-5, 1e-10],
        lambda i: ("quadrature", "reference value")[i],
    )
    zs = (-2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0)
    result.within(
        "normal CDF matches quadrature to 1e-9 on a z grid",
        [dynamics.normal_cdf(z) for z in zs], [_simpson_normal_cdf(z) for z in zs], 1e-9, lambda i: f"z={zs[i]}",
    )
    result.within("doubling the margin doubles the three-quarter retention crossing", ratio, 2.0, 0.02)
    return result


# ---------------------------------------------------------------------------
# cib-frontier: bottleneck solver vs brute force, frontier geometry
# ---------------------------------------------------------------------------

CIB_SCHEMA: dict[str, ParamSpec] = {}
# The frontier's noisy problem seed and betas, and the corpus.
CIB_PROBLEM_SEED = 7
CIB_CORPUS_SIZE = 20
CIB_CORPUS_BETAS = (0.5, 1.0, 2.0, 5.0)
CIB_N_LATENT = 2
CIB_FRONTIER_BETAS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 32.0, 1000.0)


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
    pts = cib.information_frontier(noisy, CIB_FRONTIER_BETAS, n_latent=noisy.n_past, seed=derive_seed(seed, "frontier"))
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
    result.check(
        "beta = 0 collapses to a constant encoder (i_past ~ 0)",
        beta0.i_past <= 1e-6,
        f"i_past {beta0.i_past:.2e}",
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
    result.check(
        "reference problem: solver matches or beats the deterministic minimum",
        gold_solution.point.objective <= golden + 1e-8,
        f"solver {gold_solution.point.objective!r} vs brute {golden!r}",
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

    # stage schedule spot values, and the terminal stage, where the schedule diverges
    schedule = [cib.beta_schedule(k, 10) for k in (0, 5, 9)]
    try:
        terminal = repr(cib.beta_schedule(10, 10))
    except InvalidInputError:
        terminal = None
    result.check(
        "stage schedule: spot values and divergence at the terminal stage",
        schedule[0] == 0.0 and abs(schedule[1] - 1.0) <= 1e-15 and abs(schedule[2] - 9.0) <= 1e-12
        and terminal is None,
        f"stages 0, 5, 9 of 10: {schedule}; stage 10: {terminal or 'refused'}",
    )
    result.gate(
        "stage schedule increases monotonically",
        strict_rise([cib.beta_schedule(k, 12) for k in range(12)]), lambda k: f"stage {k + 1} after stage {k}",
    )
    return result


# ---------------------------------------------------------------------------
# curriculum: biased data caps success; expert-sampled data converges
# ---------------------------------------------------------------------------

CURRICULUM_SCHEMA = {
    "strong_theta": ParamSpec((10.0, 0.0, 0.0)),
    "n_grid": ParamSpec((100, 1000, 10_000, 100_000)),
    "trials_per_n": ParamSpec(50, minimum=2),
    "iterations": ParamSpec(5000, minimum=1),
    "step": ParamSpec(0.1),
    "grad_checks": ParamSpec(100, minimum=1),
    "tv_trials": ParamSpec(10, minimum=1),
}
# The expert weights behind the convergence sweep and the total-variation fits.
RATE_THETA = (2.0, 0.0, 0.0)


def run_curriculum(seed: int, params: dict, threads: int = 1) -> ExperimentResult:
    result = ExperimentResult()
    dim = curriculum.FEATURES.shape[1]
    if len(params["strong_theta"]) != dim:
        raise InvalidInputError(f"params.strong_theta: need {dim} weights, got {len(params['strong_theta'])}")
    with np.errstate(over="ignore", invalid="ignore"):  # scores that overflow make a NaN softmax
        probabilities = curriculum.state_distribution(params["strong_theta"])
    if not np.all(np.isfinite(probabilities)):
        raise InvalidInputError("params.strong_theta: the state probabilities are not finite")
    if params["step"] <= 0:
        raise InvalidInputError(f"params.step: must be positive, got {params['step']!r}")
    if curriculum.step_overflows(params["step"]):
        raise InvalidInputError(f"params.step: {params['step']!r} overflows the projection's squared norm")
    strong = np.asarray(params["strong_theta"])
    rate_theta = np.asarray(RATE_THETA)
    expert_strong = curriculum.success_rate(strong)

    result.within(
        "expert success reproduces exp(10)/(exp(10)+2) to 1e-9",
        curriculum.success_rate(np.array([10.0, 0.0, 0.0])), math.exp(10.0) / (math.exp(10.0) + 2.0), 1e-9,
    )
    shortcut_heavy = curriculum.success_rate(np.array([0.0, 10.0, 10.0]))
    result.check(
        "shortcut-dominated weights drive success toward zero",
        abs(shortcut_heavy - 1.0 / (1.0 + math.exp(20.0) + math.exp(10.0))) <= 1e-18
        and shortcut_heavy < 1e-8,
        f"success {shortcut_heavy:.3e}",
    )

    # one lockstep fit for every count vector of the experiment, stacked in
    # three blocks: the policy rows (the all-shortcut biased counts per n, the
    # strong-expert counts and the balanced counts; they are
    # curriculum_policies.csv), the convergence-sweep rows and the
    # total-variation rows.  The sweep's counts are drawn first, because they
    # validate the grid.
    grid = params["n_grid"]
    sweep_data = curriculum.sweep_counts(
        rate_theta, grid, params["trials_per_n"], seed=derive_seed(seed, "sweep")
    )
    policy_counts = [[0.0, float(n), 0.0] for n in grid]
    policy_counts += [
        curriculum.draw_counts(strong, grid[-1], derive_seed(seed, "strong")),
        np.full(3, 3333.0),
    ]
    tv_counts = [
        curriculum.draw_counts(rate_theta, n, derive_seed(seed, "tv", n, t))
        for n in grid
        for t in range(params["tv_trials"])
    ]
    all_thetas, all_grad_norms = curriculum.fit_rows(
        np.vstack([policy_counts, sweep_data, tv_counts]), params["iterations"], params["step"]
    )
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

    sweep = curriculum.summarize_sweep(rate_theta, grid, all_thetas[policies:sweep_end])
    rows = [(n, "biased", gap, 0.0, 0.0) for n, gap in zip(grid, gaps[biased].tolist())]
    rows.extend(sweep.rows)
    result.tables["curriculum_sweep.csv"] = (
        ["n", "provenance", "mean_gap", "stddev", "slope_so_far"], rows
    )
    result.check(
        "curriculum log-log convergence slope within [-0.65, -0.35]",
        -0.65 <= sweep.slope <= -0.35,
        f"slope {sweep.slope:.4f}",
    )
    final_gap = sweep.rows[-1].mean_gap
    result.check(
        "curriculum gap at the largest sample size <= 0.01",
        final_gap <= 0.01,
        f"mean gap {final_gap:.5f} at n={sweep.rows[-1].n}",
    )
    means = [r.mean_gap for r in sweep.rows]
    inversions = sum(b > a for a, b in zip(means, means[1:]))
    decades = math.log10(grid[-1] / grid[0])
    result.check(
        "curriculum gap non-increasing (allowing one inversion per decade)",
        inversions <= max(1, int(decades)),
        f"{inversions} inversions over {decades:.1f} decades",
    )

    strong_gap = float(gaps[-2])
    result.check(
        "near-deterministic expert recovered within 0.005 at the largest n",
        strong_gap <= 0.005,
        f"gap {strong_gap:.2e}",
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

    rng = rng_for(seed, "grad-check")
    rel = []
    for _ in range(params["grad_checks"]):
        theta = rng.uniform(-5.0, 5.0, 3)
        counts = rng.integers(1, 50, 3).astype(np.float64)
        grad = curriculum.log_likelihood_grad(theta, counts)
        numeric = np.zeros(3)
        h = 1e-5
        for i in range(3):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            numeric[i] = (
                curriculum.log_likelihood(up, counts)
                - curriculum.log_likelihood(down, counts)
            ) / (2 * h)
        rel.append(float(np.linalg.norm(grad - numeric) / max(np.linalg.norm(grad), 1e-12)))
    result.gate(
        "analytic likelihood gradient matches central differences to 1e-6 relative",
        np.subtract(rel, 1e-6), lambda i: f"draw {i} (relative error {rel[i]:.2e})",
    )

    plain, shifted = [], []
    for _ in range(20):
        theta = rng.uniform(-5.0, 5.0, 3)
        c = float(rng.uniform(-3.0, 3.0))
        plain.append(curriculum.success_rate(theta))
        shifted.append(curriculum.success_rate(theta + c * np.array([1.0, 1.0, 0.0])))  # c more on every score
    result.within(
        "success rate invariant under a common score shift", shifted, plain, 1e-12, lambda i: f"draw {i}",
    )

    scores = curriculum.FEATURES @ thetas[-1]
    spread = float(scores.max() - scores.min())
    sym_grad = float(grad_norms[-1])
    result.check(
        "perfectly balanced data fits to equal scores (1e-4) with tiny gradient",
        spread <= 1e-4 and abs(float(successes[-1]) - 1.0 / 3.0) <= 1e-4 and sym_grad < 1e-8,
        f"score spread {spread:.2e}, grad norm {sym_grad:.2e}",
    )

    result.tables["curriculum_policies.csv"] = (["theta_0", "theta_1", "theta_2"], [tuple(t) for t in thetas])
    return result


# ---------------------------------------------------------------------------
# dag-exploration: the trap-graph analog of the exploration gap
# ---------------------------------------------------------------------------

DAG_SCHEMA = {
    "policy_draws": ParamSpec(200, minimum=2),
    "mc_trials": ParamSpec(100_000, minimum=1),
    "kappa_grid": ParamSpec((1e2, 1e3, 1e4, 1e5, 1e6)),
    "divergence_draws": ParamSpec(30, minimum=1),
    "capped_samples": ParamSpec(10_000, minimum=1),
    "graph_file": ParamSpec(""),  # optional custom graph (adjacency text)
    "graph_trials": ParamSpec(20_000, minimum=1),
}
# The trap's shape, the concentrated policies' kappa, and the capped-peak audit's
# deltas and largest B.
TRAP_DEPTH = 6
TRAP_BRANCHING = 3
DAG_KAPPA = 1e6
CAPPED_DELTAS = (0.1, 0.3, 0.5)
CAPPED_OPTIONS_MAX = 16


def capped_peak_bound_audit(seed: int, samples: int) -> ExperimentResult:
    """Audit the worst-case chain on random capped-peak distributions.

    For every delta of ``CAPPED_DELTAS`` and every B up to
    ``CAPPED_OPTIONS_MAX`` draws ``samples`` even-remainder distributions
    whose peak is a simplex draw's maximum capped at ``1 - delta``, measures
    D(uniform || p) with ``kl_rows``, and checks measured <= exact worst case
    <= simplified bound; a spot audit re-measures random rows through the
    public scalar ops.  Returns a result holding those two checks.
    """
    audit = ExperimentResult()
    pairs = [(delta, b) for delta in CAPPED_DELTAS for b in range(2, CAPPED_OPTIONS_MAX + 1)]
    # the spot rows are picked up front so only they, not every row, are kept
    picks = spot_rows(rng_for(seed, "capped-spot"), len(pairs) * samples)
    spot = {}  # picked row -> (peak, B, measured divergence)
    excess = []  # per pair, the largest measured excess, then the chain's excess
    for k, (delta, b) in enumerate(pairs):
        bound = cat.worst_case_latent_kl(delta, b)
        p = rng_for(seed, "capped", str(delta), b).dirichlet(np.ones(b), size=samples)
        s = np.maximum(np.minimum(p.max(axis=1), 1.0 - delta), 1.0 / b)
        s[0] = 1.0 - delta  # include the cap itself so the extreme is always exercised
        p[:] = ((1.0 - s) / (b - 1))[:, None]  # overwrite the draws with peaked_distribution rows
        p[:, 0] = s
        p /= p.sum(axis=1, keepdims=True)
        kl = cat_bulk.kl_rows(np.full(b, 1.0 / b), p)
        excess += [np.max(kl - (bound.exact + 1e-9)), bound.exact - (bound.simplified_bound + 1e-12)]
        for i in picks[picks // samples == k]:
            spot[i] = (s[i % samples], b, kl[i % samples])
    audit.gate(
        "capped-peak sample: measured divergence <= exact worst case <= simplified bound",
        excess, lambda i: f"delta={pairs[i // 2][0]} B={pairs[i // 2][1]} {('measured', 'chain')[i % 2]}",
    )
    audit.audit_rows(
        "spot audit: capped-peak divergences match kl_divergence", picks, lambda i: spot[i][2],
        lambda i: cat.kl_divergence(np.full(spot[i][1], 1.0 / spot[i][1]), cat.peaked_distribution(*spot[i][:2])),
    )
    return audit


def _price_search(graph, params: dict, key: str) -> None:
    """Refuse, before any draw, a search whose ``params[key]`` trials ``dag.price_search`` refuses."""
    try:
        dag.price_search(graph, params[key])
    except EnumerationTooLargeError as exc:
        raise EnumerationTooLargeError(f"params.{key}: {exc}") from None


def run_dag_exploration(seed: int, params: dict, threads: int = 1) -> ExperimentResult:
    result = ExperimentResult()
    # every trap decision node draws from the Dirichlet family at out-degree
    # TRAP_BRANCHING; building it at each kappa of the grid first, parsing the
    # custom graph and pricing both searches reject a bad kappa, graph or trial
    # count before any policy draw
    for kappa in params["kappa_grid"]:
        cat.DirichletConcentration(kappa=kappa, n_options=TRAP_BRANCHING)
    grid = params["kappa_grid"]
    if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInputError("params.kappa_grid: need at least two strictly increasing values")
    custom = dag.parse_dag(read_text_file(params["graph_file"], InvalidInputError)) if params["graph_file"] else None
    if custom is not None:
        _price_search(custom, params, "graph_trials")
    trap = dag.trap_dag(TRAP_DEPTH, TRAP_BRANCHING)
    _price_search(trap, params, "mc_trials")
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

    draws = params["policy_draws"]
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
    result.check(
        "trap ordering: concentrated mean success < capped-certainty mean success",
        conc_mean < nd_mean,
        f"{conc_mean:.3e} vs {nd_mean:.3e}",
    )
    result.check(
        "trap ordering: uniform success >= both policy means",
        uniform_exact >= conc_mean and uniform_exact >= nd_mean,
        f"uniform {uniform_exact:.3e}, concentrated {conc_mean:.3e}, capped {nd_mean:.3e}",
    )
    result.check(
        "trap medians separate the three regimes strictly",
        float(np.median(conc)) < float(np.median(nd)) <= uniform_exact,
        f"medians {float(np.median(conc)):.3e} / {float(np.median(nd)):.3e} / {uniform_exact:.3e}",
    )

    stats = dag.run_search(trap, uniform_policy, params["mc_trials"], derive_seed(seed, "mc"))
    result.sigma_gate(
        "Monte Carlo search matches the exact oracle within 3 standard errors",
        [stats.success_rate], [uniform_exact], [math.sqrt(uniform_exact * (1.0 - uniform_exact) / params["mc_trials"])],
        lambda i: "uniform walker on the trap",
    )
    for name, graph in (("chain", dag.chain_dag(5)), ("diamond", dag.diamond_dag())):
        policy = dag.make_policy(graph, "uniform")
        exact = dag.enumerate_paths(graph, policy)
        mc = dag.run_search(graph, policy, 2000, derive_seed(seed, name))
        result.within(
            f"single-outcome graph ({name}): exact and sampled success are 1",
            [exact, mc.success_rate], 1.0, 0.0, lambda i: ("exact", "sampled")[i],
        )

    kappa_rows = []
    divergence_means = []
    for kappa in params["kappa_grid"]:
        vals = []
        for i in range(params["divergence_draws"]):
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
    for i in range(params["divergence_draws"]):
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
    result.within(
        "uniform policy has zero exploration divergence",
        dag.exploration_divergence(binary, dag.make_policy(binary, "uniform")), 0.0, 0.0,
    )

    result.checks += capped_peak_bound_audit(derive_seed(seed, "capped-audit"), params["capped_samples"]).checks

    # serialization interface: the trap graph is emitted in the line format
    # and read back before use, so the round trip is always exercised
    text = dag.format_dag(trap)
    result.texts["trap_graph.txt"] = text
    reparsed = dag.parse_dag(text)
    result.check(
        "graph serialization round-trips the trap",
        reparsed.successors == trap.successors
        and reparsed.start == trap.start
        and reparsed.targets == trap.targets,
        f"{reparsed.n_nodes} of {trap.n_nodes} nodes, start {reparsed.start} of {trap.start} and "
        f"{len(reparsed.targets)} of {len(trap.targets)} targets read back from {len(text.splitlines())} lines",
    )

    if custom is not None:
        policy = dag.make_policy(custom, "uniform")
        exact = dag.enumerate_paths(custom, policy)
        mc = dag.run_search(custom, policy, params["graph_trials"], derive_seed(seed, "custom-mc"))
        se = math.sqrt(max(exact * (1.0 - exact), 0.0) / params["graph_trials"])
        result.tables["custom_graph.csv"] = (
            ["nodes", "trials", "exact_success", "empirical_success", "mean_path_length"],
            [(custom.n_nodes, mc.trials, exact, mc.success_rate, mc.mean_path_length)],
        )
        # a sure outcome's exact sum can round past 1, where the stderr is 0: the 1e-12 floor
        # covers it, and 3 * (1e-12 / 3) == 1e-12 exactly
        result.sigma_gate(
            "custom graph: sampled success matches the exact oracle",
            [mc.success_rate], [exact], [max(se, 1e-12 / 3)], lambda i: "uniform walker on the custom graph",
        )
    return result


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentDef:
    runner: object
    schema: dict[str, ParamSpec]


EXPERIMENTS: dict[str, ExperimentDef] = {
    "tradeoff-scan": ExperimentDef(run_tradeoff_scan, TRADEOFF_SCHEMA),
    "divergence-asymptote": ExperimentDef(run_divergence_asymptote, ASYMPTOTE_SCHEMA),
    "noise-discrete": ExperimentDef(run_noise_discrete, NOISE_DISCRETE_SCHEMA),
    "error-accumulation": ExperimentDef(run_error_accumulation, ERROR_ACCUMULATION_SCHEMA),
    "accuracy-sweep": ExperimentDef(run_accuracy_sweep, ACCURACY_SCHEMA),
    "cib-frontier": ExperimentDef(run_cib_frontier, CIB_SCHEMA),
    "curriculum": ExperimentDef(run_curriculum, CURRICULUM_SCHEMA),
    "dag-exploration": ExperimentDef(run_dag_exploration, DAG_SCHEMA),
}


def default_params(name: str) -> dict:
    return {key: spec.default for key, spec in EXPERIMENTS[name].schema.items()}

