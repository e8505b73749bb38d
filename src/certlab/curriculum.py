"""Three-state log-linear toy world for curriculum-vs-shortcut training.

The world has one rewarded state (``expert``) and two unrewarded ones: a
``shortcut`` whose features overlap the ``bad`` state, so that boosting
shortcut likelihood necessarily boosts scores orthogonal to the expert.
A log-linear policy scores each state by the inner product of its weight
vector with the state's feature vector.

Maximum likelihood in this world sees data only through its state-count
vector, the sufficient statistic, so every dataset is a ``(3,)`` count
vector and a batch of datasets is a ``(k, 3)`` count matrix.  Two data
regimes are contrasted:

* *biased* data: every sample is the shortcut state, the counts
  ``[0, n, 0]``.  Maximum-likelihood fitting pushes the shortcut score
  upward without limit (bounded here by the ball ``|theta| <= PARAM_BOUND``),
  so the fitted policy's expert probability stays pinned near zero at every
  sample size: the bias never averages out.
* *curriculum* data: n i.i.d. draws from an expert policy, counted by
  ``draw_counts``.  The fitted policy's expert probability converges to the
  expert's at the usual root-n parametric rate (up to log factors).

The world is fixed: its feature matrix is the module constant ``FEATURES``,
and success is the policy's probability of the ``EXPERT`` state.

Fitting is full-batch projected gradient ascent with the exact gradient
``mean(features of data) - E_policy[features]``, so convergence is
certifiable from the final gradient norm.  Fits run in lockstep: ``fit_rows``
fits every row of a count matrix at once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .seeding import derive_seed, rng_for

EXPERT = 0  # the states, in order: expert, shortcut, bad

# feature rows in state order: the shortcut's features overlap the bad state's
FEATURES = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 0.0]])
FEATURES.setflags(write=False)

# radius of the weight ball that fits are projected onto: it bounds the drift
# of a fit whose optimum lies at infinity, as with biased data
PARAM_BOUND = 50.0
# every fit's iterations and step
FIT_ITERATIONS = 5000
FIT_STEP = 0.1
# the convergence sweep's sample sizes and trials per size
N_GRID = (100, 1000, 10_000, 100_000)
TRIALS_PER_N = 50


def state_distribution(theta) -> np.ndarray:
    """Softmax over the three state scores <theta, features>, per row of theta."""
    scores = np.asarray(theta, dtype=np.float64) @ FEATURES.T
    top = np.maximum(np.maximum(scores[..., 0], scores[..., 1]), scores[..., 2])
    z = np.exp(scores - top[..., None])
    # np.sum's order on three cells, without the reduce's cost on (k, 3) rows
    return z / ((z[..., 0] + z[..., 1]) + z[..., 2])[..., None]


def success_rate(theta) -> float:
    """Probability mass the weights theta place on the rewarded (expert) state."""
    return float(state_distribution(theta)[EXPERT])


def draw_counts(expert_theta, n: int, seed: int) -> np.ndarray:
    """State counts of n i.i.d. draws from the expert policy, from stream ``seed``: the bincounts
    of ``rng.choice(3, size=n, p=p)``, which draws ``u = rng.random(n)`` and takes the state
    ``searchsorted(cdf, u, side="right")``, so 0 where u < cdf[0], 1 where u < cdf[1], else 2."""
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got {n}")
    cdf = state_distribution(expert_theta).cumsum()
    if not np.isfinite(cdf[-1]):
        raise InvalidInputError(f"the state probabilities of theta {expert_theta!r} are not finite")
    cdf /= cdf[-1]
    u = rng_for(seed, "dataset", "curriculum").random(n)
    first, first_two = np.count_nonzero(u < cdf[0]), np.count_nonzero(u < cdf[1])
    return np.array([first, first_two - first, n - first_two], dtype=np.float64)


def log_likelihood(theta, counts: np.ndarray) -> float:
    """Mean log-likelihood of the counted samples under theta."""
    t = np.asarray(theta, dtype=np.float64)
    scores = FEATURES @ t
    log_z = float(scores.max() + np.log(np.sum(np.exp(scores - scores.max()))))
    n = counts.sum()
    return float(counts @ scores / n - log_z)


def log_likelihood_grad(theta, counts: np.ndarray) -> np.ndarray:
    """Exact mean-gradient: empirical feature mean minus the model's, per row."""
    n = counts.sum(axis=-1, keepdims=True)
    empirical = counts @ FEATURES / n
    expected = state_distribution(theta) @ FEATURES
    return empirical - expected


def fit_rows(counts) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient ascent on the mean log-likelihood from theta = 0 for
    each row of a ``(k, 3)`` count matrix, all rows in lockstep: ``FIT_ITERATIONS``
    steps of size ``FIT_STEP``.

    After every step each row is projected back onto the ball
    ``|theta| <= PARAM_BOUND``; with interior optima (all states observed)
    the final gradient norm certifies convergence, and with boundary optima
    (biased data) the projection is what caps the drift.  Rows never mix.
    Returns the ``(k, 3)`` weights and the ``k`` final gradient norms.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[0] < 1 or counts.shape[1] != 3:
        raise InvalidInputError(f"need a (k >= 1, 3) count matrix, got shape {counts.shape}")
    # the loop's gradient is log_likelihood_grad with its constant empirical
    # term computed once: the same operations, so the same bits
    empirical = counts @ FEATURES / counts.sum(axis=-1, keepdims=True)
    theta = np.zeros(counts.shape)
    for _ in range(FIT_ITERATIONS):
        theta = theta + FIT_STEP * (empirical - state_distribution(theta) @ FEATURES)
        squares = theta * theta  # np.linalg.norm's arithmetic, summed as state_distribution sums
        norm = np.sqrt((squares[:, 0] + squares[:, 1]) + squares[:, 2])
        over = norm > PARAM_BOUND
        theta[over] *= (PARAM_BOUND / norm[over])[:, None]
    grad_norm = np.linalg.norm(log_likelihood_grad(theta, counts), axis=-1)
    if not np.all(np.isfinite(theta)):
        raise InvalidInputError("optimizer produced non-finite parameters")
    return theta, grad_norm


def mle_fit(counts) -> tuple[np.ndarray, float]:
    """Fit one count vector: the first row of ``fit_rows``, as the weights and the final gradient norm."""
    theta, grad_norm = fit_rows(np.asarray(counts)[None, :])
    return theta[0], float(grad_norm[0])


def total_variation(p, q):
    """Half the L1 distance between two distributions on the states, per row."""
    return 0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum(axis=-1)


class SweepRow(NamedTuple):
    n: int
    provenance: str
    mean_gap: float
    stddev: float
    slope_so_far: float


class SweepResult(NamedTuple):
    rows: list[SweepRow]
    slope: float


def sweep_counts(expert_theta, seed: int) -> np.ndarray:
    """The sweep's ``(len(N_GRID) * TRIALS_PER_N, 3)`` count matrix, n-major.

    Trial (n, t) draws its counts from the stream (seed, "sweep", n, t).
    """
    return np.array(
        [
            draw_counts(expert_theta, n, derive_seed(seed, "sweep", n, trial))
            for n in N_GRID
            for trial in range(TRIALS_PER_N)
        ]
    )


def summarize_sweep(expert_theta, theta: np.ndarray) -> SweepResult:
    """Mean |fitted success - expert success| per sample size, with log-log slope.

    ``theta`` holds the fitted weights of ``sweep_counts``'s rows, n-major.
    Each n's gaps are summed with ``math.fsum``, which rounds once: the mean
    and variance come from correctly rounded sums, the same in any trial
    order, rather than from sums whose last bits depend on that order.
    """
    expert_success = success_rate(np.asarray(expert_theta, dtype=np.float64))
    all_gaps = np.abs(state_distribution(theta)[:, EXPERT] - expert_success)
    rows: list[SweepRow] = []
    log_n: list[float] = []
    log_gap: list[float] = []
    for n, gaps in zip(N_GRID, all_gaps.reshape(len(N_GRID), -1).tolist()):
        mean_gap = math.fsum(gaps) / len(gaps)
        var = math.fsum((g - mean_gap) ** 2 for g in gaps) / (len(gaps) - 1)
        log_n.append(math.log(n))
        log_gap.append(math.log(max(mean_gap, 1e-300)))
        slope = _ls_slope(log_n, log_gap) if len(log_n) >= 2 else float("nan")
        rows.append(
            SweepRow(
                n=n,
                provenance="curriculum",
                mean_gap=mean_gap,
                stddev=math.sqrt(var),
                slope_so_far=slope,
            )
        )
    return SweepResult(rows=rows, slope=_ls_slope(log_n, log_gap))


def _ls_slope(xs: list[float], ys: list[float]) -> float:
    x = np.asarray(xs)
    y = np.asarray(ys)
    centered = x - x.mean()
    return float(centered @ (y - y.mean()) / (centered @ centered))
