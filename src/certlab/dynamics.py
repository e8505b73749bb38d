"""Noise dynamics of discrete vs. continuous sequential computation.

Two simulators and one analytic curve:

* ``simulate_discrete_chain``: a token chain whose step-``k`` logits are a
  deterministic function of the generated prefix.  Sub-decisional logit
  noise is drawn uniformly from ``[-scale/2, scale/2]`` per logit, so it moves
  every pairwise logit gap by at most ``scale``, and the spec requires
  ``scale < MIN_MARGIN``, the floor of every step's top-two gap.  No draw can
  then move an argmax, so the perturbed chain never leaves the clean
  trajectory and the divergence count is zero by theorem, not by
  rejection.  Each prefix group is one call of ``noisy_argmax_counts``, the
  one kernel that counts the argmaxes of noisy logit rows.
* ``monte_carlo_error``: a continuous state chain ``h_k = L h_{k-1} + noise``
  with no quantization step.  The final squared error follows the geometric
  series ``(1 - L^(2M)) / (1 - L^2) * d * sigma^2`` (``M * d * sigma^2`` at
  L = 1).  The series depends on the map only through its norm ``L``: the
  noise is isotropic, so ``R^j noise`` has the law of ``noise`` for any
  rotation ``R``, and the scalar map ``L I`` samples the same law as any
  ``L R``.
* ``accuracy_curve``: the probability that projected state noise leaves a
  fixed logit ranking intact: ``Phi(margin / (sqrt(C) * sigma))``, the
  normal-CDF decay from a plateau at 1 to a top-two coin flip at 0.5.

Reproducibility: all samplers consume streams derived from an explicit
seed.  Trial populations are processed in deterministic batches (per-step
prefix groups for the discrete chain, fixed-size blocks for the error
Monte Carlo); batches are independent streams merged in index order, so
results do not depend on execution schedule.  Within a batch the noise
is drawn in consecutive blocks of ``cat_bulk.block_rows`` rows.  The
normal and uniform samplers keep no state between calls, so the blocks are
the rows of one whole-batch draw in order, and memory does not grow with
the trial count.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .cat_bulk import block_rows
from .errors import InvalidInputError
from .seeding import rng_for

MC_BLOCK = 8192
# Floor of every discrete-chain step's top-two logit gap.
MIN_MARGIN = 1.0
# The accuracy sweep's clean logit gap, and the noise scales it samples.
ACCURACY_MARGIN = 2.0
SIGMA_GRID = (0.1, 0.17, 0.3, 0.5, 0.85, 1.4, 2.4, 4.0, 6.7, 11.0)

# ---------------------------------------------------------------------------
# Continuous latent chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatentConfig:
    """Continuous-chain parameters.

    The chain's map is ``L I``: the scaling ``h -> L h`` with
    ``L = lipschitz``, whose operator norm is exactly L.  ``sigma_h`` is the
    per-step noise standard deviation per coordinate.
    """

    dim: int
    steps: int
    lipschitz: float
    sigma_h: float

    def __post_init__(self) -> None:
        if self.dim < 1 or self.steps < 1:
            raise InvalidInputError(f"dim and steps must be >= 1, got {self.dim}, {self.steps}")
        if not (self.lipschitz > 0):
            raise InvalidInputError(f"lipschitz must be positive, got {self.lipschitz!r}")
        if self.sigma_h < 0:
            raise InvalidInputError(f"sigma_h must be >= 0, got {self.sigma_h!r}")


def expected_error_closed_form(config: LatentConfig) -> float:
    """Expected final squared error of the noisy chain.

    ``(1 - L^(2M)) / (1 - L^2) * d * sigma^2``; the removable singularity
    at L = 1 is handled by the ``M * d * sigma^2`` branch when
    ``|L - 1| < 1e-9``.
    """
    base = config.dim * config.sigma_h**2
    lf = config.lipschitz
    if abs(lf - 1.0) < 1e-9:
        return config.steps * base
    ratio = lf * lf
    return (1.0 - ratio**config.steps) / (1.0 - ratio) * base


def monte_carlo_error(config: LatentConfig, trials: int, seed: int) -> tuple[float, float]:
    """Sample mean and standard error of the final squared error.

    Simulates the error recursion ``E_k = L E_{k-1} + noise`` directly
    (the clean trajectory cancels), in fixed blocks of ``MC_BLOCK`` trials
    with independent derived streams merged in block order.  Every block
    reuses one ``(min(MC_BLOCK, trials), dim)`` state buffer; each step's
    ``(size, dim)`` draw is taken in consecutive chunks of
    ``block_rows(dim)`` rows, which are the rows of one draw in order, into
    one reused chunk buffer that also holds each chunk's squares, so memory
    stays fixed whatever ``trials`` is and no chunk allocates.
    """
    if trials < 100:
        raise InvalidInputError(f"need at least 100 trials, got {trials}")
    state = np.empty((min(MC_BLOCK, trials), config.dim))
    final_sq = np.empty(len(state))
    chunk = block_rows(config.dim)
    buffer = np.empty((min(chunk, len(state)), config.dim))
    sums: list[float] = []
    sq_sums: list[float] = []
    done = 0
    block_index = 0
    while done < trials:
        size = min(MC_BLOCK, trials - done)
        rng = rng_for(seed, "mc-block", block_index)
        err = state[:size]
        err.fill(0.0)
        for _ in range(config.steps):
            for start in range(0, size, chunk):
                rows = err[start:start + chunk]
                noise = buffer[:len(rows)]
                rng.standard_normal(out=noise)
                noise *= config.sigma_h
                rows *= config.lipschitz
                rows += noise
        block_sq = final_sq[:size]
        for start in range(0, size, chunk):
            rows = err[start:start + chunk]
            squares = np.multiply(rows, rows, out=buffer[:len(rows)])
            block_sq[start:start + chunk] = np.sum(squares, axis=1)
        sums.append(float(block_sq.sum()))
        sq_sums.append(float(np.sum(block_sq * block_sq)))
        done += size
        block_index += 1
    total = math.fsum(sums)
    total_sq = math.fsum(sq_sums)
    mean = total / trials
    variance = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    return mean, math.sqrt(variance / trials)


# ---------------------------------------------------------------------------
# Discrete chain with argmax reset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteChainSpec:
    """Token-chain parameters with prefix-determined logits.

    The clean logits at step ``k`` are a deterministic function of the
    generated prefix, realized as a seeded lookup keyed by the prefix
    bytes, with the top logit lifted where needed so every decision has
    margin >= ``MIN_MARGIN`` (hence a unique argmax).

    For a sub-decisional spec ``noise_scale`` bounds how far the noise moves
    any logit gap, and it must lie below ``MIN_MARGIN``, so no step's argmax
    can move; for an unconstrained spec it is the Gaussian noise's sigma.
    """

    steps: int
    n_options: int
    noise_scale: float
    sub_decisional_only: bool = True
    logit_seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1 or self.n_options < 2:
            raise InvalidInputError(
                f"need steps >= 1 and n_options >= 2, got {self.steps}, {self.n_options}"
            )
        if self.noise_scale < 0:
            raise InvalidInputError(f"noise scale must be >= 0, got {self.noise_scale!r}")
        if self.sub_decisional_only and not (self.noise_scale < MIN_MARGIN):
            raise InvalidInputError(
                f"sub-decisional noise scale must be below MIN_MARGIN {MIN_MARGIN!r}, got {self.noise_scale!r}"
            )


def prefix_logits(spec: DiscreteChainSpec, prefix: tuple[int, ...]) -> np.ndarray:
    """Clean logits for the next step after ``prefix`` (stable across calls)."""
    digest = hashlib.blake2b(
        repr((spec.logit_seed, spec.n_options, prefix)).encode(), digest_size=8
    ).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
    logits = rng.standard_normal(spec.n_options)
    top = int(np.argmax(logits))
    second = float(np.partition(logits, spec.n_options - 2)[-2])
    if logits[top] - second < MIN_MARGIN:
        logits[top] = second + MIN_MARGIN
        while logits[top] - second < MIN_MARGIN:  # the sum rounded down
            logits[top] = np.nextafter(logits[top], np.inf)
    return logits


def noisy_argmax_counts(
    l_star, scale: float, rng: np.random.Generator, count: int, sub_decisional: bool = True
) -> np.ndarray:
    """Per-token counts of the argmaxes of ``count`` noisy copies of ``l_star``.

    A sub-decisional copy adds noise drawn from ``rng.uniform(-scale / 2,
    scale / 2)`` per logit, which moves every pairwise logit gap by at most
    ``scale``; the kernel refuses a ``scale`` that is not below the top-two
    gap of ``l_star``, so every copy keeps the clean argmax.  An
    unconstrained copy adds N(0, scale^2 I) noise.  The rows are drawn in
    consecutive blocks of ``block_rows(B)`` rows, the rows of one draw in
    order, so memory holds one block at any ``count``.  Argmax ties go to
    the lowest index.
    """
    l = np.asarray(l_star, dtype=np.float64)
    if scale < 0:
        raise InvalidInputError(f"scale must be >= 0, got {scale!r}")
    if sub_decisional:
        gap = float(l.max() - np.partition(l, l.size - 2)[-2])
        if not (scale < gap):
            raise InvalidInputError(f"sub-decisional scale {scale!r} must be below the top-two gap {gap!r}")
    block = block_rows(l.size)
    sizes = np.zeros(l.size, dtype=np.int64)
    for start in range(0, count, block):
        shape = (min(block, count - start), l.size)
        noise = rng.uniform(-scale / 2, scale / 2, shape) if sub_decisional else rng.normal(0.0, scale, shape)
        sizes += np.bincount(np.argmax(l + noise, axis=1), minlength=l.size)
    return sizes


def simulate_discrete_chain(spec: DiscreteChainSpec, trials: int, seed: int) -> int:
    """Count trials whose final token differs from the clean chain's.

    Each trial runs the perturbed chain, recomputing step-``k`` logits from
    its *own* generated prefix, with per-step noise (bounded below every
    step's margin when ``sub_decisional_only``, so no trial can diverge;
    Gaussian otherwise).  Trials sharing a prefix form one group, drawn
    by ``noisy_argmax_counts`` from a stream derived from (seed, step,
    group rank), groups ranked in lexicographic prefix order.
    """
    if trials < 1:
        raise InvalidInputError(f"need trials >= 1, got {trials}")
    # Clean trajectory: argmax of the prefix-keyed logits, no noise.
    clean_prefix: tuple[int, ...] = ()
    for _ in range(spec.steps):
        clean_prefix += (int(np.argmax(prefix_logits(spec, clean_prefix))),)
    clean_final = clean_prefix[-1]

    # extending each prefix in order by its tokens in increasing order keeps
    # the dict's insertion order lexicographic
    groups: dict[tuple[int, ...], int] = {(): trials}
    for step in range(spec.steps):
        next_groups: dict[tuple[int, ...], int] = {}
        for rank, (prefix, count) in enumerate(groups.items()):
            rng = rng_for(seed, "step", step, "group", rank)
            sizes = noisy_argmax_counts(
                prefix_logits(spec, prefix), spec.noise_scale, rng, count, spec.sub_decisional_only
            )
            for token in np.flatnonzero(sizes).tolist():
                next_groups[prefix + (token,)] = int(sizes[token])
        groups = next_groups
    return sum(count for prefix, count in groups.items() if prefix[-1] != clean_final)


# ---------------------------------------------------------------------------
# Normalized accuracy curve
# ---------------------------------------------------------------------------


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the error function."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def accuracy_curve(margin: float, noise_gain: float, sigma_grid) -> list[tuple[float, float]]:
    """(sigma, retention probability) pairs: Phi(margin / (sqrt(noise_gain) * sigma)).

    ``margin`` is the clean top-two logit gap; ``noise_gain`` the variance
    multiplier mapping injected state noise to the projected logit-gap
    noise; ``sigma_grid`` the strictly increasing positive noise scales to
    evaluate.  Monotone non-increasing in sigma, tending to 1 as sigma -> 0
    and to 0.5 (a top-two coin flip) as sigma -> infinity.
    """
    if not (margin > 0) or not (noise_gain > 0):
        raise InvalidInputError("margin and noise_gain must be positive")
    grid = [float(s) for s in sigma_grid]
    if not grid or any(s <= 0 for s in grid):
        raise InvalidInputError("sigma grid must be non-empty and positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInputError("sigma grid must be strictly increasing")
    root_gain = math.sqrt(noise_gain)
    return [(s, normal_cdf(margin / (root_gain * s))) for s in grid]


def empirical_accuracy_sweep(dim: int, trials: int, seed: int) -> list[tuple[float, float, float, float]]:
    """Sample the retention rate of a concrete two-row readout under state noise.

    Builds a readout whose row difference has entries +-1 (norm sqrt(dim),
    so the analytic curve's noise gain is dim) and a clean logit gap of
    ``ACCURACY_MARGIN``; for each sigma of ``SIGMA_GRID`` draws isotropic state
    noise, projects it onto the row difference, and counts draws whose
    projected gap stays below the margin.  Returns the
    ``(sigma, analytic, empirical, std_error)`` rows.

    Sigma ``idx`` draws its ``(trials, dim)`` noise from the stream
    ``rng_for(seed, "accuracy", idx)`` in consecutive blocks of
    ``block_rows(dim)`` rows, the last block ragged.  The normal
    sampler keeps no state between calls, so the blocks are the rows of one
    ``(trials, dim)`` draw in order, and the exact count of retained rows
    gives the one-shot mean bit for bit in O(block) memory.
    """
    if trials < 1000:
        raise InvalidInputError(f"need at least 1000 trials, got {trials}")
    if dim < 1:
        raise InvalidInputError(f"need dim >= 1, got {dim}")
    row_diff = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    rows = []
    block = block_rows(dim)
    for idx, (sigma, expected) in enumerate(accuracy_curve(ACCURACY_MARGIN, float(dim), SIGMA_GRID)):
        rng = rng_for(seed, "accuracy", idx)
        below = 0
        for start in range(0, trials, block):
            projected = rng.normal(0.0, sigma, (min(block, trials - start), dim)) @ row_diff
            below += int(np.count_nonzero(projected < ACCURACY_MARGIN))
        retained = below / trials
        std_error = math.sqrt(max(retained * (1.0 - retained), 1e-12) / trials)
        rows.append((sigma, expected, retained, std_error))
    return rows
