"""Categorical-distribution machinery: entropy, divergences, certainty bounds.

This module is the numerical core of the laboratory.  It treats a decision
point as a categorical distribution over ``B`` abstract options and studies
one scalar summary of it, the *symbolic index* (the probability of the top
option).  Everything else is built from that:

* ``stability_lower_bound``: how much logit margin a given top-probability
  guarantees, i.e. the noise budget protecting the current argmax;
* ``tradeoff_lower_bound``: the smallest possible divergence from the
  uniform explorer once the top probability is pinned, i.e. the exploration
  cost of certainty;
* ``cot_divergence_asymptote`` / ``worst_case_latent_kl``: the two
  asymptotic regimes: concentration makes the divergence from uniform grow
  like ``log(kappa)``, while capping the top probability at ``1 - delta``
  caps the certainty-attributable divergence by a constant in ``delta``.

All logarithms are natural (nats); that choice makes the softmax/margin
identity ``log(p_top / p_second) = l_top - l_second`` exact.

Direction conventions.  ``kl_divergence(q, p)`` is ``D(q || p)``, the
divergence *of q from p*.  Two one-parameter floors appear below and they
bound different directions:

* ``tradeoff_lower_bound(s, B)``  <=  D(p || uniform)  for every p with
  top probability ``s`` (tight when the non-max mass is spread evenly);
* ``min_exploration_divergence(s, B)``  <=  D(uniform || p)  likewise.

The first is what pinning the top probability costs in reverse divergence;
the second is the forward-divergence floor, and its value at ``s = 1 -
delta`` is the exact worst case over even-remainder distributions returned
by ``worst_case_latent_kl``.  Note that D(uniform || p) has *no* finite
ceiling under a top-probability cap alone: shrinking one non-max entry
toward zero sends it to infinity, which is why the worst case is stated
over the even-remainder family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfiniteDivergenceError, InvalidInputError

# Probabilities at or below this floor are treated as structural zeros in
# support checks, separating genuine zero cells from gradual underflow.
PROB_FLOOR = 1e-300

# Sum-to-one tolerance for validated distributions.
SUM_TOL = 1e-12

# Largest branching factor B' that ``worst_case_latent_kl`` scans.
BRANCHING_SCAN = 10_000

# Dirichlet parameter of each minority option of a ``DirichletConcentration``.
MINORITY_MASS = 1.0


def as_distribution(probs) -> np.ndarray:
    """Validate and return a probability vector as a float64 array.

    Requires length >= 2, non-negative entries, and a total within
    1e-12 of 1.  Raises InvalidInputError otherwise.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise InvalidInputError(f"need a 1-d vector of length >= 2, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InvalidInputError("distribution entries must be finite")
    if np.any(p < 0):
        raise InvalidInputError(f"negative probability entry: min={p.min()}")
    total = float(p.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise InvalidInputError(f"probabilities sum to {total!r}, not 1 within {SUM_TOL}")
    return p


def as_logits(logits) -> np.ndarray:
    """Validate and return a logit vector (finite entries, length >= 2)."""
    l = np.asarray(logits, dtype=np.float64)
    if l.ndim != 1 or l.size < 2:
        raise InvalidInputError(f"need a 1-d vector of length >= 2, got shape {l.shape}")
    if not np.all(np.isfinite(l)):
        raise InvalidInputError("logits must be finite")
    return l


def softmax(logits) -> np.ndarray:
    """Stabilized softmax: subtract the max logit before exponentiating."""
    l = as_logits(logits)
    z = np.exp(l - l.max())
    return z / z.sum()


def entropy(probs) -> float:
    """Shannon entropy in nats, with the 0*log(0) = 0 convention."""
    p = as_distribution(probs)
    mask = p > 0.0
    return float(-np.sum(p[mask] * np.log(p[mask])))


def kl_divergence(q, p) -> float:
    """D(q || p) in nats; >= 0, and exactly 0 when q == p elementwise.

    Raises InfiniteDivergenceError when q places mass on a cell where p
    has none (entries below PROB_FLOOR count as structural zeros).
    """
    qv = as_distribution(q)
    pv = as_distribution(p)
    if qv.size != pv.size:
        raise InvalidInputError(f"length mismatch: {qv.size} vs {pv.size}")
    mask = qv > 0.0
    if np.any(pv[mask] <= PROB_FLOOR):
        bad = int(np.argmax((pv <= PROB_FLOOR) & mask))
        raise InfiniteDivergenceError(
            f"reference mass {qv[bad]!r} on option {bad} where p is zero"
        )
    return float(np.sum(qv[mask] * np.log(qv[mask] / pv[mask])))


def symbolic_index(probs) -> float:
    """Probability of the most likely option; lies in [1/B, 1]."""
    return float(as_distribution(probs).max())


def logit_margin(logits) -> float:
    """Gap between the largest and second-largest logits (>= 0, ties give 0).

    The argmax itself resolves ties toward the lowest index, matching the
    convention used throughout the simulators.
    """
    l = as_logits(logits)
    top_two = np.partition(l, l.size - 2)[-2:]
    return float(top_two[1] - top_two[0])


def stability_lower_bound(top_prob: float) -> float:
    """Floor on the logit margin implied by a top probability in (0, 1).

    Equals log(s / (1 - s)); the second-place probability can be at most
    ``1 - s``, so the top-two log-ratio is at least this value.  Exact
    (an equality) when there are only two options.
    """
    s = float(top_prob)
    if not (0.0 < s < 1.0):
        raise InvalidInputError(f"top probability must lie strictly in (0,1), got {s!r}")
    return math.log(s / (1.0 - s))


def _top_and_options(top_prob: float, n_options: int) -> tuple[float, int]:
    """Validate a (top probability, option count) pair; returns them as
    ``(max(s, 1/B), B)``, the peak clamped up from rounding just below 1/B."""
    s = float(top_prob)
    b = int(n_options)
    if b < 2:
        raise InvalidInputError(f"need at least 2 options, got {b}")
    if not (1.0 / b - 1e-15 <= s < 1.0):
        raise InvalidInputError(
            f"top probability must lie in [1/B, 1) = [{1.0 / b}, 1), got {s!r}"
        )
    return max(s, 1.0 / b), b


def tradeoff_lower_bound(top_prob: float, n_options: int) -> float:
    """Certainty cost: floor of D(p || uniform) over all p with this top prob.

    Returns ``log B + s*log s + (1-s)*log((1-s)/(B-1))``, which is zero at
    ``s = 1/B`` (the uniform distribution) and strictly increasing in ``s``.
    Attained exactly when the non-max mass is spread evenly, since that
    remainder shape maximizes the entropy available at a fixed peak.
    """
    s, b = _top_and_options(top_prob, n_options)
    rest = 1.0 - s
    return math.log(b) + s * math.log(s) + rest * math.log(rest / (b - 1))


def min_exploration_divergence(top_prob: float, n_options: int) -> float:
    """Floor of D(uniform || p) over all p with the given top probability.

    Returns ``-log B - (1/B) * [log s + (B-1) log((1-s)/(B-1))]``, attained
    when the non-max mass is spread evenly.  Zero at ``s = 1/B``, strictly
    increasing in ``s``, and unbounded as ``s -> 1``: the uniform explorer
    diverges without limit from a fully committed distribution.
    """
    s, b = _top_and_options(top_prob, n_options)
    return -math.log(b) - (math.log(s) + (b - 1) * math.log((1.0 - s) / (b - 1))) / b


def peaked_distribution(top_prob: float, n_options: int) -> np.ndarray:
    """Distribution with the given peak at index 0 and an even remainder."""
    s = float(top_prob)
    b = int(n_options)
    if b < 2 or not (1.0 / b - 1e-15 <= s <= 1.0):
        raise InvalidInputError(f"peak {s!r} infeasible for {b} options")
    p = np.full(b, (1.0 - s) / (b - 1))
    p[0] = s
    return p / p.sum()


@dataclass(frozen=True)
class DirichletConcentration:
    """Concentrated Dirichlet family: one dominant option, even minority mass.

    kappa is the total concentration; each of the ``n_options - 1``
    minority parameters equals ``MINORITY_MASS``, and the dominant
    parameter is ``kappa - (n_options - 1) * MINORITY_MASS``, required
    positive.  The dominant index is fixed to 0 for determinism.
    """

    kappa: float
    n_options: int

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise InvalidInputError(f"kappa must be positive, got {self.kappa!r}")
        if self.n_options < 2:
            raise InvalidInputError(f"need at least 2 options, got {self.n_options}")
        if self.dominant_parameter <= 0:
            raise InvalidInputError(
                "kappa too small: dominant parameter "
                f"{self.dominant_parameter!r} must be positive"
            )

    @property
    def dominant_parameter(self) -> float:
        return self.kappa - (self.n_options - 1) * MINORITY_MASS

    @property
    def alphas(self) -> np.ndarray:
        a = np.full(self.n_options, MINORITY_MASS, dtype=np.float64)
        a[0] = self.dominant_parameter
        return a


def dirichlet_mean(params: DirichletConcentration) -> np.ndarray:
    """Mean of the concentrated Dirichlet: alphas / kappa (dominant at 0)."""
    return params.alphas / params.kappa


def dirichlet_sample(params: DirichletConcentration, rng: np.random.Generator, n: int) -> np.ndarray:
    """An (n, B) matrix of draws via normalized Gamma variates (shape alpha_i,
    unit scale); its rows equal n successive one-row draws."""
    gammas = rng.standard_gamma(np.tile(params.alphas, (n, 1)))
    total = gammas.sum(axis=1, keepdims=True)
    if np.any(total <= 0.0):  # only reachable through extreme underflow
        raise InvalidInputError("gamma draws underflowed to zero; kappa too extreme")
    return gammas / total


def cot_divergence_asymptote(params: DirichletConcentration) -> float:
    """Leading terms of D(uniform || mean) as concentration grows.

    Returns ``(B-1)/B * log(kappa) - log B - (B-1) * log(c) / B`` with
    ``c = MINORITY_MASS``: the divergence of the uniform explorer from a
    concentrated mean grows logarithmically in kappa with slope (B-1)/B,
    i.e. without bound.
    The dropped term is O(1/kappa).
    """
    b = params.n_options
    return (
        (b - 1) / b * math.log(params.kappa)
        - math.log(b)
        - (b - 1) * math.log(MINORITY_MASS) / b
    )


class WorstCaseLatentKl(NamedTuple):
    """Exact and simplified ceilings on certainty-attributable divergence."""

    exact: float
    simplified_bound: float
    scan_constant: float


def worst_case_latent_kl(delta: float, n_options: int) -> WorstCaseLatentKl:
    """Ceilings on D(uniform || p) over even-remainder p with peak <= 1-delta.

    ``exact`` evaluates the forward-divergence floor at the cap itself:
    ``-log B - (1/B) [log(1-delta) + (B-1) log(delta/(B-1))]``, the largest
    divergence any even-remainder distribution obeying the cap can reach.

    ``simplified_bound`` is ``-((B-1)/B) * log(delta) - c`` where ``c`` is
    the infimum over branching factors B' >= 2 of

        f(B') = log B' - ((B'-1)/B') log(B'-1) + log(1-delta)/B',

    computed by scanning B' up to ``BRANCHING_SCAN`` and including the analytic
    limit 0 at B' -> infinity.  Since f(B) >= c, exact <= simplified for
    every (delta, B).  The returned ``scan_constant`` is c.
    """
    d = float(delta)
    b = int(n_options)
    if not (0.0 < d < 1.0):
        raise InvalidInputError(f"delta must lie in (0,1), got {d!r}")
    if b < 2:
        raise InvalidInputError(f"need at least 2 options, got {b}")
    if 1.0 - d < 1.0 / b - 1e-15:
        raise InvalidInputError(
            f"cap 1-delta = {1.0 - d!r} below 1/B = {1.0 / b!r}: no distribution attains it"
        )

    exact = min_exploration_divergence(1.0 - d, b)

    grid = np.arange(2, BRANCHING_SCAN + 1, dtype=np.float64)
    f_vals = (
        np.log(grid)
        - ((grid - 1.0) / grid) * np.log(grid - 1.0)
        + math.log1p(-d) / grid
    )
    constant = min(float(f_vals.min()), 0.0)  # 0 is the B' -> infinity tail limit
    simplified = -((b - 1) / b) * math.log(d) - constant
    return WorstCaseLatentKl(exact=exact, simplified_bound=simplified, scan_constant=constant)
