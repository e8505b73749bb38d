"""Discrete conditional information-bottleneck solver with brute-force oracles.

The object of study is a stochastic compression map ``p(h | s_past)`` for a
small finite joint ``p(x, s_past, s_future)``, scored by the dual objective

    J = I(h; S_past | X) - beta * I(h; S_future | X),

i.e. pay for every nat of the past you keep, earn ``beta`` per nat of
predictive information about the future.  ``solve_cib`` minimizes J by
alternating self-consistent updates (marginal, decoder, encoder rows), the
classic coordinate descent on the bottleneck free energy; each block update
minimizes the free energy exactly, so the objective is non-increasing
across sweeps.  All restart candidates sweep in lockstep as one (R, S, H)
stack of encoder tables, and ``_cmi_rows`` scores past and future of every
table of a stack in one pass over the contexts; each row's result equals
the one-table computation bit for bit.
The joint's per-context constants (``_contexts``) are computed once per
solve, and each sweep computes the live tables' p(h|x) and p(h,f|x)
(``_moments``) once: the same arrays score the tables and feed their next
update.  The sweep needs no ``errstate``: it takes logs only of cells
clamped to at least 1e-300, divides only by clamped marginals and falls
back to ``np.where`` only when an array's minimum is not positive.  The
hot paths call ufunc ``reduce`` directly, which on these tiny arrays costs
less than the ndarray methods that wrap it.  The updates are those of
Tishby, Pereira & Bialek, "The information bottleneck method" (1999).
``brute_force_cib`` scores every deterministic encoder, in one-hot stacks,
as an independent check, and ``information_frontier`` sweeps ``beta`` over
``FRONTIER_BETAS`` to trace the achievable (I_past, I_future) envelope.  The
envelope must come out monotone and concave if the solver is doing its job;
the cib-frontier experiment gates that, not ``information_frontier``.

``beta_schedule`` exposes the stage-dependent trade-off weight
``k / (M - k)``: early stages pay nothing for compression, late
stages weight prediction heavily, diverging at the terminal stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cat_bulk import block_rows, masked_log_sums
from .categorical import SUM_TOL
from .errors import EnumerationTooLargeError, InvalidInputError
from .seeding import derive_seed, rng_for

ENUMERATION_CAP = 10**7
# Sweeps after which ``solve_cib`` stops the candidates that have not converged.
MAX_SWEEPS = 10_000
# Random restarts per solve, besides the constant encoder, and the objective change
# below which a candidate counts as converged.
RESTARTS = 16
TOL = 1e-10
# The betas that ``information_frontier`` solves at.
FRONTIER_BETAS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 32.0, 1000.0)
# Largest conditional p(s_future | s_past, x) of a ``random_noisy_problem``.
MAX_CONDITIONAL = 0.9
# Stand-in for log(0) in encoder updates: large enough to zero cells after
# the exponential, finite so that 0 * log(0) products stay exactly 0.
LOG_FLOOR = -1e30
SUPPORT_EPS = 1e-9


@dataclass(frozen=True)
class CibProblem:
    """Joint distribution p(x, s_past, s_future) on finite alphabets."""

    joint: np.ndarray  # shape (n_context, n_past, n_future)

    def __post_init__(self) -> None:
        j = np.asarray(self.joint, dtype=np.float64)
        if j.ndim != 3:
            raise InvalidInputError(f"joint must be 3-d (context, past, future), got {j.shape}")
        if j.shape[0] < 1 or j.shape[1] < 2 or j.shape[2] < 2:
            raise InvalidInputError(f"need >=1 context and >=2 past/future symbols, got {j.shape}")
        if np.any(j < 0) or not np.all(np.isfinite(j)):
            raise InvalidInputError("joint entries must be finite and non-negative")
        if abs(float(j.sum()) - 1.0) > SUM_TOL:
            raise InvalidInputError(f"joint sums to {float(j.sum())!r}, not 1 within {SUM_TOL}")
        object.__setattr__(self, "joint", j)

    @property
    def n_context(self) -> int:
        return self.joint.shape[0]

    @property
    def n_past(self) -> int:
        return self.joint.shape[1]

    @property
    def n_future(self) -> int:
        return self.joint.shape[2]


@dataclass(frozen=True)
class Encoder:
    """Context-independent compression map p(h | s_past), one row per symbol."""

    table: np.ndarray  # shape (n_past, n_latent)

    def __post_init__(self) -> None:
        t = np.asarray(self.table, dtype=np.float64)
        if t.ndim != 2 or t.shape[1] < 1:
            raise InvalidInputError(f"encoder table must be 2-d with >=1 latent, got {t.shape}")
        if np.any(t < 0) or not np.all(np.isfinite(t)):
            raise InvalidInputError("encoder entries must be finite and non-negative")
        if np.any(np.abs(t.sum(axis=1) - 1.0) > SUM_TOL):
            raise InvalidInputError("every encoder row must sum to 1")
        object.__setattr__(self, "table", t)

    @property
    def n_latent(self) -> int:
        return self.table.shape[1]


def constant_encoder(n_past: int, n_latent: int) -> Encoder:
    """All mass on latent 0: carries no information in either direction."""
    t = np.zeros((n_past, n_latent))
    t[:, 0] = 1.0
    return Encoder(table=t)


def identity_encoder(n_past: int) -> Encoder:
    """Lossless deterministic map (n_latent == n_past)."""
    return Encoder(table=np.eye(n_past))


@dataclass(frozen=True)
class InfoPlanePoint:
    """A point on the information plane with its dual objective."""

    i_past: float
    i_future: float
    beta: float
    objective: float
    converged: bool = True

    def __post_init__(self) -> None:
        if self.i_past < -1e-12 or self.i_future < -1e-12:
            raise InvalidInputError("mutual informations must be non-negative")
        if self.i_future > self.i_past + 1e-9:
            raise InvalidInputError(
                f"i_future {self.i_future!r} exceeds i_past {self.i_past!r}: "
                "the latent cannot know more about the future than about the past"
            )


class _Context(NamedTuple):
    """Constants of one context x with mass, fixed for a whole solve."""

    p_x: np.float64  # p(x)
    p_sf: np.ndarray  # p(s, f | x), (S, F)
    p_s: np.ndarray  # p(s | x), (S,)
    p_f: np.ndarray  # p(f | x), (F,)
    w_x: np.ndarray  # p(x | s), (S,): encoder-update weight of log p(h | x)
    w_xf: np.ndarray  # p(x, f | s), (S, F): encoder-update weight of log p(f | h, x)


def _contexts(joint: np.ndarray) -> list[_Context]:
    """Per-context constants of a joint, skipping contexts without mass."""
    p_x = joint.sum(axis=(1, 2))
    p_s = joint.sum(axis=(0, 2))  # marginal over contexts
    contexts = []
    for x in range(joint.shape[0]):
        if p_x[x] <= 0.0:
            continue
        p_sf = joint[x] / p_x[x]
        p_s_x = p_sf.sum(axis=1)
        w_x = np.where(p_s > 0.0, p_x[x] * p_s_x / np.maximum(p_s, 1e-300), 0.0)
        w_xf = np.where(p_s[:, None] > 0.0, p_x[x] * p_sf / np.maximum(p_s[:, None], 1e-300), 0.0)
        contexts.append(_Context(p_x[x], p_sf, p_s_x, p_sf.sum(axis=0), w_x, w_xf))
    return contexts


def _moments(contexts: list[_Context], tables: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per context, p(h | x) and p(h, f | x) of each table of an (R, S, H) stack:
    ``(R, H)`` and ``(R, H, F)`` arrays (``(H,)`` and ``(H, F)`` for one table)."""
    return [(c.p_s @ tables, tables.swapaxes(-1, -2) @ c.p_sf) for c in contexts]


def _cmi_rows(contexts: list[_Context], tables: np.ndarray, moments) -> tuple[np.ndarray, np.ndarray]:
    """I(h; S_past | X) and I(h; S_future | X) in nats for each encoder table of an
    (R, S, H) stack, from the stack's ``_moments``, in one pass over the contexts."""
    past, future = np.zeros(tables.shape[0]), np.zeros(tables.shape[0])
    for c, (marginal, p_hf) in zip(contexts, moments):
        # p(s, h | x) = p(s|x) q(h|s); the ratio collapses to q(h|s)/p(h|x)
        past += c.p_x * masked_log_sums(c.p_s[:, None] * tables, tables, marginal[:, None, :])
        num, den = p_hf, marginal[:, :, None] * c.p_f
        if not np.logical_and.reduce(den, axis=None):
            # where p(h|x) * p(f|x) underflowed and p(h, f|x) did not,
            # divide in two steps on those cells only, so the ratio stays finite
            tiny = (den == 0.0) & (p_hf > 0.0)
            num = np.divide(p_hf, marginal[:, :, None], out=p_hf.copy(), where=tiny)
            den = np.where(tiny, c.p_f, den)
        future += c.p_x * masked_log_sums(p_hf, num, den)
    # the zero start and the clamp keep the constant encoder's 0.0 from reading -0.0
    return np.maximum(past, 0.0), np.maximum(future, 0.0)


def _objective_rows(contexts: list[_Context], tables: np.ndarray, moments, beta: float) -> np.ndarray:
    """Dual objective of each encoder table of an (R, S, H) stack, from its ``_moments``."""
    past, future = _cmi_rows(contexts, tables, moments)
    return past - beta * future


def _one_table(problem: CibProblem, encoder: Encoder) -> tuple[list[_Context], np.ndarray, list]:
    """The contexts, the one-table stack and its moments for the scalar entry points."""
    _check_encoder(problem, encoder)
    contexts = _contexts(problem.joint)
    tables = encoder.table[None]
    return contexts, tables, _moments(contexts, tables)


def _check_encoder(problem: CibProblem, encoder: Encoder) -> None:
    if encoder.table.shape[0] != problem.n_past:
        raise InvalidInputError(
            f"encoder rows {encoder.table.shape[0]} != past alphabet {problem.n_past}"
        )


def conditional_mutual_information(problem: CibProblem, encoder: Encoder, target: str) -> float:
    """I(h; S_target | X) in nats for the joint induced by encoder o problem.

    Zero-probability cells contribute nothing; the result is non-negative
    up to float rounding.
    """
    if target not in ("past", "future"):
        raise InvalidInputError(f"target must be 'past' or 'future', got {target!r}")
    past, future = _cmi_rows(*_one_table(problem, encoder))
    return float((past if target == "past" else future)[0])


def dual_objective(problem: CibProblem, encoder: Encoder, beta: float) -> float:
    """I(h; S_past | X) - beta * I(h; S_future | X)."""
    return float(_objective_rows(*_one_table(problem, encoder), beta)[0])


def beta_schedule(k: int, total_steps: int) -> float:
    """Stage weight k / (total_steps - k); diverges at the last stage."""
    if not (0 <= k < total_steps):
        raise InvalidInputError(f"stage k must satisfy 0 <= k < {total_steps}, got {k}")
    return k / (total_steps - k)


def max_decoder_probability(problem: CibProblem, encoder: Encoder) -> float:
    """Largest induced decoder probability max p(s_future | h, x).

    Only (h, x) pairs with p(h | x) above a small support floor are
    considered.  A value strictly below 1 certifies that compression has
    left residual uncertainty about the future everywhere.
    """
    best = 0.0
    for marginal, p_hf in _moments(_contexts(problem.joint), encoder.table):
        for h in range(encoder.n_latent):
            if marginal[h] > SUPPORT_EPS:
                best = max(best, float(p_hf[h].max() / marginal[h]))
    if best <= 0.0:
        raise InvalidInputError("no latent symbol has support; encoder is degenerate")
    return min(best, 1.0)


# ---------------------------------------------------------------------------
# Alternating minimization
# ---------------------------------------------------------------------------


def _encoder_sweep(contexts: list[_Context], tables: np.ndarray, moments, beta: float) -> np.ndarray:
    """One self-consistent sweep: marginals, decoder, then all encoder rows.

    The new row for symbol s is the normalized exponential of

        sum_x p(x|s) log p(h|x)  +  beta * sum_{x,f} p(x,f|s) log p(f|h,x),

    which is the exact minimizer of the free energy in that row given the
    current marginals and decoder.  ``tables`` is one (S, H) encoder or an
    (R, S, H) stack of them, each swept independently, and ``moments`` is
    its ``_moments``.
    """
    exponent = np.zeros_like(tables)
    for c, (marginal, p_hf) in zip(contexts, moments):
        clamped = np.maximum(marginal, 1e-300)
        log_marginal = np.log(clamped)
        decoder = p_hf / clamped[..., None]
        if not np.minimum.reduce(marginal, axis=None) > 0.0:
            support = marginal > 0.0
            log_marginal = np.where(support, log_marginal, LOG_FLOOR)
            decoder = np.where(support[..., None], decoder, 0.0)
        if np.minimum.reduce(decoder, axis=None) > 0.0:
            log_decoder = np.log(np.maximum(decoder, 1e-300, out=decoder), out=decoder)
        else:
            log_decoder = np.where(decoder > 0.0, np.log(np.maximum(decoder, 1e-300)), LOG_FLOOR)
        exponent += c.w_x[:, None] * log_marginal[..., None, :]
        exponent += beta * (c.w_xf @ log_decoder.swapaxes(-1, -2))
    exponent -= np.maximum.reduce(exponent, axis=-1, keepdims=True)
    new_table = np.exp(exponent, out=exponent)
    new_table /= np.add.reduce(new_table, axis=-1, keepdims=True)
    return new_table


@dataclass(frozen=True)
class CibSolution:
    encoder: Encoder
    point: InfoPlanePoint
    restart_index: int
    iterations: int
    objective_trace: tuple[float, ...]  # winning candidate, one value per sweep


def solve_cib(problem: CibProblem, beta: float, n_latent: int, seed: int = 0) -> CibSolution:
    """Best-of-restarts alternating minimization of the dual objective.

    Candidate 0 is the constant encoder (objective exactly 0, a fixed
    point); candidates 1..RESTARTS start from rows drawn from a symmetric
    Dirichlet.  All candidates sweep in lockstep as one (R, S, H) stack; a
    candidate leaves the live set once its objective change drops below
    ``TOL``, and the rest stop after ``MAX_SWEEPS`` sweeps (non-convergence
    is reported via the ``converged`` flag, not an error).  The winner is
    the lowest objective, ties broken toward the lower candidate index.
    """
    if beta < 0:
        raise InvalidInputError(f"beta must be >= 0, got {beta!r}")
    if n_latent < 1:
        raise InvalidInputError(f"need n_latent >= 1, got {n_latent}")

    tables = np.empty((RESTARTS + 1, problem.n_past, n_latent))
    tables[0] = constant_encoder(problem.n_past, n_latent).table
    for candidate in range(1, RESTARTS + 1):
        rng = rng_for(seed, "cib-restart", candidate)
        tables[candidate] = rng.dirichlet(np.ones(n_latent), size=problem.n_past)
    # one moment pass per sweep: the live tables' moments score them and
    # then feed their next update
    contexts = _contexts(problem.joint)
    moments = _moments(contexts, tables)
    objective = _objective_rows(contexts, tables, moments, beta)
    history = [objective.copy()]  # per sweep, every candidate's objective (frozen once it stops)
    iterations = np.zeros(RESTARTS + 1, dtype=np.int64)
    converged = np.zeros(RESTARTS + 1, dtype=bool)
    live = np.arange(RESTARTS + 1)
    live_tables = tables
    for sweep in range(1, MAX_SWEEPS + 1):
        live_tables = _encoder_sweep(contexts, live_tables, moments, beta)
        moments = _moments(contexts, live_tables)
        new_objective = _objective_rows(contexts, live_tables, moments, beta)
        done = np.abs(new_objective - objective[live]) < TOL
        objective[live] = new_objective
        history.append(objective.copy())
        if np.logical_or.reduce(done):
            # a stopped candidate's table and sweep count are final
            stopped = live[done]
            tables[stopped], iterations[stopped], converged[stopped] = live_tables[done], sweep, True
            keep = ~done
            live, live_tables = live[keep], live_tables[keep]
            moments = [(marginal[keep], p_hf[keep]) for marginal, p_hf in moments]
            if not live.size:
                break
    tables[live], iterations[live] = live_tables, sweep  # the candidates stopped by the cap

    winner = int(np.argmin(objective))
    encoder = Encoder(table=tables[winner])
    past, future = _cmi_rows(*_one_table(problem, encoder))
    point = InfoPlanePoint(
        i_past=float(past[0]),
        i_future=float(future[0]),
        beta=beta,
        objective=float(objective[winner]),
        converged=bool(converged[winner]),
    )
    return CibSolution(
        encoder=encoder,
        point=point,
        restart_index=winner,
        iterations=int(iterations[winner]),
        objective_trace=tuple(float(h[winner]) for h in history[: iterations[winner] + 1]),
    )


def brute_force_cib(
    problem: CibProblem, beta: float, n_latent: int
) -> tuple[float, tuple[int, ...]]:
    """Minimum dual objective over every deterministic encoder map.

    Enumerates all ``n_latent ** n_past`` assignments s_past -> h as one-hot
    stacks of ``block_rows(n_past * n_latent)`` maps and returns (best
    objective, best map), the first lexicographic map on ties.  This
    independent oracle shares the objective with the iterative solver, not
    its sweeps.
    """
    count = n_latent**problem.n_past
    if count > ENUMERATION_CAP:
        raise EnumerationTooLargeError(f"{count} deterministic encoders exceeds the cap")
    contexts = _contexts(problem.joint)
    shape = (n_latent,) * problem.n_past
    block = block_rows(problem.n_past * n_latent)
    best_obj, best_map = math.inf, None
    for first in range(0, count, block):
        # maps first.. in itertools.product order, as one (R, S, H) one-hot stack
        maps = np.stack(np.unravel_index(np.arange(first, min(first + block, count)), shape), axis=1)
        tables = (maps[:, :, None] == np.arange(n_latent)).astype(np.float64)
        objective = _objective_rows(contexts, tables, _moments(contexts, tables), beta)
        winner = int(np.argmin(objective))  # first of the block's ties; a later block must beat it strictly
        if objective[winner] < best_obj:
            best_obj, best_map = float(objective[winner]), tuple(maps[winner].tolist())
    return best_obj, best_map


# ---------------------------------------------------------------------------
# Frontier
# ---------------------------------------------------------------------------


def information_frontier(problem: CibProblem, seed: int = 0) -> list[InfoPlanePoint]:
    """Solve at each beta of ``FRONTIER_BETAS`` with a latent alphabet as large as the
    past's, so the encoder can be lossless; return the points sorted by (i_past, i_future)."""
    points = [
        solve_cib(problem, beta, problem.n_past, seed=derive_seed(seed, "frontier", idx)).point
        for idx, beta in enumerate(FRONTIER_BETAS)
    ]
    return sorted(points, key=lambda pt: (pt.i_past, pt.i_future))


# ---------------------------------------------------------------------------
# Problem generators and serialization
# ---------------------------------------------------------------------------


def grouped_future_problem() -> CibProblem:
    """Fixed 3x3x1 problem whose future tracks a binary grouping of the past.

    Past symbols 0 and 1 share a future profile, symbol 2 has its own, so a
    two-letter latent alphabet can keep almost all predictive information
    while dropping a third of the past entropy.  Used as the reference
    problem whose brute-force optimum is pinned as a golden value.
    """
    rows = np.array(
        [
            [0.90, 0.05, 0.05],
            [0.90, 0.05, 0.05],
            [0.05, 0.90, 0.05],
        ]
    ) / 3.0
    return CibProblem(joint=rows[None, :, :])


def random_problem(n_past: int, n_future: int, n_context: int, seed: int) -> CibProblem:
    """Dense random joint drawn from a flat Dirichlet over all cells."""
    rng = rng_for(seed, "cib-problem")
    cells = rng.dirichlet(np.ones(n_context * n_past * n_future))
    return CibProblem(joint=cells.reshape(n_context, n_past, n_future))


def random_noisy_problem(n_past: int, n_future: int, n_context: int, seed: int) -> CibProblem:
    """Random joint whose conditionals p(s_future | s_past, x) are capped.

    Each conditional row is blended toward uniform just enough to keep its
    maximum at or below ``MAX_CONDITIONAL``, so no amount of encoding can
    produce a deterministic decoder on such a problem.
    """
    if n_future * MAX_CONDITIONAL <= 1.0:
        raise InvalidInputError(f"the cap {MAX_CONDITIONAL} must exceed 1/{n_future}")
    rng = rng_for(seed, "cib-noisy-problem")
    p_x = rng.dirichlet(np.ones(n_context))
    joint = np.empty((n_context, n_past, n_future))
    uniform = 1.0 / n_future
    for x in range(n_context):
        p_s = rng.dirichlet(np.ones(n_past))
        for s in range(n_past):
            row = rng.dirichlet(np.ones(n_future))
            top = float(row.max())
            if top > MAX_CONDITIONAL:
                blend = (MAX_CONDITIONAL - uniform) / (top - uniform)
                row = uniform + blend * (row - uniform)
            joint[x, s] = p_x[x] * p_s[s] * row
    joint /= joint.sum()
    return CibProblem(joint=joint)


def problem_to_rows(problem: CibProblem) -> list[tuple[int, int, int, float]]:
    """Flatten to (x, s_past, s_future, prob) rows for CSV emission."""
    rows = []
    for x in range(problem.n_context):
        for s in range(problem.n_past):
            for f in range(problem.n_future):
                rows.append((x, s, f, float(problem.joint[x, s, f])))
    return rows

