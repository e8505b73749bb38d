"""Row-vectorized certainty computations for large sampling panels.

Mirrors the scalar operations in ``categorical`` over matrices of logit or
probability rows.  The scalar ops stay the reference: the test suite checks
every row it draws of ``certainty_panel`` and ``kl_rows`` against them.
``masked_log_sums`` sums masked ``w * log(num / den)`` rows, each bit for bit as
its one-row ``np.sum``, for ``kl_rows``, the bottleneck CMI and the grid-search
oracle.  ``block_rows`` is the one block policy: every blocked oracle walks
its candidates, and every streamed Monte Carlo loop its rows, in blocks of
``block_rows(width)`` rows of ``width`` cells.  Each panel
statistic reduces one row, so a block's rows hold the bits they would have in
one whole-panel call, and the panel temporaries no longer grow with the
sample count.  tradeoff-scan still keeps four excess vectors of
``experiments.TRADEOFF_SAMPLES`` floats (3.2 MB) on purpose: its gates read
every row.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .categorical import PROB_FLOOR, SUM_TOL, as_distribution
from .errors import InfiniteDivergenceError, InvalidInputError

# Most cells a blocked enumeration or a streamed Monte Carlo panel stacks into one kernel call.
STACK_CELLS = 2**16


def block_rows(width: int) -> int:
    """Rows of ``width`` cells in one block: as many as ``STACK_CELLS`` cells hold, and at least one."""
    return max(1, STACK_CELLS // width)


class CertaintyPanel(NamedTuple):
    top_prob: np.ndarray
    margin: np.ndarray
    stability_bound: np.ndarray
    reverse_kl: np.ndarray  # D(p || uniform)
    tradeoff_bound: np.ndarray  # even-remainder floor of the reverse divergence
    forward_kl: np.ndarray  # D(uniform || p)
    forward_bound: np.ndarray  # even-remainder floor of the forward divergence


def certainty_panel(logits: np.ndarray) -> CertaintyPanel:
    """All certainty statistics for a (rows, options) matrix of finite logits."""
    l = np.asarray(logits, dtype=np.float64)
    if l.ndim != 2 or l.shape[1] < 2:
        raise InvalidInputError(f"need a (rows, options>=2) matrix, got {l.shape}")
    n_options = l.shape[1]
    z = np.exp(l - l.max(axis=1, keepdims=True))
    p = z / z.sum(axis=1, keepdims=True)
    top = p.max(axis=1)
    part = np.partition(l, n_options - 2, axis=1)
    margin = part[:, -1] - part[:, -2]
    rest = 1.0 - top
    log_b = np.log(n_options)
    log_p = np.log(p)
    return CertaintyPanel(
        top_prob=top,
        margin=margin,
        stability_bound=np.log(top / rest),
        reverse_kl=log_b + np.sum(p * log_p, axis=1),
        tradeoff_bound=log_b + top * np.log(top) + rest * np.log(rest / (n_options - 1)),
        forward_kl=-log_b - log_p.mean(axis=1),
        forward_bound=-log_b
        - (np.log(top) + (n_options - 1) * np.log(rest / (n_options - 1))) / n_options,
    )


def masked_log_sums(w: np.ndarray, num, den) -> np.ndarray:
    """Per row r, ``np.sum(w[r][m] * np.log(num[r][m] / den[r][m]))`` over ``m = w[r] > 0``.

    ``w`` has a leading row axis, and ``num`` and ``den`` broadcast to its
    shape.  Each row is summed on its own compact kept cells, exactly as
    that one-row ``np.sum`` would: rows are grouped by their kept-cell count
    k and each (rows, k) block is summed along its contiguous last axis.
    Zero-padding a row to the full cell count would change numpy's pairwise
    summation order, and with it the last bits of the sum.
    """
    n_rows = w.shape[0]
    if np.minimum.reduce(w, axis=None) > 0.0:  # every row keeps every cell: one block, no gather
        # one full-shape temporary, reused in place; log(q) * w has the bits of w * log(q)
        terms = np.divide(num, den, out=np.empty(w.shape))
        np.log(terms, out=terms)
        terms *= w
        return np.add.reduce(terms.reshape(n_rows, -1), axis=1)
    mask = w > 0.0
    num, den = np.broadcast_to(num, w.shape), np.broadcast_to(den, w.shape)
    terms = w[mask] * np.log(num[mask] / den[mask])
    counts = np.add.reduce(mask.reshape(n_rows, -1), axis=1)
    owner = np.repeat(np.arange(n_rows), counts)  # row of each kept term
    sums = np.zeros(n_rows)
    for k in set(counts.tolist()) - {0}:
        same = counts == k
        sums[same] = np.add.reduce(terms[same[owner]].reshape(-1, k), axis=1)
    return sums


def kl_rows(q, rows) -> np.ndarray:
    """D(q || rows[i]) for every row, validated as ``kl_divergence`` validates,
    so entry i equals ``kl_divergence(q, rows[i])``."""
    qv = as_distribution(q)
    p = np.asarray(rows, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != qv.size:
        raise InvalidInputError(f"need a (rows, {qv.size}) matrix, got shape {p.shape}")
    if not (np.all(p >= 0.0) and np.all(np.abs(p.sum(axis=1) - 1.0) <= SUM_TOL)):
        raise InvalidInputError(f"rows must be non-negative and sum to 1 within {SUM_TOL}")
    if np.any((p <= PROB_FLOOR) & (qv > 0.0)):
        raise InfiniteDivergenceError("q places mass on an option where a row is zero")
    return masked_log_sums(np.broadcast_to(qv, p.shape), qv, p)
