"""Row-vectorized certainty computations for large sampling panels.

Mirrors the scalar operations in ``categorical`` over matrices of logit or
probability rows.  The experiment harness re-checks random rows against the
scalar ops, so this fast path is continuously audited rather than trusted.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .categorical import PROB_FLOOR, SUM_TOL, as_distribution
from .errors import InfiniteDivergenceError, InvalidInputError


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


def kl_rows(q, rows) -> np.ndarray:
    """D(q || rows[i]) for every row, validated and computed cell by cell as
    ``kl_divergence`` does, so entry i equals ``kl_divergence(q, rows[i])``."""
    qv = as_distribution(q)
    p = np.asarray(rows, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != qv.size:
        raise InvalidInputError(f"need a (rows, {qv.size}) matrix, got shape {p.shape}")
    if not (np.all(p >= 0.0) and np.all(np.abs(p.sum(axis=1) - 1.0) <= SUM_TOL)):
        raise InvalidInputError(f"rows must be non-negative and sum to 1 within {SUM_TOL}")
    mask = qv > 0.0
    # C order keeps each row sum pairwise like the 1-d sum in kl_divergence;
    # boolean column indexing alone would return a Fortran-ordered copy
    p = np.ascontiguousarray(p if mask.all() else p[:, mask])
    if np.any(p <= PROB_FLOOR):
        raise InfiniteDivergenceError("q places mass on an option where a row is zero")
    terms = qv[mask] / p  # one temporary, reused in place: the panels can be large
    np.log(terms, out=terms)
    terms *= qv[mask]
    return terms.sum(axis=1)
