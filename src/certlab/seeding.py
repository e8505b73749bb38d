"""Deterministic seed derivation for reproducible, parallel-safe sampling.

Every stochastic routine in certlab takes an explicit 64-bit root seed.
Child streams (per block of trials, per restart, per grid cell) are
derived by mixing the root with string labels and integer indices through
a splitmix64 finalizer, a counter-based scheme with no sequential state.
Two consequences:

* identical (seed, inputs) give identical outputs on every run, and
* workers can consume blocks in any order without perturbing results,
  because block ``b`` owns stream ``derive(root, label, b)`` outright.

``rng_for`` is the generator of one address.  The Monte Carlo kernels draw
one stream per fixed-size block of trials, not one per trial, so their
results depend on the block size, which each module fixes as a constant.
numpy does not promise to keep its streams across releases (NEP 19); the
seeding tests pin the first draws of every Generator method certlab calls,
so such a change fails them by name.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# FNV-1a 64-bit parameters, used to fold string labels into the mix.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def splitmix64(x: int) -> int:
    """One round of the splitmix64 finalizer (bijective on 64-bit ints)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _fold_label(label: str) -> int:
    h = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(root: int, *tokens: str | int) -> int:
    """Mix a root seed with labels/indices into an independent child seed."""
    state = splitmix64(root & _MASK64)
    for token in tokens:
        if isinstance(token, str):
            state = splitmix64(state ^ _fold_label(token))
        else:
            state = splitmix64(state ^ (int(token) & _MASK64))
    return state


def rng_for(root: int, *tokens: str | int) -> np.random.Generator:
    """PCG64 generator owned by the (root, tokens) address."""
    return np.random.Generator(np.random.PCG64(derive_seed(root, *tokens)))
