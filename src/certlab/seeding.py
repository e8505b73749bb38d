"""Deterministic seed derivation for reproducible, parallel-safe sampling.

Every stochastic routine in certlab takes an explicit 64-bit root seed.
Child streams (per trial, per restart, per grid cell) are derived by
mixing the root with string labels and integer indices through a
splitmix64 finalizer, a counter-based scheme with no sequential state.
Two consequences:

* identical (seed, inputs) give identical outputs on every run, and
* workers can consume trials in any order without perturbing results,
  because trial ``i`` owns stream ``derive(root, label, i)`` outright.

``rng_for`` is the scalar generator of one address.  Monte Carlo trials
instead draw from one array kernel: ``derive_seeds`` runs ``derive_seed``
over an index array, and ``UniformStreams`` steps numpy's ``SeedSequence``
and ``PCG64`` seeding and the XSL-RR output in uint32/uint64 array
arithmetic.  Its draws must equal ``rng_for(root, *labels, i).random()``
bit for bit, draw after draw; the seeding tests check this against numpy
itself, so a numpy release that changes either algorithm fails them by name.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# FNV-1a 64-bit parameters, used to fold string labels into the mix.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# numpy's SeedSequence hash constants (pool of 4 uint32 words) and the
# PCG64 128-bit LCG multiplier, as (high, low) 64-bit halves.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)


def splitmix64(x: int) -> int:
    """One round of the splitmix64 finalizer (bijective on 64-bit ints)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _splitmix64_rows(x: np.ndarray) -> np.ndarray:
    """``splitmix64`` on every entry of a uint64 array (wrapping arithmetic)."""
    x = x + 0x9E3779B97F4A7C15
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    return x ^ (x >> 31)


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


def derive_seeds(root: int, *labels: str | int, indices: np.ndarray) -> np.ndarray:
    """``derive_seed(root, *labels, i)`` for every integer ``i`` in ``indices``, as uint64."""
    index = np.asarray(indices).astype(np.uint64)  # wraps negatives, as ``& _MASK64`` does
    return _splitmix64_rows(index ^ np.uint64(derive_seed(root, *labels)))


def rng_for(root: int, *tokens: str | int) -> np.random.Generator:
    """PCG64 generator owned by the (root, tokens) address."""
    return np.random.Generator(np.random.PCG64(derive_seed(root, *tokens)))


def _hashmix(init: int, mult: int):
    """SeedSequence's uint32 hash; its multiplier advances on every call, as in numpy."""
    hash_const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    return hashmix


def _seed_sequence_state(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed s, as four uint64 arrays.

    A seed below 2**32 is one entropy word and the rest of the pool hashes
    zeros, so it mixes exactly like the two words (low, high = 0).
    """

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> 16)

    hashmix = _hashmix(_INIT_A, _MULT_A)
    words = [(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)]
    words += [np.zeros_like(words[0])] * (_POOL_SIZE - len(words))
    pool = [hashmix(word) for word in words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hashmix = _hashmix(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    # the uint32 words are read back as little-endian uint64 pairs
    return [out[2 * k] | (out[2 * k + 1] << 32) for k in range(_POOL_SIZE)]


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit product ``a * b``, from 32-bit halves."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _add128(a_hi, a_lo, b_hi, b_lo):
    """Sum of two 128-bit numbers held as (high, low) uint64 limbs, modulo 2**128."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


class UniformStreams:
    """``PCG64(s)`` for every seed s of a uint64 array, stepped in lockstep.

    Each stream holds its 128-bit LCG state and increment as two uint64
    limbs.  ``random()`` advances every stream by one draw and returns what
    ``np.random.Generator(PCG64(s)).random()`` returns at that draw.
    """

    def __init__(self, seeds: np.ndarray) -> None:
        seeds = np.asarray(seeds, dtype=np.uint64)
        state_hi, state_lo, inc_hi, inc_lo = _seed_sequence_state(seeds)
        # PCG's srandom: inc = 2 * initseq + 1; state = 0 stepped once
        # (which is inc), plus initstate, stepped once more
        self._inc_hi = (inc_hi << 1) | (inc_lo >> 63)
        self._inc_lo = (inc_lo << 1) | 1
        self._hi, self._lo = _add128(self._inc_hi, self._inc_lo, state_hi, state_lo)
        self._step()

    def _step(self) -> None:
        m_hi, m_lo = _PCG_MULT
        hi = _mulhi64(self._lo, m_lo) + self._lo * m_hi + self._hi * m_lo
        self._hi, self._lo = _add128(hi, self._lo * m_lo, self._inc_hi, self._inc_lo)

    def keep(self, mask: np.ndarray) -> None:
        """Drop the streams where ``mask`` is False; the rest keep their order."""
        self._hi, self._lo = self._hi[mask], self._lo[mask]
        self._inc_hi, self._inc_lo = self._inc_hi[mask], self._inc_lo[mask]

    def random(self) -> np.ndarray:
        """The next uniform double of every stream: XSL-RR output, top 53 bits."""
        self._step()
        x = self._hi ^ self._lo
        rot = self._hi >> 58
        out = (x >> rot) | (x << ((64 - rot) & 63))
        return (out >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)
