"""Deterministic counter-based random number generation.

Every random draw in the toolkit comes from one algorithm so that a given
seed produces byte-identical outputs on every platform:

  * uniform 64-bit words: splitmix64 finalizer applied to
    ``base + counter * GOLDEN`` (counter-based, so blocks can be produced
    with vectorized integer arithmetic);
  * uniform doubles in [0, 1): top 53 bits of a word;
  * gaussians: Box-Muller pairs from two uniform words.

The generator is sequential state-wise (a draw advances the counter) but a
block of n values is computed in one vectorized pass.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_TWO53_INV = 2.0 ** -53


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on uint64 arrays."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> _U64(30)
    x *= _MIX1
    x ^= x >> _U64(27)
    x *= _MIX2
    x ^= x >> _U64(31)
    return x


def _bounded(u: np.ndarray, bounds) -> np.ndarray:
    """Map uniforms in [0,1) to integers below bounds (one bound, or one
    per element)."""
    return np.minimum((u * bounds).astype(np.int64), bounds - 1)


class CounterRng:
    """Seeded counter-based generator with independent streams."""

    def __init__(self, seed: int, stream: int = 0):
        words = np.array([seed & _MASK64, (stream + _GOLDEN_INT) & _MASK64], dtype=np.uint64)
        seed_word, stream_word = _mix64(words)
        self._base = seed_word ^ stream_word
        self._counter = 0

    def u64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words."""
        idx = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        return _mix64(self._base + idx * _GOLDEN)

    def u01(self, n: int) -> np.ndarray:
        """Next n uniforms in [0, 1), 53-bit resolution."""
        return (self.u64(n) >> _U64(11)).astype(np.float64) * _TWO53_INV

    def normal(self, n: int, sigma: float = 1.0) -> np.ndarray:
        """Next n gaussians via Box-Muller (pairs; odd n drops the last)."""
        pairs = (n + 1) // 2
        # u1 in (0, 1] so log never sees zero
        u1 = self.u01(pairs) + _TWO53_INV
        u2 = self.u01(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n] * sigma
