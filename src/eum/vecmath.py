"""Vector primitives shared by every other module.

All arithmetic is done in 64-bit floats regardless of the dtype handed in;
file formats downcast to 32-bit only at the storage boundary.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroVector

ZERO_NORM_THRESHOLD = 1e-12


def _as_f64(v) -> np.ndarray:
    return np.asarray(v, dtype=np.float64)


def l2_normalize(v) -> np.ndarray:
    """Scale a vector to unit euclidean norm."""
    v = _as_f64(v)
    norm = float(np.linalg.norm(v))
    if norm <= ZERO_NORM_THRESHOLD:
        raise ZeroVector(f"cannot normalize vector with norm {norm:g}")
    return v / norm


def unit_rows(m) -> tuple[np.ndarray, np.ndarray]:
    """Every row of an N x d matrix scaled to unit norm, and the N norms
    it was divided by; a row with norm <= 1e-12 raises ZeroVector."""
    m = _as_f64(m)
    norms = np.sqrt(np.add.reduce(m * m, axis=1))
    if np.any(norms <= ZERO_NORM_THRESHOLD):
        bad = int(np.argmax(norms <= ZERO_NORM_THRESHOLD))
        raise ZeroVector(f"row {bad} has norm {norms[bad]:g}")
    return m / norms[:, None], norms


def normalize_rows(m) -> np.ndarray:
    """Normalize every row of an N x d matrix to unit norm."""
    return unit_rows(m)[0]
