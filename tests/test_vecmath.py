"""Vector primitives: single-vector and row-wise normalization."""

import numpy as np
import pytest

from eum.errors import ZeroVector
from eum.rng import CounterRng
from eum.vecmath import l2_normalize, normalize_rows


def test_l2_normalize_unit_norm_and_direction():
    v = np.array([3.0, 4.0])
    u = l2_normalize(v)
    assert abs(float(np.linalg.norm(u)) - 1.0) < 1e-12
    assert np.allclose(u, [0.6, 0.8], atol=1e-12)


def test_l2_normalize_zero_vector_raises():
    with pytest.raises(ZeroVector):
        l2_normalize(np.zeros(5))
    with pytest.raises(ZeroVector):
        l2_normalize(np.full(5, 1e-13))


def test_normalize_rows_matches_per_row():
    rng = CounterRng(1, stream=0)
    m = rng.normal(60).reshape(10, 6)
    rows = normalize_rows(m)
    for i in range(10):
        # the batched norm and the single-vector norm may differ in the
        # final ulp, so this is a tight tolerance rather than bit equality
        assert np.allclose(rows[i], m[i] / np.linalg.norm(m[i]), rtol=0, atol=1e-15)
        assert abs(np.linalg.norm(rows[i]) - 1.0) < 1e-12


def test_normalize_rows_reports_bad_row():
    m = np.ones((3, 4))
    m[1] = 0.0
    with pytest.raises(ZeroVector, match="row 1"):
        normalize_rows(m)


def test_float64_promotion():
    u = l2_normalize(np.array([3, 4], dtype=np.float32))
    assert u.dtype == np.float64
    assert normalize_rows(np.ones((2, 3), dtype=np.int64)).dtype == np.float64
