"""Counter-based generator: reference equality, stream behavior, moments."""

import math

import numpy as np

from eum.rng import CounterRng
from oracles import rng_integers

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix_reference(x: int) -> int:
    """splitmix64 finalizer, written out longhand."""
    x &= MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK
    x ^= x >> 31
    return x


def words_reference(seed: int, stream: int, n: int) -> list[int]:
    base = mix_reference(seed) ^ mix_reference((stream + GOLDEN) & MASK)
    return [mix_reference((base + i * GOLDEN) & MASK) for i in range(n)]


def test_u64_matches_pure_python_reference():
    for seed in (0, 1, 7, 123456789, 2**63):
        for stream in (0, 1, 21, 31):
            got = CounterRng(seed, stream=stream).u64(40)
            want = words_reference(seed, stream, 40)
            assert [int(w) for w in got] == want


def test_counter_continuation_is_seamless():
    a = CounterRng(9, stream=2)
    first = np.concatenate([a.u64(7), a.u64(13)])
    b = CounterRng(9, stream=2)
    assert np.array_equal(first, b.u64(20))


def test_streams_are_distinct_and_deterministic():
    base = CounterRng(5, stream=0).u64(32)
    assert np.array_equal(base, CounterRng(5, stream=0).u64(32))
    for stream in (1, 2, 11, 21):
        assert not np.array_equal(base, CounterRng(5, stream=stream).u64(32))


def test_u01_is_top_53_bits():
    rng = CounterRng(3, stream=4)
    words = CounterRng(3, stream=4).u64(100)
    u = rng.u01(100)
    want = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    assert np.array_equal(u, want)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_normal_matches_box_muller_reference():
    rng = CounterRng(12, stream=6)
    got = rng.normal(10)
    words = CounterRng(12, stream=6).u64(10)  # 5 for u1, then 5 for u2
    u1 = ((words[:5] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (words[5:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    want = np.empty(10)
    want[0::2] = r * np.cos(2.0 * np.pi * u2)
    want[1::2] = r * np.sin(2.0 * np.pi * u2)
    assert np.array_equal(got, want)


def test_normal_moments_and_sigma_scaling():
    for seed in range(5):
        x = CounterRng(seed, stream=1).normal(200_000)
        assert abs(float(np.mean(x))) < 0.01
        assert abs(float(np.var(x)) - 1.0) < 0.02
    one = CounterRng(4, stream=2).normal(1000)
    scaled = CounterRng(4, stream=2).normal(1000, sigma=2.5)
    assert np.allclose(scaled, 2.5 * one, rtol=0, atol=0)


def test_normal_odd_length_prefix_property():
    # odd n is the even draw minus its trailing element
    even = CounterRng(8, stream=3).normal(8)
    odd = CounterRng(8, stream=3).normal(7)
    assert np.array_equal(odd, even[:7])


def test_integers_bounds_and_determinism():
    for seed in range(10):
        rng = CounterRng(seed, stream=9)
        vals = rng_integers(rng, 13, 500)
        assert vals.min() >= 0 and vals.max() <= 12
    assert np.array_equal(
        rng_integers(CounterRng(2, stream=9), 7, 64), rng_integers(CounterRng(2, stream=9), 7, 64)
    )
    try:
        rng_integers(CounterRng(0), 0, 4)
    except ValueError:
        pass
    else:
        raise AssertionError("bound=0 must raise")


def test_uniformity_chi_square_sanity():
    # 8 equal bins over [0,1); loose bound on the chi-square statistic
    u = CounterRng(77, stream=5).u01(80_000)
    counts, _ = np.histogram(u, bins=8, range=(0.0, 1.0))
    expected = 10_000.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 40.0, f"chi2={chi2} (8 bins, df=7)"
    assert math.isfinite(chi2)
