"""Triplet and self-restrained losses: hand values, branches, gradients."""

import numpy as np
import pytest

from eum.errors import DimensionMismatch, ZeroVector
from eum.losses import (
    Branch,
    DistanceTriple,
    compute_distances,
    srt_branch,
    srt_loss,
    triplet_loss,
)
from eum.rng import CounterRng
from eum.vecmath import normalize_rows
from oracles import fd_gradient, rel_err


def random_triple(seed: int, n: int = 5, d: int = 8):
    """Raw anchor outputs, unit positives and unit negatives."""
    rng = CounterRng(seed, stream=17)
    a = rng.normal(n * d).reshape(n, d)
    p = normalize_rows(rng.normal(n * d).reshape(n, d))
    g = normalize_rows(rng.normal(n * d).reshape(n, d))
    return a, p, g


def test_compute_distances_hand_values():
    # raw anchor outputs are normalized; unit positives/negatives pass as given
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    p = np.array([[1.0, 0.0], [0.0, 1.0]])
    n = np.array([[0.0, 1.0], [1.0, 0.0]])
    dist = compute_distances(a, p, n)
    assert np.allclose(dist.d1, [0.0, 0.0], atol=1e-15)
    assert np.allclose(dist.d2, [2.0, 2.0], atol=1e-15)
    assert np.allclose(dist.d3, [2.0, 2.0], atol=1e-15)
    assert dist.n == 2
    assert np.allclose(np.linalg.norm(dist.unit_anchor, axis=1), 1.0, atol=1e-12)
    assert np.allclose(dist.anchor_norm, [1.0, 2.0], atol=1e-15)
    assert np.array_equal(dist.unit_pos, p) and np.array_equal(dist.unit_neg, n)


def test_compute_distances_errors():
    anchors = np.ones((2, 3))
    anchors[1] = 0.0
    with pytest.raises(ZeroVector, match="^row 1 has norm 0$"):
        compute_distances(anchors, np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        compute_distances(np.ones((2, 3)), np.ones((3, 3)), np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        compute_distances(np.ones(3), np.ones(3), np.ones(3))


def test_triplet_loss_hand_values():
    # inactive hinge: d1=0, d2=2 -> 0 - 2 + 0.2 < 0
    dist = compute_distances(
        np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    )
    res = triplet_loss(dist, m=0.2)
    assert res.loss == 0.0
    assert np.array_equal(res.grad_anchor_out, np.zeros((1, 2)))
    assert res.branch is Branch.TRIPLET

    # active hinge: d1=2, d2=0 -> 2 - 0 + 0.2
    dist = compute_distances(
        np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])
    )
    res = triplet_loss(dist, m=0.2)
    assert abs(res.loss - 2.2) < 1e-12


def test_triplet_loss_boundary_hinge_is_inactive():
    # hand-built distances with d1 - d2 + m == 0 up to float rounding
    dist = DistanceTriple(
        d1=np.array([0.4]), d2=np.array([0.6]), d3=np.array([1.0])
    )
    res = triplet_loss(dist, m=0.2)
    assert abs(res.loss) < 1e-15
    assert res.grad_anchor_out is None  # no unit cache on hand-built triples


def test_triplet_loss_batch_mean():
    dist = DistanceTriple(
        d1=np.array([1.0, 0.0, 2.0]),
        d2=np.array([0.0, 2.0, 1.0]),
        d3=np.array([1.0, 1.0, 1.0]),
    )
    # hinges with m=0.1: 1.1, 0 (inactive), 1.1 -> mean 2.2/3
    res = triplet_loss(dist, m=0.1)
    assert abs(res.loss - 2.2 / 3.0) < 1e-12


def test_margin_validation():
    dist = DistanceTriple(d1=np.array([0.1]), d2=np.array([0.2]), d3=np.array([0.3]))
    with pytest.raises(ValueError):
        triplet_loss(dist, m=-0.5)
    with pytest.raises(ValueError):
        srt_loss(dist, m=float("nan"))


def test_srt_branch_table():
    def triple(mu2, mu3):
        return DistanceTriple(
            d1=np.array([0.5, 0.5]),
            d2=np.array([mu2 - 0.1, mu2 + 0.1]),
            d3=np.array([mu3 - 0.1, mu3 + 0.1]),
        )

    assert srt_branch(triple(1.0, 2.0)) is Branch.TRIPLET   # separation not yet met
    assert srt_branch(triple(2.0, 1.0)) is Branch.SWAP      # imposters already far
    assert srt_branch(triple(1.5, 1.5)) is Branch.SWAP      # boundary counts as met


def test_srt_swap_hand_value():
    # swap loss = mean over rows of max(d1 - mean(d3) + m, 0), mean(d3) frozen
    dist = DistanceTriple(
        d1=np.array([0.5, 1.5]),
        d2=np.array([3.0, 3.0]),
        d3=np.array([1.0, 2.0]),
    )
    res = srt_loss(dist, m=0.4)
    assert res.branch is Branch.SWAP
    # rows: 0.5 - 1.5 + 0.4 = -0.6 (off), 1.5 - 1.5 + 0.4 = 0.4
    assert abs(res.loss - 0.2) < 1e-12


def test_srt_delegates_to_triplet_below_separation():
    hits = 0
    for seed in range(40):
        a, p, g = random_triple(seed)
        dist = compute_distances(a, p, g)
        if srt_branch(dist) is not Branch.TRIPLET:
            continue
        hits += 1
        s = srt_loss(dist, m=0.3)
        t = triplet_loss(dist, m=0.3)
        assert s.loss == t.loss
        assert np.array_equal(s.grad_anchor_out, t.grad_anchor_out)
        assert s.branch is Branch.TRIPLET
    assert hits > 5, "random triples never hit the triplet branch"


def test_loss_gradients_match_finite_differences():
    worst = 0.0
    for seed in range(12):
        a, p, g = random_triple(seed, n=4, d=6)
        for fn, m in ((triplet_loss, 0.25), (srt_loss, 0.25)):
            dist = compute_distances(a, p, g)
            hinge_gap = (
                np.min(np.abs(dist.d1 - dist.d2 + m))
                if fn is triplet_loss
                else np.min(np.abs(dist.d1 - np.mean(dist.d3) + m))
            )
            branch_gap = abs(np.mean(dist.d2) - np.mean(dist.d3))
            if hinge_gap < 1e-4 or branch_gap < 1e-4:
                continue  # finite differences are invalid at hinge/branch kinks
            res = fn(dist, m)

            def f(_ignored=None):
                return fn(compute_distances(a, p, g), m).loss

            worst = max(worst, rel_err(res.grad_anchor_out, fd_gradient(lambda _: f(), a)))
    assert worst < 1e-5, f"max relative error {worst:g}"


def test_swap_gradient_ignores_negatives_beyond_their_mean_distance():
    # replacing each negative with a different vector at the same distance
    # from its positive must leave the swap-branch loss and gradient alone
    done = 0
    for seed in range(60):
        a, p, g = random_triple(seed, n=6, d=10)
        dist = compute_distances(a, p, g)
        if srt_branch(dist) is not Branch.SWAP:
            continue
        res = srt_loss(dist, m=0.3)

        # Householder reflection fixing each unit positive: preserves every
        # positive-negative distance while moving the negatives
        rng = CounterRng(seed + 900, stream=18)
        new_neg = np.empty_like(dist.unit_neg)
        for i in range(6):
            pn = dist.unit_pos[i]
            v = rng.normal(10)
            v -= (v @ pn) * pn
            v /= np.linalg.norm(v)
            new_neg[i] = dist.unit_neg[i] - 2.0 * (dist.unit_neg[i] @ v) * v
        dist2 = compute_distances(a, p, new_neg)
        assert np.max(np.abs(dist2.d3 - dist.d3)) < 1e-12
        if srt_branch(dist2) is not Branch.SWAP:
            continue
        res2 = srt_loss(dist2, m=0.3)
        assert abs(res2.loss - res.loss) < 1e-12
        assert np.max(np.abs(res2.grad_anchor_out - res.grad_anchor_out)) < 1e-12
        done += 1
    assert done > 5, "random triples never exercised the swap branch"

