"""Triplet and self-restrained triplet (SRT) losses on squared euclidean
distances between row-normalized embeddings.

Both losses take gradients with respect to the anchor outputs only; positive
and negative embeddings never receive gradient. The SRT loss compares the
batch means of the anchor-negative and positive-negative distances and, when
the anchors have drifted at least as far from the negatives as the positives
sit from them, swaps the per-sample d2 term for the (constant) batch mean of
d3 — restraining the push instead of letting it run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, EmptyBatch
from .vecmath import unit_rows


class Branch(Enum):
    TRIPLET = "triplet"
    SWAP = "swap"


@dataclass
class TripletBatch:
    """Aligned anchor/positive/negative rows for one mini-batch.

    Anchors are masked embeddings (the network's input), positives are
    unmasked embeddings of the same identity, negatives are masked
    embeddings of a different identity. The sampler draws them from a split
    normalized once, so all three are unit rows.
    """

    anchors: np.ndarray    # N x d
    positives: np.ndarray  # N x d
    negatives: np.ndarray  # N x d


@dataclass
class DistanceTriple:
    """Per-row squared distances d1 (anchor-positive), d2 (anchor-negative),
    d3 (positive-negative) between unit rows.

    The unit anchors with their pre-normalization norms, and the positives
    and negatives (unit rows as given), are kept when the triple was
    produced by compute_distances; they are what the loss gradients chain
    through. Hand-built triples (distances only) still support loss values,
    just not gradients.
    """

    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    unit_anchor: np.ndarray | None = None
    unit_pos: np.ndarray | None = None
    unit_neg: np.ndarray | None = None
    anchor_norm: np.ndarray | None = None

    @property
    def n(self) -> int:
        return int(np.asarray(self.d1).shape[0])

    @cached_property
    def means(self) -> tuple[float, float, float]:
        """Batch means of d1, d2 and d3, taken once for the SRT branch
        decision, the swap term and the training log."""
        return np.mean(self.d1), np.mean(self.d2), np.mean(self.d3)


@dataclass
class LossResult:
    loss: float
    grad_anchor_out: np.ndarray | None  # N x d, w.r.t. raw (unnormalized) anchor outputs
    branch: Branch
    distances: DistanceTriple


def compute_distances(anchor_out, positives, negatives) -> DistanceTriple:
    """Normalize the network outputs, then form the three squared-distance
    arrays. Positives and negatives must be unit rows already (the sampler's
    are) and are used as given; a zero output row raises ZeroVector."""
    a = np.asarray(anchor_out, dtype=np.float64)
    p = np.asarray(positives, dtype=np.float64)
    g = np.asarray(negatives, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"anchor_out must be N x d, got shape {a.shape}")
    if p.shape != a.shape or g.shape != a.shape:
        raise DimensionMismatch(
            f"shapes differ: anchors {a.shape}, positives {p.shape}, negatives {g.shape}"
        )
    ua, norms = unit_rows(a)
    return DistanceTriple(
        d1=np.sum((ua - p) ** 2, axis=1),
        d2=np.sum((ua - g) ** 2, axis=1),
        d3=np.sum((p - g) ** 2, axis=1),
        unit_anchor=ua,
        unit_pos=p,
        unit_neg=g,
        anchor_norm=norms,
    )


def _check_margin(m: float) -> float:
    m = float(m)
    if not m >= 0:  # also catches NaN
        raise ValueError(f"margin must be >= 0, got {m}")
    return m


def _hinge_loss(dist: DistanceTriple, m: float, far, pull, branch: Branch) -> LossResult:
    """Mean hinge over d1 - far + m, with the gradient w.r.t. raw anchor
    outputs; per active row, d(d1 - far)/d(unit anchor) = 2(pull - p_hat)."""
    n = dist.n
    hinge = dist.d1 - far + m
    active = hinge > 0
    loss = float(np.sum(np.maximum(hinge, 0.0)) / n)

    grad = None
    if dist.unit_anchor is not None:
        g_unit = (2.0 / n) * active[:, None] * (pull - dist.unit_pos)
        # d(unit)/d(raw) = (I - u u^T) / ||raw||, applied row-wise
        u = dist.unit_anchor
        proj = np.sum(g_unit * u, axis=1, keepdims=True)
        grad = (g_unit - proj * u) / dist.anchor_norm[:, None]
    return LossResult(loss=loss, grad_anchor_out=grad, branch=branch, distances=dist)


def triplet_loss(dist: DistanceTriple, m: float) -> LossResult:
    """Mean hinge over d1 - d2 + m; gradient w.r.t. raw anchor outputs."""
    m = _check_margin(m)
    if dist.n == 0:
        raise EmptyBatch("triplet loss over empty batch")
    # d(d1 - d2)/d(unit anchor) = 2(n_hat - p_hat)
    return _hinge_loss(dist, m, dist.d2, dist.unit_neg, Branch.TRIPLET)


def srt_branch(dist: DistanceTriple) -> Branch:
    """TRIPLET iff mean(d2) < mean(d3); the boundary falls to SWAP."""
    if dist.n == 0:
        raise EmptyBatch("branch decision over empty batch")
    _, mean_d2, mean_d3 = dist.means
    return Branch.TRIPLET if mean_d2 < mean_d3 else Branch.SWAP


def srt_loss(dist: DistanceTriple, m: float) -> LossResult:
    """Self-restrained triplet loss.

    Triplet branch: exactly triplet_loss. Swap branch: the per-sample d2 is
    replaced by the batch mean of d3, treated as a constant, so gradient
    reaches only the d1 terms with active hinges.
    """
    m = _check_margin(m)
    if srt_branch(dist) is Branch.TRIPLET:
        return _hinge_loss(dist, m, dist.d2, dist.unit_neg, Branch.TRIPLET)
    # d(d1)/d(unit anchor) = 2(a_hat - p_hat); mu3 carries no gradient
    mu3 = float(dist.means[2])
    return _hinge_loss(dist, m, mu3, dist.unit_anchor, Branch.SWAP)
