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

import numpy as np

from .errors import DimensionMismatch, EmptyBatch, ZeroVector
from .vecmath import ZERO_NORM_THRESHOLD


class Branch(Enum):
    TRIPLET = "triplet"
    SWAP = "swap"


@dataclass
class TripletBatch:
    """Aligned anchor/positive/negative rows for one mini-batch.

    Anchors are masked embeddings (pre-network), positives are unmasked
    embeddings of the same identity, negatives are masked embeddings of a
    different identity. Identity labels ride along for audit.
    """

    anchors: np.ndarray            # N x d
    positives: np.ndarray          # N x d
    negatives: np.ndarray          # N x d
    identity: np.ndarray           # N, anchor == positive identity
    negative_identity: np.ndarray  # N

    def check(self) -> None:
        n = self.anchors.shape[0]
        for name, arr in (("positives", self.positives), ("negatives", self.negatives)):
            if arr.shape != self.anchors.shape:
                raise DimensionMismatch(f"{name} shape {arr.shape} vs anchors {self.anchors.shape}")
        if self.identity.shape != (n,) or self.negative_identity.shape != (n,):
            raise DimensionMismatch("identity label shapes do not match batch size")
        if np.any(self.identity == self.negative_identity):
            bad = int(np.argmax(self.identity == self.negative_identity))
            raise ValueError(f"row {bad}: negative shares the anchor identity")


@dataclass
class DistanceTriple:
    """Per-row squared distances d1 (anchor-positive), d2 (anchor-negative),
    d3 (positive-negative) on unit-normalized rows.

    The unit rows and pre-normalization anchor norms are kept when the
    triple was produced by compute_distances; they are what the loss
    gradients chain through. Hand-built triples (distances only) still
    support loss values, just not gradients.
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


@dataclass
class LossResult:
    loss: float
    grad_anchor_out: np.ndarray | None  # N x d, w.r.t. raw (unnormalized) anchor outputs
    branch: Branch
    distances: DistanceTriple


def compute_distances(anchor_out, positives, negatives) -> DistanceTriple:
    """Normalize every row, then form the three squared-distance arrays."""
    a = np.asarray(anchor_out, dtype=np.float64)
    p = np.asarray(positives, dtype=np.float64)
    g = np.asarray(negatives, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"anchor_out must be N x d, got shape {a.shape}")
    if p.shape != a.shape or g.shape != a.shape:
        raise DimensionMismatch(
            f"shapes differ: anchors {a.shape}, positives {p.shape}, negatives {g.shape}"
        )
    units = []
    norms = []
    for name, m in (("anchor", a), ("positive", p), ("negative", g)):
        rn = np.sqrt(np.add.reduce(m * m, axis=1))
        if np.any(rn <= ZERO_NORM_THRESHOLD):
            bad = int(np.argmax(rn <= ZERO_NORM_THRESHOLD))
            raise ZeroVector(f"{name} row {bad} has norm {rn[bad]:g}")
        units.append(m / rn[:, None])
        norms.append(rn)
    ua, up, un = units
    return DistanceTriple(
        d1=np.sum((ua - up) ** 2, axis=1),
        d2=np.sum((ua - un) ** 2, axis=1),
        d3=np.sum((up - un) ** 2, axis=1),
        unit_anchor=ua,
        unit_pos=up,
        unit_neg=un,
        anchor_norm=norms[0],
    )


def _check_margin(m: float) -> float:
    m = float(m)
    if not m >= 0:  # also catches NaN
        raise ValueError(f"margin must be >= 0, got {m}")
    return m


def _grad_through_normalization(dist: DistanceTriple, g_unit: np.ndarray) -> np.ndarray:
    # d(unit)/d(raw) = (I - u u^T) / ||raw||, applied row-wise
    u = dist.unit_anchor
    proj = np.sum(g_unit * u, axis=1, keepdims=True)
    return (g_unit - proj * u) / dist.anchor_norm[:, None]


def triplet_loss(dist: DistanceTriple, m: float) -> LossResult:
    """Mean hinge over d1 - d2 + m; gradient w.r.t. raw anchor outputs."""
    m = _check_margin(m)
    n = dist.n
    if n == 0:
        raise EmptyBatch("triplet loss over empty batch")
    hinge = dist.d1 - dist.d2 + m
    active = hinge > 0
    loss = float(np.sum(np.maximum(hinge, 0.0)) / n)

    grad = None
    if dist.unit_anchor is not None:
        # per active row: d(d1 - d2)/d(unit anchor) = 2(n_hat - p_hat)
        g_unit = (2.0 / n) * active[:, None] * (dist.unit_neg - dist.unit_pos)
        grad = _grad_through_normalization(dist, g_unit)
    return LossResult(loss=loss, grad_anchor_out=grad, branch=Branch.TRIPLET, distances=dist)


def srt_branch(dist: DistanceTriple) -> Branch:
    """TRIPLET iff mean(d2) < mean(d3); the boundary falls to SWAP."""
    if dist.n == 0:
        raise EmptyBatch("branch decision over empty batch")
    return Branch.TRIPLET if float(np.mean(dist.d2)) < float(np.mean(dist.d3)) else Branch.SWAP


def srt_loss(dist: DistanceTriple, m: float) -> LossResult:
    """Self-restrained triplet loss.

    Triplet branch: exactly triplet_loss. Swap branch: the per-sample d2 is
    replaced by the batch mean of d3, treated as a constant, so gradient
    reaches only the d1 terms with active hinges.
    """
    m = _check_margin(m)
    branch = srt_branch(dist)
    if branch is Branch.TRIPLET:
        return triplet_loss(dist, m)

    n = dist.n
    mu3 = float(np.mean(dist.d3))
    hinge = dist.d1 - mu3 + m
    active = hinge > 0
    loss = float(np.sum(np.maximum(hinge, 0.0)) / n)

    grad = None
    if dist.unit_anchor is not None:
        # d(d1)/d(unit anchor) = 2(a_hat - p_hat); mu3 carries no gradient
        g_unit = (2.0 / n) * active[:, None] * (dist.unit_anchor - dist.unit_pos)
        grad = _grad_through_normalization(dist, g_unit)
    return LossResult(loss=loss, grad_anchor_out=grad, branch=Branch.SWAP, distances=dist)
