"""Mini-batch triplet training with a step learning-rate schedule and
validation-loss early stopping.

Batch sampling draws from fixed generator streams keyed only by the config
seed, so two runs that differ in nothing but the loss kind consume identical
triplet sequences — trajectory differences are attributable to the loss.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyValidationSet,
    InsufficientIdentities,
    MissingPairForIdentity,
    NonFiniteLoss,
)
from .fileio import Dataset
from .losses import (
    Branch,
    TripletBatch,
    compute_distances,
    srt_loss,
    triplet_loss,
)
from .model import (
    EumParameters,
    backward,
    forward_infer,
    forward_train,
    init_params,
    sgd_step,
)
from .rng import CounterRng, _bounded
from .vecmath import normalize_rows

_STREAM_BATCHES = 31
_STREAM_VALSET = 32
_VAL_BATCHES = 4
_IMPROVE_EPS = 1e-6

LOSS_KINDS = ("triplet", "srt")


@dataclass
class TrainConfig:
    loss_kind: str = "srt"
    margin: float = 1.6
    batch_size: int = 128
    initial_lr: float = 0.1
    lr_drop_iters: tuple[int, ...] = (15000, 30000)
    lr_drop_factor: float = 10.0
    max_iters: int = 40000
    val_every: int = 500
    patience: int = 12
    seed: int = 0
    leaky_slope: float = 0.01
    bn_epsilon: float = 1e-5
    bn_momentum: float = 0.9

    def validate(self) -> None:
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.margin < 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.val_every < 1:
            raise ValueError(f"val_every must be >= 1, got {self.val_every}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.initial_lr <= 0 or self.lr_drop_factor <= 0:
            raise ValueError("learning rates and drop factor must be > 0")
        drops = tuple(self.lr_drop_iters)
        if any(b <= a for a, b in zip(drops, drops[1:])):
            raise ValueError(f"lr_drop_iters must be strictly increasing, got {drops}")


@dataclass
class TrainHistory:
    iterations: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    mean_d1: list[float] = field(default_factory=list)
    mean_d2: list[float] = field(default_factory=list)
    mean_d3: list[float] = field(default_factory=list)
    branches: list[str] = field(default_factory=list)
    lrs: list[float] = field(default_factory=list)
    val_iterations: list[int] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)

    def log(self, iteration, loss, d1, d2, d3, branch: Branch, lr) -> None:
        self.iterations.append(int(iteration))
        self.losses.append(float(loss))
        self.mean_d1.append(float(d1))
        self.mean_d2.append(float(d2))
        self.mean_d3.append(float(d3))
        self.branches.append(branch.value)
        self.lrs.append(float(lr))

    def csv_rows(self):
        """Header then one row per logged iteration."""
        yield "iter,loss,mean_d1,mean_d2,mean_d3,branch,lr"
        for i in range(len(self.iterations)):
            yield (
                f"{self.iterations[i]},{self.losses[i]!r},{self.mean_d1[i]!r},"
                f"{self.mean_d2[i]!r},{self.mean_d3[i]!r},{self.branches[i]},"
                f"{self.lrs[i]!r}"
            )


class _TripletIndex:
    """Row indices of masked and unmasked records, grouped by identity.

    The layout is CSR: ``ids`` holds the sorted distinct identities, and
    ``flat_masked`` every masked row, grouped by identity index and in row
    order within each group. Identity ``k`` owns
    ``flat_masked[masked_start[k]:masked_start[k] + masked_counts[k]]``,
    and ``flat_masked_ident`` gives each entry's identity index, for
    record-uniform anchor draws. ``flat_unmasked``, ``unmasked_start`` and
    ``unmasked_counts`` lay out the unmasked rows the same way.
    """

    def __init__(self, dataset: Dataset):
        ids, ident = np.unique(dataset.identity, return_inverse=True)
        if len(ids) < 2:
            raise InsufficientIdentities(f"need >= 2 identities, got {len(ids)}")
        masked = dataset.masked
        m_counts = np.bincount(ident[masked], minlength=len(ids))
        u_counts = np.bincount(ident[~masked], minlength=len(ids))
        lacking = (m_counts == 0) | (u_counts == 0)
        if lacking.any():
            k = int(np.argmax(lacking))
            raise MissingPairForIdentity(
                f"identity {ids[k]}: {m_counts[k]} masked, {u_counts[k]} unmasked records"
            )
        rows = np.argsort(ident, kind="stable")
        row_masked = masked[rows]
        self.ids = ids
        self.masked_counts = m_counts
        self.unmasked_counts = u_counts
        self.masked_start = np.cumsum(m_counts) - m_counts
        self.unmasked_start = np.cumsum(u_counts) - u_counts
        self.flat_masked = rows[row_masked]
        self.flat_unmasked = rows[~row_masked]
        self.flat_masked_ident = ident[self.flat_masked]


def sample_triplets(
    dataset: Dataset, batch_size: int, rng: CounterRng, idx: _TripletIndex
) -> TripletBatch:
    """One batch from dataset through its triplet index idx: record-uniform
    masked anchors, identity-matched unmasked positives, masked negatives
    from a uniformly chosen other identity.

    One draw of 4 x batch_size uniforms, used row by row for the anchor,
    the positive, the other identity and the negative.
    """
    u_anchor, u_pos, u_other, u_neg = rng.u01(4 * batch_size).reshape(4, batch_size)

    a_flat = _bounded(u_anchor, len(idx.flat_masked))
    anchor_rows = idx.flat_masked[a_flat]
    anchor_ident = idx.flat_masked_ident[a_flat]

    pos_pick = _bounded(u_pos, idx.unmasked_counts[anchor_ident])
    pos_rows = idx.flat_unmasked[idx.unmasked_start[anchor_ident] + pos_pick]

    other = _bounded(u_other, len(idx.ids) - 1)
    neg_ident = other + (other >= anchor_ident)  # skip the anchor identity
    neg_pick = _bounded(u_neg, idx.masked_counts[neg_ident])
    neg_rows = idx.flat_masked[idx.masked_start[neg_ident] + neg_pick]

    return TripletBatch(
        anchors=dataset.vectors[anchor_rows],
        positives=dataset.vectors[pos_rows],
        negatives=dataset.vectors[neg_rows],
    )


def lr_at(iteration: int, cfg: TrainConfig) -> float:
    """initial_lr divided by the drop factor once per passed drop point."""
    if iteration < 0:
        raise ValueError(f"iteration must be >= 0, got {iteration}")
    return cfg.initial_lr / cfg.lr_drop_factor ** bisect_right(cfg.lr_drop_iters, iteration)


def _loss_fn(kind: str):
    return srt_loss if kind == "srt" else triplet_loss


def validate(
    params: EumParameters,
    val_batches: list[TripletBatch],
    loss_kind: str,
    margin: float,
) -> float:
    """Mean loss over fixed batches of unit rows, as build_val_batches
    draws them; inference-mode network, no mutation."""
    if not val_batches:
        raise EmptyValidationSet("no validation batches")
    fn = _loss_fn(loss_kind)
    total = 0.0
    for batch in val_batches:
        out = forward_infer(params, batch.anchors)
        dist = compute_distances(out, batch.positives, batch.negatives)
        total += fn(dist, margin).loss
    return total / len(val_batches)


def _unit_split(dataset: Dataset, name: str) -> Dataset:
    """The records of one split with every vector scaled to unit norm, once
    for the whole run; a zero vector anywhere in it raises ZeroVector."""
    split = dataset.for_split(name)
    split.vectors = normalize_rows(split.vectors)
    return split


def build_val_batches(dataset: Dataset, cfg: TrainConfig) -> list[TripletBatch]:
    """Validation triplets of unit rows, frozen: drawn from a stream
    independent of the training batches."""
    val = _unit_split(dataset, "val")
    rng = CounterRng(cfg.seed, _STREAM_VALSET)
    index = _TripletIndex(val)
    return [sample_triplets(val, cfg.batch_size, rng, index) for _ in range(_VAL_BATCHES)]


@np.errstate(over="ignore", invalid="ignore")
def train(cfg: TrainConfig, dataset: Dataset) -> tuple[EumParameters, TrainHistory]:
    """SGD over sampled triplets; returns best-validation parameters.

    The train and val splits are normalized once, up front, so the network
    sees unit rows. Stops at max_iters or after `patience` consecutive
    validations without a strict improvement of at least 1e-6. The
    network's dimension is the dataset's. A NaN or infinite training loss
    raises NonFiniteLoss naming its iteration; numpy's overflow and
    invalid-value warnings on the way there are silenced, so that error is
    the one report.
    """
    cfg.validate()
    params = init_params(
        dataset.d, cfg.seed, cfg.leaky_slope, cfg.bn_epsilon, cfg.bn_momentum
    )
    history = TrainHistory()
    if cfg.max_iters == 0:
        return params, history

    train_split = _unit_split(dataset, "train")
    index = _TripletIndex(train_split)
    val_batches = build_val_batches(dataset, cfg)
    batch_rng = CounterRng(cfg.seed, _STREAM_BATCHES)
    fn = _loss_fn(cfg.loss_kind)

    best_val = np.inf
    best_params: EumParameters | None = None
    bad_evals = 0

    for iteration in range(cfg.max_iters):
        batch = sample_triplets(train_split, cfg.batch_size, batch_rng, index)
        out, cache = forward_train(params, batch.anchors)
        dist = compute_distances(out, batch.positives, batch.negatives)
        result = fn(dist, cfg.margin)
        if not math.isfinite(result.loss):
            raise NonFiniteLoss(
                f"iteration {iteration}: {cfg.loss_kind} loss is {result.loss!r}"
            )
        lr = lr_at(iteration, cfg)
        history.log(iteration, result.loss, *dist.means, result.branch, lr)
        grads = backward(params, cache, result.grad_anchor_out)
        sgd_step(params, grads, lr)

        if (iteration + 1) % cfg.val_every == 0:
            val_loss = validate(params, val_batches, cfg.loss_kind, cfg.margin)
            history.val_iterations.append(iteration)
            history.val_losses.append(float(val_loss))
            if val_loss < best_val - _IMPROVE_EPS:
                best_val = val_loss
                best_params = params.copy()
                bad_evals = 0
            else:
                bad_evals += 1
                if bad_evals >= cfg.patience:
                    break

    return (best_params if best_params is not None else params), history
