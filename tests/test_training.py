"""Trainer: schedules, sampling, determinism, early stopping, history."""

import numpy as np
import pytest

import eum.training
from eum.errors import InsufficientIdentities, MissingPairForIdentity, NonFiniteLoss, ZeroVector
from eum.fileio import SPLIT_CODES, Dataset
from eum.model import init_params
from eum.rng import CounterRng
from eum.training import (
    LOSS_KINDS,
    TrainConfig,
    _TripletIndex,
    build_val_batches,
    lr_at,
    sample_triplets,
    train,
    validate,
)
from oracles import oracle_sample_triplets


def quick_config(**overrides) -> TrainConfig:
    base = dict(
        loss_kind="srt",
        margin=0.5,
        batch_size=16,
        initial_lr=0.05,
        lr_drop_iters=(60, 90),
        max_iters=120,
        val_every=30,
        patience=3,
        seed=4,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_lr_schedule_values():
    cfg = TrainConfig(initial_lr=0.1, lr_drop_iters=(30000, 60000, 90000), lr_drop_factor=10.0)
    assert lr_at(0, cfg) == 0.1
    assert lr_at(29999, cfg) == 0.1
    assert lr_at(30000, cfg) == 0.01
    assert abs(lr_at(60000, cfg) - 1e-3) < 1e-18
    assert abs(lr_at(90001, cfg) - 1e-4) < 1e-19
    with pytest.raises(ValueError):
        lr_at(-1, cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(loss_kind="contrastive").validate()
    with pytest.raises(ValueError):
        TrainConfig(margin=-1.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1).validate()
    with pytest.raises(ValueError):
        TrainConfig(max_iters=-5).validate()
    TrainConfig().validate()


def _sample(dataset: Dataset, batch_size: int, rng: CounterRng):
    return sample_triplets(dataset, batch_size, rng, _TripletIndex(dataset))


def test_sample_triplets_contracts(tiny_dataset):
    train_split = tiny_dataset.for_split("train")
    # every vector is distinct, so it names its row's identity and kind
    columns = zip(train_split.vectors, train_split.identity, train_split.masked)
    owner = {v.tobytes(): (int(i), bool(m)) for v, i, m in columns}
    assert len(owner) == len(train_split)
    for seed in range(10):
        rng = CounterRng(seed, stream=31)
        batch = _sample(train_split, 32, rng)
        assert batch.anchors.shape == (32, tiny_dataset.d)
        assert batch.positives.shape == batch.negatives.shape == batch.anchors.shape
        anchors, positives, negatives = (
            [owner[v.tobytes()] for v in rows]
            for rows in (batch.anchors, batch.positives, batch.negatives)
        )
        # anchors/negatives come from masked rows, positives from unmasked;
        # a positive shares its anchor's identity, a negative does not
        assert all(m for _, m in anchors + negatives)
        assert not any(m for _, m in positives)
        assert [i for i, _ in positives] == [i for i, _ in anchors]
        assert all(a != n for (a, _), (n, _) in zip(anchors, negatives))


def _scrambled_dataset() -> Dataset:
    """Unsorted, non-contiguous identity labels with unequal per-identity
    counts of masked and unmasked rows, interleaved in row order."""
    labels = np.array([907, 3, 55, 12, 400, 8])
    masked_per_id = np.array([1, 4, 2, 3, 5, 2])
    unmasked_per_id = np.array([3, 1, 2, 5, 2, 4])
    identity = np.concatenate(
        [np.repeat(labels, masked_per_id), np.repeat(labels, unmasked_per_id)]
    )
    masked = np.arange(len(identity)) < masked_per_id.sum()
    order = np.argsort(CounterRng(9, stream=33).u01(len(identity)))
    n = len(identity)
    return Dataset(
        identity=identity[order],
        sample=np.arange(n),
        masked=masked[order],
        split=np.zeros(n, dtype=np.uint8),
        vectors=np.arange(n, dtype=np.float64)[:, None] + np.zeros((1, 3)),
    )


def test_sample_triplets_matches_per_identity_oracle():
    # the row index is the vector, so equal vectors mean equal rows
    ds = _scrambled_dataset()
    index = _TripletIndex(ds)
    for seed in range(8):
        rng, ref_rng = CounterRng(seed, stream=31), CounterRng(seed, stream=31)
        for _ in range(3):
            batch = sample_triplets(ds, 33, rng, index)
            a, p, n, a_ids, n_ids = oracle_sample_triplets(ds, 33, ref_rng)
            assert np.array_equal(batch.anchors[:, 0], a)
            assert np.array_equal(batch.positives[:, 0], p)
            assert np.array_equal(batch.negatives[:, 0], n)
            # the vector is the row index, and the row gives the identity
            assert np.array_equal(ds.identity[batch.anchors[:, 0].astype(int)], a_ids)
            assert np.array_equal(ds.identity[batch.negatives[:, 0].astype(int)], n_ids)
        # both consumed the same words, so later draws stay aligned
        assert np.array_equal(rng.u64(1), ref_rng.u64(1))


def test_sample_triplets_draws_uniforms_once(tiny_dataset, monkeypatch):
    calls = []
    real_u01 = CounterRng.u01

    def counting_u01(rng, n):
        calls.append(n)
        return real_u01(rng, n)

    monkeypatch.setattr(CounterRng, "u01", counting_u01)
    _sample(tiny_dataset.for_split("train"), 16, CounterRng(0, stream=31))
    assert calls == [4 * 16]


def test_sample_triplets_deterministic(tiny_dataset):
    a = _sample(tiny_dataset, 16, CounterRng(7, stream=31))
    b = _sample(tiny_dataset, 16, CounterRng(7, stream=31))
    for role in ("anchors", "positives", "negatives"):
        assert np.array_equal(getattr(a, role), getattr(b, role)), role


def test_sample_triplets_needs_two_identities():
    vecs = CounterRng(0, stream=32).normal(4 * 6).reshape(4, 6)
    ds = Dataset(
        identity=np.zeros(4, dtype=np.int64),
        sample=np.arange(4),
        masked=np.array([True, True, False, False]),
        split=np.zeros(4, dtype=np.uint8),
        vectors=vecs,
    )
    with pytest.raises(InsufficientIdentities):
        _TripletIndex(ds)


def test_sample_triplets_needs_both_kinds_per_identity():
    vecs = CounterRng(1, stream=32).normal(6 * 6).reshape(6, 6)
    ds = Dataset(
        identity=np.array([9, 9, 5, 5, 2, 2]),
        sample=np.arange(6),
        # identity 9 has no unmasked rows, identity 5 no masked rows: the
        # first lacking identity in sorted order is named
        masked=np.array([True, True, False, False, True, False]),
        split=np.zeros(6, dtype=np.uint8),
        vectors=vecs,
    )
    with pytest.raises(MissingPairForIdentity, match="^identity 5: 0 masked, 2 unmasked records$"):
        _TripletIndex(ds)


def test_train_zero_iters_returns_fresh_init(tiny_dataset):
    cfg = quick_config(max_iters=0)
    params, history = train(cfg, tiny_dataset)
    # the network takes the dimension of the data (16 here); TrainConfig has none
    fresh = init_params(tiny_dataset.d, cfg.seed)
    assert params.d == tiny_dataset.d
    for i in range(4):
        assert np.array_equal(params.weights[i], fresh.weights[i])
    assert len(history.iterations) == 0


def test_train_deterministic(tiny_dataset):
    cfg = quick_config()
    p1, h1 = train(cfg, tiny_dataset)
    p2, h2 = train(cfg, tiny_dataset)
    for i in range(4):
        assert np.array_equal(p1.weights[i], p2.weights[i])
        assert np.array_equal(p1.bn_running_mean[i], p2.bn_running_mean[i])
    assert h1.losses == h2.losses


def test_batch_sequence_is_loss_independent(tiny_dataset):
    # the logged first-iteration distances depend only on init + sampling,
    # so srt and triplet runs from one seed must log identical d1/d2/d3 there
    cfg_s = quick_config(loss_kind="srt", max_iters=1)
    cfg_t = quick_config(loss_kind="triplet", max_iters=1)
    _, hs = train(cfg_s, tiny_dataset)
    _, ht = train(cfg_t, tiny_dataset)
    assert hs.mean_d1[0] == ht.mean_d1[0]
    assert hs.mean_d2[0] == ht.mean_d2[0]
    assert hs.mean_d3[0] == ht.mean_d3[0]


@pytest.mark.parametrize("loss_kind", LOSS_KINDS)
def test_batch_means_taken_once_per_iteration(tiny_dataset, monkeypatch, loss_kind):
    # the SRT branch decision, its swap term and the history log share one
    # mean of each distance array; val_every > max_iters, so none validates
    calls = []
    real_mean = np.mean

    def counting_mean(*args, **kwargs):
        calls.append(1)
        return real_mean(*args, **kwargs)

    monkeypatch.setattr(np, "mean", counting_mean)
    _, history = train(quick_config(loss_kind=loss_kind, max_iters=20, val_every=21), tiny_dataset)
    assert len(history.iterations) == 20
    assert len(calls) == 3 * 20


@pytest.mark.parametrize("split", ["train", "val"])
def test_zero_vector_in_a_split_fails_before_the_first_iteration(
    tiny_dataset, monkeypatch, split
):
    # the zero sits on the split's last unmasked row; with val_every past
    # max_iters no validation runs, so only the up-front normalization sees it
    ds = tiny_dataset.subset(np.ones(len(tiny_dataset), dtype=bool))
    in_split = np.flatnonzero(ds.split == SPLIT_CODES[split])
    row = in_split[~ds.masked[in_split]][-1]
    ds.vectors[row] = 0.0
    steps = []
    real_forward = eum.training.forward_train

    def counting_forward(*args):
        steps.append(1)
        return real_forward(*args)

    monkeypatch.setattr(eum.training, "forward_train", counting_forward)
    with pytest.raises(ZeroVector, match=f"^row {np.searchsorted(in_split, row)} has norm 0$"):
        train(quick_config(max_iters=2, val_every=3), ds)
    assert steps == []


def test_splits_normalized_once_per_run(tiny_dataset, monkeypatch):
    # the train and val splits are normalized up front, never per batch
    calls = []
    real_normalize = eum.training.normalize_rows

    def counting_normalize(m):
        calls.append(len(m))
        return real_normalize(m)

    monkeypatch.setattr(eum.training, "normalize_rows", counting_normalize)
    per_run = []
    for max_iters in (20, 40):
        calls.clear()
        train(quick_config(max_iters=max_iters, val_every=10, patience=100), tiny_dataset)
        per_run.append(len(calls))
    assert per_run == [2, 2]


@pytest.mark.filterwarnings("error")
def test_non_finite_loss_names_its_iteration(tiny_dataset):
    # the typed error is the one report: no numpy overflow warning before it
    cfg = quick_config(initial_lr=1e300)
    with pytest.raises(NonFiniteLoss, match=r"^iteration 1: srt loss is nan$"):
        train(cfg, tiny_dataset)


def test_history_csv_shape(tiny_dataset):
    cfg = quick_config(max_iters=40, val_every=20)
    _, history = train(cfg, tiny_dataset)
    rows = list(history.csv_rows())
    assert rows[0] == "iter,loss,mean_d1,mean_d2,mean_d3,branch,lr"
    assert len(rows) == 1 + len(history.iterations) == 1 + 40
    first = rows[1].split(",")
    assert first[0] == "0"
    assert first[5] in ("triplet", "swap")
    assert float(first[6]) == cfg.initial_lr


def test_early_stopping_halts_without_improvement(tiny_dataset):
    # vanishing lr plus momentum pinned at 1.0 freezes both the parameters
    # and the running statistics, so validation loss never improves and
    # patience cuts the run short at an exactly predictable iteration
    cfg = quick_config(
        initial_lr=1e-30, max_iters=500, val_every=10, patience=2, bn_momentum=1.0
    )
    params, history = train(cfg, tiny_dataset)
    assert len(history.iterations) == 30  # best at val 1, stale vals 2 and 3
    assert len(history.val_losses) == 3
    assert history.val_iterations == [9, 19, 29]
    fresh = init_params(tiny_dataset.d, cfg.seed)
    for i in range(4):
        assert np.array_equal(params.weights[i], fresh.weights[i])
        assert np.max(np.abs(params.bn_beta[i])) < 1e-20


def test_returned_params_achieve_best_validation(tiny_dataset):
    # the trainer hands back the best validated snapshot, not the last state;
    # validate() is pure, so re-running it on the result must reproduce the
    # best recorded value (up to the improvement epsilon)
    cfg = quick_config(initial_lr=0.05, lr_drop_iters=(), max_iters=200, val_every=20)
    params, history = train(cfg, tiny_dataset)
    rerun = validate(
        params, build_val_batches(tiny_dataset, cfg), cfg.loss_kind, cfg.margin
    )
    assert rerun <= min(history.val_losses) + 1e-6


def test_validation_batches_deterministic(tiny_dataset):
    cfg = quick_config()
    a = build_val_batches(tiny_dataset, cfg)
    b = build_val_batches(tiny_dataset, cfg)
    assert len(a) == len(b) > 0
    for x, y in zip(a, b):
        assert np.array_equal(x.anchors, y.anchors)


def test_default_config_matches_published_recipe():
    cfg = TrainConfig()
    assert cfg.loss_kind == "srt"
    assert cfg.batch_size == 128
    assert cfg.initial_lr == 0.1
    assert cfg.lr_drop_factor == 10.0
    assert cfg.max_iters > 0 and cfg.val_every > 0
