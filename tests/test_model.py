"""Unmasking network: initialization, forward semantics, analytic gradients."""

import numpy as np
import pytest

from eum.errors import BatchTooSmall, DimensionMismatch, InvalidDimension, ShapeMismatch
from eum.model import (
    NUM_LAYERS,
    EumParameters,
    ParamGrads,
    backward,
    forward_infer,
    forward_train,
    init_params,
    sgd_step,
    trainable_size,
)
from eum.rng import CounterRng
from oracles import (
    fd_gradient,
    oracle_backward,
    oracle_forward_infer,
    oracle_forward_train,
    rel_err,
)


def test_init_params_shapes_and_identity_batchnorm():
    p = init_params(d=12, seed=4)
    assert p.d == 12 and len(p.weights) == NUM_LAYERS == 4
    for i in range(NUM_LAYERS):
        assert p.weights[i].shape == (12, 12)
        assert np.array_equal(p.bn_gamma[i], np.ones(12))
        assert np.array_equal(p.bn_beta[i], np.zeros(12))
        assert np.array_equal(p.bn_running_mean[i], np.zeros(12))
        assert np.array_equal(p.bn_running_var[i], np.ones(12))


def test_init_params_weight_scale():
    d, slope = 96, 0.01
    p = init_params(d=d, seed=0, leaky_slope=slope)
    target = np.sqrt(2.0 / (d * (1.0 + slope**2)))
    all_w = np.concatenate([w.ravel() for w in p.weights])
    assert abs(float(np.std(all_w)) - target) / target < 0.02
    assert abs(float(np.mean(all_w))) < target * 0.05


def test_init_params_deterministic_and_seed_sensitive():
    a, b = init_params(8, seed=5), init_params(8, seed=5)
    for i in range(NUM_LAYERS):
        assert np.array_equal(a.weights[i], b.weights[i])
    c = init_params(8, seed=6)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_params_rejects_bad_dimension():
    with pytest.raises(InvalidDimension):
        init_params(0, seed=1)
    with pytest.raises(InvalidDimension):
        init_params(-3, seed=1)


def test_forward_train_batchnorm_statistics():
    # last layer ends in BatchNorm with gamma=1, beta=0 at init, so output
    # columns are centered and unit-variance up to the epsilon correction
    p = init_params(10, seed=2)
    batch = CounterRng(3, stream=1).normal(60).reshape(6, 10)
    out, cache = forward_train(p, batch)
    assert out.shape == (6, 10)
    assert np.max(np.abs(out.mean(axis=0))) < 1e-12
    assert np.max(np.abs(out.var(axis=0) - 1.0)) < 1e-3
    assert len(cache.post_bn) == NUM_LAYERS


def test_forward_train_updates_running_stats_exactly():
    momentum = 0.9
    p = init_params(6, seed=7, bn_momentum=momentum)
    batch = CounterRng(1, stream=2).normal(30).reshape(5, 6)
    _, cache = forward_train(p, batch)
    for i in range(NUM_LAYERS):
        z = cache.fc_inputs[i] @ p.weights[i].T
        batch_var = z.var(axis=0)
        want_mean = (1.0 - momentum) * z.mean(axis=0)
        want_var = momentum * 1.0 + (1.0 - momentum) * batch_var
        assert np.allclose(p.bn_running_mean[i], want_mean, atol=1e-15)
        assert np.allclose(p.bn_running_var[i], want_var, atol=1e-12)


def test_forward_train_needs_two_rows():
    p = init_params(4, seed=1)
    with pytest.raises(BatchTooSmall):
        forward_train(p, np.ones((1, 4)))
    forward_train(p, CounterRng(0, stream=1).normal(8).reshape(2, 4))


def test_forward_shape_validation():
    p = init_params(4, seed=1)
    with pytest.raises(DimensionMismatch):
        forward_train(p, np.ones((3, 5)))
    with pytest.raises(DimensionMismatch):
        forward_infer(p, np.ones((3, 5)))


def test_forward_infer_is_pure_and_uses_running_stats():
    p = init_params(5, seed=9)
    batch = CounterRng(4, stream=3).normal(20).reshape(4, 5)
    before = p.flat.copy()
    out1 = forward_infer(p, batch)
    out2 = forward_infer(p, batch)
    assert np.array_equal(out1, out2)
    assert np.array_equal(p.flat, before)
    # single row is allowed in inference mode
    assert forward_infer(p, batch[:1]).shape == (1, 5)


def test_infer_matches_train_when_running_stats_equal_batch_stats():
    # momentum 0 makes the running stats exactly the last batch's stats
    p = init_params(7, seed=11, bn_momentum=0.0)
    batch = CounterRng(6, stream=4).normal(42).reshape(6, 7)
    out_train, _ = forward_train(p, batch)
    out_infer = forward_infer(p, batch)
    assert np.max(np.abs(out_train - out_infer)) < 1e-10


def test_backward_matches_finite_differences():
    # documented example: d=6, N=4, seed=3, random linear projection loss
    d, n = 6, 4
    p = init_params(d, seed=3)
    rng = CounterRng(3, stream=8)
    batch = rng.normal(n * d).reshape(n, d)
    proj = rng.normal(n * d).reshape(n, d)

    out, cache = forward_train(p, batch)
    grads = backward(p, cache, proj)

    def loss(_ignored=None):
        o, _ = forward_train(p, batch)
        return float(np.sum(o * proj))

    worst = 0.0
    for i in range(NUM_LAYERS):
        for arr, g in (
            (p.weights[i], grads.weights[i]),
            (p.bn_gamma[i], grads.bn_gamma[i]),
            (p.bn_beta[i], grads.bn_beta[i]),
        ):
            worst = max(worst, rel_err(g, fd_gradient(lambda _: loss(), arr)))
    worst = max(worst, rel_err(grads.input_grad, fd_gradient(lambda _: loss(), batch)))
    assert worst < 1e-4, f"max relative error {worst:g}"


@pytest.mark.parametrize(
    "d,n,slope,momentum", [(16, 32, 0.01, 0.9), (5, 3, 0.2, 0.5), (9, 128, -0.7, 0.0)]
)
def test_forward_and_backward_match_reference_formulas(d, n, slope, momentum):
    for seed in range(3):
        p = init_params(d, seed=seed, leaky_slope=slope, bn_momentum=momentum)
        rng = CounterRng(seed, stream=9)
        p.bn_gamma[:] += 0.3 * rng.normal(NUM_LAYERS * d).reshape(NUM_LAYERS, d)
        p.bn_beta[:] = 0.3 * rng.normal(NUM_LAYERS * d).reshape(NUM_LAYERS, d)
        batch = rng.normal(n * d).reshape(n, d)
        upstream = rng.normal(n * d).reshape(n, d)
        ref = p.copy()

        out, cache = forward_train(p, batch)
        ref_out, ref_cache = oracle_forward_train(ref, batch)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(p.flat, ref.flat)  # running statistics included
        for name, ref_name in (
            ("fc_inputs", "fc_inputs"),
            ("bn_inv_std", "inv_std"),
            ("bn_normalized", "normalized"),
            ("post_bn", "post_bn"),
        ):
            for i in range(NUM_LAYERS):
                assert np.array_equal(getattr(cache, name)[i], ref_cache[ref_name][i]), (name, i)

        grads = backward(p, cache, upstream)
        ref_grads = oracle_backward(ref, ref_cache, upstream)
        for i in range(NUM_LAYERS):
            assert np.array_equal(grads.weights[i], ref_grads["weights"][i])
            assert np.array_equal(grads.bn_gamma[i], ref_grads["gamma"][i])
            assert np.array_equal(grads.bn_beta[i], ref_grads["beta"][i])
        assert np.array_equal(grads.input_grad, ref_grads["input_grad"])
        # after the update the running statistics are no longer the init's
        assert np.array_equal(forward_infer(p, batch), oracle_forward_infer(ref, batch))


def test_backward_input_grad_shape_and_cache_reuse():
    p = init_params(5, seed=2)
    batch = CounterRng(7, stream=5).normal(15).reshape(3, 5)
    _, cache = forward_train(p, batch)
    g = backward(p, cache, np.ones((3, 5)))
    assert g.input_grad.shape == (3, 5)
    assert g.flat.shape == (trainable_size(5),)
    assert g.weights.shape == (NUM_LAYERS, 5, 5)
    assert g.bn_gamma.shape == g.bn_beta.shape == (NUM_LAYERS, 5)


def test_sgd_step_updates_in_place():
    p = init_params(4, seed=8)
    w0 = p.weights.copy()
    stats0 = p.flat[trainable_size(4):].copy()
    g = ParamGrads(4, np.empty(trainable_size(4)))
    g.weights[:] = 2.0
    g.bn_gamma[:] = 1.0
    g.bn_beta[:] = -1.0
    out = sgd_step(p, g, lr=0.5)
    assert out is p
    for i in range(NUM_LAYERS):
        assert np.allclose(p.weights[i], w0[i] - 1.0, atol=1e-15)
        assert np.allclose(p.bn_gamma[i], 0.5, atol=1e-15)
        assert np.allclose(p.bn_beta[i], 0.5, atol=1e-15)
    assert np.array_equal(p.flat[trainable_size(4):], stats0)  # running stats untouched


def test_sgd_step_shape_mismatch():
    p = init_params(4, seed=8)
    g = ParamGrads(3, np.zeros(trainable_size(3)))
    with pytest.raises(ShapeMismatch):
        sgd_step(p, g, lr=0.1)


def test_named_views_write_the_buffer():
    d = 3
    p = init_params(d, seed=1)
    for name in ("weights", "bn_gamma", "bn_beta", "bn_running_mean", "bn_running_var"):
        assert np.shares_memory(getattr(p, name), p.flat), name
    p.bn_gamma[2] = 7.0
    p.bn_running_mean[1] = -2.0
    n_w = NUM_LAYERS * d * d
    assert np.array_equal(p.flat[n_w + 2 * d:n_w + 3 * d], np.full(d, 7.0))
    mean_start = n_w + 2 * NUM_LAYERS * d
    assert np.array_equal(p.flat[mean_start + d:mean_start + 2 * d], np.full(d, -2.0))


def test_params_copy_is_deep():
    p = init_params(4, seed=1)
    q = p.copy()
    q.weights[0][0, 0] += 1.0
    q.bn_running_mean[1][2] = 5.0
    assert p.weights[0][0, 0] != q.weights[0][0, 0]
    assert p.bn_running_mean[1][2] == 0.0
    assert not np.shares_memory(p.flat, q.flat)
