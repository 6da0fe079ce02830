"""The embedding unmasking network: four fully connected d -> d layers.

Layers 1-3 are FC -> BatchNorm -> LeakyReLU; layer 4 is FC -> BatchNorm.
Each FC is z = x W^T with no added constant, which the BatchNorm after it
would cancel by subtracting the batch mean. Forward and backward passes are
written out by hand in numpy. The backward pass goes through the
batch-statistics terms of BatchNorm exactly, which is what the
finite-difference tests pin down. Each LeakyReLU multiplies by its factor
(1 where the BatchNorm output is positive, the slope elsewhere), and the
training forward pass stores that factor, so the backward pass multiplies
by it again; x * 1.0 == x and x * slope == slope * x exactly, so this
equals the ``np.where(x > 0, x, slope * x)`` form bit for bit.

Parameters live in one float64 buffer, ``flat``: all weights
(NUM_LAYERS x d x d), then bn_gamma, bn_beta, bn_running_mean and
bn_running_var (NUM_LAYERS x d each). The named attributes are ndarray
views into it, so writing a row (``params.bn_gamma[i] = x``) writes the
buffer. Gradients use the same layout over the trainable prefix (weights,
gamma, beta), so an SGD step is one in-place update.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BatchTooSmall,
    CacheMismatch,
    DimensionMismatch,
    InvalidDimension,
    ShapeMismatch,
)
from .rng import CounterRng

NUM_LAYERS = 4
_INIT_STREAM = 11
_VECTORS = ("bn_gamma", "bn_beta", "bn_running_mean", "bn_running_var")


def trainable_size(d: int) -> int:
    """Length of the weights + gamma + beta prefix of the buffer."""
    return NUM_LAYERS * (d * d + 2 * d)


def _bind_views(obj, d: int) -> None:
    """Set obj.weights and as many of _VECTORS as obj.flat holds."""
    n_w = NUM_LAYERS * d * d
    obj.weights = obj.flat[:n_w].reshape(NUM_LAYERS, d, d)
    for name, rows in zip(_VECTORS, obj.flat[n_w:].reshape(-1, NUM_LAYERS, d)):
        setattr(obj, name, rows)


@dataclass
class EumParameters:
    """Weights and BatchNorm state for all four layers, in one buffer.

    weights[i] is d x d with one output unit per row; bn_gamma[i] etc. are
    length-d rows (see the module docstring for the layout). running_mean/var
    are inference-time statistics, updated only by forward_train.
    """

    d: int
    leaky_slope: float
    bn_epsilon: float
    bn_momentum: float
    flat: np.ndarray

    def __post_init__(self) -> None:
        _bind_views(self, self.d)

    def copy(self) -> "EumParameters":
        return replace(self, flat=self.flat.copy())


@dataclass
class ForwardCache:
    """Everything the backward pass needs from one forward_train call."""

    batch: np.ndarray
    fc_inputs: list[np.ndarray] = field(default_factory=list)   # input to each FC
    pre_bn: list[np.ndarray] = field(default_factory=list)      # z = x W^T
    bn_mean: list[np.ndarray] = field(default_factory=list)
    bn_inv_std: list[np.ndarray] = field(default_factory=list)  # 1/sqrt(var+eps)
    bn_normalized: list[np.ndarray] = field(default_factory=list)
    post_bn: list[np.ndarray] = field(default_factory=list)     # gamma*norm + beta
    leak: list[np.ndarray] = field(default_factory=list)        # LeakyReLU factor, layers 1-3


@dataclass
class ParamGrads:
    """Gradients in the trainable-prefix layout, plus d(loss)/d(input).

    weights, bn_gamma and bn_beta are views into flat, as in EumParameters.
    """

    d: int
    flat: np.ndarray
    input_grad: np.ndarray | None = None

    def __post_init__(self) -> None:
        _bind_views(self, self.d)


def init_params(
    d: int,
    seed: int,
    leaky_slope: float = 0.01,
    bn_epsilon: float = 1e-5,
    bn_momentum: float = 0.9,
) -> EumParameters:
    """Fresh parameters: variance-scaled gaussian weights, identity BatchNorm.

    Weight entries are N(0, 2 / (d * (1 + slope^2))), the scaling that keeps
    activation magnitudes stable under LeakyReLU for any d.
    """
    if not isinstance(d, int) or d < 1:
        raise InvalidDimension(f"dimension must be a positive integer, got {d!r}")
    rng = CounterRng(seed, stream=_INIT_STREAM)
    std = float(np.sqrt(2.0 / (d * (1.0 + leaky_slope**2))))
    weights = [rng.normal(d * d, sigma=std) for _ in range(NUM_LAYERS)]
    vectors = np.repeat([1.0, 0.0, 0.0, 1.0], NUM_LAYERS * d)  # order of _VECTORS
    flat = np.concatenate(weights + [vectors])
    return EumParameters(d, leaky_slope, bn_epsilon, bn_momentum, flat)


def _check_batch(params: EumParameters, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.d:
        raise DimensionMismatch(
            f"batch shape {batch.shape} incompatible with dimension {params.d}"
        )
    return batch


def _leak(x: np.ndarray, slope: float) -> np.ndarray:
    """The LeakyReLU factor of x: 1 where x > 0, slope elsewhere.

    A gather from (slope, 1) by the sign mask: on a random sign pattern,
    np.where costs about three times as much, in branch mispredictions.
    """
    return np.array([slope, 1.0]).take((x > 0).view(np.int8))


def forward_train(params: EumParameters, batch) -> tuple[np.ndarray, ForwardCache]:
    """Training-mode forward pass: BatchNorm uses batch statistics.

    Updates running statistics in place
    (running <- momentum * running + (1 - momentum) * batch).
    Returns the N x d outputs and the cache backward() needs.
    """
    batch = _check_batch(params, batch)
    n = batch.shape[0]
    if n < 2:
        raise BatchTooSmall(f"training forward needs N >= 2, got {n}")

    cache = ForwardCache(batch=batch)
    # batch means, then population variances, one row per layer: the
    # running statistics take them in one update after the loop
    batch_stats = np.empty((2, NUM_LAYERS, params.d))
    h = batch
    for i in range(NUM_LAYERS):
        cache.fc_inputs.append(h)
        z = h @ params.weights[i].T
        mean = np.add.reduce(z, axis=0, out=batch_stats[0, i])
        mean /= n
        centered = z - mean
        var = np.add.reduce(centered**2, axis=0, out=batch_stats[1, i])
        var /= n  # population variance
        inv_std = 1.0 / np.sqrt(var + params.bn_epsilon)
        normalized = centered * inv_std
        post_bn = params.bn_gamma[i] * normalized + params.bn_beta[i]

        cache.pre_bn.append(z)
        cache.bn_mean.append(mean)
        cache.bn_inv_std.append(inv_std)
        cache.bn_normalized.append(normalized)
        cache.post_bn.append(post_bn)

        if i < NUM_LAYERS - 1:
            leak = _leak(post_bn, params.leaky_slope)
            cache.leak.append(leak)
            h = post_bn * leak
        else:
            h = post_bn

    mom = params.bn_momentum
    running = params.flat[trainable_size(params.d):]  # running means, then variances
    running[:] = mom * running + (1.0 - mom) * batch_stats.ravel()
    return h, cache


def forward_infer(params: EumParameters, batch) -> np.ndarray:
    """Inference-mode forward pass: BatchNorm uses running statistics.

    Accepts N >= 1 and never mutates the parameters.
    """
    batch = _check_batch(params, batch)
    h = batch
    for i in range(NUM_LAYERS):
        z = h @ params.weights[i].T
        inv_std = 1.0 / np.sqrt(params.bn_running_var[i] + params.bn_epsilon)
        post_bn = params.bn_gamma[i] * (z - params.bn_running_mean[i]) * inv_std
        post_bn += params.bn_beta[i]
        h = post_bn * _leak(post_bn, params.leaky_slope) if i < NUM_LAYERS - 1 else post_bn
    return h


def backward(params: EumParameters, cache: ForwardCache, grad_outputs) -> ParamGrads:
    """Exact gradients of a scalar loss through the whole network.

    grad_outputs is d(loss)/d(outputs) for the forward_train call that
    produced the cache. Returns gradients for W, gamma, beta of every
    layer plus d(loss)/d(input batch) for diagnostics.
    """
    grad_outputs = np.asarray(grad_outputs, dtype=np.float64)
    if len(cache.pre_bn) != NUM_LAYERS:
        raise CacheMismatch("cache does not hold all layers")
    if grad_outputs.shape != cache.post_bn[-1].shape:
        raise CacheMismatch(
            f"grad shape {grad_outputs.shape} vs outputs {cache.post_bn[-1].shape}"
        )
    if cache.fc_inputs[0].shape[1] != params.d:
        raise CacheMismatch("cache produced for a different dimension")

    n = cache.batch.shape[0]
    grads = ParamGrads(params.d, np.empty(trainable_size(params.d)))
    dxn = np.empty((n, params.d))
    work = np.empty((n, params.d))

    g = grad_outputs
    for i in reversed(range(NUM_LAYERS)):
        if i < NUM_LAYERS - 1:
            g *= cache.leak[i]  # g is the matmul result of the layer above

        # BatchNorm backward with batch-statistics terms
        x_norm = cache.bn_normalized[i]
        np.add.reduce(np.multiply(g, x_norm, out=work), axis=0, out=grads.bn_gamma[i])
        np.add.reduce(g, axis=0, out=grads.bn_beta[i])
        np.multiply(g, params.bn_gamma[i], out=dxn)
        dxn_sum = np.add.reduce(dxn, axis=0)
        proj = np.add.reduce(np.multiply(dxn, x_norm, out=work), axis=0)
        # dz = (inv_std / n) * (n * dxn - dxn_sum - x_norm * proj), in dxn
        dxn *= n
        dxn -= dxn_sum
        dxn -= np.multiply(x_norm, proj, out=work)
        dxn *= cache.bn_inv_std[i] / n

        # FC backward: z = x W^T
        np.matmul(dxn.T, cache.fc_inputs[i], out=grads.weights[i])
        g = dxn @ params.weights[i]

    grads.input_grad = g
    return grads


def sgd_step(params: EumParameters, grads: ParamGrads, lr: float) -> EumParameters:
    """Vanilla SGD update p <- p - lr * g on every trainable array.

    Running BatchNorm statistics are left untouched. Updates in place and
    returns the same object.
    """
    n = trainable_size(params.d)
    if grads.flat.shape != (n,):
        raise ShapeMismatch(f"gradient buffer {grads.flat.shape} vs trainable size {n}")
    params.flat[:n] -= lr * grads.flat
    return params
