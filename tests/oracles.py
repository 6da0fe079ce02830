"""Independent reference implementations used to pin the package's results.

Everything here is deliberately written the slow, obvious way (pure Python,
exhaustive threshold sweeps, pairwise enumeration) so that agreement with
the vectorized package code is meaningful. Rates are integer counts divided
by population sizes, the same final arithmetic as the package, so agreement
is exact, not approximate.

The training-step references (a per-identity triplet sampler, the
layer-by-layer forward and backward formulas) do the same floating-point
operations as the package in the same order, one numpy call per formula,
so the package must match them bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

_SMALL = 32  # below this, count by literal scan and cross-check the bisect path


def _count_below(sorted_vals: list[float], t: float) -> int:
    """How many values are < t."""
    n = bisect_left(sorted_vals, t)
    if len(sorted_vals) <= _SMALL:
        literal = sum(1 for v in sorted_vals if v < t)
        assert literal == n, "bisect disagrees with literal counting"
    return n


def sweep_candidates(genuine, imposter) -> list[float]:
    """Every threshold that could matter: +-inf, each observed score, and
    the midpoint of each consecutive pair of distinct scores."""
    distinct = sorted(set(genuine) | set(imposter))
    cands = [-math.inf] + list(distinct) + [math.inf]
    for a, b in zip(distinct, distinct[1:]):
        cands.append((a + b) / 2.0)
    return sorted(cands)


def rate_pairs(genuine, imposter) -> list[tuple[float, float, float]]:
    """(threshold, fnmr, fmr) at every candidate threshold.

    fnmr = fraction of genuine < t; fmr = fraction of imposter >= t.
    """
    gen = sorted(genuine)
    imp = sorted(imposter)
    out = []
    for t in sweep_candidates(genuine, imposter):
        fnmr = _count_below(gen, t) / len(gen)
        fmr = (len(imp) - _count_below(imp, t)) / len(imp)
        out.append((t, fnmr, fmr))
    return out


def oracle_eer(genuine, imposter) -> float:
    best_gap = None
    best_rate = None
    for _, fnmr, fmr in rate_pairs(genuine, imposter):
        gap = abs(fmr - fnmr)
        if best_gap is None or gap < best_gap:  # strict: lowest threshold wins ties
            best_gap = gap
            best_rate = (fmr + fnmr) / 2.0
    return best_rate


def oracle_eer_threshold(genuine, imposter) -> float:
    """The lowest threshold minimizing |FMR - FNMR| over -inf, every observed
    score and +inf. No midpoints: a midpoint has the counts of the next
    score up, so it would tie with that score and win as the lower one."""
    gen = sorted(genuine)
    imp = sorted(imposter)
    best_gap = None
    best_t = None
    for t in [-math.inf] + sorted(set(genuine) | set(imposter)) + [math.inf]:
        fnmr = _count_below(gen, t) / len(gen)
        fmr = (len(imp) - _count_below(imp, t)) / len(imp)
        gap = abs(fmr - fnmr)
        if best_gap is None or gap < best_gap:  # strict: lowest threshold wins ties
            best_gap = gap
            best_t = t
    return best_t


def oracle_fnmr_at_fmr(genuine, imposter, ceiling: float) -> float:
    feasible = [fnmr for _, fnmr, fmr in rate_pairs(genuine, imposter) if fmr <= ceiling]
    return min(feasible)


def oracle_auc(genuine, imposter) -> float:
    """Rank statistic, ties half; pairwise enumeration on small inputs,
    merge-style counting on large ones (still exact integer counts)."""
    n_pairs = len(genuine) * len(imposter)
    if n_pairs <= 40_000:
        wins = sum(1 for g in genuine for i in imposter if g > i)
        ties = sum(1 for g in genuine for i in imposter if g == i)
    else:
        imp = sorted(imposter)
        wins = 0
        ties = 0
        for g in genuine:
            lo = bisect_left(imp, g)
            hi = bisect_right(imp, g)
            wins += lo
            ties += hi - lo
    return (wins + 0.5 * ties) / n_pairs


def oracle_roc_points(genuine, imposter) -> set[tuple[float, float]]:
    """The achievable (fmr, tpr) operating points as a set."""
    return {(fmr, 1.0 - fnmr) for _, fnmr, fmr in rate_pairs(genuine, imposter)}


def oracle_roc_corners(genuine, imposter) -> list[tuple[float, float]]:
    """The sorted operating points minus the interior points of each run
    of equal tpr, which lie on the segment between the run's ends."""
    points = sorted(oracle_roc_points(genuine, imposter))
    corners = []
    for k, (fmr, tpr) in enumerate(points):
        first = k == 0 or points[k - 1][1] != tpr
        last = k == len(points) - 1 or points[k + 1][1] != tpr
        if first or last:
            corners.append((fmr, tpr))
    return corners


def oracle_fdr(genuine, imposter) -> float:
    def mean(xs):
        return sum(xs) / len(xs)

    def pop_var(xs):
        m = mean(xs)
        return sum((x - m) ** 2 for x in xs) / len(xs)

    return (mean(genuine) - mean(imposter)) ** 2 / (pop_var(genuine) + pop_var(imposter))


def fd_gradient(f, x, h: float = 1e-6):
    """Central finite differences of a scalar function on a numpy array."""
    import numpy as np

    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + h
        fp = f(x)
        x[idx] = old - h
        fm = f(x)
        x[idx] = old
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def rel_err(analytic, numeric, floor: float = 1e-8):
    """max over entries of |a - n| / max(|a|, |n|, floor)."""
    import numpy as np

    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def rng_integers(rng, bound: int, n: int):
    """Next n integers uniform on [0, bound) from a CounterRng: one u01
    draw of n, each uniform scaled by the bound and floored."""
    import numpy as np

    if bound <= 0:
        raise ValueError("bound must be positive")
    return np.array([min(int(u * bound), bound - 1) for u in rng.u01(n)], dtype=np.int64)


def oracle_sample_triplets(dataset, batch_size, rng):
    """Triplet rows (anchor, positive, negative) and identity labels drawn
    the per-identity way: one u01 call per role, one boolean pass per
    identity to list its rows, one list lookup per triplet."""
    import numpy as np

    ids = sorted(set(int(i) for i in dataset.identity))
    masked_rows, unmasked_rows = [], []
    for ident in ids:
        mine = dataset.identity == ident
        masked_rows.append(np.flatnonzero(mine & dataset.masked))
        unmasked_rows.append(np.flatnonzero(mine & ~dataset.masked))
    flat_masked = [(k, r) for k, rows in enumerate(masked_rows) for r in rows]

    def bounded(u, bound):
        return min(int(u * bound), bound - 1)

    u_anchor, u_pos, u_other, u_neg = (rng.u01(batch_size) for _ in range(4))
    anchors, positives, negatives, anchor_ids, negative_ids = [], [], [], [], []
    for j in range(batch_size):
        k, row = flat_masked[bounded(u_anchor[j], len(flat_masked))]
        pos = unmasked_rows[k][bounded(u_pos[j], len(unmasked_rows[k]))]
        other = bounded(u_other[j], len(ids) - 1)
        neg_k = other + (other >= k)
        neg = masked_rows[neg_k][bounded(u_neg[j], len(masked_rows[neg_k]))]
        anchors.append(row)
        positives.append(pos)
        negatives.append(neg)
        anchor_ids.append(ids[k])
        negative_ids.append(ids[neg_k])
    return anchors, positives, negatives, anchor_ids, negative_ids


def oracle_forward_train(params, batch):
    """Training-mode forward pass, one layer at a time with every step
    spelled out. Updates params' running statistics like forward_train and
    returns the outputs and a dict of per-layer lists."""
    import numpy as np

    cache = {k: [] for k in ("fc_inputs", "inv_std", "normalized", "post_bn")}
    h = batch
    mom = params.bn_momentum
    for i in range(4):
        cache["fc_inputs"].append(h)
        z = h @ params.weights[i].T
        mean = z.mean(axis=0)
        var = np.mean((z - mean) ** 2, axis=0)
        inv_std = 1.0 / np.sqrt(var + params.bn_epsilon)
        normalized = (z - mean) * inv_std
        post_bn = params.bn_gamma[i] * normalized + params.bn_beta[i]
        params.bn_running_mean[i] = mom * params.bn_running_mean[i] + (1.0 - mom) * mean
        params.bn_running_var[i] = mom * params.bn_running_var[i] + (1.0 - mom) * var
        cache["inv_std"].append(inv_std)
        cache["normalized"].append(normalized)
        cache["post_bn"].append(post_bn)
        h = np.where(post_bn > 0, post_bn, params.leaky_slope * post_bn) if i < 3 else post_bn
    return h, cache


def oracle_backward(params, cache, grad_outputs):
    """Gradients of sum(outputs * grad_outputs) for oracle_forward_train's
    cache: per-layer lists 'weights', 'gamma', 'beta' and 'input_grad'."""
    import numpy as np

    n = grad_outputs.shape[0]
    grads = {"weights": [None] * 4, "gamma": [None] * 4, "beta": [None] * 4}
    g = grad_outputs
    for i in reversed(range(4)):
        if i < 3:
            g = g * np.where(cache["post_bn"][i] > 0, 1.0, params.leaky_slope)
        x_norm = cache["normalized"][i]
        grads["gamma"][i] = np.sum(g * x_norm, axis=0)
        grads["beta"][i] = np.sum(g, axis=0)
        dxn = g * params.bn_gamma[i]
        dz = (cache["inv_std"][i] / n) * (
            n * dxn - dxn.sum(axis=0) - x_norm * np.sum(dxn * x_norm, axis=0)
        )
        grads["weights"][i] = dz.T @ cache["fc_inputs"][i]
        g = dz @ params.weights[i]
    grads["input_grad"] = g
    return grads


def oracle_forward_infer(params, batch):
    """Inference-mode forward pass with the np.where LeakyReLU."""
    import numpy as np

    h = batch
    for i in range(4):
        z = h @ params.weights[i].T
        inv_std = 1.0 / np.sqrt(params.bn_running_var[i] + params.bn_epsilon)
        post_bn = params.bn_gamma[i] * (z - params.bn_running_mean[i]) * inv_std
        post_bn += params.bn_beta[i]
        h = np.where(post_bn > 0, post_bn, params.leaky_slope * post_bn) if i < 3 else post_bn
    return h


def oracle_gen_dataset(spec):
    """gen_dataset's columns assembled one identity at a time: the same
    block draws and normalizations, then each identity's unmasked rows
    followed by its masked rows."""
    import numpy as np

    from eum import synth
    from eum.rng import CounterRng
    from eum.vecmath import l2_normalize, normalize_rows

    k, n_u, n_m, d = (
        spec.num_identities,
        spec.samples_per_identity_unmasked,
        spec.samples_per_identity_masked,
        spec.d,
    )
    beta = spec.mask_strength

    def noise(stream, rows, sigma):
        return CounterRng(spec.seed, stream).normal(rows * d, sigma=sigma).reshape(rows, d)

    protos = normalize_rows(noise(synth._STREAM_PROTO, k, 1.0))
    mask_dir = l2_normalize(CounterRng(spec.seed, synth._STREAM_MASK_DIR).normal(d))
    unmasked = normalize_rows(
        np.repeat(protos, n_u, axis=0)
        + noise(synth._STREAM_UNMASKED, k * n_u, spec.intra_class_sigma)
    )
    base_units = normalize_rows(
        np.repeat(protos, n_m, axis=0)
        + noise(synth._STREAM_MASKED_BASE, k * n_m, spec.intra_class_sigma)
    )
    mask_units = normalize_rows(
        mask_dir[None, :] + noise(synth._STREAM_MASK_NOISE, k * n_m, spec.mask_noise_sigma)
    )
    masked = normalize_rows((1.0 - beta) * base_units + beta * mask_units)
    split_u = np.repeat(np.arange(len(spec.split)), synth._allocate(n_u, spec.split))
    split_m = np.repeat(np.arange(len(spec.split)), synth._allocate(n_m, spec.split))

    identity, sample, masked_col, split, vectors = [], [], [], [], []
    for ident in range(k):
        for j in range(n_u):
            identity.append(ident)
            sample.append(j)
            masked_col.append(False)
            split.append(split_u[j])
            vectors.append(unmasked[ident * n_u + j])
        for j in range(n_m):
            identity.append(ident)
            sample.append(j)
            masked_col.append(True)
            split.append(split_m[j])
            vectors.append(masked[ident * n_m + j])
    return identity, sample, masked_col, split, np.array(vectors)
