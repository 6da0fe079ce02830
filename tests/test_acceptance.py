"""Acceptance gate: eight end-to-end checks, one test each.

Each test prints a single `[acceptance k/8] ... PASS` line (visible with -s,
or in captured output) and enforces its own runtime budget where one applies.
The heavyweight training comparison is shared between checks 5 and 6 through
a module-scoped fixture, so the pipeline trains exactly once.
"""

import time

import numpy as np
import pytest

from oracles import (
    fd_gradient,
    oracle_auc,
    oracle_eer,
    oracle_fdr,
    oracle_fnmr_at_fmr,
    rel_err,
    rng_integers,
)

from eum.cli import main
from eum.fileio import write_embeddings
from eum.losses import Branch, compute_distances, srt_loss, triplet_loss
from eum.metrics import ScoreSet, auc, eer, fdr, fnmr_at_fmr
from eum.model import backward, forward_train, init_params
from eum.rng import CounterRng
from eum.synth import SynthSpec, gen_dataset
from eum.vecmath import normalize_rows


# ---------------------------------------------------------------------------
# 1. analytic gradients of the full pipeline vs central finite differences


def _pipeline_loss(params, anchors, positives, negatives, loss_fn, margin):
    out, _ = forward_train(params, normalize_rows(anchors))
    dist = compute_distances(out, positives, negatives)
    return loss_fn(dist, margin).loss


def _kink_free_case(d, n, seed, kind, margin):
    """Random parameters and batch (raw anchors, unit positives and
    negatives) whose hinge arguments, LeakyReLU inputs and branch decision
    all sit at least 1e-4 away from their kinks, so a 1e-6
    finite-difference step cannot cross one. Bumps the seed until a safe
    configuration appears.

    bn_epsilon is raised to 0.25 here, for conditioning only. At N=2 the
    batch-normalized value of every unit is +-t/sqrt(t^2+eps) with
    t = (z1-z2)/2, which saturates for |t| >> sqrt(eps): with a small eps
    true gradients through the early layers collapse to ~1e-9, below what a
    64-bit central difference at h=1e-6 can measure (rounding noise ~5e-10).
    A large epsilon keeps the curve un-saturated so gradients stay at
    checkable magnitudes; the backward pass treats epsilon symmetrically,
    so correctness at 0.25 is correctness of the formula."""
    for bump in range(50):
        s = seed + 1009 * bump
        rng = CounterRng(s, stream=61)
        params = init_params(d, s, bn_epsilon=0.25)
        for i in range(4):
            params.bn_gamma[i] = 1.0 + 0.2 * rng.normal(d)
            params.bn_beta[i] = 0.1 * rng.normal(d)
        anchors = rng.normal(n * d).reshape(n, d)
        positives = normalize_rows(rng.normal(n * d).reshape(n, d))
        negatives = normalize_rows(rng.normal(n * d).reshape(n, d))

        out, cache = forward_train(params.copy(), normalize_rows(anchors))
        if min(float(np.min(np.abs(x))) for x in cache.post_bn) < 1e-4:
            continue
        dist = compute_distances(out, positives, negatives)
        mu2, mu3 = float(np.mean(dist.d2)), float(np.mean(dist.d3))
        if kind == "srt" and abs(mu2 - mu3) < 1e-4:
            continue
        if kind == "triplet" or mu2 < mu3:
            args = dist.d1 - dist.d2 + margin
        else:
            args = dist.d1 - mu3 + margin
        if float(np.min(np.abs(args))) < 1e-4:
            continue
        return params, anchors, positives, negatives
    raise AssertionError(f"no kink-free case for d={d} n={n} seed={seed}")


def test_acceptance_1_gradients_match_finite_differences():
    start = time.perf_counter()
    margin = 0.2
    h = 1e-6
    # relative-error floor: coordinates whose true gradient is below 1e-5
    # are held to 1e-9 absolute (floor * tolerance), the accuracy limit of
    # 64-bit central differences at this step size
    floor = 1e-5
    worst = 0.0
    cases = 0
    branches_seen = set()
    for d in (4, 16):
        for n in (2, 8):
            for seed in range(20):
                kind = "triplet" if seed % 2 == 0 else "srt"
                fn = triplet_loss if kind == "triplet" else srt_loss
                params, anchors, positives, negatives = _kink_free_case(
                    d, n, seed + 10_000 * (d * 10 + n), kind, margin
                )

                out, cache = forward_train(params, normalize_rows(anchors))
                dist = compute_distances(out, positives, negatives)
                res = fn(dist, margin)
                if kind == "srt":
                    branches_seen.add(res.branch)
                grads = backward(params, cache, res.grad_anchor_out)

                # chain the input gradient back through the row normalization
                # so the finite differences can perturb the raw anchors
                u = normalize_rows(anchors)
                norms = np.linalg.norm(anchors, axis=1, keepdims=True)
                proj = np.sum(grads.input_grad * u, axis=1, keepdims=True)
                g_raw = (grads.input_grad - proj * u) / norms

                def f(_arr):
                    return _pipeline_loss(
                        params, anchors, positives, negatives, fn, margin
                    )

                for i in range(4):
                    worst = max(
                        worst,
                        rel_err(grads.weights[i], fd_gradient(f, params.weights[i], h), floor),
                    )
                    worst = max(
                        worst,
                        rel_err(grads.bn_gamma[i], fd_gradient(f, params.bn_gamma[i], h), floor),
                    )
                    worst = max(
                        worst,
                        rel_err(grads.bn_beta[i], fd_gradient(f, params.bn_beta[i], h), floor),
                    )
                worst = max(worst, rel_err(g_raw, fd_gradient(f, anchors, h), floor))
                cases += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-4, f"worst relative error {worst:.3e}"
    assert branches_seen == {Branch.TRIPLET, Branch.SWAP}
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    print(
        f"[acceptance 1/8] full-pipeline gradients vs finite differences: "
        f"max rel err {worst:.3e} over {cases} cases ({elapsed:.1f}s) PASS"
    )


# ---------------------------------------------------------------------------
# 2. metric implementations vs exhaustive threshold-sweep oracle


def _tie_rich_scores(rng, n):
    coarse = np.round(rng.u01(n) * 8.0) / 8.0
    fine = rng.u01(n)
    return np.where(rng.u01(n) < 0.5, coarse, fine)


def test_acceptance_2_metrics_match_sweep_oracle():
    start = time.perf_counter()
    rng = CounterRng(2024, stream=71)
    forced_sizes = [(1, 1), (1, 5), (5, 1), (2, 2)]
    n_sets = 1000
    for case in range(n_sets):
        if case < len(forced_sizes):
            n_g, n_i = forced_sizes[case]
        else:
            n_g = 1 + int(rng_integers(rng, 500, 1)[0])
            n_i = 1 + int(rng_integers(rng, 500, 1)[0])
        g = _tie_rich_scores(rng, n_g)
        im = _tie_rich_scores(rng, n_i)
        ss = ScoreSet(genuine=g, imposter=im)
        gl, il = g.tolist(), im.tolist()
        assert eer(ss)[0] == oracle_eer(gl, il)
        assert fnmr_at_fmr(ss, 0.01) == oracle_fnmr_at_fmr(gl, il, 0.01)
        assert fnmr_at_fmr(ss, 0.001) == oracle_fnmr_at_fmr(gl, il, 0.001)
        assert auc(ss) == oracle_auc(gl, il)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"metric oracle sweep took {elapsed:.1f}s"
    print(
        f"[acceptance 2/8] eer/fmr100/fmr1000/auc equal the exhaustive "
        f"sweep oracle on {n_sets} score sets ({elapsed:.1f}s) PASS"
    )


# ---------------------------------------------------------------------------
# 3. Fisher discriminant ratio hand value


def test_acceptance_3_fdr_hand_value():
    ss = ScoreSet(genuine=np.array([0.8, 1.0]), imposter=np.array([0.0, 0.2]))
    value = fdr(ss)
    assert abs(value - 32.0) < 1e-9
    assert abs(oracle_fdr([0.8, 1.0], [0.0, 0.2]) - 32.0) < 1e-9
    print(f"[acceptance 3/8] fdr({{0.8,1.0}} vs {{0.0,0.2}}) = {value!r} PASS")


# ---------------------------------------------------------------------------
# 4. loss branch equivalence and swap-branch independence from negatives


def _random_triple(rng, n, d):
    """Raw anchor outputs, unit positives and unit negatives."""
    anchors = rng.normal(n * d).reshape(n, d)
    positives = normalize_rows(rng.normal(n * d).reshape(n, d))
    negatives = normalize_rows(rng.normal(n * d).reshape(n, d))
    return anchors, positives, negatives


def _reflect_negatives(dist, negatives, rng):
    """Householder-reflect each negative in a direction orthogonal to both
    its positive and its anchor: every d2 and d3 entry (hence both means and
    the branch decision) is preserved while the negative vectors themselves
    change."""
    n, d = negatives.shape
    new = np.empty_like(negatives)
    for i in range(n):
        p = dist.unit_pos[i]
        a = dist.unit_anchor[i]
        q = a - (a @ p) * p
        q /= np.linalg.norm(q)
        w = rng.normal(d)
        v = w - (w @ p) * p
        v -= (v @ q) * q
        v /= np.linalg.norm(v)
        new[i] = negatives[i] - 2.0 * (negatives[i] @ v) * v
    return new


def test_acceptance_4_branch_equivalence_and_swap_independence():
    margin = 1.0
    rng = CounterRng(7, stream=72)
    n, d = 4, 8
    triplet_checked = 0
    swap_checked = 0
    attempts = 0
    worst_pair = 0.0
    worst_swap = 0.0
    while (triplet_checked < 1000 or swap_checked < 1000) and attempts < 20000:
        attempts += 1
        anchors, positives, negatives = _random_triple(rng, n, d)
        dist = compute_distances(anchors, positives, negatives)
        mu2, mu3 = float(np.mean(dist.d2)), float(np.mean(dist.d3))
        if abs(mu2 - mu3) < 1e-6:
            continue
        if mu2 < mu3 and triplet_checked < 1000:
            s = srt_loss(dist, margin)
            t = triplet_loss(dist, margin)
            assert s.branch is Branch.TRIPLET
            worst_pair = max(
                worst_pair,
                abs(s.loss - t.loss),
                float(np.max(np.abs(s.grad_anchor_out - t.grad_anchor_out))),
            )
            triplet_checked += 1
        elif mu2 >= mu3 and swap_checked < 1000:
            s = srt_loss(dist, margin)
            assert s.branch is Branch.SWAP
            moved = _reflect_negatives(dist, negatives, rng)
            assert not np.allclose(moved, negatives)
            dist2 = compute_distances(anchors, positives, moved)
            s2 = srt_loss(dist2, margin)
            assert s2.branch is Branch.SWAP
            worst_swap = max(
                worst_swap,
                abs(s.loss - s2.loss),
                float(np.max(np.abs(s.grad_anchor_out - s2.grad_anchor_out))),
            )
            swap_checked += 1
    assert triplet_checked == 1000 and swap_checked == 1000
    assert worst_pair <= 1e-12, f"branch mismatch {worst_pair:.3e}"
    assert worst_swap <= 1e-12, f"swap leaked negative gradient {worst_swap:.3e}"
    print(
        f"[acceptance 4/8] srt==triplet on 1000 separated-means batches "
        f"(max diff {worst_pair:.1e}); swap loss/gradient invariant to "
        f"d3-preserving negative moves on 1000 batches (max diff {worst_swap:.1e}) PASS"
    )


# ---------------------------------------------------------------------------
# 5 & 6. training comparison on the default synthetic dataset (shared run)


@pytest.fixture(scope="module")
def compare_run(tmp_path_factory):
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("acceptance_compare")
    data = root / "default.emb"
    write_embeddings(data, gen_dataset(SynthSpec()))
    out = root / "cmp"
    rc = main(["compare", "--data", str(data), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    return out, elapsed


def _history_distances(path):
    rows = path.read_text().splitlines()
    first = rows[1].split(",")
    last = rows[-1].split(",")
    return (float(first[2]), float(first[3])), (float(last[2]), float(last[3]))


def test_acceptance_5_srt_restrains_distances(compare_run):
    out, elapsed = compare_run
    (d1_first_t, d2_first_t), (d1_last_t, d2_last_t) = _history_distances(
        out / "history_triplet.csv"
    )
    (d1_first_s, d2_first_s), (d1_last_s, d2_last_s) = _history_distances(
        out / "history_srt.csv"
    )
    assert d1_first_s == d1_first_t and d2_first_s == d2_first_t  # same batches
    assert d1_last_s < d1_last_t, (
        f"final mean d1: srt {d1_last_s:.4f} vs triplet {d1_last_t:.4f}"
    )
    dev_s = abs(d2_last_s - d2_first_s)
    dev_t = abs(d2_last_t - d2_first_t)
    assert dev_s < dev_t, f"d2 deviation: srt {dev_s:.4f} vs triplet {dev_t:.4f}"
    # the qualitative shape: d1 pulled well down, d2 roughly held in place
    assert d1_last_s < 0.7 * d1_first_s
    assert dev_s < 0.25 * d2_first_s
    assert elapsed < 300.0, f"comparison run took {elapsed:.1f}s"
    print(
        f"[acceptance 5/8] final mean d1 srt {d1_last_s:.3f} < triplet "
        f"{d1_last_t:.3f}; d2 drift srt {dev_s:.3f} < triplet {dev_t:.3f} "
        f"({elapsed:.1f}s) PASS"
    )


def _compare_table(path):
    table = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("setting,"):
            continue
        cells = line.split(",")
        table[(cells[0], cells[1])] = {
            "eer": float(cells[2]),
            "fdr": float(cells[7]),
        }
    return table


def test_acceptance_6_srt_beats_baseline_and_triplet(compare_run):
    out, elapsed = compare_run
    table = _compare_table(out / "compare.csv")
    for setting in ("fm", "mm"):
        srt = table[(setting, "srt")]
        for rival in ("baseline", "triplet"):
            other = table[(setting, rival)]
            assert srt["eer"] < other["eer"], (
                f"{setting}: srt eer {srt['eer']:.4f} !< {rival} {other['eer']:.4f}"
            )
            assert srt["fdr"] > other["fdr"], (
                f"{setting}: srt fdr {srt['fdr']:.4f} !> {rival} {other['fdr']:.4f}"
            )
    assert elapsed < 600.0, f"comparison run took {elapsed:.1f}s"
    fm, mm = table[("fm", "srt")], table[("mm", "srt")]
    print(
        f"[acceptance 6/8] srt wins eer and fdr on fm "
        f"(eer {fm['eer']:.4f}, fdr {fm['fdr']:.2f}) and mm "
        f"(eer {mm['eer']:.4f}, fdr {mm['fdr']:.2f}) ({elapsed:.1f}s) PASS"
    )


# ---------------------------------------------------------------------------
# 7. byte-level determinism of data generation and training


def test_acceptance_7_reruns_byte_identical(tmp_path):
    gen_args = [
        "--identities", "16", "--unmasked-per-id", "6", "--masked-per-id", "6",
        "--dim", "8", "--seed", "13",
    ]
    train_args = [
        "--batch-size", "16", "--max-iters", "80", "--val-every", "40",
        "--patience", "5", "--seed", "3",
    ]
    a, b = tmp_path / "a.emb", tmp_path / "b.emb"
    assert main(["gen-data", "--out", str(a)] + gen_args) == 0
    assert main(["gen-data", "--out", str(b)] + gen_args) == 0
    assert a.read_bytes() == b.read_bytes()

    run1, run2 = tmp_path / "r1", tmp_path / "r2"
    for out in (run1, run2):
        rc = main(["train", "--data", str(a), "--out", str(out)] + train_args)
        assert rc == 0
    for name in ("model.eum", "history.csv", "manifest.json"):
        assert (run1 / name).read_bytes() == (run2 / name).read_bytes()
    print(
        "[acceptance 7/8] gen-data and train reruns are byte-identical "
        "(dataset, checkpoint, history, manifest) PASS"
    )


# ---------------------------------------------------------------------------
# 8. cosine and negative squared euclidean rank pairs identically


def test_acceptance_8_score_protocols_equivalent():
    rng = CounterRng(99, stream=81)
    n_datasets = 100
    for _ in range(n_datasets):
        k = 3 + int(rng_integers(rng, 6, 1)[0])
        per = 2 + int(rng_integers(rng, 4, 1)[0])
        d = 6 + int(rng_integers(rng, 10, 1)[0])
        protos = rng.normal(k * d).reshape(k, d)
        ids = np.repeat(np.arange(k), per)

        def sample_side():
            noise = 0.3 * rng.normal(k * per * d).reshape(k * per, d)
            return normalize_rows(protos[ids] + noise)

        refs, probes = sample_side(), sample_side()
        genuine_mask = ids[:, None] == ids[None, :]

        cos = refs @ probes.T
        diff = refs[:, None, :] - probes[None, :, :]
        neg_sq = -np.sum(diff * diff, axis=2)

        ss_cos = ScoreSet(genuine=cos[genuine_mask], imposter=cos[~genuine_mask])
        ss_nsq = ScoreSet(genuine=neg_sq[genuine_mask], imposter=neg_sq[~genuine_mask])
        assert eer(ss_cos)[0] == eer(ss_nsq)[0]
        assert fnmr_at_fmr(ss_cos, 0.01) == fnmr_at_fmr(ss_nsq, 0.01)
        assert fnmr_at_fmr(ss_cos, 0.001) == fnmr_at_fmr(ss_nsq, 0.001)
        assert auc(ss_cos) == auc(ss_nsq)
    print(
        f"[acceptance 8/8] cosine and negative squared-euclidean scoring "
        f"give identical eer/fmr100/fmr1000/auc on {n_datasets} datasets PASS"
    )
