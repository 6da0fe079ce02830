"""Verification metrics: hand values, oracle agreement, protocol contracts."""

import numpy as np
import pytest

import eum.metrics
from eum.errors import (
    DegenerateDistributions,
    DimensionMismatch,
    EmptyScores,
    EmptySet,
)
from eum.fileio import Dataset
from eum.metrics import (
    ScoreSet,
    auc,
    compute_scores,
    eer,
    fdr,
    fnmr_at_fmr,
    means,
    report,
    roc,
)
from eum.model import forward_infer, init_params
from eum.rng import CounterRng
from eum.vecmath import normalize_rows
from oracles import (
    oracle_auc,
    oracle_eer,
    oracle_fdr,
    oracle_fnmr_at_fmr,
    oracle_roc_corners,
    oracle_roc_points,
)


def random_scoreset(seed: int, max_size: int = 120) -> ScoreSet:
    rng = CounterRng(seed, stream=40)
    n_g = 1 + int(rng.u01(1)[0] * max_size)
    n_i = 1 + int(rng.u01(1)[0] * max_size)
    if rng.u01(1)[0] < 0.5:
        # coarse grid forces heavy ties and duplicates
        g = np.round(rng.u01(n_g) * 8) / 4 - 1.0
        i = np.round(rng.u01(n_i) * 8) / 4 - 1.0
    else:
        g = rng.u01(n_g) * 2 - 1
        i = rng.u01(n_i) * 2 - 1
    return ScoreSet(g, i)


def test_eer_hand_values():
    rate, _ = eer(ScoreSet([0.9, 0.8], [0.2, 0.1]))
    assert rate == 0.0
    # overlapping pair: the sweep's best threshold balances FMR 0.5 / FNMR 0.5
    s = ScoreSet([0.9, 0.7], [0.8, 0.2])
    rate, thr = eer(s)
    assert rate == oracle_eer([0.9, 0.7], [0.8, 0.2]) == 0.5
    # identical populations sit at chance
    same = ScoreSet([0.1, 0.5, 0.9], [0.1, 0.5, 0.9])
    rate, _ = eer(same)
    assert abs(rate - 0.5) < 1e-12


def test_eer_threshold_is_lowest_minimizer():
    # every threshold in (0.4, 0.6] gives FMR=FNMR=0; the sweep reports the
    # lowest candidate achieving the optimum
    s = ScoreSet([0.6, 0.8], [0.2, 0.4])
    rate, thr = eer(s)
    assert rate == 0.0
    assert thr == 0.6


def test_fnmr_at_fmr_hand_values():
    assert fnmr_at_fmr(ScoreSet([0.9, 0.8], [0.2, 0.1]), 0.01) == 0.0
    rng = CounterRng(0, stream=41)
    imp = rng.u01(200) * 0.4
    assert fnmr_at_fmr(ScoreSet([0.9], imp), 0.01) == 0.0
    # total inversion: every genuine below every imposter
    assert fnmr_at_fmr(ScoreSet([0.1, 0.2], [0.5, 0.6, 0.7]), 0.01) == 1.0


def test_fnmr_at_fmr_ceiling_validation():
    s = ScoreSet([0.5], [0.1])
    with pytest.raises(ValueError):
        fnmr_at_fmr(s, 0.0)
    with pytest.raises(ValueError):
        fnmr_at_fmr(s, 1.0)


def test_fnmr_non_increasing_in_ceiling():
    for seed in range(30):
        s = random_scoreset(seed)
        vals = [fnmr_at_fmr(s, c) for c in (0.001, 0.01, 0.05, 0.2, 0.5)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_fdr_hand_value():
    value = fdr(ScoreSet([0.8, 1.0], [0.0, 0.2]))
    assert abs(value - 32.0) < 1e-9


def test_fdr_equal_means_is_zero():
    assert fdr(ScoreSet([0.2, 0.4], [0.4, 0.2])) == 0.0


def test_fdr_degenerate_raises():
    with pytest.raises(DegenerateDistributions):
        fdr(ScoreSet([1.0, 1.0], [0.0, 0.0]))


def test_fdr_matches_oracle():
    for seed in range(40):
        s = random_scoreset(seed)
        if np.var(s.genuine) + np.var(s.imposter) == 0:
            continue
        assert abs(fdr(s) - oracle_fdr(list(s.genuine), list(s.imposter))) < 1e-12


def test_means_hand_values_and_shift():
    g, i = means(ScoreSet([0.5], [0.0, 0.2]))
    assert g == 0.5 and abs(i - 0.1) < 1e-15
    s = random_scoreset(3)
    g0, i0 = means(s)
    g1, i1 = means(ScoreSet(s.genuine + 0.25, s.imposter + 0.25))
    assert abs(g1 - (g0 + 0.25)) < 1e-12 and abs(i1 - (i0 + 0.25)) < 1e-12


def test_auc_hand_values():
    assert auc(ScoreSet([0.9, 0.8], [0.2, 0.1])) == 1.0
    assert auc(ScoreSet([0.3, 0.7], [0.3, 0.7])) == 0.5
    assert auc(ScoreSet([0.9, 0.4], [0.6, 0.1])) == 0.75


def test_empty_scores_raise():
    with pytest.raises(EmptyScores):
        eer(ScoreSet([], [0.1]))
    with pytest.raises(EmptyScores):
        auc(ScoreSet([0.1], []))
    with pytest.raises(EmptyScores):
        means(ScoreSet([], []))


def test_oracle_agreement_random_sets():
    for seed in range(200):
        s = random_scoreset(seed)
        g, i = list(s.genuine), list(s.imposter)
        rate, _ = eer(s)
        assert rate == oracle_eer(g, i)
        assert fnmr_at_fmr(s, 0.01) == oracle_fnmr_at_fmr(g, i, 0.01)
        assert fnmr_at_fmr(s, 0.001) == oracle_fnmr_at_fmr(g, i, 0.001)
        assert auc(s) == oracle_auc(g, i)


def test_roc_points_match_oracle_and_bound_auc():
    for seed in range(25):
        s = random_scoreset(seed, max_size=40)
        got = [(float(f), float(t)) for f, t in roc(s)]
        assert got == oracle_roc_corners(list(s.genuine), list(s.imposter))
        assert got[0] == (0.0, 0.0) and got[-1] == (1.0, 1.0)
        assert len(got) <= 2 * s.genuine.size + 2
        # every operating point lies on a horizontal segment between corners
        for fmr, tpr in oracle_roc_points(list(s.genuine), list(s.imposter)):
            run = [f for f, t in got if t == tpr]
            assert min(run) <= fmr <= max(run)
        assert 0.0 <= auc(s) <= 1.0


def test_roc_corners_hand_values():
    # tpr runs 0 -> 1/2 -> 1; the points inside each run are dropped
    s = ScoreSet([0.9, 0.5], [0.8, 0.7, 0.6, 0.4, 0.3, 0.2])
    assert roc(s).tolist() == [
        [0.0, 0.0],
        [0.0, 0.5],
        [0.5, 0.5],
        [0.5, 1.0],
        [1.0, 1.0],
    ]


def test_report_and_roc_sweep_once(monkeypatch):
    calls = []
    unique = np.unique

    def counting_unique(*args, **kwargs):
        calls.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(eum.metrics.np, "unique", counting_unique)
    s = random_scoreset(11)
    report(s)
    roc(s)
    assert len(calls) == 1


def test_monotone_transform_invariance():
    for seed in range(25):
        s = random_scoreset(seed)
        for f in (lambda x: 3.0 * x + 1.0, np.exp, lambda x: x**3 + 0.5 * x):
            t = ScoreSet(f(s.genuine), f(s.imposter))
            assert eer(s)[0] == eer(t)[0]
            assert fnmr_at_fmr(s, 0.01) == fnmr_at_fmr(t, 0.01)
            assert auc(s) == auc(t)


def test_report_bundles_everything():
    rep = report(ScoreSet([0.8, 1.0], [0.0, 0.2]))
    assert abs(rep.fdr - 32.0) < 1e-9
    assert rep.eer == 0.0 and rep.fmr100 == 0.0 and rep.fmr1000 == 0.0 and rep.auc == 1.0
    assert rep.n_genuine == 2 and rep.n_imposter == 2
    d = rep.as_dict()
    assert sorted(d) == [
        "auc",
        "eer",
        "eer_threshold",
        "fdr",
        "fmr100",
        "fmr1000",
        "g_mean",
        "i_mean",
        "n_genuine",
        "n_imposter",
    ]
    assert all(isinstance(v, (int, float)) and not isinstance(v, np.generic) for v in d.values())
    # purity: identical input, identical output
    rep2 = report(ScoreSet([0.8, 1.0], [0.0, 0.2]))
    assert rep == rep2


def tiny_eval_dataset(d: int = 6) -> Dataset:
    rng = CounterRng(5, stream=42)
    vecs = normalize_rows(rng.normal(5 * d).reshape(5, d))
    return Dataset(
        identity=np.array([0, 1, 0, 1, 2]),
        sample=np.arange(5),
        masked=np.array([False, False, True, True, False]),
        split=np.zeros(5, dtype=np.uint8),
        vectors=vecs,
    )


def test_compute_scores_counts_and_values():
    ds = tiny_eval_dataset()
    refs = ds.subset(np.array([True, True, False, False, False]))
    probes = ds.subset(np.array([False, False, True, True, True]))
    scores = compute_scores(refs, probes)
    assert scores.genuine.size + scores.imposter.size == 2 * 3
    assert scores.genuine.size == 2  # ref0-probe0 (id 0), ref1-probe1 (id 1)
    want = normalize_rows(refs.vectors) @ normalize_rows(probes.vectors).T
    assert abs(scores.genuine[0] - want[0, 0]) < 1e-12


def test_compute_scores_eum_switches():
    ds = tiny_eval_dataset()
    refs = ds.subset(np.array([True, True, False, False, False]))
    probes = ds.subset(np.array([False, False, True, True, True]))
    model = init_params(ds.d, seed=3)
    raw = compute_scores(refs, probes)
    with_none = compute_scores(refs, probes, eum=None)
    on = compute_scores(refs, probes, eum=model)
    assert np.array_equal(raw.genuine, with_none.genuine)
    assert not np.allclose(raw.genuine, on.genuine)
    # masked probes are transformed, unmasked rows pass through untouched
    transformed = probes.vectors.copy()
    transformed[probes.masked] = forward_infer(model, probes.vectors[probes.masked])
    want = normalize_rows(refs.vectors) @ normalize_rows(transformed).T
    genuine_mask = refs.identity[:, None] == probes.identity[None, :]
    assert np.allclose(on.genuine, want[genuine_mask], atol=1e-12)


def test_compute_scores_applies_to_masked_references_too():
    ds = tiny_eval_dataset()
    masked_refs = ds.subset(ds.masked)
    probes = ds.subset(~ds.masked)
    model = init_params(ds.d, seed=3)
    on = compute_scores(masked_refs, probes, eum=model)
    transformed = forward_infer(model, masked_refs.vectors)
    want = normalize_rows(transformed) @ normalize_rows(probes.vectors).T
    genuine_mask = masked_refs.identity[:, None] == probes.identity[None, :]
    assert np.allclose(on.genuine, want[genuine_mask], atol=1e-12)


def test_compute_scores_validation():
    ds = tiny_eval_dataset()
    refs = ds.subset(ds.masked)
    probes = ds.subset(~ds.masked)
    with pytest.raises(EmptySet):
        compute_scores(refs.subset(np.zeros(len(refs), dtype=bool)), probes)
    with pytest.raises(DimensionMismatch):
        compute_scores(refs, probes, eum=init_params(ds.d + 2, seed=0))
