"""Verification metrics: hand values, oracle agreement, protocol contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    oracle_eer_threshold,
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


def test_report_and_roc_sort_the_imposters_once(monkeypatch):
    s = random_scoreset(12)
    n_gen, n_imp = s.genuine.size, s.imposter.size
    assert n_imp not in (n_gen, n_gen + 1)  # so a sort's size names its population
    sorted_sizes, searched_sizes = [], []

    def recording(fn, sizes):
        def wrapped(*args, **kwargs):
            sizes.extend(np.size(a) for a in args[:2])
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(eum.metrics.np, "sort", recording(np.sort, sorted_sizes))
    monkeypatch.setattr(eum.metrics.np, "unique", recording(np.unique, searched_sizes))
    monkeypatch.setattr(
        eum.metrics.np, "searchsorted", recording(np.searchsorted, searched_sizes)
    )
    report(s)
    roc(s)
    assert sorted_sizes.count(n_imp) == 1
    # no sweep over every score: each call sees one population or fewer keys
    assert searched_sizes and max(searched_sizes) < n_gen + n_imp


TIE_RICH = st.lists(
    st.one_of(st.sampled_from([k / 8 for k in range(-8, 9)]), st.floats(-1.0, 1.0)),
    min_size=1,
    max_size=40,
)


def assert_matches_oracles(genuine, imposter):
    s = ScoreSet(genuine, imposter)
    rate, thr = eer(s)
    assert rate == oracle_eer(genuine, imposter)
    assert thr == oracle_eer_threshold(genuine, imposter)
    got = [(float(f), float(t)) for f, t in roc(s)]
    assert got == oracle_roc_corners(genuine, imposter)
    n_imp = len(imposter)
    for k in range(1, n_imp):
        # ceilings on an achievable FMR test the boundary of "within"
        want = oracle_fnmr_at_fmr(genuine, imposter, k / n_imp)
        assert fnmr_at_fmr(s, k / n_imp) == want
    return rate, thr


@settings(max_examples=300, deadline=None)
@given(genuine=TIE_RICH, imposter=TIE_RICH)
def test_eer_threshold_roc_and_fnmr_match_oracles_property(genuine, imposter):
    assert_matches_oracles(genuine, imposter)


@pytest.mark.parametrize(
    "genuine, imposter, want_eer, want_thr",
    [
        # one genuine score: the crossing run lies above it, at an imposter
        ([0.5], [0.2, 0.5, 0.7, 0.9], 0.75, 0.7),
        # one imposter
        ([0.3, 0.6, 0.8, 0.9], [0.6], 0.25, 0.8),
        # all scores equal: every threshold gives |gap| 1, so -inf wins
        ([0.4, 0.4], [0.4, 0.4, 0.4, 0.4], 0.5, -math.inf),
        # every genuine score below every imposter, and the reverse
        ([0.1, 0.2], [0.5, 0.6, 0.7, 0.8], 1.0, 0.5),
        ([0.5, 0.6, 0.7, 0.8], [0.1, 0.2], 0.0, 0.5),
        # FMR = FNMR exactly at a genuine score
        ([0.2, 0.6, 0.8, 0.9], [0.1, 0.3, 0.5, 0.7], 0.25, 0.6),
        # the lowest score genuine, then the lowest score an imposter
        ([0.1, 0.7], [0.3, 0.5, 0.9, 0.95], 0.5, 0.7),
        ([0.4, 0.8], [0.1, 0.6, 0.7, 0.9], 0.5, 0.7),
    ],
)
def test_eer_threshold_roc_and_fnmr_edge_cases(genuine, imposter, want_eer, want_thr):
    assert assert_matches_oracles(genuine, imposter) == (want_eer, want_thr)


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
    # probes off the unit sphere, and a model that is not positively
    # homogeneous, so feeding it raw rows instead of unit rows shows
    probes.vectors *= 3.0
    model = init_params(ds.d, seed=3)
    model.bn_running_mean[:] = 0.25
    raw = compute_scores(refs, probes)
    with_none = compute_scores(refs, probes, eum=None)
    on = compute_scores(refs, probes, eum=model)
    assert np.array_equal(raw.genuine, with_none.genuine)
    assert not np.allclose(raw.genuine, on.genuine)
    # masked probes are transformed from their unit rows, unmasked rows
    # pass through untouched
    transformed = normalize_rows(probes.vectors)
    transformed[probes.masked] = forward_infer(model, transformed[probes.masked])
    want = normalize_rows(refs.vectors) @ normalize_rows(transformed).T
    genuine_mask = refs.identity[:, None] == probes.identity[None, :]
    assert np.allclose(on.genuine, want[genuine_mask], atol=1e-12)
    assert np.allclose(on.imposter, want[~genuine_mask], atol=1e-12)


def test_compute_scores_applies_to_masked_references_too():
    ds = tiny_eval_dataset()
    masked_refs = ds.subset(ds.masked)
    probes = ds.subset(~ds.masked)
    model = init_params(ds.d, seed=3)
    on = compute_scores(masked_refs, probes, eum=model)
    transformed = forward_infer(model, normalize_rows(masked_refs.vectors))
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
