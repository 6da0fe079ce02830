"""Synthetic dataset generator: determinism, geometry, splits, reports."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from eum.errors import InvalidSpec, MissingMaskedRecords
from eum.fileio import SPLIT_NAMES
from eum.synth import SynthSpec, gen_dataset, phenomenon_report
from eum.vecmath import normalize_rows
from oracles import oracle_gen_dataset


def small_spec(**overrides) -> SynthSpec:
    base = dict(
        num_identities=20,
        samples_per_identity_unmasked=8,
        samples_per_identity_masked=6,
        d=24,
        seed=11,
    )
    base.update(overrides)
    return SynthSpec(**base)


def test_gen_dataset_counts_and_flags():
    spec = small_spec()
    ds = gen_dataset(spec)
    per_id = spec.samples_per_identity_unmasked + spec.samples_per_identity_masked
    assert len(ds) == spec.num_identities * per_id
    assert ds.d == spec.d
    assert int(np.sum(ds.masked)) == spec.num_identities * spec.samples_per_identity_masked
    for ident in range(spec.num_identities):
        rows = ds.identity == ident
        assert int(np.sum(rows)) == per_id
        # sample ids unique within (identity, masked)
        for masked in (False, True):
            s = ds.sample[rows & (ds.masked == masked)]
            assert len(np.unique(s)) == len(s)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(num_identities=7, samples_per_identity_unmasked=3, samples_per_identity_masked=5),
        dict(num_identities=2, samples_per_identity_unmasked=1, samples_per_identity_masked=1, d=1),
        dict(num_identities=9, d=5, seed=11, split=(0.3, 0.3, 0.2, 0.2)),
    ],
)
def test_gen_dataset_matches_per_identity_oracle(overrides):
    spec = small_spec(**overrides)
    ds = gen_dataset(spec)
    identity, sample, masked, split, vectors = oracle_gen_dataset(spec)
    assert np.array_equal(ds.identity, identity)
    assert np.array_equal(ds.sample, sample)
    assert np.array_equal(ds.masked, masked)
    assert np.array_equal(ds.split, split)
    assert np.array_equal(ds.vectors, vectors)


def test_gen_dataset_rows_are_unit_norm():
    ds = gen_dataset(small_spec())
    norms = np.linalg.norm(ds.vectors, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_gen_dataset_deterministic():
    a = gen_dataset(small_spec())
    b = gen_dataset(small_spec())
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.identity, b.identity)
    assert np.array_equal(a.split, b.split)
    c = gen_dataset(small_spec(seed=12))
    assert not np.array_equal(a.vectors, c.vectors)


def test_split_allocation_partitions_each_identity():
    spec = small_spec(split=(0.5, 0.1, 0.2, 0.2))
    ds = gen_dataset(spec)
    for ident in (0, 7, 19):
        for masked, total in (
            (False, spec.samples_per_identity_unmasked),
            (True, spec.samples_per_identity_masked),
        ):
            rows = (ds.identity == ident) & (ds.masked == masked)
            counts = tuple(
                int(np.sum(rows & (ds.split == code))) for code in range(len(SPLIT_NAMES))
            )
            assert sum(counts) == total
            # largest-remainder allocation of 8: (4,1,2,1); of 6: (3,1,1,1)
            want = (4, 1, 2, 1) if total == 8 else (3, 1, 1, 1)
            assert counts == want


def test_eval_splits_share_identities_not_samples():
    ds = gen_dataset(small_spec())
    ref = ds.for_split("eval_ref")
    probe = ds.for_split("eval_probe")
    assert set(ref.identity) == set(probe.identity)
    ref_keys = set(zip(ref.identity, ref.sample, ref.masked))
    probe_keys = set(zip(probe.identity, probe.sample, probe.masked))
    assert not (ref_keys & probe_keys)


def test_mask_strength_zero_leaves_genuine_scores_alone():
    ds = gen_dataset(small_spec(mask_strength=0.0))
    rep = phenomenon_report(ds)
    assert abs(rep["gmean_ff"] - rep["gmean_fm"]) < 0.02


def test_full_mask_no_noise_collapses_masked_records():
    ds = gen_dataset(small_spec(mask_strength=1.0, mask_noise_sigma=0.0))
    masked = ds.vectors[ds.masked]
    # every masked record equals the one shared mask direction
    assert np.max(np.abs(masked - masked[0])) < 1e-12
    rep = phenomenon_report(ds)
    assert abs(rep["gmean_fm"] - rep["imean_fm"]) < 1e-9


def test_mask_depresses_genuine_keeps_imposters():
    rep = phenomenon_report(gen_dataset(small_spec()))
    assert rep["gmean_ff"] - rep["gmean_fm"] > 0.05
    assert abs(rep["imean_ff"] - rep["imean_fm"]) < 0.05


def test_phenomenon_report_matches_brute_force():
    ds = gen_dataset(small_spec(num_identities=9, d=12))
    rep = phenomenon_report(ds)
    u = normalize_rows(ds.vectors[~ds.masked])
    m = normalize_rows(ds.vectors[ds.masked])
    uid, mid = ds.identity[~ds.masked], ds.identity[ds.masked]
    s_ff = u @ u.T
    same = uid[:, None] == uid[None, :]
    upper = np.triu(np.ones_like(same), 1).astype(bool)
    s_fm = u @ m.T
    same_fm = uid[:, None] == mid[None, :]
    assert abs(rep["gmean_ff"] - s_ff[same & upper].mean()) < 1e-12
    assert abs(rep["imean_ff"] - s_ff[~same & upper].mean()) < 1e-12
    assert abs(rep["gmean_fm"] - s_fm[same_fm].mean()) < 1e-12
    assert abs(rep["imean_fm"] - s_fm[~same_fm].mean()) < 1e-12


def test_phenomenon_report_requires_both_kinds():
    ds = gen_dataset(small_spec())
    with pytest.raises(MissingMaskedRecords):
        phenomenon_report(ds.subset(~ds.masked))
    with pytest.raises(MissingMaskedRecords):
        phenomenon_report(ds.subset(ds.masked))


def test_invalid_specs_rejected():
    bad = [
        small_spec(num_identities=1),
        small_spec(samples_per_identity_unmasked=0),
        small_spec(samples_per_identity_masked=0),
        small_spec(d=0),
        small_spec(intra_class_sigma=-0.1),
        small_spec(mask_strength=1.5),
        small_spec(mask_strength=-0.1),
        small_spec(mask_noise_sigma=-1.0),
        small_spec(split=(0.7, 0.1, 0.1, 0.2)),
        small_spec(split=(0.5, 0.3, -0.1, 0.3)),
    ]
    for spec in bad:
        with pytest.raises(InvalidSpec):
            gen_dataset(spec)


def test_spec_dict_round_trip():
    spec = small_spec(mask_strength=0.4)
    # as gen-data's manifest stores it: asdict through JSON, split as a list
    stored = json.loads(json.dumps(asdict(spec)))
    again = SynthSpec(**{**stored, "split": tuple(stored["split"])})
    assert again == spec
