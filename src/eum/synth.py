"""Deterministic synthetic embedding datasets.

Each identity gets a prototype on the unit sphere; unmasked samples are
noisy copies of the prototype, re-normalized. Masked samples blend a fresh
noisy copy with a single dataset-wide "mask direction", which drags genuine
(same-identity) similarities down while barely moving imposter similarities
— the signature the whole toolkit exists to correct.

All randomness flows through fixed counter-generator streams, so a spec with
the same seed always yields the same records in the same order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidSpec, MissingMaskedRecords
from .fileio import SPLIT_NAMES, Dataset
from .rng import CounterRng
from .vecmath import l2_normalize, normalize_rows

_STREAM_PROTO = 21
_STREAM_MASK_DIR = 22
_STREAM_UNMASKED = 23
_STREAM_MASKED_BASE = 24
_STREAM_MASK_NOISE = 25


@dataclass
class SynthSpec:
    num_identities: int = 1000
    samples_per_identity_unmasked: int = 20
    samples_per_identity_masked: int = 20
    d: int = 64
    intra_class_sigma: float = 0.12
    mask_strength: float = 0.55  # blend weight toward the mask direction
    mask_noise_sigma: float = 0.05
    seed: int = 7
    split: tuple[float, float, float, float] = (0.5, 0.1, 0.2, 0.2)

    def validate(self) -> None:
        if self.num_identities < 2:
            raise InvalidSpec(f"need >= 2 identities, got {self.num_identities}")
        if self.samples_per_identity_unmasked < 1 or self.samples_per_identity_masked < 1:
            raise InvalidSpec("need >= 1 unmasked and >= 1 masked sample per identity")
        if self.d < 1:
            raise InvalidSpec(f"dimension must be >= 1, got {self.d}")
        if self.intra_class_sigma < 0 or self.mask_noise_sigma < 0:
            raise InvalidSpec("sigmas must be >= 0")
        if not 0.0 <= self.mask_strength <= 1.0:
            raise InvalidSpec(f"mask_strength must be in [0, 1], got {self.mask_strength}")
        if len(self.split) != len(SPLIT_NAMES):
            raise InvalidSpec(f"split needs {len(SPLIT_NAMES)} fractions")
        if any(f < 0 for f in self.split) or abs(sum(self.split) - 1.0) > 1e-9:
            raise InvalidSpec(f"split fractions must be >= 0 and sum to 1, got {self.split}")

    def as_dict(self) -> dict:
        out = asdict(self)
        out["split"] = list(self.split)
        return out


def _allocate(n: int, fractions) -> np.ndarray:
    """Largest-remainder allocation of n items over the split fractions.

    Ties go to the earlier split, so the result is deterministic.
    """
    exact = np.asarray(fractions, dtype=np.float64) * n
    base = np.floor(exact).astype(np.int64)
    rest = n - int(base.sum())
    order = np.lexsort((np.arange(len(base)), -(exact - base)))
    for k in order[:rest]:
        base[k] += 1
    return base


def _split_column(counts: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(counts), dtype=np.uint8), counts)


def gen_dataset(spec: SynthSpec) -> Dataset:
    """Generate all records for a spec: identity-major, unmasked block first."""
    spec.validate()
    k = spec.num_identities
    n_u = spec.samples_per_identity_unmasked
    n_m = spec.samples_per_identity_masked
    d = spec.d
    beta = spec.mask_strength

    protos = normalize_rows(
        CounterRng(spec.seed, _STREAM_PROTO).normal(k * d).reshape(k, d)
    )
    mask_dir = l2_normalize(CounterRng(spec.seed, _STREAM_MASK_DIR).normal(d))

    noise_u = CounterRng(spec.seed, _STREAM_UNMASKED).normal(
        k * n_u * d, sigma=spec.intra_class_sigma
    ).reshape(k * n_u, d)
    unmasked = normalize_rows(np.repeat(protos, n_u, axis=0) + noise_u)

    noise_b = CounterRng(spec.seed, _STREAM_MASKED_BASE).normal(
        k * n_m * d, sigma=spec.intra_class_sigma
    ).reshape(k * n_m, d)
    base_units = normalize_rows(np.repeat(protos, n_m, axis=0) + noise_b)
    noise_m = CounterRng(spec.seed, _STREAM_MASK_NOISE).normal(
        k * n_m * d, sigma=spec.mask_noise_sigma
    ).reshape(k * n_m, d)
    mask_units = normalize_rows(mask_dir[None, :] + noise_m)
    masked = normalize_rows((1.0 - beta) * base_units + beta * mask_units)

    per = n_u + n_m
    split_u = _split_column(_allocate(n_u, spec.split))
    split_m = _split_column(_allocate(n_m, spec.split))
    identity = np.repeat(np.arange(k, dtype=np.int64), per)
    sample = np.tile(np.concatenate([np.arange(n_u), np.arange(n_m)]), k)
    masked_col = np.tile(np.arange(per) >= n_u, k)
    split = np.tile(np.concatenate([split_u, split_m]), k)
    vectors = np.concatenate(
        [unmasked.reshape(k, n_u, d), masked.reshape(k, n_m, d)], axis=1
    ).reshape(k * per, d)

    return Dataset(identity, sample, masked_col, split, vectors)


def phenomenon_report(dataset: Dataset) -> dict[str, float]:
    """Mean genuine/imposter cosines, unmasked-unmasked vs unmasked-masked.

    gmean_* average same-identity pair scores, imean_* different-identity
    pair scores; the ff pairing excludes self-pairs.
    """
    is_masked = dataset.masked
    if not np.any(is_masked):
        raise MissingMaskedRecords("dataset holds no masked records")
    if not np.any(~is_masked):
        raise MissingMaskedRecords("dataset holds no unmasked records")

    u_vec = normalize_rows(dataset.vectors[~is_masked])
    m_vec = normalize_rows(dataset.vectors[is_masked])
    u_id = dataset.identity[~is_masked]
    m_id = dataset.identity[is_masked]

    # Pair-sum identities keep memory at O(n*d): for unit rows, the sum of
    # all pairwise cosines inside a group equals (|sum of rows|^2 - count)/2,
    # and the sum over a cross product of two groups is a dot of group sums.
    idents, d = np.unique(np.concatenate([u_id, m_id])), dataset.d
    u_idx = np.searchsorted(idents, u_id)
    m_idx = np.searchsorted(idents, m_id)
    u_sums = np.zeros((idents.size, d))
    m_sums = np.zeros((idents.size, d))
    np.add.at(u_sums, u_idx, u_vec)
    np.add.at(m_sums, m_idx, m_vec)
    u_counts = np.bincount(u_idx, minlength=idents.size).astype(np.float64)
    m_counts = np.bincount(m_idx, minlength=idents.size).astype(np.float64)

    n_u = float(u_vec.shape[0])
    total_ff = (u_sums.sum(axis=0) @ u_sums.sum(axis=0) - n_u) / 2.0
    genuine_ff = float(np.sum(np.einsum("ij,ij->i", u_sums, u_sums) - u_counts)) / 2.0
    n_pairs_ff = n_u * (n_u - 1.0) / 2.0
    n_genuine_ff = float(np.sum(u_counts * (u_counts - 1.0))) / 2.0
    gmean_ff = genuine_ff / n_genuine_ff
    imean_ff = (total_ff - genuine_ff) / (n_pairs_ff - n_genuine_ff)

    total_fm = float(u_sums.sum(axis=0) @ m_sums.sum(axis=0))
    genuine_fm = float(np.sum(np.einsum("ij,ij->i", u_sums, m_sums)))
    n_pairs_fm = n_u * float(m_vec.shape[0])
    n_genuine_fm = float(u_counts @ m_counts)
    gmean_fm = genuine_fm / n_genuine_fm
    imean_fm = (total_fm - genuine_fm) / (n_pairs_fm - n_genuine_fm)

    return {
        "gmean_ff": gmean_ff,
        "gmean_fm": gmean_fm,
        "imean_ff": imean_ff,
        "imean_fm": imean_fm,
    }
