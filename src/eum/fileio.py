"""Binary and CSV dataset files, model checkpoints.

Embedding files: magic ``EMB1``, u32 version (=1), u32 d, u64 count, then
per record u32 identity, u32 sample, u8 masked, u8 split, f32*d vector.
Checkpoints: magic ``EUM1``, u32 version (=1), u32 d, f64 leaky slope,
f64 bn epsilon, f64 bn momentum, then per layer W (row-major), b, gamma,
beta, running_mean, running_var, all f32. Everything little-endian. The
model has no b: it is written as zeros, and a stored b is folded into
running_mean on read. Malformed files, NaN or Inf values included, raise
CorruptRecord with the byte offset of the first bad record, layer or header
field (for CSV, its line number). A checkpoint header must hold a finite
slope, an epsilon in (0, inf) and a momentum in [0, 1].

Vectors are float64 in memory and f32 on disk; a write/read round trip is
lossless at 32-bit precision.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    BadMagic,
    CorruptRecord,
    DimensionMismatch,
    IoError,
    VersionUnsupported,
)
from .model import NUM_LAYERS, EumParameters

EMB_MAGIC = b"EMB1"
CKPT_MAGIC = b"EUM1"
FORMAT_VERSION = 1

SPLIT_NAMES = ("train", "val", "eval_ref", "eval_probe")
SPLIT_CODES = {name: i for i, name in enumerate(SPLIT_NAMES)}

_EMB_HEADER = struct.Struct("<4sIIQ")
_CKPT_HEADER = struct.Struct("<4sIIddd")


def _record_dtype(d: int) -> np.dtype:
    return np.dtype(
        [
            ("identity", "<u4"),
            ("sample", "<u4"),
            ("masked", "u1"),
            ("split", "u1"),
            ("vector", "<f4", (d,)),
        ]
    )


@dataclass
class EmbeddingRecord:
    identity: int
    sample: int
    masked: bool
    split: str
    vector: np.ndarray


class Dataset:
    """Columnar collection of embedding records."""

    def __init__(self, identity, sample, masked, split, vectors):
        self.identity = np.asarray(identity, dtype=np.int64)
        self.sample = np.asarray(sample, dtype=np.int64)
        self.masked = np.asarray(masked, dtype=bool)
        self.split = np.asarray(split, dtype=np.uint8)
        self.vectors = np.asarray(vectors, dtype=np.float64)
        n = len(self.identity)
        if not (
            len(self.sample) == len(self.masked) == len(self.split) == n
            and self.vectors.shape[0] == n
        ):
            raise DimensionMismatch("dataset columns have inconsistent lengths")

    def __len__(self) -> int:
        return len(self.identity)

    @property
    def d(self) -> int:
        return int(self.vectors.shape[1])

    def subset(self, mask: np.ndarray, *, copy: bool = False) -> "Dataset":
        pick = lambda a: a[mask].copy() if copy else a[mask]  # noqa: E731
        return Dataset(
            pick(self.identity),
            pick(self.sample),
            pick(self.masked),
            pick(self.split),
            pick(self.vectors),
        )

    def for_split(self, name: str, masked: bool | None = None) -> "Dataset":
        mask = self.split == SPLIT_CODES[name]
        if masked is not None:
            mask &= self.masked == masked
        return self.subset(mask)

    def records(self) -> Iterator[EmbeddingRecord]:
        for i in range(len(self)):
            yield EmbeddingRecord(
                identity=int(self.identity[i]),
                sample=int(self.sample[i]),
                masked=bool(self.masked[i]),
                split=SPLIT_NAMES[self.split[i]],
                vector=self.vectors[i].copy(),
            )

    @classmethod
    def from_records(cls, records: Iterable[EmbeddingRecord]) -> "Dataset":
        records = list(records)
        return cls(
            identity=[r.identity for r in records],
            sample=[r.sample for r in records],
            masked=[r.masked for r in records],
            split=[SPLIT_CODES[r.split] for r in records],
            vectors=np.stack([np.asarray(r.vector, dtype=np.float64) for r in records]),
        )


def _as_dataset(records) -> Dataset:
    if isinstance(records, Dataset):
        return records
    return Dataset.from_records(records)


def _corrupt(path, what: str, offset: int) -> CorruptRecord:
    return CorruptRecord(f"{path}: {what} (byte offset {offset})", offset)


def write_embeddings(path, records) -> None:
    ds = _as_dataset(records)
    arr = np.empty(len(ds), dtype=_record_dtype(ds.d))
    arr["identity"] = ds.identity
    arr["sample"] = ds.sample
    arr["masked"] = ds.masked
    arr["split"] = ds.split
    arr["vector"] = ds.vectors.astype("<f4")
    try:
        with open(path, "wb") as fh:
            fh.write(_EMB_HEADER.pack(EMB_MAGIC, FORMAT_VERSION, ds.d, len(ds)))
            fh.write(arr.tobytes())
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_embeddings(path) -> Dataset:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    if len(raw) < _EMB_HEADER.size:
        raise BadMagic(f"{path}: file shorter than header")
    magic, version, d, count = _EMB_HEADER.unpack_from(raw, 0)
    if magic != EMB_MAGIC:
        raise BadMagic(f"{path}: magic {magic!r}, expected {EMB_MAGIC!r}")
    if version != FORMAT_VERSION:
        raise VersionUnsupported(f"{path}: version {version}, reader supports {FORMAT_VERSION}")

    dtype = _record_dtype(d)
    body = raw[_EMB_HEADER.size:]
    expected = count * dtype.itemsize
    if len(body) != expected:
        whole = min(len(body), expected) // dtype.itemsize
        offset = _EMB_HEADER.size + whole * dtype.itemsize
        raise _corrupt(path, f"body holds {len(body)} bytes, header promises {expected}", offset)
    arr = np.frombuffer(body, dtype=dtype)
    for bad, what in (
        (arr["split"] >= len(SPLIT_NAMES), "an unknown split code"),
        (~np.isfinite(arr["vector"]).all(axis=1), "a non-finite vector"),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise _corrupt(path, f"record {i} has {what}", _EMB_HEADER.size + i * dtype.itemsize)
    return Dataset(
        identity=arr["identity"].astype(np.int64),
        sample=arr["sample"].astype(np.int64),
        masked=arr["masked"].astype(bool),
        split=arr["split"].copy(),
        vectors=arr["vector"].astype(np.float64),
    )


def export_csv(path, records) -> None:
    """Header identity,sample,masked,split,e0..e{d-1}; masked as 0/1."""
    ds = _as_dataset(records)
    try:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["identity", "sample", "masked", "split"]
                + [f"e{i}" for i in range(ds.d)]
            )
            for i in range(len(ds)):
                w.writerow(
                    [
                        int(ds.identity[i]),
                        int(ds.sample[i]),
                        int(ds.masked[i]),
                        SPLIT_NAMES[ds.split[i]],
                    ]
                    + [repr(float(v)) for v in ds.vectors[i]]
                )
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def import_csv(path) -> Dataset:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[:4] != ["identity", "sample", "masked", "split"]:
                raise CorruptRecord(f"{path}: line 1: unrecognized CSV header {header!r}", 1)
            if len(header) == 4:
                raise CorruptRecord(f"{path}: line 1: CSV header has no vector column", 1)
            rows = list(reader)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    identity, sample, masked, split, vectors = [], [], [], [], []
    for lineno, row in enumerate(rows, start=2):
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, header has {len(header)}")
            identity.append(int(row[0]))
            sample.append(int(row[1]))
            masked.append(bool(int(row[2])))
            split.append(SPLIT_CODES[row[3]])
            vectors.append([float(v) for v in row[4:]])
            if not np.isfinite(vectors[-1]).all():
                raise ValueError("non-finite vector")
        except (ValueError, KeyError, IndexError) as exc:
            raise CorruptRecord(f"{path}: line {lineno}: {exc}", offset=lineno) from exc
    d = len(header) - 4  # also the shape of a file that holds no rows
    return Dataset(identity, sample, masked, split, np.reshape(vectors, (len(rows), d)))


def write_checkpoint(path, params: EumParameters) -> None:
    d = params.d
    zeros = np.zeros((NUM_LAYERS, d))  # the EUM1 bias slot
    vectors = (params.bn_gamma, params.bn_beta, params.bn_running_mean, params.bn_running_var)
    layers = np.concatenate([params.weights.reshape(NUM_LAYERS, -1), zeros, *vectors], axis=1)
    try:
        with open(path, "wb") as fh:
            fh.write(
                _CKPT_HEADER.pack(
                    CKPT_MAGIC,
                    FORMAT_VERSION,
                    d,
                    params.leaky_slope,
                    params.bn_epsilon,
                    params.bn_momentum,
                )
            )
            fh.write(layers.astype("<f4").tobytes())
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_checkpoint(path) -> EumParameters:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    if len(raw) < _CKPT_HEADER.size:
        raise BadMagic(f"{path}: file shorter than header")
    magic, version, d, slope, epsilon, momentum = _CKPT_HEADER.unpack_from(raw, 0)
    if magic != CKPT_MAGIC:
        raise BadMagic(f"{path}: magic {magic!r}, expected {CKPT_MAGIC!r}")
    if version != FORMAT_VERSION:
        raise VersionUnsupported(f"{path}: version {version}, reader supports {FORMAT_VERSION}")
    if d < 1:
        raise _corrupt(path, f"dimension {d}", 8)
    if not math.isfinite(slope):
        raise _corrupt(path, f"leaky slope {slope!r}", 12)
    if not 0.0 < epsilon < math.inf:
        raise _corrupt(path, f"bn epsilon {epsilon!r}", 20)
    if not 0.0 <= momentum <= 1.0:
        raise _corrupt(path, f"bn momentum {momentum!r}", 28)

    layer_bytes = (d * d + 5 * d) * 4
    body = len(raw) - _CKPT_HEADER.size
    expected = NUM_LAYERS * layer_bytes
    if body != expected:
        whole = min(body, expected) // layer_bytes
        offset = _CKPT_HEADER.size + whole * layer_bytes
        raise _corrupt(path, f"body holds {body} bytes, d={d} needs {expected}", offset)
    layers = np.frombuffer(raw, dtype="<f4", offset=_CKPT_HEADER.size).reshape(NUM_LAYERS, -1)
    bad = ~np.isfinite(layers).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        offset = _CKPT_HEADER.size + i * layer_bytes
        raise _corrupt(path, f"layer {i} has a non-finite value", offset)
    w, b, gamma, beta, mean, var = np.split(
        layers.astype(np.float64), d * d + d * np.arange(5), axis=1
    )
    # z + b - mean == z - (mean - b): folding a stored bias into the running
    # mean gives the same inference output
    flat = np.concatenate([w, gamma, beta, mean - b, var], axis=None)
    return EumParameters(d, slope, epsilon, momentum, flat)
