"""Binary and CSV dataset files, model checkpoints.

Embedding files: magic ``EMB1``, u32 version (=1), u32 d, u64 count, then
per record u32 identity, u32 sample, u8 masked (0 or 1), u8 split, f32*d
vector. Checkpoints: magic ``EUM1``, u32 version (=1), u32 d, f64 leaky
slope, f64 bn epsilon, f64 bn momentum, then per layer W (row-major), b,
gamma, beta, running_mean, running_var, all f32. Everything little-endian. The
model has no b: it is written as zeros, and a stored b is folded into
running_mean on read. Both formats share one frame (_Frame): magic,
version, d >= 1, the format's further header fields, then a body of equal
units. Malformed files, NaN or Inf values included, raise CorruptRecord with
the byte offset of the first bad record, layer or header field (for CSV,
its line number). A checkpoint header must hold a finite slope, an epsilon
in (0, inf) and a momentum in [0, 1].

A Dataset holds the records as columns (identity, sample, masked, split
code, vectors); every reader returns one and every writer takes one.
Vectors are float64 in memory and f32 on disk; a write/read round trip is
lossless at 32-bit precision.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

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


def _record_bytes(d: int) -> int:
    """Size of one EMB1 record: two u32, two u8, then d f32."""
    return 10 + 4 * d


def _record_columns(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """identity, sample, masked, split and vector of EMB1 records held as
    u1 rows, each a view of those rows: reading a column reads the rows and
    writing one writes them. Views, not a record dtype, because numpy
    refuses a record dtype whose d does not fit a C int."""
    return (
        rows[:, 0:4].view("<u4")[:, 0],
        rows[:, 4:8].view("<u4")[:, 0],
        rows[:, 8],
        rows[:, 9],
        rows[:, 10:].view("<f4"),
    )


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

    def subset(self, mask: np.ndarray) -> "Dataset":
        """The rows where mask is true, as copies."""
        return Dataset(
            self.identity[mask],
            self.sample[mask],
            self.masked[mask],
            self.split[mask],
            self.vectors[mask],
        )

    def for_split(self, name: str, masked: bool | None = None) -> "Dataset":
        mask = self.split == SPLIT_CODES[name]
        if masked is not None:
            mask &= self.masked == masked
        return self.subset(mask)


def _corrupt(path, what: str, offset: int) -> CorruptRecord:
    return CorruptRecord(f"{path}: {what} (byte offset {offset})", offset)


@dataclass(frozen=True)
class _Frame:
    """The layout EMB1 and EUM1 share: magic(4s) version(u32) d(u32) and the
    format's further header fields, then a body of equal units (records or
    layers). A file is read or written whole; every check refuses at the
    byte offset of the first bad header field or unit."""

    magic: bytes
    header: struct.Struct
    unit: str

    def write(self, path, d: int, fields: tuple, body: np.ndarray) -> None:
        try:
            with open(path, "wb") as fh:
                fh.write(self.header.pack(self.magic, FORMAT_VERSION, d, *fields))
                fh.write(body)
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc

    def read(self, path) -> tuple[bytes, int, list]:
        """The file's bytes, its d (at least 1) and the header fields after d."""
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise IoError(f"cannot read {path}: {exc}") from exc
        if len(raw) < self.header.size:
            raise BadMagic(f"{path}: file shorter than header")
        magic, version, d, *fields = self.header.unpack_from(raw, 0)
        if magic != self.magic:
            raise BadMagic(f"{path}: magic {magic!r}, expected {self.magic!r}")
        if version != FORMAT_VERSION:
            raise VersionUnsupported(f"{path}: version {version}, reader supports {FORMAT_VERSION}")
        if d < 1:
            raise _corrupt(path, f"dimension {d}", 8)
        return raw, d, fields

    def body(self, path, raw: bytes, count: int, unit_bytes: int) -> np.ndarray:
        """The count units after the header as rows of unit_bytes, a read-only
        u1 view of raw; a body of any other size is refused at its first
        incomplete unit."""
        size, expected = len(raw) - self.header.size, count * unit_bytes
        if size != expected:
            whole = min(size, expected) // unit_bytes
            what = f"body holds {size} bytes, header promises {expected}"
            raise _corrupt(path, what, self.header.size + whole * unit_bytes)
        return np.frombuffer(raw, np.uint8, offset=self.header.size).reshape(count, unit_bytes)

    def refuse(self, path, units: np.ndarray, bad: np.ndarray, what: str) -> None:
        """Raise at the first of the units where bad is true, if any."""
        if bad.any():
            i = int(np.argmax(bad))
            offset = self.header.size + i * units.strides[0]
            raise _corrupt(path, f"{self.unit} {i} has {what}", offset)


_EMB = _Frame(EMB_MAGIC, struct.Struct("<4sIIQ"), "record")
_CKPT = _Frame(CKPT_MAGIC, struct.Struct("<4sIIddd"), "layer")


def write_embeddings(path, ds: Dataset) -> None:
    rows = np.empty((len(ds), _record_bytes(ds.d)), dtype=np.uint8)
    values = (ds.identity, ds.sample, ds.masked, ds.split, ds.vectors)
    for column, value in zip(_record_columns(rows), values):
        column[...] = value
    _EMB.write(path, ds.d, (len(ds),), rows)


def read_embeddings(path) -> Dataset:
    raw, d, (count,) = _EMB.read(path)
    rows = _EMB.body(path, raw, count, _record_bytes(d))
    identity, sample, masked, split, vectors = _record_columns(rows)
    _EMB.refuse(path, rows, masked > 1, "a masked byte other than 0 or 1")
    _EMB.refuse(path, rows, split >= len(SPLIT_NAMES), "an unknown split code")
    _EMB.refuse(path, rows, ~np.isfinite(vectors).all(axis=1), "a non-finite vector")
    # Dataset converts each column into an array of its own but split,
    # which is u1 already and so is copied out of the file's bytes here
    return Dataset(identity, sample, masked, split.copy(), vectors)


def export_csv(path, ds: Dataset) -> None:
    """Header identity,sample,masked,split,e0..e{d-1}; masked as 0/1."""
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
    hyper = (params.leaky_slope, params.bn_epsilon, params.bn_momentum)
    _CKPT.write(path, d, hyper, layers.astype("<f4"))


def read_checkpoint(path) -> EumParameters:
    raw, d, (slope, epsilon, momentum) = _CKPT.read(path)
    if not math.isfinite(slope):
        raise _corrupt(path, f"leaky slope {slope!r}", 12)
    if not 0.0 < epsilon < math.inf:
        raise _corrupt(path, f"bn epsilon {epsilon!r}", 20)
    if not 0.0 <= momentum <= 1.0:
        raise _corrupt(path, f"bn momentum {momentum!r}", 28)
    layers = _CKPT.body(path, raw, NUM_LAYERS, (d * d + 5 * d) * 4).view("<f4")
    _CKPT.refuse(path, layers, ~np.isfinite(layers).all(axis=1), "a non-finite value")
    w, b, gamma, beta, mean, var = np.split(
        layers.astype(np.float64), d * d + d * np.arange(5), axis=1
    )
    # z + b - mean == z - (mean - b): folding a stored bias into the running
    # mean gives the same inference output
    flat = np.concatenate([w, gamma, beta, mean - b, var], axis=None)
    return EumParameters(d, slope, epsilon, momentum, flat)
