"""Binary/CSV formats: round trips, layout pins, corruption handling."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eum.errors import (
    BadMagic,
    CorruptRecord,
    EumError,
    IoError,
    VersionUnsupported,
)
from eum.fileio import (
    CKPT_MAGIC,
    EMB_MAGIC,
    SPLIT_CODES,
    SPLIT_NAMES,
    Dataset,
    export_csv,
    import_csv,
    read_checkpoint,
    read_embeddings,
    write_checkpoint,
    write_embeddings,
)
from eum.model import NUM_LAYERS, forward_infer, forward_train, init_params
from eum.rng import CounterRng


def sample_dataset(d: int = 8, n: int = 30) -> Dataset:
    rng = CounterRng(2, stream=50)
    return Dataset(
        identity=np.arange(n) % 5,
        sample=np.arange(n),
        masked=(np.arange(n) % 2).astype(bool),
        split=(np.arange(n) % 4).astype(np.uint8),
        vectors=rng.normal(n * d).reshape(n, d),
    )


def test_embeddings_round_trip(tmp_path):
    ds = sample_dataset()
    path = tmp_path / "x.emb"
    write_embeddings(path, ds)
    back = read_embeddings(path)
    assert len(back) == len(ds) and back.d == ds.d
    assert np.array_equal(back.identity, ds.identity)
    assert np.array_equal(back.sample, ds.sample)
    assert np.array_equal(back.masked, ds.masked)
    assert np.array_equal(back.split, ds.split)
    # storage is 32-bit float
    assert np.array_equal(back.vectors, ds.vectors.astype(np.float32).astype(np.float64))


def test_embeddings_round_trip_from_records(tmp_path):
    # three hand-written records, one column at a time
    ds = Dataset(
        identity=[3, 3, 4],
        sample=[0, 1, 0],
        masked=[False, True, False],
        split=[SPLIT_CODES[name] for name in ("train", "eval_ref", "val")],
        vectors=[np.ones(4), np.arange(4.0), -np.ones(4)],
    )
    path = tmp_path / "r.emb"
    write_embeddings(path, ds)
    back = read_embeddings(path)
    assert back.identity.tolist() == [3, 3, 4]
    assert back.sample.tolist() == [0, 1, 0]
    assert back.masked.tolist() == [False, True, False]
    assert [SPLIT_NAMES[code] for code in back.split] == ["train", "eval_ref", "val"]
    assert np.array_equal(back.vectors, [np.ones(4), np.arange(4.0), -np.ones(4)])


def test_embedding_file_byte_layout(tmp_path):
    # decode the file with nothing but struct, independent of the writer
    ds = sample_dataset(d=3, n=2)
    path = tmp_path / "layout.emb"
    write_embeddings(path, ds)
    raw = path.read_bytes()
    magic, version, d, count = struct.unpack_from("<4sIIQ", raw, 0)
    assert (magic, version, d, count) == (b"EMB1", 1, 3, 2)
    off = struct.calcsize("<4sIIQ")
    for i in range(2):
        ident, samp, masked, split = struct.unpack_from("<IIBB", raw, off)
        vec = struct.unpack_from("<3f", raw, off + 10)
        assert ident == ds.identity[i] and samp == ds.sample[i]
        assert masked == int(ds.masked[i]) and split == ds.split[i]
        assert np.allclose(vec, ds.vectors[i], atol=1e-6)
        off += 10 + 3 * 4
    assert off == len(raw)


def test_embeddings_bad_magic(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(BadMagic):
        read_embeddings(path)
    path.write_bytes(b"EM")
    with pytest.raises(BadMagic):
        read_embeddings(path)


def test_embeddings_version_unsupported(tmp_path):
    path = tmp_path / "v9.emb"
    path.write_bytes(struct.pack("<4sIIQ", EMB_MAGIC, 9, 4, 0))
    with pytest.raises(VersionUnsupported):
        read_embeddings(path)


def test_embeddings_truncation_offset(tmp_path):
    ds = sample_dataset(d=4, n=3)
    path = tmp_path / "t.emb"
    write_embeddings(path, ds)
    raw = path.read_bytes()
    header = struct.calcsize("<4sIIQ")
    record = 10 + 4 * 4
    # cut into the middle of the third record
    path.write_bytes(raw[: header + 2 * record + 5])
    with pytest.raises(CorruptRecord) as err:
        read_embeddings(path)
    assert err.value.offset == header + 2 * record


def test_embeddings_bad_split_code(tmp_path):
    ds = sample_dataset(d=2, n=2)
    path = tmp_path / "s.emb"
    write_embeddings(path, ds)
    raw = bytearray(path.read_bytes())
    header = struct.calcsize("<4sIIQ")
    raw[header + 9] = 200  # split byte of record 0
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptRecord) as err:
        read_embeddings(path)
    assert err.value.offset == header


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_embeddings_non_finite_vector_offset(tmp_path, bad):
    ds = sample_dataset(d=4, n=5)
    ds.vectors[3, 2] = bad
    path = tmp_path / "nan.emb"
    write_embeddings(path, ds)
    with pytest.raises(CorruptRecord, match="record 3 has a non-finite vector") as err:
        read_embeddings(path)
    assert err.value.offset == struct.calcsize("<4sIIQ") + 3 * (10 + 4 * 4)


def test_embeddings_zero_dimension(tmp_path):
    # records of d = 0 would load as empty vectors that no norm can scale
    path = tmp_path / "d0.emb"
    path.write_bytes(struct.pack("<4sIIQ", EMB_MAGIC, 1, 0, 2) + b"\0" * 20)
    with pytest.raises(CorruptRecord, match="dimension 0") as err:
        read_embeddings(path)
    assert err.value.offset == 8  # the d field


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        read_embeddings(tmp_path / "absent.emb")
    with pytest.raises(IoError):
        read_checkpoint(tmp_path / "absent.eum")


def test_csv_round_trip(tmp_path):
    ds = sample_dataset(d=5, n=12)
    path = tmp_path / "x.csv"
    export_csv(path, ds)
    back = import_csv(path)
    assert np.array_equal(back.identity, ds.identity)
    assert np.array_equal(back.masked, ds.masked)
    assert np.array_equal(back.split, ds.split)
    # repr round-trips float64 exactly
    assert np.array_equal(back.vectors, ds.vectors)
    header = path.read_text().splitlines()[0]
    assert header == "identity,sample,masked,split," + ",".join(f"e{i}" for i in range(5))
    # a file holding only its header is an empty dataset of the header's d
    export_csv(path, ds.subset(np.zeros(len(ds), dtype=bool)))
    assert path.read_text().splitlines() == [header]
    back = import_csv(path)
    assert len(back) == 0 and back.vectors.shape == (0, 5) and back.d == 5


def test_csv_corruption(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("identity,sample,masked,split,e0\n1,0,0,train,0.5\n2,zz,1,val,0.5\n")
    with pytest.raises(CorruptRecord) as err:
        import_csv(path)
    assert err.value.offset == 3  # line number of the bad row
    path.write_text("who,knows\n")
    with pytest.raises(CorruptRecord):
        import_csv(path)
    path.write_text("identity,sample,masked,split\n1,0,0,train\n")
    with pytest.raises(CorruptRecord, match="line 1: CSV header has no vector column$") as err:
        import_csv(path)
    assert err.value.offset == 1


def test_csv_ragged_row_names_its_line(tmp_path):
    path = tmp_path / "bad_row.csv"
    for row, reason in (
        ("2,0,1,val,0.5", "5 fields, header has 6"),
        ("2,0,1,val,nan,0.5", "non-finite vector"),
        ("2,0,1,val,0.5,inf", "non-finite vector"),
        ("2,0,1,val,-inf,0.5", "non-finite vector"),
    ):
        path.write_text(
            "identity,sample,masked,split,e0,e1\n"
            "1,0,0,train,0.5,0.25\n"
            "1,1,0,train,0.5,0.25\n"
            f"{row}\n"
        )
        # the line is named once, and no byte offset is claimed
        with pytest.raises(CorruptRecord, match=f"bad_row.csv: line 4: {reason}$") as err:
            import_csv(path)
        assert err.value.offset == 4


def test_checkpoint_round_trip(tmp_path):
    p = init_params(16, seed=1)
    path = tmp_path / "m.eum"
    write_checkpoint(path, p)
    q = read_checkpoint(path)
    assert q.d == 16
    assert (q.leaky_slope, q.bn_epsilon, q.bn_momentum) == (
        p.leaky_slope,
        p.bn_epsilon,
        p.bn_momentum,
    )
    for i in range(NUM_LAYERS):
        assert np.array_equal(q.weights[i], p.weights[i].astype(np.float32).astype(np.float64))
        assert np.array_equal(q.bn_gamma[i], p.bn_gamma[i])
        assert np.array_equal(q.bn_running_var[i], p.bn_running_var[i])


def test_checkpoint_forward_agreement(tmp_path):
    p = init_params(12, seed=6)
    batch = CounterRng(9, stream=51).normal(4 * 12).reshape(4, 12)
    before = forward_infer(p, batch)
    path = tmp_path / "m.eum"
    write_checkpoint(path, p)
    after = forward_infer(read_checkpoint(path), batch)
    # weights are stored as f32, so outputs agree to single precision only
    assert np.allclose(after, before, rtol=1e-5, atol=1e-5)
    assert np.max(np.abs(after - before)) > 0.0  # quantization really happened


def test_checkpoint_byte_layout(tmp_path):
    p = init_params(2, seed=3)
    path = tmp_path / "tiny.eum"
    write_checkpoint(path, p)
    raw = path.read_bytes()
    magic, version, d, slope, eps, mom = struct.unpack_from("<4sIIddd", raw, 0)
    assert (magic, version, d) == (b"EUM1", 1, 2)
    assert (slope, eps, mom) == (p.leaky_slope, p.bn_epsilon, p.bn_momentum)
    off = struct.calcsize("<4sIIddd")
    # per layer: W (d*d), b, gamma, beta, running_mean, running_var as f32;
    # the model has no b, so its slot holds zeros
    for i in range(NUM_LAYERS):
        w = np.frombuffer(raw, dtype="<f4", count=4, offset=off).reshape(2, 2)
        assert np.array_equal(w, p.weights[i].astype(np.float32))
        off += 16
        for arr in (np.zeros(2), p.bn_gamma[i], p.bn_beta[i],
                    p.bn_running_mean[i], p.bn_running_var[i]):
            got = np.frombuffer(raw, dtype="<f4", count=2, offset=off)
            assert np.array_equal(got, arr.astype(np.float32))
            off += 8
    assert off == len(raw)


def test_checkpoint_truncated(tmp_path):
    p = init_params(4, seed=2)
    path = tmp_path / "cut.eum"
    write_checkpoint(path, p)
    raw = path.read_bytes()
    header = struct.calcsize("<4sIIddd")
    layer = (4 * 4 + 5 * 4) * 4
    path.write_bytes(raw[:-7])
    with pytest.raises(CorruptRecord) as err:
        read_checkpoint(path)
    assert err.value.offset == header + (NUM_LAYERS - 1) * layer  # the last layer is cut
    path.write_bytes(raw[: header + layer + 1])
    with pytest.raises(CorruptRecord) as err:
        read_checkpoint(path)
    assert err.value.offset == header + layer
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(BadMagic):
        read_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_layer_offset(tmp_path, bad):
    d = 4
    header = struct.calcsize("<4sIIddd")
    layer = (d * d + 5 * d) * 4
    path = tmp_path / "nan.eum"
    write_checkpoint(path, init_params(d, seed=2))
    raw = bytearray(path.read_bytes())
    # the gamma of layer 2, after its W and b
    struct.pack_into("<f", raw, header + 2 * layer + (d * d + d) * 4, bad)
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptRecord, match="layer 2 has a non-finite value") as err:
        read_checkpoint(path)
    assert err.value.offset == header + 2 * layer

    # the header's hyper-parameters, each refused at its own offset
    write_checkpoint(path, init_params(d, seed=2))
    clean = path.read_bytes()
    for offset, value, field in (
        (12, bad, "leaky slope"),
        (20, bad, "bn epsilon"),
        (20, 0.0, "bn epsilon"),
        (20, -1.0, "bn epsilon"),
        (28, bad, "bn momentum"),
        (28, -0.25, "bn momentum"),
        (28, 1.5, "bn momentum"),
    ):
        raw = bytearray(clean)
        struct.pack_into("<d", raw, offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptRecord, match=field) as err:
            read_checkpoint(path)
        assert err.value.offset == offset
    for momentum in (0.0, 1.0):
        raw = bytearray(clean)
        struct.pack_into("<d", raw, 28, momentum)
        path.write_bytes(bytes(raw))
        assert read_checkpoint(path).bn_momentum == momentum


def test_checkpoint_oversized(tmp_path):
    p = init_params(4, seed=2)
    path = tmp_path / "long.eum"
    write_checkpoint(path, p)
    raw = path.read_bytes()
    path.write_bytes(raw + b"\0" * 3)
    with pytest.raises(CorruptRecord) as err:
        read_checkpoint(path)
    assert err.value.offset == len(raw)


def test_checkpoint_zero_dimension(tmp_path):
    path = tmp_path / "d0.eum"
    path.write_bytes(struct.pack("<4sIIddd", CKPT_MAGIC, 1, 0, 0.01, 1e-5, 0.9) + b"\0" * 4)
    with pytest.raises(CorruptRecord) as err:
        read_checkpoint(path)
    assert err.value.offset == 8  # the d field


def _trained_params(d: int, seed: int):
    """Parameters with non-identity BatchNorm state, as after training."""
    p = init_params(d, seed=seed, bn_momentum=0.5)
    rng = CounterRng(seed, stream=52)
    p.bn_gamma[:] = 1.0 + 0.1 * rng.normal(NUM_LAYERS * d).reshape(NUM_LAYERS, d)
    p.bn_beta[:] = 0.1 * rng.normal(NUM_LAYERS * d).reshape(NUM_LAYERS, d)
    forward_train(p, rng.normal(6 * d).reshape(6, d))
    return p


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 6), seed=st.integers(0, 2**16), data=st.data())
def test_checkpoint_round_trip_and_truncation_property(tmp_path_factory, d, seed, data):
    p = _trained_params(d, seed)
    path = tmp_path_factory.mktemp("ckpt") / "m.eum"
    write_checkpoint(path, p)
    q = read_checkpoint(path)
    assert np.array_equal(q.flat, p.flat.astype(np.float32).astype(np.float64))
    raw = path.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    path.write_bytes(raw[:cut])
    with pytest.raises(EumError):
        read_checkpoint(path)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 5), n=st.integers(1, 6), data=st.data())
def test_embeddings_truncation_and_non_finite_property(tmp_path_factory, d, n, data):
    ds = sample_dataset(d=d, n=n)
    path = tmp_path_factory.mktemp("emb") / "x.emb"
    write_embeddings(path, ds)
    raw = path.read_bytes()
    header, record = struct.calcsize("<4sIIQ"), 10 + 4 * d
    assert len(raw) == header + n * record
    for cut in range(header):
        path.write_bytes(raw[:cut])
        with pytest.raises(BadMagic):
            read_embeddings(path)
    # every body short of the whole, and one byte too long, is refused at
    # the first incomplete record
    for body in [*range(n * record), n * record + 1]:
        path.write_bytes((raw + b"\0")[: header + body])
        with pytest.raises(CorruptRecord) as err:
            read_embeddings(path)
        assert err.value.offset == header + min(body, n * record) // record * record
    # a NaN or Inf cell anywhere in a record names that record
    i = data.draw(st.integers(0, n - 1), label="record")
    j = data.draw(st.integers(0, d - 1), label="cell")
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
    broken = bytearray(raw)
    struct.pack_into("<f", broken, header + i * record + 10 + 4 * j, bad)
    path.write_bytes(bytes(broken))
    with pytest.raises(CorruptRecord, match=f"record {i} has a non-finite vector") as err:
        read_embeddings(path)
    assert err.value.offset == header + i * record


@st.composite
def _datasets(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    col = st.lists
    return Dataset(
        identity=draw(col(st.integers(0, 2**31), min_size=n, max_size=n)),
        sample=draw(col(st.integers(0, 2**31), min_size=n, max_size=n)),
        masked=draw(col(st.booleans(), min_size=n, max_size=n)),
        split=draw(col(st.integers(0, len(SPLIT_NAMES) - 1), min_size=n, max_size=n)),
        vectors=np.reshape(draw(col(_finite, min_size=n * d, max_size=n * d)), (n, d)),
    )


@settings(max_examples=40, deadline=None)
@given(ds=_datasets())
def test_csv_round_trip_property(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("csv") / "x.csv"
    export_csv(path, ds)
    back = import_csv(path)
    for column in ("identity", "sample", "masked", "split", "vectors"):
        assert np.array_equal(getattr(back, column), getattr(ds, column)), column


@settings(max_examples=40, deadline=None)
@given(ds=_datasets(), data=st.data())
def test_csv_bad_row_names_its_line_property(tmp_path_factory, ds, data):
    path = tmp_path_factory.mktemp("csv") / "bad.csv"
    export_csv(path, ds)
    lines = path.read_text().splitlines()
    lineno = data.draw(st.integers(2, len(lines)), label="line")
    cells = lines[lineno - 1].split(",")
    flaw = data.draw(st.sampled_from(["short", "long", "nan", "inf", "-inf"]), label="flaw")
    if flaw == "short":
        cells.pop()
    elif flaw == "long":
        cells.append("0.5")
    else:
        cells[data.draw(st.integers(4, len(cells) - 1), label="cell")] = flaw
    lines[lineno - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptRecord, match=f"bad.csv: line {lineno}: ") as err:
        import_csv(path)
    assert err.value.offset == lineno


def test_checkpoint_with_stored_bias_matches_old_formula(tmp_path):
    """An EUM1 file whose b slot is nonzero, as older writers produced:
    reading folds b into running_mean, and inference equals the
    x W^T + b formula evaluated on the stored arrays."""
    d, slope, eps = 3, 0.01, 1e-5
    rng = CounterRng(4, stream=53)
    layers = []
    for _ in range(NUM_LAYERS):
        w = rng.normal(d * d).reshape(d, d)
        b = rng.normal(d)
        gamma = 1.0 + 0.1 * rng.normal(d)
        beta = 0.1 * rng.normal(d)
        mean = 0.2 * rng.normal(d)
        var = 1.0 + 0.1 * rng.u01(d)
        arrays = (w, b, gamma, beta, mean, var)
        layers.append([a.astype(np.float32).astype(np.float64) for a in arrays])
    body = np.concatenate([a.ravel() for arrs in layers for a in arrs])
    raw = struct.pack("<4sIIddd", CKPT_MAGIC, 1, d, slope, eps, 0.9) + body.astype("<f4").tobytes()
    path = tmp_path / "old.eum"
    path.write_bytes(raw)

    batch = rng.normal(5 * d).reshape(5, d)
    h = batch
    for i, (w, b, gamma, beta, mean, var) in enumerate(layers):
        z = h @ w.T + b
        h = gamma * (z - mean) / np.sqrt(var + eps) + beta
        if i < NUM_LAYERS - 1:
            h = np.where(h > 0, h, slope * h)
    got = forward_infer(read_checkpoint(path), batch)
    assert np.max(np.abs(got - h)) < 1e-12


def test_dataset_filters(tiny_dataset):
    train_masked = tiny_dataset.for_split("train", masked=True)
    assert np.all(train_masked.masked)
    assert np.all(train_masked.split == SPLIT_CODES["train"])
    with pytest.raises(KeyError):
        tiny_dataset.for_split("bogus")
    sub = tiny_dataset.subset(tiny_dataset.identity == 0)
    assert set(sub.identity) == {0}


def test_write_read_synth_dataset(tmp_path, tiny_spec, tiny_dataset):
    path = tmp_path / "synth.emb"
    write_embeddings(path, tiny_dataset)
    back = read_embeddings(path)
    assert len(back) == len(tiny_dataset)
    assert np.allclose(back.vectors, tiny_dataset.vectors, atol=1e-6)
