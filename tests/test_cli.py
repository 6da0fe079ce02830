"""End-to-end command-line behavior on small datasets, run in process."""

import argparse
import json
from dataclasses import asdict, fields

import pytest

from eum._threads import requested_threads
from eum.cli import COMPARE_COLUMNS, build_parser, main
from eum.fileio import read_checkpoint, read_embeddings, write_embeddings
from eum.synth import SynthSpec
from eum.training import TrainConfig

GEN_ARGS = [
    "--identities", "20",
    "--unmasked-per-id", "6",
    "--masked-per-id", "6",
    "--dim", "12",
    "--seed", "5",
]

TRAIN_ARGS = [
    "--batch-size", "32",
    "--max-iters", "150",
    "--val-every", "50",
    "--patience", "10",
    "--lr-drops", "100",
    "--seed", "2",
]

REPORT_KEYS = {
    "eer", "eer_threshold", "fmr100", "fmr1000",
    "g_mean", "i_mean", "fdr", "auc", "n_genuine", "n_imposter",
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def data_file(workdir):
    path = workdir / "synth.emb"
    assert main(["gen-data", "--out", str(path)] + GEN_ARGS) == 0
    return path


@pytest.fixture(scope="module")
def model_dir(workdir, data_file):
    out = workdir / "run_srt"
    rc = main(
        ["train", "--data", str(data_file), "--out", str(out), "--loss", "srt"]
        + TRAIN_ARGS
    )
    assert rc == 0
    return out


def _manifest_text(data_file) -> str:
    return data_file.with_name(data_file.name + ".manifest.json").read_text()


def _manifest(data_file) -> dict:
    return json.loads(_manifest_text(data_file))


def test_gen_data_outputs(data_file):
    assert data_file.exists()
    # the spec is written once, in the manifest
    assert not data_file.with_name(data_file.name + ".spec.json").exists()
    manifest = _manifest(data_file)
    assert manifest["command"] == "gen-data"
    assert manifest["spec"]["num_identities"] == 20
    ds = read_embeddings(data_file)
    assert len(ds) == 20 * 12 and ds.d == 12


def test_gen_data_prints_separation_summary(workdir, capsys):
    out = workdir / "echo.emb"
    main(["gen-data", "--out", str(out)] + GEN_ARGS)
    text = capsys.readouterr().out
    assert f"wrote {out}" in text
    for key in ("gmean_ff", "gmean_fm", "imean_ff", "imean_fm"):
        assert f"{key}=" in text


def test_gen_data_rerun_byte_identical(workdir, data_file):
    again = workdir / "again.emb"
    assert main(["gen-data", "--out", str(again)] + GEN_ARGS) == 0
    assert again.read_bytes() == data_file.read_bytes()
    # the spec lives in the manifest, which holds no path, so it is
    # reproduced byte for byte as a whole
    assert _manifest_text(again) == _manifest_text(data_file)


def test_train_outputs(model_dir):
    assert (model_dir / "model.eum").exists()
    history = (model_dir / "history.csv").read_text().splitlines()
    assert history[0] == "iter,loss,mean_d1,mean_d2,mean_d3,branch,lr"
    assert len(history) >= 2
    manifest = json.loads((model_dir / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["loss_kind"] == "srt"
    # the dimension is the data's, recorded by the data file and the checkpoint
    assert "d" not in manifest["config"]
    assert read_checkpoint(model_dir / "model.eum").d == 12
    assert manifest["outputs"] == ["model.eum", "history.csv"]


def test_train_rerun_byte_identical(workdir, data_file, model_dir):
    out = workdir / "run_srt_again"
    rc = main(
        ["train", "--data", str(data_file), "--out", str(out), "--loss", "srt"]
        + TRAIN_ARGS
    )
    assert rc == 0
    for name in ("model.eum", "history.csv"):
        assert (out / name).read_bytes() == (model_dir / name).read_bytes()


def test_train_manifests_differ_only_in_loss(workdir, data_file, model_dir):
    out = workdir / "run_triplet"
    rc = main(
        ["train", "--data", str(data_file), "--out", str(out), "--loss", "triplet"]
        + TRAIN_ARGS
    )
    assert rc == 0
    srt = json.loads((model_dir / "manifest.json").read_text())
    tri = json.loads((out / "manifest.json").read_text())
    assert tri["config"]["loss_kind"] == "triplet"
    tri["config"]["loss_kind"] = "srt"
    assert tri == srt


def test_eval_report_contract(workdir, data_file, model_dir):
    out = workdir / "eval_fm"
    rc = main(
        [
            "eval", "--data", str(data_file), "--out", str(out),
            "--setting", "fm", "--model", str(model_dir / "model.eum"),
        ]
    )
    assert rc == 0
    rep = json.loads((out / "report.json").read_text())
    assert set(rep) == REPORT_KEYS
    for key in ("eer", "fmr100", "fmr1000", "auc"):
        assert 0.0 <= rep[key] <= 1.0
    assert rep["n_genuine"] == 20 and rep["n_imposter"] == 380
    roc_lines = (out / "roc.csv").read_text().splitlines()
    assert roc_lines[0] == "fmr,tpr"
    assert 3 <= len(roc_lines) <= 2 * rep["n_genuine"] + 3
    assert roc_lines[1] == "0.0,0.0" and roc_lines[-1] == "1.0,1.0"
    assert len(set(roc_lines)) == len(roc_lines)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest == {
        "command": "eval",
        "data": str(data_file),
        "setting": "fm",
        "model": str(model_dir / "model.eum"),
        "outputs": ["report.json", "roc.csv"],
    }


def test_eval_model_changes_masked_scores(workdir, data_file, model_dir):
    out_model = workdir / "eval_fm_model"
    out_raw = workdir / "eval_fm_raw"
    for out, extra in (
        (out_model, ["--model", str(model_dir / "model.eum")]),
        (out_raw, []),
    ):
        rc = main(
            ["eval", "--data", str(data_file), "--out", str(out), "--setting", "fm"]
            + extra
        )
        assert rc == 0
    assert (out_model / "report.json").read_text() != (out_raw / "report.json").read_text()


@pytest.fixture(scope="module")
def compare_dir(workdir, data_file):
    out = workdir / "cmp"
    rc = main(
        ["compare", "--data", str(data_file), "--out", str(out)] + TRAIN_ARGS
    )
    assert rc == 0
    return out


def test_compare_csv_contract(compare_dir):
    lines = (compare_dir / "compare.csv").read_text().splitlines()
    assert lines[0].startswith("# baseline ff eer=")
    assert lines[1] == COMPARE_COLUMNS
    assert len(lines) == 8
    expected = [("fm", v) for v in ("baseline", "triplet", "srt")]
    expected += [("mm", v) for v in ("baseline", "triplet", "srt")]
    for row, (setting, variant) in zip(lines[2:], expected):
        cells = row.split(",")
        assert (cells[0], cells[1]) == (setting, variant)
        assert len(cells) == 9
        for cell in cells[2:]:
            float(cell)
    for name in (
        "model_triplet.eum", "model_srt.eum",
        "history_triplet.csv", "history_srt.csv", "manifest.json",
    ):
        assert (compare_dir / name).exists()


def test_compare_is_blind_to_the_scale_of_the_embeddings(workdir, data_file, compare_dir):
    # training and scoring both feed the network unit rows, and scaling by a
    # power of two is exact in f32, so every written result is unchanged
    ds = read_embeddings(data_file)
    ds.vectors *= 4.0
    scaled = workdir / "scaled.emb"
    write_embeddings(scaled, ds)
    out = workdir / "cmp_scaled"
    assert main(["compare", "--data", str(scaled), "--out", str(out)] + TRAIN_ARGS) == 0
    for name in (
        "compare.csv", "model_triplet.eum", "model_srt.eum",
        "history_triplet.csv", "history_srt.csv",
    ):
        assert (out / name).read_bytes() == (compare_dir / name).read_bytes(), name


def test_eval_of_stored_models_reproduces_compare_rows(workdir, data_file, compare_dir):
    lines = (compare_dir / "compare.csv").read_text().splitlines()
    names = COMPARE_COLUMNS.split(",")[2:]
    for row in lines[2:]:
        setting, variant, *cells = row.split(",")
        out = workdir / f"eval_{setting}_{variant}"
        args = ["eval", "--data", str(data_file), "--out", str(out), "--setting", setting]
        if variant != "baseline":
            args += ["--model", str(compare_dir / f"model_{variant}.eum")]
        assert main(args) == 0
        rep = json.loads((out / "report.json").read_text())
        assert [rep[name] for name in names] == [float(c) for c in cells], row


def test_missing_data_file_fails_cleanly(workdir, capsys):
    rc = main(
        ["eval", "--data", str(workdir / "nope.emb"), "--out",
         str(workdir / "x"), "--setting", "ff"]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_train_non_finite_loss_fails_before_writing(tmp_path, tiny_dataset, capsys):
    # numpy's overflow warnings on the way to the NaN would raise here
    data = tmp_path / "tiny.emb"
    write_embeddings(data, tiny_dataset)
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data), "--out", str(out), "--lr", "1e300"] + TRAIN_ARGS)
    assert rc == 1
    assert capsys.readouterr().err == "error: iteration 1: srt loss is nan\n"
    assert not out.exists()


def test_bad_choice_exits_with_usage_error(workdir, data_file):
    with pytest.raises(SystemExit) as exc:
        main(
            ["eval", "--data", str(data_file), "--out", str(workdir / "y"),
             "--setting", "bogus"]
        )
    assert exc.value.code == 2


def test_thread_cap_parsing(monkeypatch):
    monkeypatch.setenv("EUM_THREADS", "4")
    assert requested_threads() == 4
    monkeypatch.setenv("EUM_THREADS", "0")
    assert requested_threads() == 1
    monkeypatch.setenv("EUM_THREADS", "purple")
    assert requested_threads() == 1
    monkeypatch.delenv("EUM_THREADS")
    assert requested_threads() == 1


# model hyper-parameters the CLI leaves at their defaults
UNFLAGGED = {"leaky_slope", "bn_epsilon", "bn_momentum"}


def _subcommand_dests(name: str) -> list[str]:
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a.dest for a in sub.choices[name]._actions if a.option_strings]


@pytest.mark.parametrize(
    "command, cls, paths",
    [
        ("gen-data", SynthSpec, {"out"}),
        ("train", TrainConfig, {"data", "out"}),
        ("compare", TrainConfig, {"data", "out"}),
    ],
)
def test_every_field_is_the_dest_of_one_flag(command, cls, paths):
    dests = _subcommand_dests(command)
    for f in fields(cls):
        assert dests.count(f.name) == (0 if f.name in UNFLAGGED else 1), f.name
    # every other flag names a file
    assert set(dests) - {f.name for f in fields(cls)} == {"help"} | paths


def test_non_default_flags_round_trip_into_the_manifests(workdir, data_file):
    spec = SynthSpec(
        num_identities=9,
        samples_per_identity_unmasked=3,
        samples_per_identity_masked=2,
        d=5,
        intra_class_sigma=0.25,
        mask_strength=0.4,
        mask_noise_sigma=0.125,
        seed=3,
        split=(0.4, 0.2, 0.25, 0.15),
    )
    gen_argv = [
        "--identities", "9",
        "--unmasked-per-id", "3",
        "--masked-per-id", "2",
        "--dim", "5",
        "--sigma", "0.25",
        "--mask-strength", "0.4",
        "--mask-noise", "0.125",
        "--seed", "3",
        "--split", "0.4", "0.2", "0.25", "0.15",
    ]
    assert all(getattr(spec, f.name) != getattr(SynthSpec(), f.name) for f in fields(spec))
    out = workdir / "flags.emb"
    assert main(["gen-data", "--out", str(out)] + gen_argv) == 0
    assert _manifest(out)["spec"] == spec.as_dict()

    cfg = TrainConfig(
        loss_kind="triplet",
        margin=0.75,
        batch_size=8,
        initial_lr=0.05,
        lr_drop_iters=(3, 7),
        lr_drop_factor=4.0,
        max_iters=10,
        val_every=5,
        patience=3,
        seed=9,
    )
    train_argv = [
        "--loss", "triplet",
        "--margin", "0.75",
        "--batch-size", "8",
        "--lr", "0.05",
        "--lr-drops", "3", "7",
        "--lr-drop-factor", "4",
        "--max-iters", "10",
        "--val-every", "5",
        "--patience", "3",
        "--seed", "9",
    ]
    flagged = [f.name for f in fields(TrainConfig) if f.name not in UNFLAGGED]
    assert all(getattr(cfg, name) != getattr(TrainConfig(), name) for name in flagged)
    for command in ("train", "compare"):
        run = workdir / f"flags_{command}"
        argv = [command, "--data", str(data_file), "--out", str(run)] + train_argv
        assert main(argv) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        # the loss kind of compare's base config is the flag's, though it trains both
        assert manifest["config"] == json.loads(json.dumps(asdict(cfg))), command
