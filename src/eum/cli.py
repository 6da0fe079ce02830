"""Command-line entry points: gen-data, train, eval, compare.

Every command writes a manifest.json capturing the fully resolved
configuration, so rerunning with the recorded values reproduces the output
files byte for byte. Each flag that sets a TrainConfig or SynthSpec field
has that field's name as its dest and its default as the flag's default,
so a field's flag, default and manifest key are written once. All randomness is seeded; the EUM_THREADS environment
variable caps BLAS threads (0 or 1, the default, runs fully deterministic
single-threaded math).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

from .errors import EumError
from .fileio import (
    Dataset,
    read_checkpoint,
    read_embeddings,
    write_checkpoint,
    write_embeddings,
)
from .metrics import VerificationReport, compute_scores, report, roc
from .model import EumParameters
from .synth import SynthSpec, gen_dataset, phenomenon_report
from .training import LOSS_KINDS, TrainConfig, TrainHistory, train

SETTINGS = ("ff", "fm", "mm")
COMPARE_COLUMNS = "setting,variant,eer,fmr100,fmr1000,g_mean,i_mean,fdr,auc"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(out_dir: Path, payload: dict) -> None:
    _write_json(out_dir / "manifest.json", payload)


def _write_history(path: Path, history: TrainHistory) -> None:
    path.write_text("\n".join(history.csv_rows()) + "\n")


def select_pairing(dataset: Dataset, setting: str) -> tuple[Dataset, Dataset]:
    """Reference/probe subsets for a verification setting.

    ff compares unmasked references with unmasked probes, fm unmasked
    references with masked probes, mm masked with masked.
    """
    if setting not in SETTINGS:
        raise ValueError(f"setting must be one of {SETTINGS}, got {setting!r}")
    refs = dataset.for_split("eval_ref", masked=(setting == "mm"))
    probes = dataset.for_split("eval_probe", masked=(setting in ("fm", "mm")))
    return refs, probes


def run_eval(dataset: Dataset, setting: str, model: EumParameters | None) -> VerificationReport:
    refs, probes = select_pairing(dataset, setting)
    return report(compute_scores(refs, probes, eum=model))


def _report_csv_cells(rep: VerificationReport) -> str:
    """The metric columns of COMPARE_COLUMNS, named as VerificationReport fields."""
    return ",".join(repr(getattr(rep, name)) for name in COMPARE_COLUMNS.split(",")[2:])


def _from_args(cls, args: argparse.Namespace):
    """The dataclass cls from the parsed flags whose dest is one of its
    fields; a field without a flag keeps its default, list values become
    tuples."""
    values = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})


def cmd_gen_data(args: argparse.Namespace) -> int:
    spec = _from_args(SynthSpec, args)
    dataset = gen_dataset(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_embeddings(out, dataset)
    _write_json(
        out.with_name(out.name + ".manifest.json"),
        {"command": "gen-data", "spec": spec.as_dict()},
    )
    rep = phenomenon_report(dataset)
    print(f"wrote {out} ({len(dataset)} records, d={dataset.d})")
    for key in ("gmean_ff", "gmean_fm", "imean_ff", "imean_fm"):
        print(f"{key}={rep[key]:.6f}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    dataset = read_embeddings(args.data)
    cfg = _from_args(TrainConfig, args)
    params, history = train(cfg, dataset)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_checkpoint(out_dir / "model.eum", params)
    _write_history(out_dir / "history.csv", history)
    _write_manifest(
        out_dir,
        {
            "command": "train",
            "data": args.data,
            "config": asdict(cfg),
            "outputs": ["model.eum", "history.csv"],
        },
    )
    final_val = history.val_losses[-1] if history.val_losses else float("nan")
    print(
        f"trained {cfg.loss_kind} for {len(history.iterations)} iters "
        f"(final val loss {final_val:.6f}); wrote {out_dir}/model.eum"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    dataset = read_embeddings(args.data)
    model = read_checkpoint(args.model) if args.model else None
    refs, probes = select_pairing(dataset, args.setting)
    scores = compute_scores(refs, probes, eum=model)
    rep = report(scores)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "report.json", rep.as_dict())
    points = roc(scores)
    roc_lines = ["fmr,tpr"] + [f"{float(p[0])!r},{float(p[1])!r}" for p in points]
    (out_dir / "roc.csv").write_text("\n".join(roc_lines) + "\n")
    _write_manifest(
        out_dir,
        {
            "command": "eval",
            "data": args.data,
            "setting": args.setting,
            "model": args.model,
            "outputs": ["report.json", "roc.csv"],
        },
    )
    print(
        f"{args.setting}: eer={rep.eer:.6f} fmr100={rep.fmr100:.6f} "
        f"fdr={rep.fdr:.6f} auc={rep.auc:.6f}"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    dataset = read_embeddings(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    base_cfg = _from_args(TrainConfig, args)
    models: dict[str, EumParameters | None] = {"baseline": None}
    for kind in LOSS_KINDS:
        cfg = replace(base_cfg, loss_kind=kind)
        params, history = train(cfg, dataset)
        path = out_dir / f"model_{kind}.eum"
        write_checkpoint(path, params)
        # score the model as stored, so `eum eval --model` reproduces its rows
        models[kind] = read_checkpoint(path)
        _write_history(out_dir / f"history_{kind}.csv", history)

    baseline_ff = run_eval(dataset, "ff", None)
    lines = [f"# baseline ff eer={baseline_ff.eer!r}", COMPARE_COLUMNS]
    for setting in ("fm", "mm"):
        for variant, model in models.items():
            rep = run_eval(dataset, setting, model)
            lines.append(f"{setting},{variant},{_report_csv_cells(rep)}")
    (out_dir / "compare.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(
        out_dir,
        {
            "command": "compare",
            "data": args.data,
            "config": asdict(base_cfg),
            "outputs": [
                "compare.csv",
                "history_triplet.csv",
                "history_srt.csv",
                "model_triplet.eum",
                "model_srt.eum",
            ],
        },
    )
    print("\n".join(lines))
    return 0


def _field_flag(parser: argparse.ArgumentParser, defaults, flag: str, name: str, **options) -> None:
    """A flag whose dest is the field `name` of the dataclass instance
    defaults and whose default is that field's value (a tuple as a list)."""
    default = getattr(defaults, name)
    default = list(default) if isinstance(default, tuple) else default
    parser.add_argument(flag, dest=name, default=default, **options)


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    flag = partial(_field_flag, parser, TrainConfig())
    flag("--loss", "loss_kind", choices=LOSS_KINDS)
    flag("--margin", "margin", type=float)
    flag("--batch-size", "batch_size", type=int)
    flag("--lr", "initial_lr", type=float)
    drops_help = "iterations at which the learning rate divides by the drop factor"
    flag("--lr-drops", "lr_drop_iters", type=int, nargs="*", help=drops_help)
    flag("--lr-drop-factor", "lr_drop_factor", type=float)
    flag("--max-iters", "max_iters", type=int)
    flag("--val-every", "val_every", type=int)
    flag("--patience", "patience", type=int)
    flag("--seed", "seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eum",
        description="Masked-embedding unmasking: data generation, training, verification metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-data", help="generate a synthetic embedding dataset")
    p_gen.add_argument("--out", required=True, help="output embedding file")
    flag = partial(_field_flag, p_gen, SynthSpec())
    flag("--identities", "num_identities", type=int)
    flag("--unmasked-per-id", "samples_per_identity_unmasked", type=int)
    flag("--masked-per-id", "samples_per_identity_masked", type=int)
    flag("--dim", "d", type=int)
    flag("--sigma", "intra_class_sigma", type=float)
    flag("--mask-strength", "mask_strength", type=float)
    flag("--mask-noise", "mask_noise_sigma", type=float)
    flag("--seed", "seed", type=int)
    flag("--split", "split", type=float, nargs=4, metavar=("TRAIN", "VAL", "REF", "PROBE"))
    p_gen.set_defaults(func=cmd_gen_data)

    p_train = sub.add_parser("train", help="train an unmasking model")
    p_train.add_argument("--data", required=True, help="embedding file")
    p_train.add_argument("--out", required=True, help="output directory")
    _add_train_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="verification metrics for one pairing")
    p_eval.add_argument("--data", required=True, help="embedding file")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument("--setting", choices=SETTINGS, required=True)
    p_eval.add_argument("--model", default=None, help="checkpoint to apply to masked records")
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser(
        "compare", help="train both losses, evaluate against the raw baseline"
    )
    p_cmp.add_argument("--data", required=True, help="embedding file")
    p_cmp.add_argument("--out", required=True, help="output directory")
    _add_train_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EumError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
