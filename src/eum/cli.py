"""Command-line entry points: gen-data, train, eval, compare.

Every command writes a manifest.json capturing the fully resolved
configuration, so rerunning with the recorded values reproduces the output
files byte for byte. All randomness is seeded; the EUM_THREADS environment
variable caps BLAS threads (0 or 1, the default, runs fully deterministic
single-threaded math).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
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
from .training import TrainConfig, TrainHistory, config_for_dataset, train

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


def run_eval(
    dataset: Dataset,
    setting: str,
    model: EumParameters | None,
    apply_to: str = "masked",
) -> VerificationReport:
    refs, probes = select_pairing(dataset, setting)
    return report(compute_scores(refs, probes, eum=model, apply_to=apply_to))


def _report_csv_cells(rep: VerificationReport) -> str:
    return ",".join(
        repr(v)
        for v in (
            rep.eer,
            rep.fmr100,
            rep.fmr1000,
            rep.g_mean,
            rep.i_mean,
            rep.fdr,
            rep.auc,
        )
    )


def cmd_gen_data(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        num_identities=args.identities,
        samples_per_identity_unmasked=args.unmasked_per_id,
        samples_per_identity_masked=args.masked_per_id,
        d=args.dim,
        intra_class_sigma=args.sigma,
        mask_strength=args.mask_strength,
        mask_noise_sigma=args.mask_noise,
        seed=args.seed,
        split=tuple(args.split),
    )
    dataset = gen_dataset(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_embeddings(out, dataset)
    _write_json(out.with_name(out.name + ".spec.json"), spec.as_dict())
    _write_json(
        out.with_name(out.name + ".manifest.json"),
        {"command": "gen-data", "spec": spec.as_dict()},
    )
    rep = phenomenon_report(dataset)
    print(f"wrote {out} ({len(dataset)} records, d={dataset.d})")
    for key in ("gmean_ff", "gmean_fm", "imean_ff", "imean_fm"):
        print(f"{key}={rep[key]:.6f}")
    return 0


def _config_from_args(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        loss_kind=args.loss,
        margin=args.margin,
        batch_size=args.batch_size,
        initial_lr=args.lr,
        lr_drop_iters=tuple(args.lr_drops),
        lr_drop_factor=args.lr_drop_factor,
        max_iters=args.max_iters,
        val_every=args.val_every,
        patience=args.patience,
        seed=args.seed,
    )


def cmd_train(args: argparse.Namespace) -> int:
    dataset = read_embeddings(args.data)
    cfg = config_for_dataset(_config_from_args(args), dataset)
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
    scores = compute_scores(refs, probes, eum=model, apply_to=args.apply_to)
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
            "apply_to": args.apply_to,
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

    base_cfg = config_for_dataset(_config_from_args(args), dataset)
    models: dict[str, EumParameters] = {}
    for kind in ("triplet", "srt"):
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
        for variant, model in (
            ("baseline", None),
            ("triplet", models["triplet"]),
            ("srt", models["srt"]),
        ):
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


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    defaults = TrainConfig()
    parser.add_argument("--loss", choices=("triplet", "srt"), default=defaults.loss_kind)
    parser.add_argument("--margin", type=float, default=defaults.margin)
    parser.add_argument("--batch-size", type=int, default=defaults.batch_size)
    parser.add_argument("--lr", type=float, default=defaults.initial_lr)
    parser.add_argument(
        "--lr-drops",
        type=int,
        nargs="*",
        default=list(defaults.lr_drop_iters),
        help="iterations at which the learning rate divides by the drop factor",
    )
    parser.add_argument("--lr-drop-factor", type=float, default=defaults.lr_drop_factor)
    parser.add_argument("--max-iters", type=int, default=defaults.max_iters)
    parser.add_argument("--val-every", type=int, default=defaults.val_every)
    parser.add_argument("--patience", type=int, default=defaults.patience)
    parser.add_argument("--seed", type=int, default=defaults.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eum",
        description="Masked-embedding unmasking: data generation, training, verification metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen_defaults = SynthSpec()
    p_gen = sub.add_parser("gen-data", help="generate a synthetic embedding dataset")
    p_gen.add_argument("--out", required=True, help="output embedding file")
    p_gen.add_argument("--identities", type=int, default=gen_defaults.num_identities)
    p_gen.add_argument(
        "--unmasked-per-id", type=int, default=gen_defaults.samples_per_identity_unmasked
    )
    p_gen.add_argument(
        "--masked-per-id", type=int, default=gen_defaults.samples_per_identity_masked
    )
    p_gen.add_argument("--dim", type=int, default=gen_defaults.d)
    p_gen.add_argument("--sigma", type=float, default=gen_defaults.intra_class_sigma)
    p_gen.add_argument("--mask-strength", type=float, default=gen_defaults.mask_strength)
    p_gen.add_argument("--mask-noise", type=float, default=gen_defaults.mask_noise_sigma)
    p_gen.add_argument("--seed", type=int, default=gen_defaults.seed)
    p_gen.add_argument(
        "--split",
        type=float,
        nargs=4,
        default=list(gen_defaults.split),
        metavar=("TRAIN", "VAL", "REF", "PROBE"),
    )
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
    p_eval.add_argument("--apply-to", choices=("masked", "none"), default="masked")
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
