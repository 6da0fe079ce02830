"""Per-layer metrics from the spans of one traced repetition.

A repetition is the workload's command sequence run once; each command's
child process hands back its spans (see child.py). Self time is a span's
duration minus the time its direct children cover, the cost of recording
their extras included; calls are strictly nested, so the children never
overlap. Every metric is present on every
workload: a function that was never called, or no longer exists, reports
calls=0 and zero time.
"""

from __future__ import annotations

from collections import defaultdict

MODULES = ("cli", "fileio", "synth", "rng", "vecmath", "model", "losses", "training", "metrics")
_METRIC_FNS = ("eer", "fnmr_at_fmr", "auc", "means", "fdr", "roc")
_SWEEP_FNS = ("metrics.eer", "metrics.fnmr_at_fmr", "metrics.roc")
_SCORING_FNS = ("metrics.compute_scores", "metrics.report", "metrics.roc")
_MATMUL_FNS = ("model.forward_train", "model.backward")
_LOSS_FNS = ("losses.srt_loss", "losses.triplet_loss")


def _calls(name: str) -> tuple[str, str, str]:
    return (f"{name}.calls", "count", "lower")


def _self(name: str) -> tuple[str, str, str]:
    return (f"{name}.self_s", "s", "lower")


# (metric name, unit, better); BENCHMARK.json's per_layer list mirrors this.
PER_LAYER: list[tuple[str, str, str]] = [
    # training loop: sample -> normalize -> forward -> distances -> loss -> backward -> step
    _calls("training.sample_triplets"),
    _self("training.sample_triplets"),
    ("rng.words_drawn", "count", "lower"),
    _self("rng.u64"),
    _self("rng.u01"),
    _self("rng.normal"),
    _calls("vecmath.normalize_rows"),
    _self("vecmath.normalize_rows"),
    _calls("model.forward_train"),
    _self("model.forward_train"),
    _calls("model.backward"),
    _self("model.backward"),
    _self("model.sgd_step"),
    _self("model.copy"),
    _calls("model.forward_infer"),
    _self("model.forward_infer"),
    ("model.gflops_computed", "GFLOP", "lower"),
    ("model.gflops_per_s", "GFLOP/s", "higher"),
    _self("losses.compute_distances"),
    _self("losses.srt_loss"),
    _self("losses.triplet_loss"),
    ("losses.swap_share", "ratio", "higher"),
    ("losses.active_row_share", "ratio", "higher"),
    _self("training.train"),
    _self("training.log"),
    _calls("training.validate"),
    _self("training.validate"),
    ("training.iter_p50_us", "us", "lower"),
    ("training.iter_p99_us", "us", "lower"),
    ("training.val_improve_share", "ratio", "higher"),
    ("training.iters_after_best", "count", "lower"),
    # evaluation: scores -> sweeps -> each metric
    _self("metrics.compute_scores"),
    _self("metrics.report"),
    *[m for fn in _METRIC_FNS for m in (_calls(f"metrics.{fn}"), _self(f"metrics.{fn}"))],
    ("metrics.threshold_sweeps", "count", "lower"),
    ("metrics.scores_per_s", "1/s", "higher"),
    # commands, files, data
    _self("cli.cmd_gen_data"),
    _self("cli.cmd_train"),
    _self("cli.cmd_eval"),
    _self("cli.cmd_compare"),
    ("cli.output_bytes", "bytes", "lower"),
    ("cli.startup_s", "s", "lower"),
    _self("fileio.read_embeddings"),
    ("fileio.read_embeddings.mb_per_s", "MB/s", "higher"),
    _self("fileio.write_embeddings"),
    ("fileio.write_embeddings.mb_per_s", "MB/s", "higher"),
    _self("fileio.read_checkpoint"),
    _self("fileio.write_checkpoint"),
    _self("synth.gen_dataset"),
    _self("synth.phenomenon_report"),
    *[(f"{m}.spans", "count", "lower") for m in MODULES],
    ("trace.overhead_s", "s", "lower"),
]

# metrics filled in by the caller rather than from spans
CALLER_METRICS = ("cli.output_bytes", "cli.startup_s", "trace.overhead_s")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not sorted_vals:
        return 0.0
    rank = max(1, -(-len(sorted_vals) * q // 100))
    return sorted_vals[int(rank) - 1]


def span_metrics(commands: list[list[list]]) -> dict[str, float]:
    """Every PER_LAYER metric except CALLER_METRICS, summed over the spans
    of one repetition's commands (one span list per command)."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    extra: dict[str, float] = defaultdict(float)
    module_spans: dict[str, int] = defaultdict(int)
    gaps_us: list[float] = []
    swap = srt_iters = active = rows = 0
    vals = improves = after_best = 0

    for spans in commands:
        child_s = [0.0] * len(spans)
        last_sample: dict[int, float] = {}
        for name, start, end, parent, info, extra_s in spans:
            if parent >= 0:
                child_s[parent] += end - start + extra_s
        for i, (name, start, end, parent, info, _) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            incl_s[name] += dur
            self_s[name] += dur - child_s[i]
            module_spans[name.split(".", 1)[0]] += 1
            parent_name = spans[parent][0] if parent >= 0 else ""
            in_loop = parent_name == "training.train"
            if info:
                for key in ("words", "flops", "scores", "bytes"):
                    if key in info:
                        extra[f"{name}:{key}"] += info[key]
            if name == "training.sample_triplets" and in_loop:
                if parent in last_sample:
                    gaps_us.append((start - last_sample[parent]) * 1e6)
                last_sample[parent] = start
            if name in _LOSS_FNS and in_loop and info:
                active += info["active"]
                rows += info["rows"]
                if name == "losses.srt_loss":
                    swap += info["swap"]
                    srt_iters += 1
            if name == "training.train" and info:
                vals += info["vals"]
                improves += info["improves"]
                after_best += info["after_best"]

    out: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[base]
        elif kind == "self_s":
            out[metric] = self_s[base]
        elif kind == "spans":
            out[metric] = module_spans[base]

    flops = sum(extra[f"{fn}:flops"] for fn in _MATMUL_FNS)
    gaps_us.sort()
    out.update(
        {
            "rng.words_drawn": extra["rng.u64:words"],
            "model.gflops_computed": flops / 1e9,
            "model.gflops_per_s": _ratio(flops / 1e9, sum(incl_s[fn] for fn in _MATMUL_FNS)),
            "losses.swap_share": _ratio(swap, srt_iters),
            "losses.active_row_share": _ratio(active, rows),
            "training.iter_p50_us": _percentile(gaps_us, 50),
            "training.iter_p99_us": _percentile(gaps_us, 99),
            "training.val_improve_share": _ratio(improves, vals),
            "training.iters_after_best": after_best,
            "metrics.threshold_sweeps": sum(calls[fn] for fn in _SWEEP_FNS),
            "metrics.scores_per_s": _ratio(
                extra["metrics.compute_scores:scores"],
                sum(incl_s[fn] for fn in _SCORING_FNS),
            ),
        }
    )
    for fn in ("read_embeddings", "write_embeddings"):
        name = f"fileio.{fn}"
        out[f"{name}.mb_per_s"] = _ratio(extra[f"{name}:bytes"] / 1e6, incl_s[name])
    return out
