"""Output checks for the first repetition of each workload.

    python3 checks.py {train,compare,eval-fm} <set-up dir> <rep dir> [iterations]

prints the problems found as a JSON list. run.py starts it as a child of
its own: the oracles hold hundreds of MB, and a parent that large would
pass its high-water RSS on to the children whose peak RSS it measures.

Later repetitions must reproduce the first one byte for byte (run.py
compares hashes), so checking the first against independent references
checks them all. Metric values are compared with the exhaustive oracles in
tests/oracles.py on scores recomputed from the files the commands wrote.

Not checked, on purpose: the compare.csv model rows against `eum eval` of
the stored checkpoints. compare scores the in-memory float64 models while
the checkpoints hold float32, so the two disagree in the last digits; that
mismatch is a known defect of the program, left visible.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARE_HEADER = "setting,variant,eer,fmr100,fmr1000,g_mean,i_mean,fdr,auc"
# fdr and the means are float sums; the oracle adds in plain Python order
# while numpy adds pairwise, so they agree only to rounding.
SUM_RTOL = 1e-9


def _eum():
    """The eum package from the checkout, imported on first use so that the
    caller can pin BLAS threads before numpy loads."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import eum.fileio
    import eum.metrics

    return eum


def load_oracles():
    """tests/oracles.py, with one exhaustive sweep per score set.

    oracle_eer and oracle_fnmr_at_fmr each rebuild the same full sweep
    through the module-level rate_pairs; remembering the last result runs
    it once per score set instead of three times, with identical output.
    """
    spec = importlib.util.spec_from_file_location("eum_oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    plain = oracles.rate_pairs
    last: list = []

    def rate_pairs(genuine, imposter):
        if not (last and last[0] is genuine and last[1] is imposter):
            last[:] = [genuine, imposter, plain(genuine, imposter)]
        return last[2]

    oracles.rate_pairs = rate_pairs
    return oracles


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SUM_RTOL * max(1.0, abs(a), abs(b))


def _metric_problems(label: str, got: dict, genuine, imposter) -> list[str]:
    """Compare reported metrics with the oracles on the same scores."""
    oracles = load_oracles()
    g, i = genuine.tolist(), imposter.tolist()
    exact = {
        "eer": oracles.oracle_eer(g, i),
        "fmr100": oracles.oracle_fnmr_at_fmr(g, i, 0.01),
        "fmr1000": oracles.oracle_fnmr_at_fmr(g, i, 0.001),
        "auc": oracles.oracle_auc(g, i),
    }
    summed = {
        "fdr": oracles.oracle_fdr(g, i),
        "g_mean": math.fsum(g) / len(g),
        "i_mean": math.fsum(i) / len(i),
    }
    problems = [
        f"{label} {key}: reported {got[key]!r}, oracle {want!r}"
        for key, want in exact.items()
        if got[key] != want
    ]
    problems += [
        f"{label} {key}: reported {got[key]!r}, oracle {want!r}"
        for key, want in summed.items()
        if not _close(got[key], want)
    ]
    return problems


def _pairing(dataset, setting: str):
    """Reference and probe records of a verification setting."""
    refs = dataset.for_split("eval_ref", masked=(setting == "mm"))
    probes = dataset.for_split("eval_probe", masked=(setting in ("fm", "mm")))
    return refs, probes


def _history(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _history_problems(path: Path, iters: int, branches: set[str]) -> list[str]:
    rows = _history(path)
    problems = []
    if len(rows) != iters:
        problems.append(f"{path.name}: {len(rows)} iterations, expected {iters}")
    for row in rows:
        if row["branch"] not in branches:
            problems.append(f"{path.name}: branch {row['branch']!r} at iter {row['iter']}")
            break
        if not all(math.isfinite(float(row[k])) for k in ("loss", "mean_d1", "mean_d2", "mean_d3")):
            problems.append(f"{path.name}: non-finite value at iter {row['iter']}")
            break
    return problems


def _same_first_batch(srt: Path, triplet: Path) -> list[str]:
    """Both losses start from the same parameters and draw the same first
    batch, so their iteration-0 distances must be identical."""
    a, b = _history(srt)[0], _history(triplet)[0]
    keys = ("mean_d1", "mean_d2", "mean_d3")
    if any(a[k] != b[k] for k in keys):
        return [f"iteration 0 distances differ: {[a[k] for k in keys]} vs {[b[k] for k in keys]}"]
    return []


def _checkpoint_problems(path: Path, d: int) -> list[str]:
    params = _eum().fileio.read_checkpoint(path)
    return [] if params.d == d else [f"{path.name}: d={params.d}, data d={d}"]


def check_train(setup: Path, rep: Path, iters: int) -> list[str]:
    eum = _eum()
    d = eum.fileio.read_embeddings(setup / "big.emb").d
    problems = _history_problems(rep / "srt" / "history.csv", iters, {"triplet", "swap"})
    problems += _history_problems(rep / "triplet" / "history.csv", iters, {"triplet"})
    problems += _same_first_batch(rep / "srt" / "history.csv", rep / "triplet" / "history.csv")
    for kind in ("srt", "triplet"):
        problems += _checkpoint_problems(rep / kind / "model.eum", d)
    return problems


def _roc_problems(path: Path) -> list[str]:
    """An ROC file runs from (0, 0) to (1, 1), non-decreasing in both
    columns. That holds for every point of the sweep and for the corners
    alone, so the check does not fix how many points the file keeps."""
    with open(path) as fh:
        header = fh.readline().strip()
        points = [tuple(map(float, line.split(","))) for line in fh]
    if header != "fmr,tpr" or not points:
        return [f"{path.name}: header {header!r}, {len(points)} points"]
    if points[0] != (0.0, 0.0) or points[-1] != (1.0, 1.0):
        return [f"{path.name}: runs from {points[0]} to {points[-1]}"]
    for a, b in zip(points, points[1:]):
        if b[0] < a[0] or b[1] < a[1]:
            return [f"{path.name}: {b} follows {a}"]
    return []


def check_eval_fm(setup: Path, rep: Path) -> list[str]:
    """fm/report.json against the oracles on scores recomputed from the
    data and the set-up's checkpoint file as stored."""
    eum = _eum()
    dataset = eum.fileio.read_embeddings(setup / "small.emb")
    model = eum.fileio.read_checkpoint(setup / "ckpt" / "model.eum")
    refs, probes = _pairing(dataset, "fm")
    scores = eum.metrics.compute_scores(refs, probes, eum=model)
    got = json.loads((rep / "fm" / "report.json").read_text())
    problems = _metric_problems("fm report.json", got, scores.genuine, scores.imposter)
    for key, want in (("n_genuine", scores.genuine.size), ("n_imposter", scores.imposter.size)):
        if got[key] != want:
            problems.append(f"fm report.json {key}: {got[key]}, expected {want}")
    return problems + _roc_problems(rep / "fm" / "roc.csv")


def check_compare(setup: Path, rep: Path, iters: int) -> list[str]:
    """compare.csv's baseline rows against the oracles on the raw scores;
    the data file the run generated must equal the set-up's."""
    eum = _eum()
    problems = []
    if (rep / "data.emb").read_bytes() != (setup / "small.emb").read_bytes():
        problems.append("data.emb differs from the set-up's for the same seed")
    lines = (rep / "cmp" / "compare.csv").read_text().splitlines()
    if len(lines) != 8 or not lines[0].startswith("# baseline ff eer=") or lines[1] != COMPARE_HEADER:
        return problems + [f"compare.csv layout: {lines[:2]} and {len(lines)} lines"]
    rows = {tuple(line.split(",")[:2]): line.split(",")[2:] for line in lines[2:]}
    want_keys = [(s, v) for s in ("fm", "mm") for v in ("baseline", "triplet", "srt")]
    if list(rows) != want_keys:
        return problems + [f"compare.csv rows {list(rows)}"]

    dataset = eum.fileio.read_embeddings(setup / "small.emb")
    names = COMPARE_HEADER.split(",")[2:]
    for setting in ("fm", "mm"):
        refs, probes = _pairing(dataset, setting)
        scores = eum.metrics.compute_scores(refs, probes)
        got = dict(zip(names, map(float, rows[(setting, "baseline")])))
        problems += _metric_problems(
            f"compare.csv {setting} baseline", got, scores.genuine, scores.imposter
        )
    for kind in ("srt", "triplet"):
        problems += _history_problems(
            rep / "cmp" / f"history_{kind}.csv",
            iters,
            {"triplet", "swap"} if kind == "srt" else {"triplet"},
        )
        problems += _checkpoint_problems(rep / "cmp" / f"model_{kind}.eum", dataset.d)
    problems += _same_first_batch(rep / "cmp" / "history_srt.csv", rep / "cmp" / "history_triplet.csv")
    return problems


CHECKS = {"train": check_train, "compare": check_compare, "eval-fm": check_eval_fm}


def main(argv: list[str]) -> int:
    name, setup, rep, *iters = argv
    print(json.dumps(CHECKS[name](Path(setup), Path(rep), *map(int, iters))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
