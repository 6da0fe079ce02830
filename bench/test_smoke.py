"""Smoke test of the benchmark harness on a tiny spec.

    python3 -m pytest bench/test_smoke.py -q

Runs both workloads untraced and traced on 24 identities, d=16 and 50
iterations, in well under a minute.
"""

import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402

_TINY_DATA = ("--identities", "24", "--dim", "16", "--unmasked-per-id", "6", "--masked-per-id", "6")
TINY = run.Profile(
    big_data=_TINY_DATA,
    small_data=_TINY_DATA,
    train_schedule=("--max-iters", "50", "--lr-drops", "20", "40", "--val-every", "10", "--batch-size", "16"),
    compare_schedule=("--max-iters", "50", "--lr-drops", "20", "40", "--val-every", "10", "--batch-size", "16"),
    min_setups=1,
    setup_seconds=0.0,
)
PRINTED = (
    "setup_s",
    "run_s",
    "train_iters_per_s",
    "eval_s",
    "compare_s",
    "peak_rss_mb",
    "output_bytes",
    "failed_ops_share",
)


@pytest.fixture(scope="module")
def results():
    """(untraced result, traced result, printed text) per workload."""
    out = {}
    for name, workload in run.workloads(TINY, seed=3).items():
        text = io.StringIO()
        untraced = run.measure(workload, 0.01, False, TINY, out=text)
        traced = run.measure(workload, 0.01, True, TINY, out=text)
        out[name] = (untraced, traced, text.getvalue())
    return out


def test_every_end_to_end_metric_is_printed(results):
    for name, (untraced, _, text) in results.items():
        assert untraced["correct"] and untraced["failed"] == 0, name
        assert set(untraced["metrics"]) == {m[0] for m in run.END_TO_END}
        assert all(m["value"] > 0 for m in untraced["metrics"].values()), name
        for metric in PRINTED:
            assert f"  {metric} " in text, (name, metric)
        assert '"blas_threads": 1' in text


def test_every_per_layer_metric_and_module_is_traced(results):
    for name, (_, traced, _) in results.items():
        assert traced["correct"] and traced["failed"] == 0, name
        assert list(traced["metrics"]) == [m[0] for m in layers.PER_LAYER]
    for module in layers.MODULES:
        counts = [traced["metrics"][f"{module}.spans"]["value"] for _, traced, _ in results.values()]
        assert max(counts) > 0, module


def test_injected_failing_command_raises_failed_ops_share():
    workload = run.workloads(TINY, seed=3)["compare-eval"]
    bad = ("eval", "--data", "missing.emb", "--setting", "fm", "--out", "bad")
    text = io.StringIO()
    result = run.measure(replace(workload, rep=workload.rep + (bad,)), 0.01, False, TINY, out=text)
    assert result["failed"] > 0 and not result["correct"]
    share = next(line for line in text.getvalue().splitlines() if "failed_ops_share" in line)
    assert float(share.split()[1]) == pytest.approx(result["failed"] / result["attempted"])


def test_benchmark_json_mirrors_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads(run.FULL, 7))
    assert [tuple(m.values()) for m in spec["end_to_end"]] == run.END_TO_END
    assert [tuple(m.values()) for m in spec["per_layer"]] == layers.PER_LAYER
