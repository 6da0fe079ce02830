"""Child-process driver for the benchmark.

Every `eum` command the benchmark times runs in a fresh interpreter through
this file, so the parent can read back facts only the child knows:

    python3 child.py run <sidecar.json> <command-id> <trace 0|1> <eum argv...>
    python3 child.py probe <sidecar.json>

`run` calls `eum.cli.main(argv)` and exits with its return code. With
trace 1 it first wraps the public functions of every eum module (see
TRACED) in timing spans; the spans stay in memory and are written to the
sidecar when the command exits. Either way the sidecar records the BLAS
thread count the bundled OpenBLAS reports in this process.

`probe` imports eum and records the environment: interpreter and numpy
versions, the BLAS library numpy was built against, and the effective
BLAS thread count.

The parent sets EUM_THREADS and every BLAS variable before starting this
process; nothing here changes them.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import sys
import time

# module -> attributes to wrap; "Class.method" wraps a method on the class.
# A name missing from the installed eum is skipped and reports calls=0.
TRACED = {
    "cli": ("main", "cmd_gen_data", "cmd_train", "cmd_eval", "cmd_compare"),
    "fileio": ("read_embeddings", "write_embeddings", "read_checkpoint", "write_checkpoint"),
    "synth": ("gen_dataset", "phenomenon_report"),
    "rng": ("CounterRng.u64", "CounterRng.u01", "CounterRng.normal"),
    "vecmath": ("normalize_rows",),
    "model": ("forward_train", "forward_infer", "backward", "sgd_step", "EumParameters.copy"),
    "losses": ("compute_distances", "triplet_loss", "srt_loss"),
    "training": (
        "train",
        "build_val_batches",
        "sample_triplets",
        "validate",
        "TrainHistory.log",
    ),
    "metrics": ("compute_scores", "report", "eer", "fnmr_at_fmr", "auc", "means", "fdr", "roc"),
}

_OPENBLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def blas_threads() -> int:
    """Thread count of the OpenBLAS loaded into this process, -1 if none.

    Asks the library itself, so a cap that was set too late to take effect
    shows up here even when the environment claims one thread.
    """
    import numpy  # noqa: F401  (loads the bundled OpenBLAS)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def environment() -> dict:
    import platform

    import numpy

    import eum

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "eum": getattr(eum, "__version__", "unknown"),
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------------------
# tracing


def _rows(array) -> int:
    shape = getattr(array, "shape", None)
    return int(shape[0]) if shape else 0


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _matmul_flops(rows: int, params, passes: int) -> int:
    """Computed FLOPs of `passes` N x d by d x d products per layer."""
    import eum.model

    layers = getattr(eum.model, "NUM_LAYERS", 4)
    return 2 * passes * rows * params.d * params.d * layers


def _loss_extra(args, result) -> dict:
    import numpy as np

    grad = result.grad_anchor_out
    active = 0 if grad is None else int(np.count_nonzero(np.any(grad != 0.0, axis=1)))
    return {
        "swap": int(result.branch.value == "swap"),
        "rows": int(result.distances.n),
        "active": active,
    }


def _train_extra(args, result) -> dict:
    """Validation outcomes of one train() call, by the trainer's own rule:
    a validation improves when it beats the best so far by the epsilon."""
    import eum.training

    eps = getattr(eum.training, "_IMPROVE_EPS", 1e-6)
    history = result[1]
    best = float("inf")
    best_iter = -1
    improves = 0
    for it, loss in zip(history.val_iterations, history.val_losses):
        if loss < best - eps:
            best, best_iter, improves = loss, it, improves + 1
    ran = len(history.iterations)
    return {
        "vals": len(history.val_losses),
        "improves": improves,
        "after_best": ran - 1 - best_iter if ran else 0,
    }


# span name -> fn(args, result) -> dict of counts recorded on the span
EXTRAS = {
    "rng.u64": lambda args, result: {"words": int(args[1])},
    "model.forward_train": lambda args, result: {
        "flops": _matmul_flops(_rows(args[1]), args[0], 1)
    },
    "model.backward": lambda args, result: {
        "flops": _matmul_flops(_rows(args[2]), args[0], 2)
    },
    "losses.srt_loss": _loss_extra,
    "losses.triplet_loss": _loss_extra,
    "training.train": _train_extra,
    "metrics.compute_scores": lambda args, result: {
        "scores": int(result.genuine.size + result.imposter.size)
    },
    "fileio.read_embeddings": lambda args, result: {"bytes": _file_bytes(args[0])},
    "fileio.write_embeddings": lambda args, result: {"bytes": _file_bytes(args[0])},
    "fileio.read_checkpoint": lambda args, result: {"bytes": _file_bytes(args[0])},
    "fileio.write_checkpoint": lambda args, result: {"bytes": _file_bytes(args[0])},
}


class Tracer:
    """Spans as [name, start, end, parent index, extra, extra_s] in call order.

    Calls are strictly nested (one thread), so a span's parent is whatever
    span is open when it starts. Extras are computed after the span's end
    time is taken and their cost is kept in extra_s, so that it counts as
    tracing overhead rather than as the self time of the function or of
    its caller.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open = [-1]

    def wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, open_[-1], None, 0.0]
            spans.append(span)
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                span[2] = clock()
            if extra is not None:
                span[4] = extra(args, result)
                span[5] = clock() - span[2]
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function in each eum namespace that holds it.

        cli, training and metrics import functions by name and look them up
        in their own globals at call time, so a function is replaced
        wherever it is bound, not only in its defining module.
        """
        import importlib

        replacements = {}
        for module_name, attrs in TRACED.items():
            try:
                module = importlib.import_module(f"eum.{module_name}")
            except ImportError:
                continue
            for attr in attrs:
                owner_name, _, short = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, short, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{module_name}.{short}", original)
                if owner_name:
                    setattr(owner, short, wrapper)
                else:
                    replacements[id(original)] = (original, wrapper)
        namespaces = [m for n, m in sys.modules.items() if n == "eum" or n.startswith("eum.")]
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, key, hit[1])


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def run(sidecar: str, command_id: str, trace: bool, argv: list[str]) -> int:
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    import eum.cli

    rc = 1
    try:
        rc = eum.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        _write(
            sidecar,
            {
                "command": command_id,
                "rc": rc,
                "blas_threads": blas_threads(),
                "spans": tracer.spans if tracer is not None else None,
            },
        )
    return rc


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "probe":
        _write(argv[1], environment())
        return 0
    if len(argv) >= 4 and argv[0] == "run":
        return run(argv[1], argv[2], argv[3] == "1", argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
