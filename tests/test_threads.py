"""The EUM_THREADS cap holds when numpy is imported before eum."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from eum._threads import _BLAS_VARS

ROOT = Path(__file__).resolve().parents[1]

# bench/child.py's probe asks the loaded OpenBLAS itself for its count
SCRIPT = f"""
import importlib.util
import numpy
import eum
spec = importlib.util.spec_from_file_location("bench_child", {str(ROOT / "bench" / "child.py")!r})
child = importlib.util.module_from_spec(spec)
spec.loader.exec_module(child)
print(child.blas_threads())
"""


def test_thread_cap_holds_when_numpy_is_imported_first():
    # conftest exported the BLAS variables, which a child would inherit
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["EUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    threads = int(out.stdout)
    if threads == -1:
        pytest.skip("numpy loaded no OpenBLAS")
    assert threads == 1
