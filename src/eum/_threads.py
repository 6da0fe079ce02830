"""BLAS thread caps driven by the EUM_THREADS environment variable.

Applied when the package is imported (see the package __init__). Unset, "0",
or "1" selects fully deterministic single-threaded math — matrix reductions
then always accumulate in the same order. Larger values allow that many
BLAS threads. A BLAS loads its count from the environment, so if numpy
loaded first, its bundled OpenBLAS is given the count directly.
"""

from __future__ import annotations

import os
import sys

_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def requested_threads() -> int:
    """Thread count implied by EUM_THREADS (>= 1)."""
    raw = os.environ.get("EUM_THREADS", "1").strip()
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def _set_openblas_threads(n: int) -> None:
    """Set the thread count of the OpenBLAS bundled with the loaded numpy."""
    import ctypes
    import glob

    site = os.path.dirname(os.path.dirname(sys.modules["numpy"].__file__))
    for path in sorted(glob.glob(os.path.join(site, "numpy.libs", "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                       "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                fn(n)
                return


def apply_thread_cap() -> int:
    """Export the cap to every BLAS backend; returns the cap."""
    n = requested_threads()
    # numpy's OpenBLAS, if loaded already, found no count to read
    late = "numpy" in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
    for var in _BLAS_VARS:
        os.environ.setdefault(var, str(n))
    if late:
        _set_openblas_threads(n)
    return n


apply_thread_cap()
