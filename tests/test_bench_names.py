"""The benchmark's traced names resolve in eum.

bench/child.py skips a TRACED name it cannot find and then reports
calls=0, so a renamed or deleted function would silently zero a per-layer
metric. This test reads TRACED from that file, by path, and resolves every
entry, "Class.method" ones included.
"""

import importlib
import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = []
    for module_name, attrs in traced.items():
        module = importlib.import_module(f"eum.{module_name}")
        for attr in attrs:
            target = module
            for part in attr.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"{module_name}.{attr}")
    assert missing == []
