"""Every function, class and method in src/eum is used by the package or
the benchmark, not only by tests.

A use is a name, an attribute or a word of a string constant anywhere in
src/eum or bench/ (bench/child.py names what it traces in strings).
Dunder methods are called by Python itself and are not checked.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).glob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}"


def _used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from re.findall(r"\w+", node.value)


def test_no_src_name_is_used_only_by_tests():
    used = set()
    defined = []
    for path, tree in _trees("src/eum", "bench"):
        used.update(_used(tree))
        if path.parent.name == "eum":
            defined += [(path.name, name) for name in _defined(tree)]
    unused = [f"{module}:{name}" for module, name in defined if name.split(".")[-1] not in used]
    assert unused == []
