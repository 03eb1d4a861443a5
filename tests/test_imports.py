"""Static checks on the package sources: every imported name and every
module-level private name is read."""

import ast
from pathlib import Path

import pytest

import kpcurve

SOURCES = sorted(Path(kpcurve.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            # "import a.b" binds "a"; "import a.b as c" and "from a import b as c" bind "c"
            for alias in node.names:
                bound = alias.asname or alias.name
                imported.append(bound if isinstance(node, ast.ImportFrom) else bound.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used | exported]


def unused_private_names(source: str) -> list[str]:
    """Module-level private names (a ``_name`` function, class or assignment)
    that no other top-level statement of the module reads, in definition
    order; a function that only calls itself is unused."""
    body = ast.parse(source).body
    reads = [
        {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in body
    ]
    unused = []
    for i, node in enumerate(body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in bound:
            private = name.startswith("_") and not name.startswith("__")
            if private and not any(name in read for j, read in enumerate(reads) if j != i):
                unused.append(name)
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import json\n", ["json"]),
        ("import json\njson.loads('1')\n", []),
        ("import xml.etree.ElementTree as ET\n", ["ET"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b, c as d\nd()\n", ["b"]),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from __future__ import annotations\n", []),
        ("def f():\n    import json\n", ["json"]),
    ],
)
def test_checker_finds_unused_names(source, unused):
    assert unused_imports(source) == unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("def _f():\n    pass\n", ["_f"]),
        ("def _f():\n    pass\n_f()\n", []),
        ("class _C:\n    pass\n", ["_C"]),
        ("class _C:\n    pass\nx: _C = None\n", []),
        ("_A = 1\n", ["_A"]),
        ("_A, (_B, c) = 1, (2, 3)\nprint(_B)\n", ["_A"]),
        ("_A: int = 1\n", ["_A"]),
        ("_A = 1\ndef f(x=_A):\n    return x\n", []),
        ("_A = {}\n_B = {**_A}\n", ["_B"]),
        ("__version__ = '1'\npublic = 1\n", []),
        ("def f():\n    _local = 1\n", []),
        ("def _f():\n    return _f()\n", ["_f"]),
    ],
)
def test_checker_finds_unused_private_names(source, unused):
    assert unused_private_names(source) == unused
