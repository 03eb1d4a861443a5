"""Static checks on the package sources: every imported name is used."""

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
