"""Static checks on the package sources: every imported name and every
module-level private name is read, every module-level public name is
read somewhere in the package, only the CLI talks to the terminal, only
the gated writers of ``report`` call ``orjson.dumps``, only the CLI's
opener and writer touch files, every CLI command returns ``EXIT_OK`` or
raises, only the CLI's reader and namer name a source, the CLI writes
only warnings to stderr outside ``main``, and the package imports exactly
the third-party modules it declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

import kpcurve

SOURCES = sorted(Path(kpcurve.__file__).resolve().parent.glob("*.py"))
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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


def defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level function, class or assignment binds; an import binds none."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def loaded_names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_private_names(source: str) -> list[str]:
    """Module-level private names (a ``_name`` function, class or assignment)
    that no other top-level statement of the module reads, in definition
    order; a function that only calls itself is unused."""
    body = ast.parse(source).body
    reads = [loaded_names(node) for node in body]
    unused = []
    for i, node in enumerate(body):
        for name in defined_names(node):
            private = name.startswith("_") and not name.startswith("__")
            if private and not any(name in read for j, read in enumerate(reads) if j != i):
                unused.append(name)
    return unused


def terminal_uses(source: str) -> list[str]:
    """The ``print`` calls and ``stdout``/``stderr`` names and attributes of a
    module, in source order."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
            uses.append((node.lineno, node.col_offset, "print"))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = getattr(node, "id", None) or node.attr
            if name in ("stdout", "stderr"):
                uses.append((node.lineno, node.col_offset, name))
    return [name for *_, name in sorted(uses)]


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """Module-level public names (a function, class or assignment whose name
    has no leading underscore) that no other top-level statement of any
    module reads, as ``module.name`` in module and definition order.

    A read is a loaded name or an attribute (``module.name``), matched by
    name alone; an import is not a read, so a name that only tests
    import is unread.
    """
    statements = [
        (module, node) for module, source in sources.items() for node in ast.parse(source).body
    ]
    reads = [
        loaded_names(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        for _, node in statements
    ]
    return [
        f"{module}.{name}"
        for i, (module, node) in enumerate(statements)
        for name in defined_names(node)
        if not name.startswith("_")
        and not any(name in read for j, read in enumerate(reads) if j != i)
    ]


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


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "cli.py"], ids=lambda path: path.name
)
def test_only_the_cli_talks_to_the_terminal(path):
    """Library modules return what they find as data; ``cli`` writes it."""
    assert terminal_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, uses",
    [
        ("def f(stream, stderr_lines):\n    stream.write(''.join(stderr_lines))\n", []),
        ("import sys\nprint(1)\nsys.stderr.write('x')\nstdout = None\n",
         ["print", "stderr", "stdout"]),
    ],
)
def test_checker_finds_terminal_uses(source, uses):
    assert terminal_uses(source) == uses


def test_no_unread_public_names():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unread_public_names(sources) == []


@pytest.mark.parametrize(
    "sources, unread",
    [
        ({"a": "def f():\n    pass\n"}, ["a.f"]),
        ({"a": "def f():\n    pass\n", "b": "from .a import f\nf()\n"}, []),
        ({"a": "class C:\n    pass\n", "b": "from .a import C\n"}, ["a.C"]),
        ({"a": "X = 1\n", "b": "from . import a\nprint(a.X)\n"}, []),
        ({"a": "X, Y = 1, 2\nZ: int = X\n"}, ["a.Y", "a.Z"]),
        ({"a": "def f():\n    return f()\n"}, ["a.f"]),
        ({"a": "LIMIT = 1\ndef f(x=LIMIT):\n    return x\nf()\n"}, []),
        ({"a": "_X = 1\n__version__ = '1'\n"}, []),
    ],
)
def test_checker_finds_unread_public_names(sources, unread):
    assert unread_public_names(sources) == unread


# the writers that gate what they hand orjson.dumps, by module
GATED_WRITERS = {"report": {"dumps_frame", "_item"}}


def ungated_orjson_uses(sources: dict[str, str]) -> list[str]:
    """Each way round the gated writers, in module and source order: an import
    of orjson outside ``report``, a ``from orjson import`` or a renamed
    ``import orjson`` anywhere, and an ``orjson.dumps`` outside the
    module's gated top-level functions."""
    uses = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("orjson"):
                    uses.append(f"{module}:{node.lineno}: from orjson import")
                elif isinstance(node, ast.Import) and any(
                    alias.name.split(".")[0] == "orjson"
                    and (module != "report" or alias.asname is not None)
                    for alias in node.names
                ):
                    uses.append(f"{module}:{node.lineno}: import orjson")
                elif (
                    isinstance(node, ast.Attribute)
                    and node.attr == "dumps"
                    and getattr(node.value, "id", None) == "orjson"
                    and owner not in GATED_WRITERS.get(module, ())
                ):
                    uses.append(f"{module}:{node.lineno}: orjson.dumps")
    return uses


def test_orjson_writes_only_through_the_gated_writers():
    """orjson's text differs from json's for some floats, ints and text;
    only the writers that check each value first may call it."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert ungated_orjson_uses(sources) == []


@pytest.mark.parametrize(
    "sources, uses",
    [
        (
            {
                "report": "import orjson\ndef _item(v):\n    return orjson.dumps(v)\n"
                "def dumps_frame(v):\n    def inner():\n        return orjson.dumps(v)\n"
                "orjson.loads('1')\n",
                "cli": "from .report import dumps_frame\n",
            },
            [],
        ),
        (
            {
                "report": "import orjson\nimport orjson as oj\nfrom orjson import dumps\n"
                "def f(v):\n    return orjson.dumps(v)\nclass C:\n    w = orjson.dumps\n"
                "x = orjson.dumps(1)\n",
                "cli": "import orjson.x\n",
            },
            [
                "report:2: import orjson",
                "report:3: from orjson import",
                "report:5: orjson.dumps",
                "report:7: orjson.dumps",
                "report:8: orjson.dumps",
                "cli:1: import orjson",
            ],
        ),
    ],
    ids=["passing", "failing"],
)
def test_checker_finds_ungated_orjson_uses(sources, uses):
    assert ungated_orjson_uses(sources) == uses


# the one opener and the one writer, by module
FILE_OWNERS = {"cli": {"_source", "_write"}}
FILE_CALLS = {"open", "read_text", "write_text", "write_bytes", "unlink"}


def file_uses(sources: dict[str, str]) -> list[str]:
    """Each ``open``, ``read_text``, ``write_text``, ``write_bytes`` or ``unlink``,
    as a name or an attribute, outside the module's top-level functions that
    own file access, in module and source order."""
    uses = []
    for module, source in sources.items():
        found = []
        for top in ast.parse(source).body:
            if isinstance(top, ast.FunctionDef) and top.name in FILE_OWNERS.get(module, ()):
                continue
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name in FILE_CALLS:
                    found.append((node.lineno, node.col_offset, f"{module}:{node.lineno}: {name}"))
        uses.extend(use for *_, use in sorted(found))
    return uses


def test_files_open_only_through_the_cli_opener_and_writer():
    """One opener decides how an input is read and one writer how an output is
    written and, when a write fails, what is removed."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert file_uses(sources) == []


@pytest.mark.parametrize(
    "sources, uses",
    [
        (
            {
                "cli": "def _source(path):\n    return open(path)\n"
                "def _write(path):\n    def inner():\n        Path(path).unlink()\n",
                "report": "def f(stream, source):\n    stream.write(source.read())\n",
            },
            [],
        ),
        (
            {
                "cli": "def _read(path):\n    return open(path).read()\n"
                "class C:\n    def _source(self, path):\n        return path.read_text()\n",
                "synth": "def _source(path):\n    return open(path)\n"
                "x = Path('a').write_bytes(b''); os.unlink('a')\nopener, y = open, p.write_text\n",
            },
            [
                "cli:2: open",
                "cli:5: read_text",
                "synth:2: open",
                "synth:3: write_bytes",
                "synth:3: unlink",
                "synth:4: open",
                "synth:4: write_text",
            ],
        ),
    ],
    ids=["passing", "failing"],
)
def test_checker_finds_file_uses(sources, uses):
    assert file_uses(sources) == uses


def non_ok_returns(source: str) -> list[str]:
    """Each ``return`` of a top-level ``_cmd_*`` function whose value is not
    the name ``EXIT_OK``, as ``function:line``, in source order."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name.startswith("_cmd_"):
            returns = [node for node in ast.walk(top) if isinstance(node, ast.Return)]
            found.extend(
                f"{top.name}:{node.lineno}"
                for node in sorted(returns, key=lambda node: node.lineno)
                if getattr(node.value, "id", None) != "EXIT_OK"
            )
    return found


def test_commands_succeed_or_raise():
    """A command returns ``EXIT_OK`` or raises; ``main`` alone writes a fault's
    message and picks its exit code."""
    assert non_ok_returns((Path(kpcurve.__file__).parent / "cli.py").read_text("utf-8")) == []


@pytest.mark.parametrize(
    "source, returns",
    [
        (
            "def _cmd_a(args):\n    if args:\n        raise ValueError(args)\n    return EXIT_OK\n"
            "def helper():\n    return 3\n"
            "class C:\n    def _cmd_b(self):\n        return 2\n",
            [],
        ),
        (
            "def _cmd_a(args):\n    if args:\n        return EXIT_GEOMETRY\n    return\n"
            "def _cmd_b(args):\n    def inner():\n        return 1\n    return cli.EXIT_OK\n",
            ["_cmd_a:3", "_cmd_a:4", "_cmd_b:7", "_cmd_b:8"],
        ),
    ],
    ids=["passing", "failing"],
)
def test_checker_finds_non_ok_returns(source, returns):
    assert non_ok_returns(source) == returns


def reads_outside(source: str, name: str, readers: set[str]) -> list[str]:
    """Each read of ``name`` outside the top-level functions ``readers``, as
    ``owner:line`` in source order, ``owner`` being the top-level function or
    class it lies in, or the line of another top-level statement."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name in readers:
            continue
        found.extend(
            (node.lineno, f"{getattr(top, 'name', top.lineno)}:{node.lineno}")
            for node in ast.walk(top)
            if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
        )
    return [read for _, read in sorted(found)]


def test_only_the_reader_and_the_namer_name_a_source():
    """How a message names its input (``_where``) is decided once: a command
    names a fault of what it read by reading through ``_named``."""
    source = (Path(kpcurve.__file__).parent / "cli.py").read_text("utf-8")
    assert reads_outside(source, "_where", {"_read_text", "_named"}) == []


@pytest.mark.parametrize(
    "source, reads",
    [
        (
            "def _where(p):\n    return p\ndef _named(p):\n    return _where(p)\n"
            "def _cmd(args):\n    _where = 1\n    return _named(args)\n",
            [],
        ),
        (
            "def _where(p):\n    return p\ndef _cmd(args):\n    return _where(args)\n"
            "x = [_where(a) for a in ()]\nclass C:\n    def _named(self):\n        _where(1)\n",
            ["_cmd:4", "5:5", "C:8"],
        ),
    ],
    ids=["passing", "failing"],
)
def test_checker_finds_reads_outside(source, reads):
    assert reads_outside(source, "_where", {"_named"}) == reads


WARNING = "kpcurve: warning: "


def unshaped_warnings(source: str) -> list[str]:
    """Each ``stderr.write`` outside the top-level function ``main`` whose
    argument is not a string literal, or an f-string, that starts with
    ``WARNING``, as ``owner:line`` in source order, as :func:`reads_outside` names them."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == "main":
            continue
        for node in ast.walk(top):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "write"
                and getattr(node.func.value, "id", None) == "stderr"
            ):
                continue
            text = node.args[0] if len(node.args) == 1 else None
            if isinstance(text, ast.JoinedStr):  # an f-string: its first piece
                text = text.values[0]
            if not (isinstance(text, ast.Constant) and str(text.value).startswith(WARNING)):
                found.append((node.lineno, f"{getattr(top, 'name', top.lineno)}:{node.lineno}"))
    return [write for _, write in sorted(found)]


def test_the_cli_warns_in_one_shape():
    """A command writes to stderr only warnings, each ``kpcurve: warning: ...``:
    a warning never ends a run, and ``main`` alone writes a fault's
    ``kpcurve <command>: <message>`` line."""
    source = (Path(kpcurve.__file__).parent / "cli.py").read_text("utf-8")
    assert unshaped_warnings(source) == []


@pytest.mark.parametrize(
    "source, writes",
    [
        (
            "def main(stderr):\n    stderr.write(f'kpcurve {x}: fault')\n"
            "def _cmd(stderr, n):\n    stderr.write('kpcurve: warning: a\\n')\n"
            "    stderr.write(f'kpcurve: warning: {n} b\\n')\n    out.write('x')\n",
            [],
        ),
        (
            "def _cmd(stderr, text):\n    stderr.write('kpcurve _cmd: no cases\\n')\n"
            "    stderr.write(text)\n    stderr.write(f'{text}kpcurve: warning: ')\n"
            "class C:\n    def main(self, stderr):\n        stderr.write('x', 1)\n",
            ["_cmd:2", "_cmd:3", "_cmd:4", "C:7"],
        ),
    ],
    ids=["passing", "failing"],
)
def test_checker_finds_unshaped_warnings(source, writes):
    assert unshaped_warnings(source) == writes


def dependency_mismatch(sources: list[str], pyproject: str) -> tuple[list[str], list[str]]:
    """The top-level modules that ``sources`` import from outside the standard
    library but ``pyproject``'s ``dependencies`` do not name, and the names
    those dependencies give that no source imports, each sorted. A relative
    import is the package's own; a requirement's name is read up to its
    version specifier, and each name here is also its import name."""
    tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11
    imported = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    imported -= sys.stdlib_module_names
    requirements = tomllib.loads(pyproject)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9._-]+", requirement).group() for requirement in requirements}
    return sorted(imported - declared), sorted(declared - imported)


def test_imports_match_declared_dependencies():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert dependency_mismatch(sources, PYPROJECT.read_text(encoding="utf-8")) == ([], [])


@pytest.mark.parametrize(
    "sources, mismatch",
    [
        (
            ["import json\nimport numpy as np\nfrom . import report\n", "import orjson.x\n"],
            ([], []),
        ),
        (
            ["from yaml import safe_load\nfrom __future__ import annotations\n"],
            (["yaml"], ["numpy", "orjson"]),
        ),
    ],
    ids=["passing", "failing"],
)
def test_checker_finds_dependency_mismatch(sources, mismatch):
    pyproject = '[project]\ndependencies = ["numpy>=1.24", "orjson >= 3.8"]\n'
    assert dependency_mismatch(sources, pyproject) == mismatch
