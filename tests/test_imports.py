"""Every name a vknot module imports is used in that module, and every
private module-level name is read somewhere in the package."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import vknot

PACKAGE = sorted(Path(vknot.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_detector():
    assert unused_imports("import os\nfrom x import a, b as c\nc()\n") \
        == ["os", "a"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_names(source: str) -> list[str]:
    """Names starting with one underscore that the module's top level
    binds by def, class or assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_names(source: str) -> set[str]:
    """Names the source reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_private_detector():
    source = "_A = 1\n_b: int = 2\n__all__ = []\ndef _f(): pass\nclass _C: pass\n" \
             "def g():\n    _local = 3\n"
    assert private_names(source) == ["_A", "_b", "_f", "_C"]
    assert read_names("_A\nm._f()\n_x = 1\n") == {"_A", "m", "_f"}


def test_no_unread_private_names():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE]
    read = set().union(*map(read_names, sources))
    unread = [f"{p.name}:{name}" for p, source in zip(PACKAGE, sources)
              for name in private_names(source) if name not in read]
    assert unread == []
