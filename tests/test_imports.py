"""Every name a module of the package imports is read in that module.

Re-exports live in ``__init__.py``, which is skipped, and ``from
__future__`` imports bind no name that is read.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cupcalc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read, in order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_unused_imports_finds_what_is_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json.decoder\n"
        "from typing import List, Dict\n"
        "from . import linalg\n"
        "def f(x: List) -> int:\n"
        "    return json.decoder.scanstring and linalg.rank(x)\n"
    )
    assert unused_imports(source) == ["os", "osp", "Dict"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
