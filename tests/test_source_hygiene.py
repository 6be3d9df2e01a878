"""Static checks on the engine's own source, using only the standard library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "catend"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never referenced as a name."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_detector_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from json import dumps, loads as parse\n"
              "print(os.sep, parse)\n")
    assert unused_imports(source) == ["dumps", "system"]


def test_no_unused_imports_in_engine_modules():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}
