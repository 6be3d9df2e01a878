"""Line coverage of the engine by the tier-1 suite, with the standard library only.

Run from the repository root:

    python3 tests/line_coverage.py

It runs the suite under ``tests/`` in this process (``pytest -q -p
no:cacheprovider``) with a ``sys.settrace`` line recorder, then prints the
totals and, per module of ``src/catend``, each statement that no test reached.
A statement is reached when a line event fires on one of its own lines: the
whole of a simple statement, the header of a compound one (decorators
included).  Docstrings and the body of ``if __name__ == "__main__":`` are not
counted as statements.  It takes about a minute on a 2-vCPU VM; pytest
does not collect it, since its name does not start with ``test_``.

Blind spots: only this process is traced, so code a test runs in a
subprocess is not counted; nor is code run from a compiled copy of an engine
source, since its frames do not run in the module's own namespace.  That is
how ``test_quantale_tables.mutant_builder`` tests the adjunction replay of
``quantale.quantale_from_tables``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "catend"


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _is_main_guard(node: ast.stmt) -> bool:
    t = node.test if isinstance(node, ast.If) else None
    return (isinstance(t, ast.Compare) and isinstance(t.left, ast.Name)
            and t.left.id == "__name__" and len(t.comparators) == 1
            and isinstance(t.comparators[0], ast.Constant)
            and t.comparators[0].value == "__main__")


def statements(source: str) -> dict[int, range]:
    """First line of each statement -> the lines whose events count for it."""
    out: dict[int, range] = {}

    def visit(body: list[ast.stmt], scope: bool) -> None:
        for k, node in enumerate(body):
            if scope and k == 0 and _is_docstring(node):
                continue
            inner = [(b, isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
                     for b in (getattr(node, "body", None), getattr(node, "orelse", None),
                               getattr(node, "finalbody", None)) if b]
            inner += [(h.body, False) for h in getattr(node, "handlers", [])]
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            end = min([b[0].lineno - 1 for b, _ in inner] or [node.end_lineno])
            out[node.lineno] = range(start, max(start, end) + 1)
            for h in getattr(node, "handlers", []):
                out[h.lineno] = range(h.lineno, max(h.lineno, h.body[0].lineno - 1) + 1)
            if not _is_main_guard(node):
                for b, is_scope in inner:
                    visit(b, is_scope)

    visit(ast.parse(source).body, True)
    return out


def record(argv: list[str]) -> tuple[dict[str, set[int]], int]:
    """Lines hit per engine file while pytest runs argv, and pytest's exit code."""
    hits: dict[str, set[int]] = {}
    src = str(SRC) + "/"
    modules = sys.modules

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(src):
            return None
        # a compiled copy runs in another namespace and has its own line numbers
        name = frame.f_globals.get("__name__")
        module = modules.get(name)
        if module is not None and frame.f_globals is not module.__dict__:
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(SRC.parent))
    import pytest

    sys.settrace(on_call)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
    return hits, int(code)


def main() -> int:
    hits, code = record([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    total = reached = 0
    report: list[str] = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        seen = hits.get(str(path), set())
        stmts = statements(source)
        missed = [n for n, span in sorted(stmts.items()) if not seen.intersection(span)]
        total += len(stmts)
        reached += len(stmts) - len(missed)
        if missed:
            report.append(f"{path.name}: {len(missed)} of {len(stmts)} not reached")
            report += [f"  {path.name}:{n}  {lines[n - 1].strip()}" for n in missed]
    print()
    print(f"engine statements reached: {reached} of {total} ({total - reached} not reached)")
    print("\n".join(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
