#!/usr/bin/env python3
"""Count the settable values of the lookforge library.

A settable value is a public parameter with a default of a public
function or method (names without a leading underscore, ``__init__``
included) or a field with a default of a public dataclass. Each one is a
knob a caller can turn, so the count tracks how many configurations the
code has to support.
Every value is listed as ``path:line  name``, then the total, then the
package's line count (``lines <n>``, all ``*.py`` files).

Usage:
    python scripts/count_settable.py [package dir, default src/lookforge]
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lookforge"


def _is_public(name: str) -> bool:
    return name == "__init__" or not name.startswith("_")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _defaulted_params(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [name for name in names if not name.startswith("_")]


def settable_values(path: Path) -> list[tuple[int, str]]:
    """(line, qualified name) of every settable value in one module."""
    found: list[tuple[int, str]] = []

    def visit(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_public(node.name):
                    found.extend(
                        (node.lineno, f"{prefix}{node.name}({name}=)")
                        for name in _defaulted_params(node)
                    )
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if _is_dataclass(node):
                    found.extend(
                        (stmt.lineno, f"{node.name}.{stmt.target.id}")
                        for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign)
                        and stmt.value is not None
                        and isinstance(stmt.target, ast.Name)
                    )
                visit(node.body, f"{node.name}.")

    visit(ast.parse(path.read_text(encoding="utf-8")).body, "")
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else DEFAULT_PACKAGE
    total = lines = 0
    for path in sorted(package.glob("*.py")):
        for line, name in settable_values(path):
            print(f"{path.name}:{line}  {name}")
            total += 1
        lines += len(path.read_text(encoding="utf-8").splitlines())
    print(f"total {total}")
    print(f"lines {lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
