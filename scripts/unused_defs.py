"""List the top-level ``gdal_ray`` functions and classes that nothing uses,
and those that only tests use, with their line counts.

    python scripts/unused_defs.py

A definition's name counts as used when it appears as a name, an attribute
or an import alias anywhere in a git-tracked ``.py`` file (its own module
included). A use in a test file (under ``tests/``, or named ``test_*.py``
or ``conftest.py``) makes it test-only when no other file uses it.
Decorated definitions (registry steps, dataclasses, ...) are left out:
the decorator reaches them without a name.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _is_test(path: str) -> bool:
    name = os.path.basename(path)
    return path.startswith("tests/") or name.startswith("test_") or name == "conftest.py"


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname


def scan(root: str = ROOT):
    """(unused, test_only): lists of (path, line, name, lines) of the
    undecorated top-level defs and classes under ``gdal_ray``."""
    files = subprocess.run(["git", "ls-files", "*.py"], cwd=root, capture_output=True,
                           text=True, check=True).stdout.split()
    uses, test_uses, defs = Counter(), Counter(), []
    for path in files:
        with open(os.path.join(root, path), encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        (test_uses if _is_test(path) else uses).update(_names(tree))
        if path.startswith("gdal_ray/"):
            defs += [
                (path, node.lineno, node.name, node.end_lineno - node.lineno + 1)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.decorator_list
            ]
    unused = [d for d in defs if not uses[d[2]] and not test_uses[d[2]]]
    test_only = [d for d in defs if not uses[d[2]] and test_uses[d[2]]]
    return unused, test_only


def main() -> int:
    for title, found in zip(("unused", "test-only"), scan()):
        print(f"{title}: {len(found)} definitions, {sum(d[3] for d in found)} lines")
        for path, line, name, lines in sorted(found, key=lambda d: (-d[3], d[0], d[1])):
            print(f"  {lines:5d}  {path}:{line}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
