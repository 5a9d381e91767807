"""No module of ``src/repro`` imports a name it never uses.

No linter runs on this repository, so this scan is the guard.  A name
bound by an import counts as used when its module mentions it in a
``Name`` node or in a string constant (a quoted annotation, ``__all__``,
a docstring), or when some file of the repository imports it from that
module (a re-export).  Package ``__init__`` modules are skipped: their
imports are the package's public names.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
IMPORTING_DIRS = ("src", "tests", "benchmarks", "bench", "examples", "docs")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_from(trees) -> set:
    """``(module, name)`` for every ``from module import name``."""
    return {(node.module, alias.name)
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names}


def _bound_names(tree):
    """``(line, name)`` for every name an import binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _unused_imports():
    trees = {path: ast.parse(path.read_text(), str(path))
             for d in IMPORTING_DIRS
             for path in sorted((ROOT / d).rglob("*.py"))}
    reexported = _imported_from(trees.values())
    found = []
    for path, tree in trees.items():
        if SRC not in path.parents or path.name == "__init__.py":
            continue
        module = _module_name(path)
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        strings = [n.value for n in ast.walk(tree)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        for line, name in _bound_names(tree):
            if name in names or (module, name) in reexported:
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if any(word.search(s) for s in strings):
                continue
            found.append(f"{path.relative_to(ROOT)}:{line} {name}")
    return found


def test_no_module_imports_a_name_it_never_uses():
    found = _unused_imports()
    assert not found, "unused imports:\n" + "\n".join(found)
