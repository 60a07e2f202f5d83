"""Every name the package exports has a use beyond its own unit tests.

A name imported into `collapsim/__init__.py` counts as used where it is
read in another module of the package, in `scripts/`, in `perfbench/` or
in `tests/test_acceptance.py` (as a Python identifier: a name, an
attribute or an imported name, not a word in a comment, docstring or
string), or where README mentions it.  A name that only its own tests
call is surface with no caller; drop it, or give it one.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "collapsim"


def exports() -> dict[str, str]:
    """Each name `__init__.py` imports from a package module, to that module."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def identifiers(path: Path) -> set[str]:
    """The names, attributes and imported names a Python file reads."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def users(name: str, module: str) -> list[str]:
    """The places outside the module and its unit tests that use the name."""
    sources = [p for p in PACKAGE.glob("*.py")
               if p.stem not in ("__init__", module)]
    sources += sorted((ROOT / "scripts").glob("*.py"))
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    sources.append(ROOT / "tests" / "test_acceptance.py")
    found = [p for p in sources if name in identifiers(p)]
    readme = ROOT / "README.md"
    if re.search(rf"\b{re.escape(name)}\b", readme.read_text()):
        found.append(readme)
    return [p.relative_to(ROOT).as_posix() for p in found]


def test_every_exported_name_has_a_caller():
    names = exports()
    assert {"evolve", "validate", "pure_state"} <= set(names)
    unused = [f"{module}.{name}" for name, module in sorted(names.items())
              if not users(name, module)]
    assert unused == []
