"""Every public name of the package has a use beyond its own unit tests.

A name counts as used where it is read in a package module, in
`scripts/`, in `perfbench/` or in `tests/test_acceptance.py` (as a Python
identifier: a loaded name, an attribute or an imported name, not a word in
a comment, docstring or string), or where README mentions it.
`__init__.py`'s re-exports are not uses.  A name that only its own tests
call is surface with no caller; drop it, or give it one.  README's Library
example is run here too, so that what it shows is a use that works.

Two rules apply it.  A name `collapsim/__init__.py` exports must be used
outside the module that defines it.  Every public top-level function,
class and constant of a package module, and every public classmethod and
staticmethod, must be used somewhere other than its own definition.  A
class-level method is matched by its qualified name `Class.name` (an
attribute read on the class, `cs.Hamiltonian.zero` included), since a name
such as `zero` alone collides across classes and a read of one would vouch
for all of them.  Instance methods and properties are not covered: they
are read on instances, so only their names, such as `to_json` and `dim`,
could be matched.
"""

import ast
import functools
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "collapsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def exports() -> dict[str, str]:
    """Each name `__init__.py` imports from a package module, to that module."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def definitions(path: Path) -> list[str]:
    """The public functions, classes and constants a module defines at its
    top level, and its classes' classmethods and staticmethods as
    `Class.name`."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and any(isinstance(d, ast.Name) and d.id in
                              ("classmethod", "staticmethod")
                              for d in item.decorator_list)]
    return [name for name in names
            if not any(part.startswith("_") for part in name.split("."))]


@functools.cache
def identifiers(path: Path) -> frozenset[str]:
    """The names, attributes and imported names a Python file reads, and
    each attribute read on a name as `owner.attr` (`Hamiltonian.zero` in
    `cs.Hamiltonian.zero`)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
            if isinstance(node.value, ast.Name):
                found.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node.value, ast.Attribute):
                found.add(f"{node.value.attr}.{node.attr}")
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return frozenset(found)


def users(name: str, skip: str | None = None) -> list[str]:
    """The places that use the name, leaving out the module `skip`."""
    sources = [p for p in MODULES if p.stem != skip]
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
              if not users(name, skip=module)]
    assert unused == []


def test_every_public_module_name_is_read():
    names = {path.stem: definitions(path) for path in MODULES}
    assert {"evolve", "Hamiltonian", "TRACE_TOL", "Hamiltonian.zero"} <= {
        name for defined in names.values() for name in defined}
    unread = [f"{module}.{name}" for module, defined in names.items()
              for name in defined if not users(name)]
    assert unread == []


def test_readme_library_example_runs_without_warnings():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", blocks[0]],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
