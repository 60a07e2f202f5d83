"""Every function and method of the package is entered by a real caller.

`drive` runs what the package's real callers run, under a `sys.setprofile`
hook that notes each code object it enters:
- each CLI example of README, through `cli.main`;
- README's Library block;
- both `scripts/`;
- `tests/test_acceptance.py`;
- one benchmark pass per perfbench workload, which builds, runs and checks
  a one-second pool.

The test runs it in a fresh interpreter and fails, with file:line, on any
`def` or `lambda` of `src/collapsim/` that the drive does not enter and
that `ALLOWED` does not exempt.  An exempt name that the drive does enter
fails too, so the list cannot go stale.  A code object is matched to its
definition by (file, first line, name), where the first line of a
decorated definition is that of its first decorator: `co_qualname` would
need Python 3.11.

Run `python tests/test_reachability.py OUT.json` to write the entered
(file, first line, name) triples to OUT.json.
"""

import ast
import contextlib
import functools
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "collapsim"
README = ROOT / "README.md"

# Definitions that no real caller enters, each with its reason.
ALLOWED = {
    "Dimension.__reduce__":
        "pickling and copying: they must return the interned instance, "
        "not write a copy's exponents into DIMENSIONLESS; only tests copy "
        "a Dimension",
    "evolve.<locals>.jump":
        "the direct path, kept until a workload measures it: at n >= 12 "
        "with <= 100 steps per gap it is 1.6-31x faster than the operator "
        "path (ROADMAP item 1b)",
}


def drive() -> None:
    """Everything the real callers run, in this interpreter; each part
    must succeed."""
    from collapsim import cli
    from test_cli import README_EXAMPLES   # pinned to README's CLI block
    for argv in README_EXAMPLES.values():
        assert cli.main(argv) == 0, argv

    library, = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                          re.M | re.S)
    exec(library, {})

    scripts = ROOT / "scripts"
    with tempfile.TemporaryDirectory() as outdir:
        for script, args in (("boundary_tables.py", []),
                             ("visibility_curves.py", ["--outdir", outdir])):
            sys.argv = [str(scripts / script), *args]
            runpy.run_path(sys.argv[0], run_name="__main__")

    import pytest
    assert pytest.main(["-q", "-p", "no:cacheprovider",
                        str(ROOT / "tests" / "test_acceptance.py")]) == 0

    sys.path.insert(0, str(ROOT / "perfbench"))
    import worker
    for workload in ("boundary-scan", "evolve-long", "trajectory-dense"):
        job = {"root": str(ROOT), "workload": workload, "seed": 1,
               "seconds": 1, "traced": False, "offset": 0}
        sys.argv = ["worker.py", json.dumps(job)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert worker.main() == 0, workload
        result = json.loads(out.getvalue().splitlines()[-1])
        assert result["failures"] == [], result["failures"]


def main(out: str) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        drive()
    finally:
        sys.setprofile(None)
    package = os.path.realpath(PACKAGE)
    triples = sorted({(os.path.basename(code.co_filename),
                       code.co_firstlineno, code.co_name)
                      for code in entered
                      if os.path.dirname(os.path.realpath(code.co_filename))
                      == package})
    Path(out).write_text(json.dumps(triples))


def definitions() -> dict[tuple, str]:
    """(file, first line, name) of each def and lambda of the package, to
    its qualified name."""
    found = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                first = min([d.lineno for d in
                             getattr(child, "decorator_list", [])]
                            + [child.lineno])
                found[(path.name, first, name)] = prefix + name
                visit(path, child, f"{prefix}{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(path, child, f"{prefix}{child.name}.")
            else:
                visit(path, child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path, ast.parse(path.read_text()), "")
    return found


@functools.cache
def entered() -> frozenset[tuple]:
    """The definitions the drive enters, from a fresh interpreter that
    inherits this one's environment (PYTHONDEVMODE, PYTHONWARNINGS)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "entered.json"
        proc = subprocess.run([sys.executable, __file__, str(out)],
                              capture_output=True, text=True, timeout=300,
                              cwd=tmp)
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr
        return frozenset(tuple(t) for t in json.loads(out.read_text()))


def test_every_definition_is_entered_by_a_real_caller():
    defined = definitions()
    assert {"Quantity.__lt__", "evolve.<locals>.jump",
            "_rhs.<locals>.<lambda>"} <= set(defined.values())
    missed = [f"src/collapsim/{file}:{line} {defined[file, line, name]}"
              for file, line, name in sorted(set(defined) - entered())
              if defined[file, line, name] not in ALLOWED]
    assert missed == []


def test_allowlist_names_only_definitions_the_drive_misses():
    defined = definitions()
    reached = {defined[key] for key in entered() if key in defined}
    assert [name for name in ALLOWED
            if name in reached or name not in defined.values()] == []


if __name__ == "__main__":
    main(sys.argv[1])
