"""Every `pytest.approx` check in `tests/` states its whole tolerance.

`pytest.approx(expected, rel=r)` also accepts anything within its default
`abs=1e-12`, so for |expected| below 1e-12 / r that default, not r,
decides what passes: `pytest.approx(8.9e-27, rel=1e-12)` accepts any mass
below 1e-12 kg.  So a call that passes `rel=` passes `abs=` too.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def relative_only(source: str) -> list[int]:
    """The lines of the `approx` calls in the source that pass `rel=` but
    not `abs=`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        keywords = {k.arg for k in node.keywords}
        if name == "approx" and "rel" in keywords and "abs" not in keywords:
            lines.append(node.lineno)
    return lines


def test_every_relative_approx_states_its_absolute_tolerance():
    loose = [f"{path.name}:{line}" for path in sorted(TESTS.glob("*.py"))
             for line in relative_only(path.read_text())]
    assert loose == []


def test_the_scan_finds_a_relative_only_call():
    source = ("x == pytest.approx(8.9e-27, rel=1e-12)\n"
              "x == approx(1.0, rel=1e-9, abs=0)\n"
              "x == pytest.approx(\n    1.0,\n    rel=1e-9)\n")
    assert relative_only(source) == [1, 3]
