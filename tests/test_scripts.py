import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=120, env=env)


def test_boundary_tables_runs():
    proc = run_script("boundary_tables.py")
    assert proc.returncode == 0, proc.stderr
    assert "quantum/classical boundary summary" in proc.stdout
    assert "bisected" in proc.stdout


def test_visibility_curves_writes_three_csv_files(tmp_path):
    proc = run_script("visibility_curves.py", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = ["free_flight_boundary.csv", "trapped_classical.csv", "photon.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        lines = (tmp_path / name).read_bytes().decode().split("\r\n")
        assert lines[0] == "time_s,visibility"
        assert len(lines) > 3


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    traj = namespace["traj"]
    assert len(traj.min_eigenvalue) == len(traj.times) > 1
    assert traj.warnings == ()


def test_readme_names_only_what_exists():
    # Each backticked `<module>.<name>` of the prose (a `.py` file name
    # aside) and each `cs.<name>` must be bound in collapsim.
    readme = (ROOT / "README.md").read_text()
    prose = re.sub(r"```.*?```", "", readme, flags=re.DOTALL)
    modules = "|".join(["units", "states", "discrimination", "evolution",
                        "boundary", "cli", "schemas"])
    names = {(module, name) for span in re.findall(r"`([^`]+)`", prose)
             for module, name in re.findall(rf"\b({modules})\.(\w+)", span)
             if name != "py"}
    names |= {(None, name) for name in re.findall(r"\bcs\.(\w+)", readme)}
    assert len(names) >= 10
    for module, name in names:
        package = f"collapsim.{module}" if module else "collapsim"
        assert hasattr(importlib.import_module(package), name), (module, name)
