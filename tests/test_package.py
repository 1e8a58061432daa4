"""The package root and the README's library example."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_package_root_loads_no_submodule():
    # each name is imported from its own module, so ``import mcfqkd`` (and the
    # set-up time of every command) loads nothing but the root
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import mcfqkd; "
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('mcfqkd')), mcfqkd.__version__]))"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    modules, version = json.loads(run.stdout)
    assert modules == ["mcfqkd"]
    assert re.fullmatch(r"\d+\.\d+\.\d+", version)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.splitlines()) == 2, run.stdout
