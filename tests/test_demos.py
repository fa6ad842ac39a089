"""Every demo script, and README's quick-start block, runs to completion
against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
#: demos that take minutes rather than seconds
LONG = {"03_action_list.py"}


@pytest.mark.parametrize("demo", [
    pytest.param(p.name, marks=[pytest.mark.long] if p.name in LONG else [])
    for p in sorted((ROOT / "demos").glob("*.py"))
])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
