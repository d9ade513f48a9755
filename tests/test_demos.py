"""The demos and the README quick start run as written, so a public name
they import cannot be deleted unnoticed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lpacket

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _quick_start():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _run(args):
    src = os.path.dirname(os.path.dirname(lpacket.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_demos_exist():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    result = _run([str(demo)])
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs():
    result = _run(["-c", _quick_start()])
    assert result.returncode == 0, result.stderr
    assert result.stdout == "One\n"
