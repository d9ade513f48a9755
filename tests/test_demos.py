"""The demos and the README quick start run as written, and the README's
DSL example parses, so a public name or a DSL form they use cannot be
deleted unnoticed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lpacket
from lpacket.dsl import parse, print_document

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_code(heading):
    """The first code block under ``heading`` in the README."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n{heading}\n", 1)[1]
    return re.search(r"```\w*\n(.*?)```", section, re.S).group(1)


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
    result = _run(["-c", _readme_code("## Library quick start")])
    assert result.returncode == 0, result.stderr
    assert result.stdout == "One\n"


def test_readme_dsl_example_round_trips():
    doc = parse(_readme_code("## The DSL"))
    assert [name for name, _ in doc.params] == ["phi1", "phi"]
    printed = print_document(doc)
    assert parse(printed) == doc
    assert print_document(parse(printed)) == printed
