"""Smoke test: every demo script runs to completion against the package, and
the README's quick tour prints what it shows."""

import doctest
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert [d.name for d in DEMOS] == [
        "construct_supersingular.py",
        "curve_invariants.py",
        "prime_splitting.py",
        "type_census.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, src_env):
    proc = subprocess.run(
        [sys.executable, str(demo)], env=src_env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_quick_tour():
    # the ```python blocks as one doctest sharing one namespace; cutting each
    # block at its closing fence keeps the fence out of the expected output
    readme = ROOT / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), re.M | re.S)
    test = doctest.DocTestParser().get_doctest(
        "\n".join(blocks), {}, "README quick tour", str(readme), 0)
    results = doctest.DocTestRunner().run(test)
    assert results.attempted > 0
    assert results.failed == 0
