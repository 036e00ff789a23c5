"""Smoke test: every demo script runs to completion against the package."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
