"""The demos the README advertises run to completion and print their results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import volbias

SRC = Path(volbias.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS, "no demo found next to src/"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
