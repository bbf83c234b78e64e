"""The narrative scripts under demos/ run cleanly against the package."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_collected():
    assert [demo.name for demo in DEMOS] == [
        "datum_tour.py", "irreducibility_story.py", "lift_walkthrough.py",
        "multiset_calculus.py", "regularization_demo.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_exits_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, ""), demo.name
    assert done.stdout
