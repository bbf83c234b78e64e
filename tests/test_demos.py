"""The narrative scripts under demos/ run cleanly against the package and
print, byte for byte, what they printed when their digests were recorded."""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout, which does not depend on PYTHONHASHSEED
STDOUT_DIGESTS = {
    "datum_tour.py":
        "d1d2b20780601a3d6b1e376533863c8a62de02be23ae0dd9ae3ce8645ae63457",
    "irreducibility_story.py":
        "39fcd80f55c53f1f45cb9614ccaf2e770cd4b4016fb2fd5f953c737195a9eaf2",
    "lift_walkthrough.py":
        "ffd30d31bd5d2ea834d73b5d6a1adc17205e042c9bced4c134109087f56ae399",
    "multiset_calculus.py":
        "52682e3c7f90a7544038a80bd9baad8b80ed7d96dff1978870ae76824fe907f8",
    "regularization_demo.py":
        "f7c254f31c5f8cf03db84fe953fb8f6ef534c2531c403ede1f98ec52019990f0",
}


def test_all_five_demos_are_collected():
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_DIGESTS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_exits_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, ""), demo.name
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == STDOUT_DIGESTS[demo.name]
