"""Each demo prints exactly its pinned output, golden/demos/<demo>.txt.

The demos are deterministic, so any change to their stdout is a change of
behaviour.  Regenerate a golden only for an intended change:
``PYTHONPATH=src python demos/<demo>.py > tests/golden/demos/<demo>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def test_every_demo_has_a_golden():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout_matches_golden(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         env=env, cwd=ROOT, check=False)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
