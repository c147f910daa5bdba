"""Each demo prints exactly its golden output, tests/golden/demos/<name>.txt."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PATHS = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, PATHS)))


def test_every_demo_has_a_golden():
    goldens = sorted((ROOT / "tests" / "golden" / "demos").glob("*.txt"))
    assert [g.stem for g in goldens] == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_golden(demo):
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        env=ENV, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    want = (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt").read_bytes()
    assert proc.stdout == want
