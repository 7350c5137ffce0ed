"""Each demo runs without a warning and prints what demos/expected holds for it."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("[0-9][0-9]_*.py")), ids=lambda path: path.stem)
def test_demo_prints_its_expected_output(demo):
    # -W error turns any warning into an error, so the run fails on it.
    run = subprocess.run([sys.executable, "-W", "error", str(demo)], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (DEMOS / "expected" / f"{demo.name[:2]}.txt").read_text()
