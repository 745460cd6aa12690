"""Each demo script runs to completion against the package in src/."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
# The latitude profile takes about 0.85 s, each other demo under 0.5 s.
SLOW_DEMOS = {"02_latitude_profile"}


@pytest.mark.parametrize("demo", [
    pytest.param(d, id=d.stem, marks=[pytest.mark.slow] if d.stem in SLOW_DEMOS else [])
    for d in DEMOS
])
def test_demo_runs(demo, tmp_path):
    # Some demos write CSV files into the working directory.
    code = (
        f"import runpy, sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        f"runpy.run_path({str(demo)!r}, run_name='__main__')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
