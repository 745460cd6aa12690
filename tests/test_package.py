import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy_and_every_export_resolves():
    # A fresh interpreter, so modules other tests imported do not count.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import revisit, revisit.cli\n"
        "missing = [n for n in revisit.__all__ if not hasattr(revisit, n)]\n"
        "assert not missing, f'stale exports: {missing}'\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not scipy, f'scipy modules loaded: {scipy[:5]}'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
