import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_benchmark_spans_install_on_the_program():
    # cosimbench/spans.py wraps program functions and methods by name; a
    # rename or deletion of one of them breaks the traced benchmark here.
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import spans; "
        "spans.instrument(spans.Recorder(0.0))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "cosimbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
