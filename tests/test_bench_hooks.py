"""The benchmark's span tracer finds every engine name it wraps."""

import os
import subprocess
import sys
from pathlib import Path

import hilbloc

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_installs():
    # bench/spans.py wraps engine functions and AmbientClass methods by
    # name; a renamed or deleted one makes every traced run die at start-up.
    src = str(Path(hilbloc.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); "
        "import spans; spans.install(spans.Tracer())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
