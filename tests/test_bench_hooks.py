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


def test_bench_tracer_counts_specializations():
    # the tracer replaces symbolic.dual_specialized where the engine looks
    # it up; a driver that captured the original would show no marks
    src = str(Path(hilbloc.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import spans; "
        "tracer = spans.Tracer(); spans.install(tracer); "
        "from hilbloc import make_surface, quot_count, split_bundle; "
        "P2 = make_surface('P2'); "
        "assert quot_count(P2, split_bundle(P2, [-2, -3]), 1) == 6; "
        "print(tracer.counts['symbolic.dual_specialized'], "
        "tracer.counts['symbolic.specialization'])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "2"]


def test_bench_tracer_times_chern_rows():
    # the per-layer Chern metric wraps symbolic.signed_chern_coefficients
    # where the grown rows look it up; a captured original shows no span
    src = str(Path(hilbloc.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import spans; "
        "tracer = spans.Tracer(); spans.install(tracer); "
        "from hilbloc import make_surface, quot_count, split_bundle; "
        "P2 = make_surface('P2'); "
        "assert quot_count(P2, split_bundle(P2, [-2, -3]), 2) == 15; "
        "print(sum(s[0] == 'symbolic.signed_chern_coefficients' "
        "for s in tracer.spans))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) >= 1
