"""The traced benchmark finds every name it wraps.

`bench/traced.py` looks up layer entry points by name; a rename or a
deletion in `src/` should fail here rather than only in a benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

import flagless

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_benchmark_installs():
    package_root = os.path.dirname(os.path.dirname(flagless.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(BENCH), package_root, os.environ.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", "import spans, traced; traced.install(spans.Tracer())"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
