import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
PROBE = "import os, ixplore; print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])"


@pytest.mark.parametrize("preset, expected", [(None, "1 1"), ("3", "3 1")])
def test_import_caps_blas_threads_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = SRC
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == expected.split()
