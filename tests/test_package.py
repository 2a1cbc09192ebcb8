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


FAILING_HYPOTHESIS_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    """A failing hypothesis test makes its plugin import libcst, whose
    DeprecationWarning must not become an INTERNALERROR under the repo's
    warning filters: the session goes on to run the next test."""
    (tmp_path / "test_two.py").write_text(FAILING_HYPOTHESIS_TEST)
    config = str(Path(__file__).resolve().parents[1] / "pyproject.toml")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", config,
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
