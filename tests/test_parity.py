"""Golden parity: CLI outputs are byte-identical to recorded digests.

`fixtures/parity_cases.json` holds small configs that together reach every
engine branch (prior families, policies, maps, type sources, warm-up plans,
feedback kinds, the oracle agent, both audit modes and the diversity
report), with the sha256 of each output file. Any change to a draw, to the
order of floating-point operations, or to the output format shows up here.

Float results depend on the numpy build and its BLAS, so the digests are
only compared under the numpy version they were recorded with. To record
them again after a deliberate output change, run
`PYTHONPATH=src python tests/test_parity.py --record` from the repository
root.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from ixplore.cli import main

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "parity_cases.json"


def run_case(case: dict, workdir: Path) -> dict:
    """Run one case's CLI command in `workdir` and digest its outputs."""
    (workdir / "config.json").write_text(json.dumps(case["config"]))
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main([case["command"], "config.json"])
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"case {case['name']}: exit code {code}")
    digests = {}
    for name in case["outputs"]:
        if name == "stdout":
            data = stdout.getvalue().encode()
        else:
            data = (workdir / "out" / name).read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def _load():
    return json.loads(FIXTURE.read_text())


FIXTURE_DATA = _load()


@pytest.mark.parametrize("case", FIXTURE_DATA["cases"], ids=lambda c: c["name"])
def test_outputs_match_recorded_digests(case, tmp_path):
    if np.__version__ != FIXTURE_DATA["numpy"]:
        pytest.skip(f"digests were recorded under numpy {FIXTURE_DATA['numpy']}")
    assert run_case(case, tmp_path) == case["digests"]


def record():
    import tempfile

    data = _load()
    data["numpy"] = np.__version__
    for case in data["cases"]:
        with tempfile.TemporaryDirectory() as tmp:
            case["digests"] = run_case(case, Path(tmp))
        print(case["name"], case["digests"])
    FIXTURE.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_parity.py --record")
    record()
