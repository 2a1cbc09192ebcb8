"""scripts/at_scale.py runs each of its cases and reports what it promises."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "at_scale.py"


@pytest.mark.parametrize("case, replicates, outputs", [
    ("audit_mc", 50, ["audit.json"]),
    ("run_box_csv", 2, ["rounds.csv", "summary.json"]),
    ("audit_box", 50, ["audit.json"]),
])
def test_reports_one_json_line(case, replicates, outputs):
    proc = subprocess.run([sys.executable, str(SCRIPT), case, str(replicates)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["case"], report["replicates"], report["code"]) == (case, replicates, 0)
    assert report["cpu_s"] > 0 and report["peak_rss_mb"] > 0
    assert report["rekeys"] >= 0 and isinstance(report["numpy_random"], bool)
    assert sorted(report["digests"]) == outputs


def test_oracle_run_builds_no_generator():
    """The benchmark's `oracle_run` config draws every cell from counters,
    the nested batch's seed included: no re-key, and `numpy.random` stays
    unloaded, which the benchmark's `peak_rss_mb` cannot show below the
    harness's own peak."""
    proc = subprocess.run([sys.executable, str(SCRIPT), "oracle_run", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0 and sorted(report["digests"]) == ["summary.json"]
    assert (report["rekeys"], report["numpy_random"]) == (0, False)
