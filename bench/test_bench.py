"""Tests of the benchmark itself. Run with `python3 -m pytest bench`."""

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402


def test_self_time_excludes_direct_children():
    spans = tracer.Tracer()

    def leaf():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    traced_leaf = spans.wrap("leaf", leaf)
    spans.wrap("parent", parent)()
    totals = spans.totals()
    calls, total, self_s = totals["parent"]
    assert calls == 1 and totals["leaf"][0] == 2
    assert abs(self_s - (total - totals["leaf"][1])) < 1e-9
    assert 0.005 < self_s < 0.035


def test_totals_merge_threads():
    spans = tracer.Tracer()
    work = spans.wrap("work", lambda: None)

    def loop():
        for _ in range(1000):
            work()

    threads = [threading.Thread(target=loop) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert spans.totals()["work"][0] == 3000


def test_rebind_reaches_every_imported_copy():
    import ixplore.audit
    import ixplore.engine

    original = ixplore.engine.run_episode

    def marker(*args, **kwargs):
        return None

    try:
        count = tracer.rebind(original, marker, "ixplore.engine", "run_episode")
        assert count >= 2
        assert ixplore.engine.run_episode is marker
        assert ixplore.audit.run_episode is marker
    finally:
        tracer.rebind(marker, original, "ixplore.engine", "run_episode")
    assert ixplore.audit.run_episode is original


def test_smoke_emits_every_metric_without_errors():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "smoke PASS"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    argv = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                              "--seconds", "1", "--trace", "0"]
    argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
