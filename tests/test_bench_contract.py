"""The benchmark's hooks into the package still find what they look for.

`bench/tracer.py` wraps the boundary functions named in its SPANS table,
and `bench/child.py` stamps the end of set-up with a one-shot wrapper
rebound on `ixplore.engine.run_episode`. Both look functions up by name, so
a rename or a call that bypasses the module-level name would silently break
the benchmark. The bench files are imported here, not copied.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ixplore.cli
from conftest import BOX_HYPERCUBE, write_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name", sorted(tracer.SPANS))
def test_every_span_resolves_to_a_bound_callable(name):
    module_name, path = tracer.SPANS[name]
    owner, _attr, original = tracer.resolve(module_name, path)
    assert callable(original)
    if not isinstance(owner, type):
        # rebinding a function onto itself changes nothing and counts its bindings
        assert tracer.rebind(original, original, module_name, path) >= 1


@pytest.mark.parametrize("argv_tail, audit", [
    (["run"], None),
    (["audit"], {"round": 9, "epsilon": 0.3, "replicates": 50, "mode": "mc"}),
    (["audit"], {"round": 9, "epsilon": 0.3, "replicates": 50, "mode": "exact"}),
    (["diversity"], None),
    (["run", "--set", "agent_model=oracle_best_response"], None),
])
def test_cli_calls_run_episode_by_its_module_name(tmp_path, capsys, argv_tail, audit):
    """Every `run_episode` call, the oracle's nested batch included, goes
    through the module-level name and happens inside a span of
    `REPLICATE_PHASES`: the benchmark reads the engine's CPU share off those
    spans and the CLI's own time as what they leave of the command."""
    cfg = tmp_path / "cfg.json"
    overrides = {} if audit is None else {"audit": audit}
    write_config(cfg, **overrides)
    depth, inside = [0], []

    def phase(fn):
        def entered(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return entered

    def counting(fn):
        def counted(*args, **kwargs):
            inside.append(depth[0] > 0)
            return fn(*args, **kwargs)
        return counted

    bound = []
    for name in ("engine.run_episode", *tracer.REPLICATE_PHASES):
        module_name, path = tracer.SPANS[name]
        _, _, current = tracer.resolve(module_name, path)
        wrapped = (counting if name == "engine.run_episode" else phase)(current)
        assert tracer.rebind(current, wrapped, module_name, path) >= 1
        bound.append((name, current, wrapped))
    try:
        assert ixplore.cli.main([argv_tail[0], str(cfg), *argv_tail[1:], "--workers", "2"]) == 0
    finally:
        for name, current, wrapped in bound:
            tracer.rebind(wrapped, current, *tracer.SPANS[name])
    module_name, _ = tracer.SPANS["engine.run_episode"]
    assert sys.modules[module_name].run_episode is bound[0][1]
    assert len(inside) >= 1 and all(inside)


def test_audit_holds_its_own_run_episode_binding():
    # bench/test_bench.py rebinds run_episode and expects the audit's copy,
    # which the audit plays its chunks through, to follow
    import ixplore.audit
    import ixplore.engine

    assert ixplore.audit.run_episode is ixplore.engine.run_episode


COVERAGE_PROBE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import ixplore.cli
spans = tracer.Tracer()
spans.install()
codes = [ixplore.cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "calls": {k: v[0] for k, v in spans.totals().items()}}))
"""


def test_every_span_is_entered(tmp_path):
    """An FPS `run` and an MC `audit` of a discrete prior, and an FPS `run`
    of a uniform-box prior, under the installed tracer enter every span but
    `streams.stream`, which the program no longer calls: a span whose
    boundary the code routes around would read 0 in the benchmark. The
    discrete draws all come from counters, so `streams.at` is entered by
    the box run, whose truncated sampler's screen reaches its second stage
    (64 words per row, wider than `BLOCK_LANES`). The tracer has no
    uninstall, so it runs in a subprocess."""
    cfg, box = tmp_path / "cfg.json", tmp_path / "box.json"
    write_config(cfg, audit={"round": 9, "epsilon": 0.3, "replicates": 50, "mode": "mc"})
    write_config(box, **BOX_HYPERCUBE)
    argvs = [["run", str(cfg)], ["audit", str(cfg)], ["run", str(box)]]
    env = {**os.environ, "PYTHONPATH": str(Path(ixplore.cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", COVERAGE_PROBE, str(BENCH / "tracer.py"), json.dumps(argvs)],
                         env=env, capture_output=True, text=True, check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    assert {name for name in tracer.SPANS if report["calls"].get(name, 0) == 0} <= {"streams.stream"}
