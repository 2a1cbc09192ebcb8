"""The benchmark's hooks into the package still find what they look for.

`bench/tracer.py` wraps the boundary functions named in its SPANS table,
and `bench/child.py` stamps the end of set-up with a one-shot wrapper
rebound on `ixplore.engine.run_episode`. Both look functions up by name, so
a rename or a call that bypasses the module-level name would silently break
the benchmark. The bench files are imported here, not copied.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import ixplore.cli
from conftest import write_config

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
])
def test_cli_calls_run_episode_by_its_module_name(tmp_path, capsys, argv_tail, audit):
    cfg = tmp_path / "cfg.json"
    overrides = {} if audit is None else {"audit": audit}
    write_config(cfg, **overrides)
    module_name, path = tracer.SPANS["engine.run_episode"]
    _, _, current = tracer.resolve(module_name, path)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return current(*args, **kwargs)

    assert tracer.rebind(current, counting, module_name, path) >= 1
    try:
        assert ixplore.cli.main([argv_tail[0], str(cfg), "--workers", "2"]) == 0
    finally:
        tracer.rebind(counting, current, module_name, path)
    assert sys.modules[module_name].run_episode is current
    assert len(calls) >= 1
