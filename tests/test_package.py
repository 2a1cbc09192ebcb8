import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BOX_HYPERCUBE, write_config
from ixplore import cli
from ixplore.cli import load_config
from ixplore.streams import CROSSOVER

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


NUMPY_MA_PROBE = "import sys; from ixplore.cli import main; print(main(sys.argv[1:]), 'numpy.ma' in sys.modules)"


@pytest.mark.parametrize("command, overrides", [("run", BOX_HYPERCUBE), ("audit", {})],
                         ids=["run-box", "audit-criterion-3"])
def test_cli_never_imports_numpy_ma(tmp_path, command, overrides):
    """A plain `np.unique(x)` imports `numpy.ma` under numpy 2.4, about 1 MB
    of peak RSS on a short run. Binning rows by message sorts once
    (`semantics.bin_rows`) and must not bring it in."""
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **overrides)
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE, command, str(cfg)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 False"


NUMPY_RANDOM_PROBE = ("import sys, numpy; bare = 'numpy.random' in sys.modules; "
                      "import ixplore.cli; print(bare, 'numpy.random' in sys.modules)")


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """`numpy.random` costs about 6 MB resident and only drawing needs it,
    so `ixplore --help`, a config that exits 2 and a harness that only
    imports `ixplore.cli` never load it."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", NUMPY_RANDOM_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    bare, loaded = out.stdout.split()
    if bare == "True":
        pytest.skip("this numpy loads numpy.random on import")
    assert loaded == "False"


RANDOM_AFTER_COMMAND_PROBE = ("import sys, numpy; bare = 'numpy.random' in sys.modules; "
                              "from ixplore.cli import main; code = main(sys.argv[1:]); "
                              "print(bare, code, 'numpy.random' in sys.modules)")


@pytest.mark.parametrize("command, overrides, loaded", [
    ("audit", {"audit": {"round": 9, "epsilon": 0.3, "replicates": CROSSOVER, "mode": "mc"}}, False),
    ("run", {"replicates": 3}, False),
    ("run", {"replicates": 1, "agent_model": "oracle_best_response"}, False),
    ("run", BOX_HYPERCUBE, True),
], ids=["audit-criterion-3-at-crossover", "run-3-replicates", "run-oracle", "run-box"])
def test_only_generators_load_numpy_random(tmp_path, command, overrides, loaded):
    """Every draw at most `BLOCK_LANES` wide comes from counters at any batch
    size, slow normal lanes, Lemire rejections and the oracle's nested seed
    included, so an MC audit or a run of a discrete prior (3 replicates, or
    one with the oracle agent) never builds a generator or loads
    `numpy.random`. A 3-replicate uniform-box run loads it: its truncated
    sampler's second screen stage draws 50 normals per row (25 proposals in
    2 dimensions), wider than `BLOCK_LANES`, and it iterates the cells of
    rows with a flat direction."""
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **overrides)
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", RANDOM_AFTER_COMMAND_PROBE, command, str(cfg)], env=env,
                         capture_output=True, text=True, check=True)
    bare, code, after = out.stdout.splitlines()[-1].split()
    if bare == "True":
        pytest.skip("this numpy loads numpy.random on import")
    assert (code, after) == ("0", str(loaded))


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


def unused_imports(source: str) -> list:
    """Names a module imports and never reads, neither in code nor in a
    quoted annotation, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations.append(node.returns)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval")) if isinstance(n, ast.Name))
    return [name for name in imported if name not in used]


def test_unused_import_check_flags_a_dead_name():
    source = "import math\nfrom a.b import c, d as e\nimport os.path\n\ndef f(x: 'c') -> int:\n    return os.sep\n"
    assert unused_imports(source) == ["math", "e"]


@pytest.mark.parametrize("module", sorted(p.name for p in (Path(SRC) / "ixplore").glob("*.py") if p.name != "__init__.py"))
def test_module_imports_only_names_it_uses(module):
    assert unused_imports((Path(SRC) / "ixplore" / module).read_text()) == []


def numpy_random_reads(source: str) -> list:
    """Lines that import numpy.random or read `np.random` / `numpy.random`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            random = module == "numpy" and any(alias.name == "random" for alias in node.names)
            hit = module.startswith("numpy.random") or random
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_numpy_random_check_flags_every_route():
    source = ("import numpy.random\nfrom numpy.random import Philox\nfrom numpy import random\n"
              "x = np.random.default_rng(0)\ny = gen.random()\nz = np.float64(1.0)\n")
    assert numpy_random_reads(source) == [1, 2, 3, 4]


@pytest.mark.parametrize("module", sorted(p.name for p in (Path(SRC) / "ixplore").glob("*.py") if p.name != "streams.py"))
def test_only_streams_touches_numpy_random(module):
    """Every draw comes from a stream cell, so only `streams` may build a generator."""
    assert numpy_random_reads((Path(SRC) / "ixplore" / module).read_text()) == []


def test_readme_library_example_runs():
    """README's "Library use" block runs against the package as it stands."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_readme_config_example_loads(tmp_path):
    """README's "Config format" block is a valid config, audit block included."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config format", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "config.json").write_text(block)
    config, audit, output, _digest = load_config(str(tmp_path / "config.json"))
    assert (config.replicates, config.instance.T, config.seed) == (10000, 9, 11)
    assert (audit["round"], audit["epsilon"], audit["replicates"], audit["mode"]) == (9, 0.3, 10000, "mc")
    assert output == {"dir": "out", "formats": ["csv", "json"]}


def readme_key_table() -> set:
    """(section, kind, key, required) of each key in README's "Config format"
    table, and (section, kind, None, None) of each row; kind is "" for a
    section without kinds."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [line for line in readme.split("### Config format", 1)[1].splitlines() if line.startswith("| `")]
    entries = set()
    for row in rows:
        section, kind, required, optional = (cell.strip() for cell in row.strip("|").split("|"))
        section, kind = section.strip("`"), kind.strip("`")
        entries.add((section, kind, None, None))
        for cell, is_required in ((required, True), (optional, False)):
            # a key is a backquoted name outside the parentheses that hold defaults
            entries.update((section, kind, key, is_required) for key in re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cell)))
    return entries


def schema_entries() -> set:
    """The same entries, from the schema tables `ixplore.cli` reads configs with."""
    tables = [(section, "", schema) for section, schema in
              (("instance", cli.INSTANCE), ("audit", cli.AUDIT_KEYS), ("output", cli.OUTPUT))]
    for section, kinds in (("prior", cli.PRIORS), ("types", cli.TYPES), ("semantic_map", cli.SEMANTIC_MAPS),
                           ("semantic_map.domain", cli.DOMAINS), ("policy", cli.POLICIES), ("warmup", cli.WARMUPS)):
        tables.extend((section, kind, schema) for kind, (_build, schema) in kinds.items())
    entries = {(section, kind, None, None) for section, kind, _ in tables}
    for section, kind, schema in tables:
        entries.update((section, kind, key, default is cli.REQUIRED) for key, (_, default) in schema.items())
    return entries


def test_readme_key_table_matches_the_schemas():
    """README's table of config keys names the sections, kinds and keys that
    `load_config` reads, each as required or optional as it is there."""
    readme, schemas = readme_key_table(), schema_entries()
    assert sorted(readme - schemas, key=str) == [] and sorted(schemas - readme, key=str) == []


def old_numpy_step_ids() -> list:
    """The test paths and node IDs that CI's numpy-1.24 step runs, read from
    the workflow as plain text: every `tests/...` word of that step's `run`."""
    workflow = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml").read_text()
    step = workflow.split("- name: Stream and sampler parity under the oldest admitted numpy", 1)[1]
    run = step.split("- name:", 1)[0].split("run: |", 1)[1]
    return re.findall(r"tests/[\w/]+\.py(?:::[\w\[\]-]+)*", run)


def test_old_numpy_step_names_only_collected_tests():
    """The numpy-1.24 step cannot run here, so every test it names must
    exist: `pytest --collect-only` collects each path and node ID."""
    ids = old_numpy_step_ids()
    assert len(ids) > 5 and "tests/test_streams.py" in ids
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
                         cwd=root, env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    collected = [line for line in out.stdout.splitlines() if line.startswith("tests/")]
    for node in ids:
        assert any(line == node or line.startswith((node + "::", node + "[")) for line in collected), node
