import json
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from conftest import write_config
from ixplore import engine
from ixplore.cli import (
    CSV_COLUMNS,
    load_config,
    main,
    validate_audit_json,
    validate_primitives_json,
    validate_summary_json,
)
from ixplore.engine import lambda_snapshots, run_episode


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_exit_zero_and_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        raw = write_config(cfg)
        assert run_cli("run", str(cfg)) == 0
        out = tmp_path / "out"
        csv_lines = (out / "rounds.csv").read_text().splitlines()
        assert csv_lines[0] == ",".join(CSV_COLUMNS)
        assert len(csv_lines) == 1 + raw["replicates"] * raw["instance"]["T"]
        summary = json.loads((out / "summary.json").read_text())
        validate_summary_json(summary)
        assert summary["replicates"] == raw["replicates"]

    def test_missing_prior_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        raw = write_config(cfg)
        del raw["prior"]
        cfg.write_text(json.dumps(raw))
        assert run_cli("run", str(cfg)) == 2
        assert "prior" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, bogus_key=1)
        assert run_cli("run", str(cfg)) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        raw = write_config(cfg)
        raw["instance"]["extra"] = 1
        cfg.write_text(json.dumps(raw))
        assert run_cli("run", str(cfg)) == 2
        assert "extra" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, output={"dir": str(tmp_path / "a"), "formats": ["csv"]})
        assert run_cli("run", str(cfg)) == 0
        first = (tmp_path / "a" / "rounds.csv").read_bytes()
        assert run_cli("run", str(cfg)) == 0
        assert (tmp_path / "a" / "rounds.csv").read_bytes() == first

    def test_no_partial_output_on_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        raw = write_config(cfg, output={"dir": str(tmp_path / "never"), "formats": ["csv"]})
        raw["instance"]["T0"] = 99  # warm-up length mismatch -> config error
        cfg.write_text(json.dumps(raw))
        assert run_cli("run", str(cfg)) == 2
        assert not (tmp_path / "never").exists()

    def test_no_temp_files_left(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert run_cli("run", str(cfg)) == 0
        leftovers = [p for p in (tmp_path / "out").iterdir() if p.name.startswith(".tmp")]
        assert leftovers == []


class TestSeedPrecedence:
    def test_env_overrides_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, seed=11)
        monkeypatch.setenv("IXPLORE_SEED", "123")
        assert run_cli("run", str(cfg)) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["seed"] == 123

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, seed=11)
        monkeypatch.setenv("IXPLORE_SEED", "123")
        assert run_cli("run", str(cfg), "--seed", "77") == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["seed"] == 77

    def test_bad_env_seed_is_config_error(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        monkeypatch.setenv("IXPLORE_SEED", "not-a-number")
        assert run_cli("run", str(cfg)) == 2

    # a stream cell keys Philox with the seed mod 2**64, so 2**64 + 5 would
    # draw what 5 draws and -1 what 2**64 - 1 draws. IXPLORE_SEED and --seed
    # take plain decimal digits only; the file's malformed seeds are
    # TestConfigErrors' int-seed cases
    @pytest.mark.parametrize("source, seed", [
        *((source, seed) for source in ("file", "env", "flag") for seed in (str(2**64 + 5), "-1")),
        *((source, seed) for source in ("env", "flag") for seed in (" 1_1 ", "+5", "0x5", "5.0", "")),
    ])
    def test_seed_out_of_range_or_not_decimal_is_config_error(self, tmp_path, monkeypatch, capsys, source, seed):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **({"seed": int(seed)} if source == "file" else {}))
        if source == "env":
            monkeypatch.setenv("IXPLORE_SEED", seed)
        flag = ["--seed", seed] if source == "flag" else []
        assert run_cli("run", str(cfg), *flag) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_load(self, tmp_path, monkeypatch, seed):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        monkeypatch.setenv("IXPLORE_SEED", str(seed))
        assert load_config(str(cfg))[0].seed == seed
        assert load_config(str(cfg), seed_flag=str(seed))[0].seed == seed


class TestConfigErrors:
    @pytest.mark.parametrize("command, overrides", [
        pytest.param("run", ['types.kind="iid"', "types.weights=[0.3]"], id="type-weights"),
        pytest.param("run", ['prior={"kind": "uniform_box", "lo": [0, 0], "hi": [1, 1]}',
                             'semantic_map={"kind": "hypercube", "origin": [0, 0], '
                             '"cell_radius": -1, "grid_extents": [4, 4]}'], id="cell-radius"),
        pytest.param("run", ['policy={"kind": "ucb", "rho": -1}'], id="ucb-rho"),
        pytest.param("run", ["types.matrices=[[1,2]]"], id="type-matrix"),
        pytest.param("run", ['seed="abc"'], id="seed"),
        pytest.param("audit", ['audit.mode="exactly"'], id="audit-mode"),
        pytest.param("audit", ["audit.round=4"], id="audit-round-in-warmup"),
        pytest.param("audit", ['audit.epsilon="x"'], id="audit-epsilon"),
        # a negative epsilon would rate a violated cell eps_strong_bic
        pytest.param("audit", ["audit.epsilon=-0.5"], id="audit-epsilon-negative"),
        pytest.param("primitives", ["audit.scenario=7"], id="scenario"),
        pytest.param("primitives", ['audit.gap_convention="bogus"'], id="gap-convention"),
        # a negative rho would drive N_UCB below zero
        pytest.param("primitives", ["audit.rho=-5"], id="audit-rho-negative"),
        # keys that the section's kind does not read
        pytest.param("run", ["prior.mean=[0, 0]"], id="prior-key-of-other-kind"),
        pytest.param("run", ["types.weights=[0.3]"], id="types-weights-on-homogeneous"),
        pytest.param("run", ["types.sequence=[0]"], id="types-sequence-on-homogeneous"),
        pytest.param("run", ["semantic_map.cell_radius=0.5"], id="smap-key-of-other-kind"),
        pytest.param("run", ['semantic_map={"kind": "voronoi", "centers": [[0, 0], [1, 1]], '
                             '"radius": 0.5}'], id="voronoi-centers-and-radius"),
        pytest.param("run", ['semantic_map={"kind": "voronoi", "radius": 0.5, "domain": '
                             '{"kind": "box", "lo": [0, 0], "hi": [1, 1], "dim": 2}}'],
                     id="voronoi-domain-key-of-other-kind"),
        pytest.param("run", ["policy.rho=-1"], id="policy-rho-on-fps"),
        pytest.param("run", ["warmup.epsilon=0.5"], id="warmup-key-of-other-kind"),
        pytest.param("run", ['output.formats=["CSV", "jsn"]'], id="output-formats"),
        pytest.param("run", ['output.formats="csv"'], id="output-formats-not-a-list"),
        # integer keys take integral numbers only: no truncation, no bools or strings
        pytest.param("run", ["instance.T=9.5"], id="int-T-fraction"),
        pytest.param("run", ['instance.T="9"'], id="int-T-string"),
        pytest.param("run", ["instance.d=2.5"], id="int-d"),
        pytest.param("run", ["instance.K=2.5"], id="int-K"),
        pytest.param("run", ["instance.s=true"], id="int-s-bool"),
        pytest.param("run", ["instance.T0=8.5"], id="int-T0"),
        pytest.param("run", ["replicates=1.9"], id="int-replicates"),
        pytest.param("run", ["replicates=true"], id="int-replicates-bool"),
        pytest.param("run", ["seed=1.5"], id="int-seed"),
        pytest.param("run", ["seed=true"], id="int-seed-bool"),
        pytest.param("run", ['prior={"kind": "uniform_ball", "radius": 1.0, "dim": 2.5}'], id="int-prior-dim"),
        pytest.param("run", ['prior={"kind": "uniform_box", "lo": [0, 0], "hi": [1, 1]}',
                             'semantic_map={"kind": "hypercube", "origin": [0, 0], '
                             '"cell_radius": 0.25, "grid_extents": [2, 2.5]}'], id="int-grid-extents"),
        pytest.param("run", ['semantic_map={"kind": "voronoi", "radius": 0.5, "domain": '
                             '{"kind": "ball", "radius": 1.0, "dim": 2.5}}'], id="int-domain-dim"),
        pytest.param("run", ["warmup.per_arm=4.5"], id="int-per-arm"),
        pytest.param("run", ['instance.feedback="semibandit"', 'warmup={"kind": "round_robin", "per_atom": 4.5}'],
                     id="int-per-atom"),
        pytest.param("run", ['warmup={"kind": "near_uniform", "epsilon": 1.0, "rounds": 8.5}'],
                     id="int-rounds"),
        pytest.param("run", ['warmup={"kind": "fixed", "arms": [0, 1, 0, 1, 0, 1, 0, 1.5]}'], id="int-arms"),
        pytest.param("run", ['types.kind="explicit"', "types.sequence=[0, 0, 0, 0, 0, 0, 0, 0, 0.5]"],
                     id="int-sequence"),
        pytest.param("audit", ["audit.round=9.5"], id="int-audit-round"),
        pytest.param("audit", ["audit.replicates=20.5"], id="int-audit-replicates"),
        pytest.param("primitives", ["audit.scenario=1.5"], id="int-audit-scenario"),
        pytest.param("primitives", ['audit.n_samples="100"'], id="int-audit-n-samples"),
        # float keys and float array entries take finite numbers only: no bools,
        # strings, NaN or infinities
        pytest.param("run", ["instance.R=NaN"], id="float-R-nan"),
        pytest.param("run", ["instance.R=true"], id="float-R-bool"),
        pytest.param("run", ['instance.C_U="1.0"'], id="float-C_U-string"),
        pytest.param("run", ["instance.C_X=-Infinity"], id="float-C_X-negative-infinity"),
        pytest.param("run", ["prior.weights=[true,false]"], id="float-array-prior-weights-bool"),
        pytest.param("run", ['prior.weights=["0.5","0.5"]'], id="float-array-prior-weights-string"),
        pytest.param("run", ["prior.models=[[0.9, NaN], [0.2, 0.8]]"], id="float-array-prior-models-nan"),
        pytest.param("run", ["types.matrices=[[[1, 0], [0, Infinity]]]"], id="float-array-type-matrix-inf"),
        pytest.param("run", ['types.kind="iid"', "types.weights=[true]"], id="float-array-type-weights-bool"),
        pytest.param("run", ['policy={"kind": "ucb", "rho": NaN}'], id="float-ucb-rho-nan"),
        pytest.param("run", ['warmup={"kind": "near_uniform", "epsilon": true, "rounds": 8}'],
                     id="float-warmup-epsilon-bool"),
        pytest.param("run", ['prior={"kind": "uniform_box", "lo": [0, 0], "hi": [1, 1]}',
                             'semantic_map={"kind": "hypercube", "origin": [0, 0], '
                             '"cell_radius": "0.25", "grid_extents": [4, 4]}'], id="float-cell-radius-string"),
        pytest.param("audit", ["audit.epsilon=false"], id="float-audit-epsilon-bool"),
        pytest.param("primitives", ["audit.c_cal=Infinity"], id="float-audit-c-cal-inf"),
        pytest.param("primitives", ["audit.eps_grid=[0.1, NaN]"], id="float-audit-eps-grid-nan"),
        # exact mode needs a discrete prior under posterior sampling
        pytest.param("audit", ['prior={"kind": "gaussian", "mean": [0, 0], "cov": [[1, 0], [0, 1]]}',
                               'audit.mode="exact"'], id="exact-audit-gaussian-prior"),
        pytest.param("audit", ['policy={"kind": "ucb"}', 'audit.mode="exact"'], id="exact-audit-ucb-policy"),
        pytest.param("run", ["output.dir=5"], id="output-dir-not-a-string"),
    ])
    def test_invalid_value_exits_2(self, tmp_path, capsys, command, overrides):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        argv = [command, str(cfg)] + [arg for item in overrides for arg in ("--set", item)]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command, overrides, message", [
        ("run", ["instance.R=NaN"], "instance.R: expected a finite number, got nan"),
        ("run", ["instance.T=9.5"], "instance.T: expected an integer, got 9.5"),
        ("run", ["prior.weights=[true,false]"], "prior.weights[0]: expected a finite number, got True"),
        ("run", ["prior.models=[[0.9, 0.1], [0.2, NaN]]"], "prior.models[1][1]: expected a finite number"),
        ("run", ["types.matrices=[[[1, 0], [0, Infinity]]]"], "types.matrices[0][1][1]: expected a finite"),
        ("run", ['types.kind="explicit"', "types.sequence=[0, 0, 0, 0, 0, 0, 0, 0, 0.5]"],
         "types.sequence[8]: expected an integer"),
        ("run", ['prior={"kind": "uniform_box", "lo": [0, 0], "hi": [1, 1]}',
                 'semantic_map={"kind": "hypercube", "origin": [0, 0], '
                 '"cell_radius": 0.25, "grid_extents": [2, 2.5]}'], "semantic_map.grid_extents[1]: "),
        ("run", ['semantic_map={"kind": "voronoi", "radius": 0.5, "domain": '
                 '{"kind": "ball", "radius": 1.0, "dim": 2.5}}'], "semantic_map.domain.dim: expected an integer"),
        ("run", ['policy={"kind": "ucb", "rho": NaN}'], "policy.rho: expected a finite number"),
        ("run", ['warmup={"kind": "fixed", "arms": [0, 1, 0, 1, 0, 1, 0, 1.5]}'], "warmup.arms[7]: "),
        ("run", ['warmup={"kind": "fixed", "arms": 3}'], "warmup.arms: expected a list, got 3"),
        ("audit", ["audit.epsilon=false"], "audit.epsilon: expected a finite number, got False"),
        ("primitives", ["audit.eps_grid=[0.1, NaN]"], "audit.eps_grid[1]: expected a finite number"),
        ("run", ["seed=1.5"], "seed: expected an integer, got 1.5"),
        ("run", ["agent_model=5"], "agent_model: expected one of ('compliant', 'oracle_best_response'), got 5"),
        ("audit", ["audit.mode=5"], "audit.mode: expected one of ('mc', 'exact'), got 5"),
        ("primitives", ["audit.scenario=7"], "audit.scenario: expected one of (1, 2, 3), got 7"),
        ("primitives", ['audit.gap_convention="bogus"'], "audit.gap_convention: expected one of"),
    ])
    def test_malformed_value_error_names_its_key(self, tmp_path, capsys, command, overrides, message):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        argv = [command, str(cfg)] + [arg for item in overrides for arg in ("--set", item)]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("null, absent", [
        pytest.param("instance.feedback=null", 'instance={"d": 2, "K": 2, "C_U": 1.0, "C_X": 1.0, "s": 2, '
                     '"R": 1.0, "T": 9, "T0": 8}', id="feedback"),
        pytest.param("types.regime=null", 'types={"kind": "homogeneous", "matrices": [[[1, 0], [0, 1]]]}',
                     id="regime"),
        pytest.param('policy={"kind": "ucb", "rho": null}', 'policy={"kind": "ucb"}', id="ucb-rho"),
        pytest.param('semantic_map={"kind": "voronoi", "centers": [[0, 0], [1, 1]], "radius": null}',
                     'semantic_map={"kind": "voronoi", "centers": [[0, 0], [1, 1]]}', id="voronoi-radius"),
    ])
    def test_null_optional_key_loads_as_its_default(self, tmp_path, null, absent):
        # each of these exited 2 before every section read its keys from one table
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        got, want = (load_config(str(cfg), [item])[:3] for item in (null, absent))
        np.testing.assert_equal(astuple(got[0]), astuple(want[0]))
        assert got[1:] == want[1:]

    def test_null_agent_model_loads_as_compliant(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        got, want = (load_config(str(cfg), items)[:3] for items in (["agent_model=null"], []))
        assert got[0].agent_model == "compliant"
        np.testing.assert_equal(astuple(got[0]), astuple(want[0]))
        assert got[1:] == want[1:]

    def test_bad_feedback_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert run_cli("run", str(cfg), "--set", "instance.feedback=5") == 2
        assert capsys.readouterr().err.startswith("config error: instance.feedback: 5 is not a valid Feedback")

    BOX = 'prior={"kind": "uniform_box", "lo": [0, 0], "hi": [1, 1]}'
    OVERFLOWING_BOX = 'prior={"kind": "uniform_box", "lo": [-1e308, 0], "hi": [1e308, 1]}'
    CUBE_3D = 'semantic_map={"kind": "hypercube", "origin": [0, 0, 0], "cell_radius": 0.25, "grid_extents": [2, 2, 2]}'
    VORONOI = 'semantic_map={"kind": "voronoi", "radius": 0.5, "domain": %s}'

    @pytest.mark.parametrize("command, overrides, message", [
        # numpy's normal rejects a scale with the sign bit set
        pytest.param("run", ["instance.R=-0.0"], "instance: R must be >= 0", id="R-negative-zero"),
        # non-positive caps once ran to exit 0: C_X = 0 zeroed every threshold
        # of `primitives`, and C_X = -1 gave the thresholds of C_X = 1
        pytest.param("primitives", ["instance.C_X=0"], "instance: C_U and C_X must be positive and finite",
                     id="C_X-zero"),
        pytest.param("run", ["instance.C_U=-1"], "instance: C_U and C_X must be positive and finite",
                     id="C_U-negative"),
        pytest.param("run", ['prior={"kind": "gaussian", "mean": [0, 0, 0], "cov": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}'],
                     "prior dimension 3 does not match d = 2", id="gaussian-prior-dim"),
        pytest.param("run", ['prior={"kind": "uniform_ball", "radius": 1.0, "dim": 3}'],
                     "prior dimension 3 does not match d = 2", id="ball-prior-dim"),
        pytest.param("run", [BOX, CUBE_3D], "semantic map dimension 3 does not match d = 2", id="hypercube-origin-dim"),
        pytest.param("run", ['semantic_map={"kind": "voronoi", "centers": [[0, 0, 0], [1, 1, 1]]}'],
                     "semantic map dimension 3 does not match d = 2", id="voronoi-centers-dim"),
        pytest.param("run", [BOX, CUBE_3D, 'policy={"kind": "fls"}'],
                     "semantic map dimension 3 does not match d = 2", id="fls-hypercube-dim"),
        pytest.param("run", ["instance.K=3", "types.matrices=[[[1, 0], [0, 1], [1, 1]]]",
                             'warmup={"kind": "fixed", "arms": [0, 1, 2, 0, 1, 2, 0, 1]}',
                             'semantic_map={"kind": "ranking"}'],
                     "the ranking map needs the d = K embedding, got d = 2, K = 3", id="ranking-d-not-K"),
        # a ranking menu for a type that is not a sleeping type reads a finite model set
        pytest.param("run", ['prior={"kind": "gaussian", "mean": [0, 0], "cov": [[1, 0], [0, 1]]}',
                             "types.matrices=[[[0.6, 0.8], [1, 0]]]", 'semantic_map={"kind": "ranking"}'],
                     "Ranking menus for non-sleeping types need a finite model set",
                     id="ranking-non-sleeping-type-without-model-set"),
        pytest.param("run", ['semantic_map={"kind": "sign"}'], "sign map requires d = 1", id="sign-d-2"),
        pytest.param("primitives", ['prior={"kind": "gaussian", "mean": [0, 0], "cov": [[1, 0], [0, 1]]}'],
                     "audit: exact primitives need a discrete prior", id="exact-primitives-gaussian-prior"),
        # a box whose span overflows to inf, which once failed at its first draw
        pytest.param("run", [OVERFLOWING_BOX], "prior: hi - lo must be finite", id="run-box-span-overflow"),
        pytest.param("primitives", [OVERFLOWING_BOX], "prior: hi - lo must be finite",
                     id="primitives-box-span-overflow"),
        # a voronoi domain is a uniform prior and passes that prior's checks
        pytest.param("run", [VORONOI % '{"kind": "box", "lo": [-1e308, 0], "hi": [1e308, 1]}'],
                     "semantic_map.domain: hi - lo must be finite in every coordinate", id="voronoi-box-span-overflow"),
        pytest.param("run", [VORONOI % '{"kind": "box", "lo": [0, 0], "hi": [1]}'],
                     "semantic_map.domain: lo and hi must be vectors of equal length", id="voronoi-box-unequal-lengths"),
        pytest.param("run", [VORONOI % '{"kind": "ball", "radius": 1.0, "dim": 0}'],
                     "semantic_map.domain: dim must be >= 1", id="voronoi-ball-dim-0"),
        pytest.param("run", [VORONOI % '{"kind": "ball", "radius": 1e308, "dim": 2}'],
                     "semantic_map: cover would need inf centers (cap 1000000)", id="voronoi-ball-box-overflow"),
    ])
    def test_inconsistent_config_exits_2_at_load(self, tmp_path, capsys, command, overrides, message):
        # each of these used to load and then fail with exit 3 once the run
        # started, or (the caps) run to exit 0 on a meaningless instance
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        argv = [command, str(cfg)] + [arg for item in overrides for arg in ("--set", item)]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()

    EYE10 = json.dumps(np.eye(10).tolist())

    @pytest.mark.parametrize("overrides, message", [
        pytest.param(["instance.d=10", "instance.K=10", f"types.matrices=[{EYE10}]",
                      f'prior={{"kind": "gaussian", "mean": {[0] * 10}, "cov": {EYE10}}}',
                      'warmup={"kind": "fixed", "arms": [0, 1, 2, 3, 4, 5, 6, 7]}',
                      'semantic_map={"kind": "ranking"}'],
                     "Ranking has 3628800 messages, above the cap of 1000000", id="ranking-10-arms"),
        pytest.param([BOX, 'semantic_map={"kind": "hypercube", "origin": [0, 0], "cell_radius": 0.0005, '
                           '"grid_extents": [1001, 1000]}'],
                     "HypercubeCover has 1001000 messages, above the cap of 1000000", id="hypercube-1001000-cells"),
        # a 7072 x 7072 grid of centers, built while the section loads
        pytest.param(['semantic_map={"kind": "voronoi", "radius": 1e-4, '
                      '"domain": {"kind": "box", "lo": [0, 0], "hi": [1, 1]}}'],
                     "semantic_map: cover would need 50013184 centers (cap 1000000)", id="voronoi-50013184-centers"),
    ])
    @pytest.mark.parametrize("command", ["run", "audit"])
    def test_more_messages_than_the_cap_exit_2_at_load(self, tmp_path, capsys, command, overrides, message):
        # message codes are int64 below the cap; these maps used to run
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        argv = [command, str(cfg)] + [arg for item in overrides for arg in ("--set", item)]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [[], ["--set", "seed=1"]], ids=["plain", "set"])
    def test_non_object_config_exits_2(self, tmp_path, capsys, overrides):
        # with `--set`, the override once indexed the list and exited 3
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]")
        assert run_cli("run", str(cfg), *overrides) == 2
        assert capsys.readouterr().err.startswith("config error: config: expected an object")

    def test_out_of_range_fixed_warmup_arm_exits_2(self, tmp_path, capsys):
        # checked at load, before any round is played
        cfg = tmp_path / "cfg.json"
        write_config(cfg, warmup={"kind": "fixed", "arms": [0, 1, 0, 1, 0, 1, 0, 5]})
        assert run_cli("run", str(cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "arm 5" in err
        assert not (tmp_path / "out").exists()


class TestExplicitTypes:
    """An explicit sequence holds indices into `matrices`, and a type index
    is the matrix index, as under `iid`."""

    SWAP = [[0.0, 1.0], [1.0, 0.0]]

    def test_public_label_is_the_matrix_index(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        sequence = [1, 0] * 4 + [1]
        write_config(cfg, replicates=1, types={"kind": "explicit", "regime": "public",
                                               "matrices": [[[1.0, 0.0], [0.0, 1.0]], self.SWAP],
                                               "sequence": sequence})
        assert run_cli("run", str(cfg)) == 0
        rows = (tmp_path / "out" / "rounds.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[3]) for row in rows] == sequence

    def test_negative_index_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, types={"kind": "explicit", "matrices": [[[1.0, 0.0], [0.0, 1.0]], self.SWAP],
                                 "sequence": [0] * 8 + [-1]})
        assert run_cli("run", str(cfg)) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_unused_public_matrix_keeps_its_label(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, types={"kind": "explicit", "regime": "public",
                                 "matrices": [[[1.0, 0.0], [0.0, 1.0]], self.SWAP, self.SWAP],
                                 "sequence": [0, 2] * 4 + [2]})
        assert run_cli("run", str(cfg)) == 0
        assert run_cli("audit", str(cfg)) == 0
        audit = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert {c["type_index"] for c in audit["cells"]} == {2}
        assert any("empty bin: type 1" in flag for flag in audit["flags"])


class TestOverrides:
    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert run_cli("run", str(cfg), "--set", "replicates=2.0", "--set", "instance.T=9.0") == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert (summary["replicates"], summary["T"]) == (2, 9)
        assert run_cli("audit", str(cfg), "--set", "audit.round=9.0", "--set", "audit.replicates=50.0") == 0
        audit = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert (audit["t"], audit["replicates"]) == (9, 50)
        # K = 2: one cell per (type, message) bin, so the bins' counts add up to the replicates
        assert sum(cell["n_eff"] for cell in audit["cells"]) == 50

    def test_set_overrides_apply_before_validation(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert run_cli("run", str(cfg), "--set", "replicates=5") == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["replicates"] == 5

    def test_nested_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert run_cli("run", str(cfg), "--set", "instance.T=10",
                       "--set", "instance.T0=8") == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["T"] == 10

    def test_malformed_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert run_cli("run", str(cfg), "--set", "oops") == 2


class TestAuditCommand:
    def test_report_written_and_verdict_printed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert run_cli("audit", str(cfg)) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("verdict=")
        payload = json.loads((tmp_path / "out" / "audit.json").read_text())
        validate_audit_json(payload)
        assert payload["provenance"]["config_digest"]

    def test_exit_zero_even_when_violated(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # no warm-up: the audited minimum gap is negative
        write_config(
            cfg,
            instance={"d": 2, "K": 2, "C_U": 1.0, "C_X": 1.0, "s": 2, "R": 1.0,
                      "T": 1, "T0": 0, "feedback": "bandit"},
            warmup={"kind": "round_robin", "per_arm": 0},
            audit={"round": 1, "epsilon": 0.05, "replicates": 600},
        )
        assert run_cli("audit", str(cfg)) == 0
        payload = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert payload["verdict"] in ("violated", "eps_weak_bic")

    def test_missing_audit_block(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        raw = write_config(cfg)
        del raw["audit"]
        cfg.write_text(json.dumps(raw))
        assert run_cli("audit", str(cfg)) == 2


class TestPrimitivesCommand:
    def test_exact_two_model_table(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert run_cli("primitives", str(cfg)) == 0
        payload = json.loads((tmp_path / "out" / "primitives.json").read_text())
        validate_primitives_json(payload)
        assert payload["delta_TS"] == pytest.approx(0.5)
        assert payload["eps_TS"] == pytest.approx(0.6)
        assert payload["thresholds"]["N_TS_ceil"] == 4

    def test_zero_delta_ts_yields_null_thresholds(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, prior={"kind": "discrete",
                                 "models": [[0.9, 0.1], [0.2, 0.8]],
                                 "weights": [1.0, 0.0]})
        assert run_cli("primitives", str(cfg)) == 0
        payload = json.loads((tmp_path / "out" / "primitives.json").read_text())
        assert payload["thresholds"] is None
        assert payload["threshold_note"]
        assert payload["zero_probability_messages"]

    def test_lambda_grid(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        raw = write_config(cfg)
        raw["audit"]["eps_grid"] = [0.1, 0.2]
        cfg.write_text(json.dumps(raw))
        assert run_cli("primitives", str(cfg)) == 0
        payload = json.loads((tmp_path / "out" / "primitives.json").read_text())
        grid = payload["thresholds"]["lambda_grid"]
        assert grid[0][0] == 0.1
        assert grid[0][1] == pytest.approx(100.0 * np.log(4.0))


class TestDiversityCommand:
    def test_prints_table(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, replicates=2)
        assert run_cli("diversity", str(cfg)) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "replicate,lambda_min,lambda_diag"
        assert len(lines) == 4  # 2 replicates + header + mean
        # round robin with 4 plays per arm on the identity embedding
        assert float(lines[1].split(",")[1]) == pytest.approx(4.0)


class TestCsvContent:
    def test_stage_and_message_columns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, replicates=1)
        assert run_cli("run", str(cfg)) == 0
        rows = (tmp_path / "out" / "rounds.csv").read_text().splitlines()[1:]
        cells = [row.split(",") for row in rows]
        stages = [c[2] for c in cells]
        assert stages == ["warmup"] * 8 + ["main"]
        assert all(c[4] == "" for c in cells[:8])  # warm-up has no message
        assert cells[8][4] in ("0", "1")
        # floats round-trip
        assert float(cells[0][6]) == pytest.approx(float(cells[0][6]))

    def test_rows_and_summary_match_the_episode_batch(self, tmp_path):
        # values are checked against the engine's batch, not against recorded
        # digests, so this holds under any numpy build
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            instance={"d": 2, "K": 2, "C_U": 1.0, "C_X": 1.0, "s": 2, "R": 1.0,
                      "T": 201, "T0": 8, "feedback": "bandit"},
            types={"kind": "iid", "regime": "public",
                   "matrices": [[[1.0, 0.0], [0.0, 1.0]], [[0.6, 0.8], [1.0, 0.0]]]},
            audit=None,
        )
        assert run_cli("run", str(cfg)) == 0
        config = load_config(str(cfg))[0]
        n, T, T0 = config.replicates, config.instance.T, config.instance.T0
        batch = run_episode(config, range(n))
        assert set(batch.type_ids.ravel().tolist()) == {0, 1}
        snaps = {t: (lmin, ldiag) for t, lmin, ldiag in lambda_snapshots(batch)}
        assert T0 in snaps and len(snaps) < T  # T >= 200 leaves rounds without a snapshot
        rows = [line.split(",") for line in (tmp_path / "out" / "rounds.csv").read_text().splitlines()[1:]]
        assert [(int(r[0]), int(r[1])) for r in rows] == [(k, t) for k in range(n) for t in range(1, T + 1)]
        regret = np.zeros((n, T))
        for row in rows:
            k, t = int(row[0]), int(row[1])
            c = t - 1
            assert int(row[3]) == batch.type_ids[k, c]
            assert row[4] == ("" if t <= T0 else str(batch.messages[k, t - T0 - 1]))
            assert int(row[5]) == batch.arms[k, c]
            assert float(row[6]) == batch.rewards[k, c]
            assert float(row[7]) == batch.expected_rewards[k, c]
            rows_x = batch.types[batch.type_ids[k, c]].rows
            best = max(float(np.dot(x, batch.u_star[k])) for x in rows_x)
            regret[k, c] = float(row[8])
            assert regret[k, c] == pytest.approx(best - batch.expected_rewards[k, c], rel=1e-12, abs=1e-12)
            if t in snaps:
                assert (float(row[9]), float(row[10])) == (snaps[t][0][k], snaps[t][1][k])
            else:
                assert row[9:] == ["", ""]
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [rep["replicate"] for rep in summary["per_replicate"]] == list(range(n))
        for k, rep in enumerate(summary["per_replicate"]):
            assert rep["total_reward"] == pytest.approx(batch.rewards[k].sum(), rel=1e-12, abs=1e-9)
            assert rep["cumulative_regret"] == pytest.approx(regret[k].sum(), rel=1e-12, abs=1e-9)
        assert summary["mean_cumulative_regret"] == pytest.approx(regret.sum(axis=1).mean(), rel=1e-12)

    def test_workers_do_not_change_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, replicates=6,
                     output={"dir": str(tmp_path / "w1"), "formats": ["csv"]})
        assert run_cli("run", str(cfg), "--workers", "1") == 0
        first = (tmp_path / "w1" / "rounds.csv").read_bytes()
        write_config(cfg, replicates=6,
                     output={"dir": str(tmp_path / "w8"), "formats": ["csv"]})
        assert run_cli("run", str(cfg), "--workers", "8") == 0
        assert (tmp_path / "w8" / "rounds.csv").read_bytes() == first


class TestOtherConfigKinds:
    def test_fls_hypercube_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            prior={"kind": "uniform_box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            semantic_map={"kind": "hypercube", "origin": [0.0, 0.0],
                          "cell_radius": 0.125, "grid_extents": [4, 4]},
            policy={"kind": "fls"},
            audit=None,
        )
        assert run_cli("run", str(cfg)) == 0
        rows = (tmp_path / "out" / "rounds.csv").read_text().splitlines()[1:]
        main_rows = [r for r in rows if r.split(",")[2] == "main"]
        assert all(r.split(",")[4].isdigit() for r in main_rows)

    def test_ucb_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, policy={"kind": "ucb", "rho": 0.5})
        assert run_cli("run", str(cfg)) == 0

    def test_fls_without_hypercube_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, policy={"kind": "fls"})
        assert run_cli("run", str(cfg)) == 2

    def test_voronoi_from_domain(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            semantic_map={"kind": "voronoi",
                          "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
                          "radius": 0.5},
            audit=None,
        )
        assert run_cli("run", str(cfg)) == 0

    def test_ranking_config_with_iid_sleeping_types(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            instance={"d": 2, "K": 2, "C_U": 1.0, "C_X": 1.0, "s": 1, "R": 1.0,
                      "T": 9, "T0": 8, "feedback": "bandit"},
            semantic_map={"kind": "ranking"},
            types={"kind": "iid",
                   "matrices": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]]],
                   "weights": [0.5, 0.5]},
            audit=None,
        )
        assert run_cli("run", str(cfg)) == 0

    def test_sign_map_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            instance={"d": 1, "K": 2, "C_U": 1.0, "C_X": 1.0, "s": 1, "R": 1.0,
                      "T": 5, "T0": 4, "feedback": "bandit"},
            prior={"kind": "discrete", "models": [[-0.8], [0.7]], "weights": [0.5, 0.5]},
            semantic_map={"kind": "sign"},
            types={"kind": "homogeneous", "matrices": [[[-1.0], [1.0]]]},
            warmup={"kind": "round_robin", "per_arm": 2},
            audit=None,
        )
        assert run_cli("run", str(cfg)) == 0

    def test_full_reveal_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, semantic_map={"kind": "full_reveal"}, audit=None)
        assert run_cli("run", str(cfg)) == 0

    def test_oracle_agent_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, agent_model="oracle_best_response", replicates=1, audit=None)
        assert run_cli("run", str(cfg)) == 0


SWAPPED_PUBLIC = {"kind": "iid", "regime": "public",
                  "matrices": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]}
# command, config overrides, and the outputs compared; 70 replicates draw
# on counters in one chunk and through windows in chunks of 1 and 7
CHUNKED_CASES = {
    "run": ("run", {"types": SWAPPED_PUBLIC, "replicates": 70}, ["rounds.csv", "summary.json"]),
    "audit_mc": ("audit", {"types": SWAPPED_PUBLIC,
                           "audit": {"round": 9, "epsilon": 0.3, "replicates": 70, "mode": "mc"}}, ["audit.json"]),
    "audit_exact": ("audit", {"types": SWAPPED_PUBLIC,
                              "audit": {"round": 9, "epsilon": 0.3, "replicates": 70, "mode": "exact"}},
                    ["audit.json"]),
    "diversity": ("diversity", {"warmup": {"kind": "near_uniform", "epsilon": 1.0, "rounds": 8},
                                "replicates": 70}, ["stdout"]),
    "oracle": ("run", {"agent_model": "oracle_best_response", "replicates": 5}, ["rounds.csv", "summary.json"]),
}


class TestChunkedOutputs:
    """The CLI reduces the engine's chunks as they finish, and no output
    byte depends on the chunk size."""

    @pytest.mark.parametrize("name", sorted(CHUNKED_CASES))
    def test_chunk_size_moves_no_byte(self, tmp_path, monkeypatch, capsys, name):
        command, overrides, outputs = CHUNKED_CASES[name]
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **overrides)
        seen = {}
        for chunk in (engine.CHUNK, 1, 7):
            monkeypatch.setattr(engine, "CHUNK", chunk)
            capsys.readouterr()
            assert run_cli(command, str(cfg)) == 0
            stdout = capsys.readouterr().out.encode()
            seen[chunk] = [stdout if output == "stdout" else (tmp_path / "out" / output).read_bytes()
                           for output in outputs]
        first, *rest = seen.values()
        assert all(other == first for other in rest)

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_oracle_inner_batch_runs_once(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(engine, "CHUNK", chunk)
        play = engine.run_episode
        configs = []
        monkeypatch.setattr(engine, "run_episode", lambda config, *args: configs.append(config) or play(config, *args))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, agent_model="oracle_best_response", replicates=5)
        assert run_cli("run", str(cfg)) == 0
        inner = [c for c in configs if c.agent_model == "compliant"]
        assert [c.replicates for c in inner] == [engine.ORACLE_INNER_DRAWS]
        assert len(configs) - 1 == -(-5 // chunk)

    def test_warmup_only_oracle_run_builds_no_table(self, tmp_path, monkeypatch, capsys):
        # `diversity` stops at T0, before any round where the oracle reads its table
        play = engine.run_episode
        configs = []
        monkeypatch.setattr(engine, "run_episode", lambda config, *args: configs.append(config) or play(config, *args))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, agent_model="oracle_best_response", replicates=5)
        assert run_cli("diversity", str(cfg)) == 0
        assert [c.agent_model for c in configs] == ["oracle_best_response"]

    @pytest.mark.parametrize("command, overrides, n", [
        ("audit", {"audit": {"round": 9, "epsilon": 0.3, "mode": "mc"}}, 512),
        ("run", {"instance": {"d": 2, "K": 2, "C_U": 1.0, "C_X": 1.0, "s": 2, "R": 1.0,
                              "T": 200, "T0": 8, "feedback": "bandit"}}, 32),
    ], ids=["audit_mc", "run"])
    def test_peak_memory_scales_with_the_chunk(self, tmp_path, monkeypatch, capsys, command, overrides, n):
        # with chunks of n / 2, eight times the replicates must not come near
        # eight times the traced peak: one batch of everything would (6.6x
        # for this audit and 7.7x for this run, whose rounds.csv was one string)
        monkeypatch.setattr(engine, "CHUNK", n // 2)
        peaks = []
        for replicates in (n, 8 * n):
            cfg = tmp_path / "cfg.json"
            if command == "audit":
                write_config(cfg, audit={**overrides["audit"], "replicates": replicates})
            else:
                write_config(cfg, **overrides, replicates=replicates)
            tracemalloc.start()
            try:
                assert run_cli(command, str(cfg)) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 4 * peaks[0]
