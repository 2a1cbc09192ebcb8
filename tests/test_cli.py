import json

import numpy as np
import pytest

from conftest import write_config
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
        pytest.param("primitives", ["audit.scenario=7"], id="scenario"),
        pytest.param("primitives", ['audit.gap_convention="bogus"'], id="gap-convention"),
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
    ])
    def test_invalid_value_exits_2(self, tmp_path, capsys, command, overrides):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        argv = [command, str(cfg)] + [arg for item in overrides for arg in ("--set", item)]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("config error:")


class TestOverrides:
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
            assert row[4] == ("" if t <= T0 else str(batch.messages[t - T0 - 1][k]))
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
