"""The benchmark's workloads: generated configs, CLI arguments and output checks.

Each workload is one `ixplore` CLI invocation on a config generated from the
workload seed, which becomes the config's `seed`; everything else in the
config is fixed, so a seed changes the draws and never the amount of work.
`smoke=True` shrinks every size so the whole set runs in seconds.
"""

import hashlib
import json
import math
import os

TWO_MODELS = [[0.9, 0.1], [0.2, 0.8]]

# The 11 rounds.csv columns the README documents. Kept here rather than read
# from ixplore.cli.CSV_COLUMNS, so a change to the emitted header fails the check.
DOCUMENTED_CSV_COLUMNS = (
    "replicate,t,stage,type_id,message,arm,reward,expected_reward,regret,lambda_min,lambda_diag"
).split(",")

OUT_DIR = "out"  # relative to the invocation's working directory

STRONG_ENOUGH = ("bic", "eps_strong_bic")
Z_95 = 1.959963984540054

# Reference for audit_mc's minimum-gap cell (type 0, message 1, j = 0): one
# MC audit of the criterion-3 config at 10^5 replicates, config seed 424242.
# The half-width scales as 1/sqrt(replicates). A run must lie within
# MEAN_TOL_SE combined standard errors of the mean, and its half-width within
# HALF_TOL of the scaled reference: about 6 sigma at 2000 replicates, where
# the half-width itself varies by about 3%.
REF_REPLICATES = 100_000
REF_MIN_GAP_MEAN = 0.28465269810601657
REF_MIN_GAP_HALF = 0.005142615983494525
MEAN_TOL_SE = 5.0
HALF_TOL = 0.20


def _two_model_config(seed: int, T: int, replicates: int) -> dict:
    """Criterion 3's instance: two discrete models, argmax map, FPS,
    round-robin warm-up of 4 plays per arm (T0 = 8)."""
    return {
        "instance": {"d": 2, "K": 2, "C_U": 1.0, "C_X": 1.0, "s": 2, "R": 1.0,
                     "T": T, "T0": 8, "feedback": "bandit"},
        "prior": {"kind": "discrete", "models": TWO_MODELS, "weights": [0.5, 0.5]},
        "semantic_map": {"kind": "argmax"},
        "policy": {"kind": "fps"},
        "warmup": {"kind": "round_robin", "per_arm": 4},
        "types": {"kind": "homogeneous", "matrices": [[[1.0, 0.0], [0.0, 1.0]]]},
        "seed": seed,
        "replicates": replicates,
    }


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return exc


def _validate(validator, payload) -> list:
    from ixplore.errors import ConfigError

    try:
        validator(payload)
    except ConfigError as exc:
        return [f"schema: {exc}"]
    return []


class Workload:
    """One CLI invocation: its config, arguments and output checks. The
    reasons for each workload are in BENCHMARK.json and README.md."""

    name = ""

    def build(self, seed: int, smoke: bool) -> dict:
        raise NotImplementedError

    def argv(self, config_path: str, nproc: int) -> list:
        raise NotImplementedError

    def replicates(self, config: dict) -> int:
        return config["replicates"]

    def check(self, config: dict, out_dir: str, memo: dict) -> list:
        """Problems with one invocation's outputs; empty when correct."""
        raise NotImplementedError


class AuditMc(Workload):
    name = "audit_mc"

    def build(self, seed, smoke):
        config = _two_model_config(seed, T=9, replicates=1)
        config["audit"] = {"round": 9, "epsilon": 0.3, "c_cal": 1.0, "scenario": 1,
                           "replicates": 1000 if smoke else 2000, "mode": "mc"}
        config["output"] = {"dir": OUT_DIR, "formats": ["json"]}
        return config

    def argv(self, config_path, nproc):
        return ["audit", config_path, "--workers", "1"]

    def replicates(self, config):
        return config["audit"]["replicates"]

    def check(self, config, out_dir, memo):
        from ixplore.cli import validate_audit_json

        payload = _read_json(os.path.join(out_dir, "audit.json"))
        if isinstance(payload, Exception):
            return [f"audit.json: {payload}"]
        problems = _validate(validate_audit_json, payload)
        if problems:
            return problems
        n = self.replicates(config)
        if payload["replicates"] != n:
            problems.append(f"audit ran {payload['replicates']} replicates, asked {n}")
        if payload["verdict"] not in STRONG_ENOUGH:
            problems.append(f"verdict {payload['verdict']!r} is weaker than 'bic'")
        cell = payload.get("min_gap_cell")
        if cell is None:
            return problems + ["no usable minimum-gap cell"]
        half = 0.5 * (cell["ci_hi"] - cell["ci_lo"])
        ref_half = REF_MIN_GAP_HALF * math.sqrt(REF_REPLICATES / n)
        se = math.hypot(half, REF_MIN_GAP_HALF) / Z_95
        if abs(cell["mean"] - REF_MIN_GAP_MEAN) > MEAN_TOL_SE * se:
            problems.append(
                f"min gap {cell['mean']:.4f} is more than {MEAN_TOL_SE:g} SE "
                f"({se:.4f}) from the reference {REF_MIN_GAP_MEAN:.4f}"
            )
        if abs(half / ref_half - 1.0) > HALF_TOL:
            problems.append(
                f"CI half-width {half:.4f} is not within {HALF_TOL:.0%} of {ref_half:.4f}"
            )
        return problems


class RunBoxCsv(Workload):
    """T = 500 bounds the cost of the sampler's failure mode: a replicate whose
    posterior sits at the box edge can fall back to the grid after 10^4
    rejections in most rounds, which took 9 s at T = 500 and 31 s at T = 2000."""

    name = "run_box_csv"

    def build(self, seed, smoke):
        return {
            "instance": {"d": 2, "K": 3, "C_U": 1.5, "C_X": 1.0, "s": 2, "R": 1.0,
                         "T": 200 if smoke else 500, "T0": 6, "feedback": "bandit"},
            "prior": {"kind": "uniform_box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "semantic_map": {"kind": "hypercube", "origin": [0.0, 0.0],
                             "cell_radius": 0.125, "grid_extents": [4, 4]},
            "policy": {"kind": "fps"},
            "warmup": {"kind": "round_robin", "per_arm": 2},
            "types": {"kind": "iid", "regime": "public",
                      "matrices": [[[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]],
                                   [[0.8, -0.6], [0.0, 1.0], [-0.6, 0.8]]]},
            "seed": seed,
            "replicates": 2 if smoke else 16,
            "output": {"dir": OUT_DIR, "formats": ["csv", "json"]},
        }

    def argv(self, config_path, nproc):
        return ["run", config_path, "--workers", str(nproc)]

    def check(self, config, out_dir, memo):
        from ixplore.cli import validate_summary_json

        problems = []
        try:
            with open(os.path.join(out_dir, "rounds.csv"), "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return [f"rounds.csv: {exc}"]
        lines = data.decode().splitlines()
        if not lines or lines[0].split(",") != DOCUMENTED_CSV_COLUMNS:
            problems.append("rounds.csv header differs from the documented columns")
        rows = lines[1:]
        expected_rows = config["replicates"] * config["instance"]["T"]
        if len(rows) != expected_rows:
            problems.append(f"rounds.csv has {len(rows)} data rows, expected {expected_rows}")
        if any(row.count(",") != len(DOCUMENTED_CSV_COLUMNS) - 1 for row in rows):
            problems.append("rounds.csv has rows without 11 fields")
        digest = hashlib.sha256(data).hexdigest()
        if memo.setdefault("rounds_sha256", digest) != digest:
            problems.append("rounds.csv bytes differ from an earlier run at the same seed")
        summary = _read_json(os.path.join(out_dir, "summary.json"))
        if isinstance(summary, Exception):
            return problems + [f"summary.json: {summary}"]
        return problems + _validate(validate_summary_json, summary)


class OracleRun(Workload):
    name = "oracle_run"

    def build(self, seed, smoke):
        config = _two_model_config(seed, T=9 if smoke else 10, replicates=1)
        config["agent_model"] = "oracle_best_response"
        config["output"] = {"dir": OUT_DIR, "formats": ["json"]}
        return config

    def argv(self, config_path, nproc):
        return ["run", config_path, "--workers", "1"]

    def check(self, config, out_dir, memo):
        from ixplore.cli import validate_summary_json

        summary = _read_json(os.path.join(out_dir, "summary.json"))
        if isinstance(summary, Exception):
            return [f"summary.json: {summary}"]
        problems = _validate(validate_summary_json, summary)
        if problems:
            return problems
        per_rep = summary["per_replicate"]
        if len(per_rep) != config["replicates"]:
            problems.append(f"{len(per_rep)} replicates reported, expected {config['replicates']}")
        T = config["instance"]["T"]
        for rep in per_rep:
            if rep["compliant_rounds"] != T:
                problems.append(
                    f"replicate {rep['replicate']}: {rep['compliant_rounds']} of {T} rounds compliant"
                )
        return problems


WORKLOADS = {w.name: w for w in (AuditMc(), RunBoxCsv(), OracleRun())}
