"""Configuration loading, experiment subcommands, and result emission.

Config files are JSON documents validated key-by-key before any run; a
key that its section (or the section's `kind`) does not read is rejected,
so typos and misplaced settings fail loudly. Outputs are written to a
temp file and atomically renamed, so no result file is ever partially
written. CSV numbers use shortest round-trip formatting, which makes
byte-level determinism checks meaningful.

Exit codes: 0 success, 2 config error, 3 runtime error.
Seed precedence: --seed flag, then IXPLORE_SEED, then the config file.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from .audit import audit_bic, compute_thresholds, estimate_primitives, _message_str
from .domain import AgentType, Instance
from .engine import (
    EpisodeBatch,
    Explicit,
    ExperimentConfig,
    FlsPolicy,
    FpsPolicy,
    Homogeneous,
    IIDSampler,
    RegretCurves,
    UcbPolicy,
    distinct_types,
    lambda_snapshots,
    regret,
    run_replicates,
    validate_config,
)
from .errors import ConfigError, IxploreError, UndefinedThresholdError
from .policies import FixedSequence, NearUniform, RoundRobin
from .priors import (
    DiscretePrior,
    GaussianPrior,
    UniformBallPrior,
    UniformBoxPrior,
)
from .semantics import (
    ArgmaxDirect,
    FullReveal,
    HypercubeCover,
    Ranking,
    SignMap,
    VoronoiCover,
    build_voronoi_cover,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

CSV_COLUMNS = [
    "replicate",
    "t",
    "stage",
    "type_id",
    "message",
    "arm",
    "reward",
    "expected_reward",
    "regret",
    "lambda_min",
    "lambda_diag",
]


# ---------------------------------------------------------------------------
# Schema helpers


def _check_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}: missing required key {key!r}")


def _check_kind(raw, path, kinds, required=(), optional=()) -> str:
    """The section's `kind`, once `raw` holds the keys that kind reads and no
    other: `kinds` maps each kind to its own (required, optional) keys, and
    `required` / `optional` are read by every kind."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object")
    if "kind" not in raw:
        raise ConfigError(f"{path}: missing required key 'kind'")
    kind = raw["kind"]
    if kind not in kinds:
        raise ConfigError(f"{path}: unknown kind {kind!r}")
    own_required, own_optional = kinds[kind]
    _check_keys(raw, f"{path} ({kind})", ["kind", *required, *own_required], [*optional, *own_optional])
    return kind


def _parse_instance(raw) -> Instance:
    _check_keys(raw, "instance", ["d", "K", "C_U", "C_X", "s", "R", "T", "T0"], ["feedback"])
    return Instance(
        d=int(raw["d"]),
        K=int(raw["K"]),
        C_U=float(raw["C_U"]),
        C_X=float(raw["C_X"]),
        s=int(raw["s"]),
        R=float(raw["R"]),
        T=int(raw["T"]),
        T0=int(raw["T0"]),
        feedback=raw.get("feedback", "bandit"),
    )


# each kind's own (required, optional) keys, besides `kind`
PRIOR_KINDS = {"discrete": (["models", "weights"], []), "gaussian": (["mean", "cov"], []),
               "uniform_ball": (["radius", "dim"], []), "uniform_box": (["lo", "hi"], [])}
TYPE_KINDS = {"homogeneous": ([], []), "iid": ([], ["weights"]), "explicit": (["sequence"], [])}
SMAP_KINDS = {"argmax": ([], []), "ranking": ([], []), "voronoi": ([], ["centers", "domain", "radius"]),
              "hypercube": (["origin", "cell_radius", "grid_extents"], []), "sign": ([], []),
              "full_reveal": ([], [])}
DOMAIN_KINDS = {"box": (["lo", "hi"], []), "ball": (["radius", "dim"], [])}
POLICY_KINDS = {"fps": ([], []), "fls": ([], []), "ucb": ([], ["rho"])}
WARMUP_KINDS = {"round_robin": ([], ["per_arm", "per_atom"]), "near_uniform": (["epsilon", "rounds"], []),
                "fixed": (["arms"], [])}


def _parse_prior(raw):
    kind = _check_kind(raw, "prior", PRIOR_KINDS)
    if kind == "discrete":
        return DiscretePrior(np.array(raw["models"], dtype=float), np.array(raw["weights"], dtype=float))
    if kind == "gaussian":
        return GaussianPrior(np.array(raw["mean"], dtype=float), np.array(raw["cov"], dtype=float))
    if kind == "uniform_ball":
        return UniformBallPrior(float(raw["radius"]), int(raw["dim"]))
    return UniformBoxPrior(np.array(raw["lo"], dtype=float), np.array(raw["hi"], dtype=float))


def _parse_types(raw, inst: Instance):
    kind = _check_kind(raw, "types", TYPE_KINDS, ["matrices"], ["regime"])
    regime = raw.get("regime", "private")
    if regime not in ("private", "public"):
        raise ConfigError(f"types: unknown regime {regime!r}")
    matrices = raw["matrices"]
    if not matrices:
        raise ConfigError("types: matrices must be nonempty")
    built = tuple(
        AgentType(rows=np.array(m, dtype=float), public_id=(i if regime == "public" else 0))
        for i, m in enumerate(matrices)
    )
    if kind == "homogeneous":
        if len(built) != 1:
            raise ConfigError("types: homogeneous expects exactly one matrix")
        return Homogeneous(built[0])
    if kind == "iid":
        weights = raw.get("weights")
        if weights is None:
            weights = [1.0 / len(built)] * len(built)
        return IIDSampler(built, np.array(weights, dtype=float))
    try:
        return Explicit(tuple(built[int(i)] for i in raw["sequence"]))
    except IndexError as exc:
        raise ConfigError("types: sequence index out of range") from exc


def _representatives(type_source):
    reps = {}
    for x in distinct_types(type_source):
        reps.setdefault(x.public_id, x)
    return tuple(reps[label] for label in sorted(reps))


def _parse_smap(raw, inst: Instance, prior, type_source):
    kind = _check_kind(raw, "semantic_map", SMAP_KINDS)
    if kind == "argmax":
        return ArgmaxDirect(representatives=_representatives(type_source))
    if kind == "ranking":
        fiber = prior.models if isinstance(prior, DiscretePrior) else None
        return Ranking(num_arms=inst.K, fiber_models=fiber)
    if kind == "voronoi":
        if "centers" in raw:
            if "domain" in raw or "radius" in raw:
                raise ConfigError("semantic_map: voronoi takes centers, or a domain plus radius, not both")
            return VoronoiCover(np.array(raw["centers"], dtype=float))
        if "domain" not in raw or "radius" not in raw:
            raise ConfigError("semantic_map: voronoi needs centers, or a domain plus radius")
        dom = raw["domain"]
        if _check_kind(dom, "semantic_map.domain", DOMAIN_KINDS) == "box":
            domain = ("box", np.array(dom["lo"], dtype=float), np.array(dom["hi"], dtype=float))
        else:
            domain = ("ball", float(dom["radius"]), int(dom["dim"]))
        return VoronoiCover(build_voronoi_cover(domain, float(raw["radius"])))
    if kind == "hypercube":
        return HypercubeCover(
            origin=np.array(raw["origin"], dtype=float),
            cell_radius=float(raw["cell_radius"]),
            grid_extents=tuple(int(n) for n in raw["grid_extents"]),
        )
    if kind == "sign":
        if inst.d != 1:
            raise ConfigError("semantic_map: sign map requires d = 1")
        return SignMap()
    if not isinstance(prior, DiscretePrior):
        raise ConfigError("semantic_map: full_reveal needs a discrete prior")
    return FullReveal(models=prior.models)


def _parse_policy(raw):
    kind = _check_kind(raw, "policy", POLICY_KINDS)
    if kind == "ucb":
        return UcbPolicy(rho=float(raw.get("rho", 0.0)))
    return FlsPolicy() if kind == "fls" else FpsPolicy()


def _parse_warmup(raw):
    kind = _check_kind(raw, "warmup", WARMUP_KINDS)
    if kind == "round_robin":
        return RoundRobin(
            per_arm=None if raw.get("per_arm") is None else int(raw["per_arm"]),
            per_atom=None if raw.get("per_atom") is None else int(raw["per_atom"]),
        )
    if kind == "near_uniform":
        return NearUniform(epsilon=float(raw["epsilon"]), rounds=int(raw["rounds"]))
    return FixedSequence(arms=tuple(int(a) for a in raw["arms"]))


def _parse_audit(raw, inst: Instance):
    """The audit block as written, once each value converts the way the
    `audit` and `primitives` commands read it and lies in its range."""
    if raw is None:
        return None
    _check_keys(raw, "audit", [], AUDIT_KEYS)
    value = {key: AUDIT_KEYS[key](v) for key, v in raw.items() if v is not None}
    if "round" in value and value["round"] <= inst.T0:
        raise ValueError(f"round {value['round']} must exceed T0 = {inst.T0}")
    for key, choices in AUDIT_CHOICES.items():
        if value.get(key, choices[0]) not in choices:
            raise ValueError(f"{key} must be one of {choices}")
    for key in ("replicates", "n_samples", "c_cal", "alpha_margin", "eps_grid"):
        if np.any(np.asarray(value.get(key, 1)) <= 0):
            raise ValueError(f"{key} must be positive")
    return raw


def _parse_section(raw, section: str, parse, *args):
    """`parse(raw[section], *args)`, with a malformed value (a ValueError,
    KeyError or TypeError) reported as a ConfigError naming the section."""
    try:
        return parse(raw.get(section), *args)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


TOP_REQUIRED = ["instance", "prior", "semantic_map", "policy", "warmup", "types", "seed", "replicates"]
TOP_OPTIONAL = ["agent_model", "audit", "output"]
# each audit key with the conversion its command applies
AUDIT_KEYS = {"round": int, "epsilon": float, "c_cal": float, "scenario": int, "replicates": int,
              "mode": str, "n_samples": int, "eps_grid": lambda grid: [float(eps) for eps in grid],
              "alpha_margin": float, "rho": float, "gap_convention": str}
AUDIT_CHOICES = {"mode": ("mc", "exact"), "scenario": (1, 2, 3),
                 "gap_convention": ("auto", "signed", "positive_part")}


def load_config(path: str, overrides=(), seed_flag=None):
    """Parse, override, and validate a config file into runnable pieces."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    for item in overrides:
        raw = _apply_override(raw, item)
    _check_keys(raw, "config", TOP_REQUIRED, TOP_OPTIONAL)
    inst = _parse_section(raw, "instance", _parse_instance)
    prior = _parse_section(raw, "prior", _parse_prior)
    type_source = _parse_section(raw, "types", _parse_types, inst)
    smap = _parse_section(raw, "semantic_map", _parse_smap, inst, prior, type_source)
    policy = _parse_section(raw, "policy", _parse_policy)
    warmup = _parse_section(raw, "warmup", _parse_warmup)
    audit_block = _parse_section(raw, "audit", _parse_audit, inst)
    agent_model = raw.get("agent_model", "compliant")
    seed = _parse_section(raw, "seed", int)
    if "IXPLORE_SEED" in os.environ:
        seed = _parse_section(os.environ, "IXPLORE_SEED", int)
    if seed_flag is not None:
        seed = int(seed_flag)
    config = ExperimentConfig(
        instance=inst,
        prior=prior,
        smap=smap,
        policy=policy,
        warmup=warmup,
        type_source=type_source,
        agent_model=agent_model,
        seed=seed,
        replicates=_parse_section(raw, "replicates", int),
    )
    try:
        validate_config(config)
    except IxploreError as exc:
        raise ConfigError(str(exc)) from exc
    output_block = raw.get("output", {})
    _check_keys(output_block, "output", [], ["dir", "formats"])
    digest = hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()[:16]
    return config, audit_block, output_block, digest


def _apply_override(raw, item: str):
    if "=" not in item:
        raise ConfigError(f"--set expects key.path=value, got {item!r}")
    key_path, value = item.split("=", 1)
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    node = raw
    parts = key_path.split(".")
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = parsed
    return raw


# ---------------------------------------------------------------------------
# Output helpers


def _fmt(value) -> str:
    """Shortest round-trip decimal form, stable across runs and platforms."""
    return repr(float(value))


def atomic_write(path: str, data: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-ixplore-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _last(a: np.ndarray) -> list:
    """Each row's last entry, or 0.0 for rows with no entries."""
    return a[:, -1].tolist() if a.shape[1] else [0.0] * len(a)


def _final_lambdas(snapshots: list, n: int):
    """Each of n replicates' last (lambda_min, lambda_diag) snapshot, 0.0
    without one."""
    if not snapshots:
        return [0.0] * n, [0.0] * n
    _, lmin, ldiag = snapshots[-1]
    return lmin.tolist(), ldiag.tolist()


def _rounds_csv(batch: EpisodeBatch, curves: RegretCurves, snapshots: list, inst: Instance) -> str:
    lines = [",".join(CSV_COLUMNS)]
    rounds = range(1, inst.T + 1)
    stages = ["warmup" if t <= inst.T0 else "main" for t in rounds]
    snaps = {t: (lmin, ldiag) for t, lmin, ldiag in snapshots}
    for k, replicate in enumerate(batch.replicates):
        messages = [""] * inst.T0 + [_message_str(m[k]) for m in batch.messages]
        lams = [f"{_fmt(snaps[t][0][k])},{_fmt(snaps[t][1][k])}" if t in snaps else "," for t in rounds]
        rows = zip(
            rounds, stages, batch.type_ids[k].tolist(), messages, batch.arms[k].tolist(),
            batch.rewards[k].tolist(), batch.expected_rewards[k].tolist(),
            curves.per_round[k].tolist(), lams,
        )
        lines.extend(
            f"{replicate},{t},{stage},{tid},{m},{arm},{reward!r},{expected!r},{reg!r},{lam}"
            for t, stage, tid, m, arm, reward, expected, reg, lam in rows
        )
    return "\n".join(lines) + "\n"


def _summary_json(batch: EpisodeBatch, curves: RegretCurves, snapshots: list,
                  config: ExperimentConfig, digest: str) -> dict:
    # np.cumsum adds each row's rewards in round order; np.sum adds pairwise,
    # which would move the last digits of the emitted totals
    totals = _last(np.cumsum(batch.rewards, axis=1))
    lam_min, lam_diag = _final_lambdas(snapshots, len(batch.replicates))
    per_rep = [
        {
            "replicate": replicate,
            "total_reward": total,
            "cumulative_regret": cumulative,
            "lambda_min_final": lmin,
            "lambda_diag_final": ldiag,
            "compliant_rounds": compliant,
        }
        for replicate, total, cumulative, lmin, ldiag, compliant in zip(
            batch.replicates, totals, _last(curves.cumulative), lam_min, lam_diag,
            batch.compliance.sum(axis=1).tolist(),
        )
    ]
    mean_regret = float(np.mean([r["cumulative_regret"] for r in per_rep]))
    return {
        "schema": "ixplore.summary/1",
        "config_digest": digest,
        "seed": config.seed,
        "replicates": config.replicates,
        "T": config.instance.T,
        "T0": config.instance.T0,
        "policy": type(config.policy).__name__,
        "mean_cumulative_regret": mean_regret,
        "per_replicate": per_rep,
    }


def validate_summary_json(obj):
    for key in ("schema", "config_digest", "seed", "replicates", "T", "T0", "policy",
                "mean_cumulative_regret", "per_replicate"):
        if key not in obj:
            raise ConfigError(f"summary JSON missing key {key!r}")
    if obj["schema"] != "ixplore.summary/1":
        raise ConfigError(f"unexpected summary schema {obj['schema']!r}")


def validate_audit_json(obj):
    for key in ("t", "eps_verdict", "replicates", "mode", "cells", "verdict", "provenance"):
        if key not in obj:
            raise ConfigError(f"audit JSON missing key {key!r}")


def validate_primitives_json(obj):
    for key in ("schema", "delta_TS", "eps_TS", "gap_convention", "mode", "cells", "thresholds"):
        if key not in obj:
            raise ConfigError(f"primitives JSON missing key {key!r}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(args) -> int:
    config, _audit, output, digest = load_config(args.config, args.set or (), args.seed)
    batch = run_replicates(config)
    curves = regret(batch)
    snapshots = lambda_snapshots(batch)
    out_dir = output.get("dir", "out")
    formats = output.get("formats", ["csv", "json"])
    if "csv" in formats:
        atomic_write(os.path.join(out_dir, "rounds.csv"), _rounds_csv(batch, curves, snapshots, config.instance))
    if "json" in formats:
        summary = _summary_json(batch, curves, snapshots, config, digest)
        validate_summary_json(summary)
        atomic_write(os.path.join(out_dir, "summary.json"), json.dumps(summary, indent=2) + "\n")
    print(f"run complete: {config.replicates} replicates, T={config.instance.T}, output in {out_dir}")
    return EXIT_OK


def cmd_audit(args) -> int:
    config, audit_block, output, digest = load_config(args.config, args.set or (), args.seed)
    if audit_block is None:
        raise ConfigError("config has no 'audit' block")
    for key in ("round", "epsilon"):
        if key not in audit_block:
            raise ConfigError(f"audit: missing required key {key!r}")
    report = audit_bic(
        config,
        t=int(audit_block["round"]),
        replicates=int(audit_block.get("replicates", config.replicates)),
        eps_verdict=float(audit_block["epsilon"]),
        mode=audit_block.get("mode", "mc"),
        provenance={
            "config_digest": digest,
            "seed": config.seed,
            "c_cal": audit_block.get("c_cal", 1.0),
            "mode": audit_block.get("mode", "mc"),
            "warmup_marginalized": True,
        },
    )
    payload = report.to_json()
    validate_audit_json(payload)
    out_dir = output.get("dir", "out")
    atomic_write(os.path.join(out_dir, "audit.json"), json.dumps(payload, indent=2) + "\n")
    gap = "n/a" if report.min_gap_cell is None else f"{report.min_gap_cell.mean:.6g}"
    lo = "n/a" if report.min_gap_cell is None else f"{report.min_gap_cell.ci_lo:.6g}"
    print(f"verdict={report.verdict} min_gap={gap} ci_lo={lo} t={report.t} replicates={report.replicates}")
    return EXIT_OK


def cmd_primitives(args) -> int:
    config, audit_block, output, digest = load_config(args.config, args.set or (), args.seed)
    audit_block = audit_block or {}
    types = distinct_types(config.type_source)
    est = estimate_primitives(
        config.prior,
        config.smap,
        types,
        n_samples=audit_block.get("n_samples"),
        gap_convention=audit_block.get("gap_convention", "auto"),
        seed=config.seed,
    )
    thresholds_payload = None
    note = None
    try:
        thresholds = compute_thresholds(
            est,
            config.instance,
            scenario=int(audit_block.get("scenario", 1)),
            c_cal=float(audit_block.get("c_cal", 1.0)),
            alpha_margin=float(audit_block.get("alpha_margin", 1.0)),
            rho=float(audit_block.get("rho", 0.0)),
            eps_grid=audit_block.get("eps_grid"),
        )
        thresholds_payload = {
            "scenario": thresholds.scenario,
            "c_cal": thresholds.c_cal,
            "D": thresholds.D,
            "N_TS": thresholds.N_TS,
            "N_TS_ceil": thresholds.N_TS_ceil,
            "eps_UCB": thresholds.eps_UCB,
            "N_UCB": thresholds.N_UCB,
            "eta": thresholds.eta,
            "eta_note": thresholds.eta_note,
            "lambda_grid": thresholds.lambda_grid,
        }
    except UndefinedThresholdError as exc:
        note = str(exc)
    payload = {
        "schema": "ixplore.primitives/1",
        "config_digest": digest,
        "delta_TS": est.delta_TS,
        "eps_TS": est.eps_TS,
        "gap_convention": est.gap_convention,
        "mode": est.mode,
        "n_samples": est.n_samples,
        "cells": [
            {
                "type_index": c.type_index,
                "message": _message_str(c.message),
                "i": c.i,
                "prob": c.prob,
                "gaps": [float(g) for g in c.gaps],
                "gaps_pos": None if c.gaps_pos is None else [float(g) for g in c.gaps_pos],
                "ci_half": None if c.ci_half is None else [float(g) for g in c.ci_half],
                "n": c.n,
            }
            for c in est.cells.values()
        ],
        "zero_probability_messages": [
            {"type_index": ti, "message": _message_str(m)} for ti, m in est.zero_probability_messages
        ],
        "unestimated": [
            {"type_index": ti, "message": _message_str(m)} for ti, m in est.unestimated
        ],
        "thresholds": thresholds_payload,
        "threshold_note": note,
    }
    validate_primitives_json(payload)
    out_dir = output.get("dir", "out")
    atomic_write(os.path.join(out_dir, "primitives.json"), json.dumps(payload, indent=2) + "\n")
    print(
        f"delta_TS={est.delta_TS:.6g} eps_TS={'n/a' if est.eps_TS is None else f'{est.eps_TS:.6g}'}"
        f" mode={est.mode} cells={len(est.cells)}"
    )
    return EXIT_OK


def cmd_diversity(args) -> int:
    from dataclasses import replace

    config, _audit, _output, _digest = load_config(args.config, args.set or (), args.seed)
    warm_only = replace(config, instance=replace(config.instance, T=config.instance.T0))
    batch = run_replicates(warm_only)
    lam_min, lam_diag = _final_lambdas(lambda_snapshots(batch), len(batch.replicates))
    print("replicate,lambda_min,lambda_diag")
    for replicate, lmin, ldiag in zip(batch.replicates, lam_min, lam_diag):
        print(f"{replicate},{_fmt(lmin)},{_fmt(ldiag)}")
    print(f"mean,{_fmt(np.mean(lam_min))},{_fmt(np.mean(lam_diag))}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ixplore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, text in (
        ("run", cmd_run, "run replicated episodes and emit CSV/JSON results"),
        ("audit", cmd_audit, "run the incentive audit and emit a report"),
        ("primitives", cmd_primitives, "estimate primitives and thresholds"),
        ("diversity", cmd_diversity, "report warm-up spectral diversity only"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("config", help="path to a JSON config file")
        p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                       help="override a config entry (repeatable)")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; replicates run as one batch")
        p.add_argument("--seed", type=int, default=None, help="override the seed (beats IXPLORE_SEED)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IxploreError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
