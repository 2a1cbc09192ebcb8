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
import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile
from functools import partial

import numpy as np

from .audit import (
    audit_bic,
    compute_thresholds,
    dataclass_json,
    estimate_primitives,
    exact_audit_supported,
    exact_primitives_supported,
    _message_str,
)
from .domain import AgentType, Feedback, Instance
from .engine import (
    COMPLIANT,
    ORACLE_BEST_RESPONSE,
    EpisodeBatch,
    Explicit,
    ExperimentConfig,
    IIDSampler,
    RegretCurves,
    lambda_snapshots,
    regret,
    run_chunks,
)
from .errors import ConfigError, IxploreError, UndefinedThresholdError
from .policies import FixedSequence, FlsPolicy, FpsPolicy, NearUniform, RoundRobin, UcbPolicy
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
    bin_rows,
    build_voronoi_cover,
    message,
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


def _int(value) -> int:
    """An integral JSON number as an int. A bool, a string or a number with
    a fractional part is rejected, not truncated."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """A finite JSON number as a float; an integer is one. A bool, a string,
    NaN or an infinity is rejected, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


class _Malformed(ValueError):
    """A malformed config value, with the key path from its section down to
    it, such as ".models[0][1]"."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path, self.message = path, message


def _decimal(text) -> int:
    """A seed given as text, in plain decimal digits only: no sign, spaces
    or underscores, which `int` would accept."""
    if not (isinstance(text, str) and text.isascii() and text.isdigit()):
        raise ValueError(f"expected decimal digits, got {text!r}")
    return int(text)


def _field(raw, key, convert):
    """`convert(raw[key])`, a malformed value reported at `key` (a name of
    an object or an index of a list) below the path it already names."""
    try:
        return convert(raw[key])
    except ValueError as exc:
        path, message = (exc.path, exc.message) if isinstance(exc, _Malformed) else ("", str(exc))
        step = f"[{key}]" if isinstance(key, int) else f".{key}"
        raise _Malformed(step + path, message) from exc


def _items(values, convert) -> list:
    """`convert` of each entry of a JSON list, a malformed entry reported at
    its index."""
    if not isinstance(values, list):
        raise ValueError(f"expected a list, got {values!r}")
    return [_field(values, i, convert) for i in range(len(values))]


def _ints(values) -> list:
    return _items(values, _int)


def _floats(value) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array, each entry
    taken by `_float`."""
    def entries(v):
        return _items(v, entries) if isinstance(v, list) else _float(v)
    return np.array(entries(value), dtype=float)


def _str(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _one_of(*choices):
    """A converter that takes one of `choices` and rejects any other value."""
    def convert(value):
        if value not in choices:
            raise ValueError(f"expected one of {choices}, got {value!r}")
        return value
    return convert


def _check_keys(obj, required, optional=(), where=""):
    """Reject an `obj` that is not an object, holds a key outside `required`
    and `optional`, or lacks a required one. `where`, such as " (discrete)",
    follows the object's path in the error."""
    if not isinstance(obj, dict):
        raise _Malformed(where, "expected an object")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise _Malformed(where, f"unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise _Malformed(where, f"missing required key {key!r}")


REQUIRED = object()  # the default of a schema key that must be present


def _check_schema(raw, schema, where=""):
    """Reject a `raw` that lacks a REQUIRED key of `schema`, which maps each
    key to (converter, default), or holds a key outside it."""
    required = [key for key, (_, default) in schema.items() if default is REQUIRED]
    _check_keys(raw, required, [key for key in schema if key not in required], where)


def _values(raw, schema, where="") -> dict:
    """`raw`'s values of the keys of `schema`, which maps each to (converter,
    default), in table order: through `_field`, or the default if absent or
    null. `raw` must hold every REQUIRED key and no key outside `schema`."""
    _check_schema(raw, schema, where)
    return {key: default if default is not REQUIRED and raw.get(key) is None else _field(raw, key, convert)
            for key, (convert, default) in schema.items()}


def _kinded(kinds, raw, *context):
    """`build(*context, **values)`: `kinds` maps the section's `kind` to
    (build, schema), and `schema` reads `values` from its other keys."""
    _check_keys(raw, ["kind"], raw)  # an object with a kind; its other keys are checked below
    kind = raw["kind"]
    if kind not in kinds:
        raise ValueError(f"unknown kind {kind!r}")
    build, schema = kinds[kind]
    return build(*context, **_values({k: v for k, v in raw.items() if k != "kind"}, schema, f" ({kind})"))


def _by_kind(parse, schemas: dict) -> dict:
    """A kinded table whose every kind builds by `parse(kind, *context, **values)`."""
    return {kind: (partial(parse, kind), schema) for kind, schema in schemas.items()}


def _parse_types(kind, regime, matrices, **values):
    """The type source of `kind` over `matrices`, each labelled 0 under the
    private regime and with its index under the public one."""
    types = tuple(AgentType(rows=rows, public_id=(i if regime == "public" else 0)) for i, rows in enumerate(matrices))
    if kind == "explicit":
        return Explicit(types, **values)
    if kind == "homogeneous" and len(types) != 1:
        raise ValueError("homogeneous expects exactly one matrix")
    return IIDSampler(types, **values)


def _parse_smap(kind, inst: Instance, prior, type_source, centers=None, domain=None, radius=None, **cube):
    """The semantic map of `kind`, under the rules that tie it to the
    instance, the prior and the type source."""
    if kind == "argmax":  # the first type of each public label
        reps = {}
        for x in type_source.types:
            reps.setdefault(x.public_id, x)
        return ArgmaxDirect(representatives=tuple(reps[label] for label in sorted(reps)))
    if kind == "ranking":
        fiber = prior.models if isinstance(prior, DiscretePrior) else None
        return Ranking(num_arms=inst.K, fiber_models=fiber)
    if kind == "voronoi":
        if centers is not None:
            if domain is not None or radius is not None:
                raise ValueError("voronoi takes centers, or a domain plus radius, not both")
            return VoronoiCover(centers)
        if domain is None or radius is None:
            raise ValueError("voronoi needs centers, or a domain plus radius")
        return VoronoiCover(build_voronoi_cover(domain, radius))
    if kind == "hypercube":
        return HypercubeCover(**cube)
    if kind == "sign":
        return SignMap()
    if not isinstance(prior, DiscretePrior):
        raise ValueError("full_reveal needs a discrete prior")
    return FullReveal(models=prior.models)


# Each section's schema: every key it reads, mapped to (converter, default).
# A kinded section maps each kind to (builder, schema) instead. Keys are
# listed in conversion order, so of two malformed values the first listed
# is reported.
INSTANCE = {"d": (_int, REQUIRED), "K": (_int, REQUIRED), "C_U": (_float, REQUIRED), "C_X": (_float, REQUIRED),
            "s": (_int, REQUIRED), "R": (_float, REQUIRED), "T": (_int, REQUIRED), "T0": (_int, REQUIRED),
            "feedback": (Feedback, Feedback.BANDIT)}
PRIORS = {"discrete": (DiscretePrior, {"models": (_floats, REQUIRED), "weights": (_floats, REQUIRED)}),
          "gaussian": (GaussianPrior, {"mean": (_floats, REQUIRED), "cov": (_floats, REQUIRED)}),
          "uniform_ball": (UniformBallPrior, {"radius": (_float, REQUIRED), "dim": (_int, REQUIRED)}),
          "uniform_box": (UniformBoxPrior, {"lo": (_floats, REQUIRED), "hi": (_floats, REQUIRED)})}
TYPE_KEYS = {"regime": (_one_of("private", "public"), "private"),
             "matrices": (lambda ms: _items(ms, _floats), REQUIRED)}
TYPES = _by_kind(_parse_types, {"homogeneous": TYPE_KEYS, "iid": {**TYPE_KEYS, "weights": (_floats, None)},
                                "explicit": {**TYPE_KEYS, "sequence": (_ints, REQUIRED)}})
DOMAINS = {"box": PRIORS["uniform_box"], "ball": PRIORS["uniform_ball"]}  # a voronoi domain is a uniform prior
SEMANTIC_MAPS = _by_kind(_parse_smap, {
    "argmax": {}, "ranking": {}, "sign": {}, "full_reveal": {},
    "voronoi": {"centers": (_floats, None), "domain": (partial(_kinded, DOMAINS), None),
                "radius": (_float, None)},
    "hypercube": {"origin": (_floats, REQUIRED), "cell_radius": (_float, REQUIRED),
                  "grid_extents": (_ints, REQUIRED)}})
POLICIES = {"fps": (FpsPolicy, {}), "fls": (FlsPolicy, {}), "ucb": (UcbPolicy, {"rho": (_float, 0.0)})}
WARMUPS = {"round_robin": (RoundRobin, {"per_arm": (_int, None), "per_atom": (_int, None)}),
           "near_uniform": (NearUniform, {"epsilon": (_float, REQUIRED), "rounds": (_int, REQUIRED)}),
           "fixed": (FixedSequence, {"arms": (_ints, REQUIRED)})}
# `round` and `epsilon`, which only `ixplore audit` reads, have no default,
# and `replicates` defaults to the config's
AUDIT_KEYS = {"round": (_int, None), "epsilon": (_float, None), "c_cal": (_float, 1.0),
              "scenario": (lambda scenario: _one_of(1, 2, 3)(_int(scenario)), 1),
              "replicates": (_int, None), "mode": (_one_of("mc", "exact"), "mc"), "n_samples": (_int, None),
              "eps_grid": (lambda grid: _items(grid, _float), None), "alpha_margin": (_float, 1.0),
              "rho": (_float, 0.0), "gap_convention": (_one_of("auto", "signed", "positive_part"), "auto")}
OUTPUT = {"dir": (_str, "out"), "formats": (lambda fs: _items(fs, _one_of("csv", "json")), ["csv", "json"])}


def _parse_audit(raw, config: ExperimentConfig) -> dict:
    """Every audit key's value, converted, defaulted and range-checked once
    for every command."""
    value = _values(raw, AUDIT_KEYS)
    if value["replicates"] is None:
        value["replicates"] = config.replicates
    if value["round"] is not None and value["round"] <= config.instance.T0:
        raise ValueError(f"round {value['round']} must exceed T0 = {config.instance.T0}")
    for key in ("epsilon", "replicates", "n_samples", "c_cal", "alpha_margin", "eps_grid"):
        if value[key] is not None and np.any(np.asarray(value[key]) <= 0):
            raise ValueError(f"{key} must be positive")
    if value["rho"] < 0:
        raise ValueError("rho must be >= 0")
    if value["mode"] == "exact" and not exact_audit_supported(config):
        raise ValueError("mode 'exact' needs a discrete prior under posterior sampling (policy fps)")
    return value


# The top level's schema: every key, its converter, called with the
# context `load_config` gives it after the raw value, and its default, which
# an absent or null optional key reads as before conversion. Keys are listed
# in conversion order.
TOP = {"instance": (lambda raw: Instance(**_values(raw, INSTANCE)), REQUIRED),
       "prior": (partial(_kinded, PRIORS), REQUIRED),
       "types": (partial(_kinded, TYPES), REQUIRED),
       "semantic_map": (partial(_kinded, SEMANTIC_MAPS), REQUIRED),  # after the instance, prior and types
       "policy": (partial(_kinded, POLICIES), REQUIRED),
       "warmup": (partial(_kinded, WARMUPS), REQUIRED),
       "agent_model": (_one_of(COMPLIANT, ORACLE_BEST_RESPONSE), COMPLIANT),
       "seed": (_int, REQUIRED),
       "replicates": (_int, REQUIRED),
       "audit": (_parse_audit, {}),  # after the experiment config
       "output": (partial(_values, schema=OUTPUT), {})}


def _parse_section(name: str, value, parse, *args):
    """`parse(value, *args)`, where a malformed value (a ValueError,
    KeyError, TypeError or OverflowError) or a section that cannot be built
    (an IxploreError, such as a cover over its cap) becomes a ConfigError
    naming `name` and the value's key path."""
    try:
        return parse(value, *args)
    except (KeyError, ValueError, TypeError, OverflowError, IxploreError) as exc:
        raise ConfigError(f"{name}{exc}" if isinstance(exc, _Malformed) else f"{name}: {exc}") from exc


def _top(raw, key: str, *context):
    """The top-level `key` of `raw` by its TOP converter, `context` after the
    raw value; an optional key that is absent or null reads as its default."""
    convert, default = TOP[key]
    value = raw.get(key)
    return _parse_section(key, default if value is None and default is not REQUIRED else value, convert, *context)


def load_config(path: str, overrides=(), seed_flag=None):
    """Parse, override, and validate a config file into runnable pieces:
    the experiment config, the audit and output blocks' resolved values
    (dicts keyed as in the file), and the config's digest. `seed_flag` is
    the text of `--seed`."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _parse_section("config", raw, _check_keys, (), raw)  # an object; its keys are checked with the overrides in
    for item in overrides:
        raw = _apply_override(raw, item)
    _parse_section("config", raw, _check_schema, TOP)
    inst = _top(raw, "instance")
    prior = _top(raw, "prior")
    type_source = _top(raw, "types")
    smap = _top(raw, "semantic_map", inst, prior, type_source)
    policy = _top(raw, "policy")
    warmup = _top(raw, "warmup")
    agent_model = _top(raw, "agent_model")
    seed = _top(raw, "seed")
    if "IXPLORE_SEED" in os.environ:
        seed = _parse_section("IXPLORE_SEED", os.environ["IXPLORE_SEED"], _decimal)
    if seed_flag is not None:
        seed = _parse_section("--seed", seed_flag, _decimal)
    try:
        config = ExperimentConfig(
            instance=inst,
            prior=prior,
            smap=smap,
            policy=policy,
            warmup=warmup,
            type_source=type_source,
            agent_model=agent_model,
            seed=seed,
            replicates=_top(raw, "replicates"),
        )
    except IxploreError as exc:
        raise ConfigError(str(exc)) from exc
    audit = _top(raw, "audit", config)
    output = _top(raw, "output")
    digest = hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()[:16]
    return config, audit, output, digest


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


@contextlib.contextmanager
def atomic_open(path: str):
    """A temp file beside `path`, renamed onto it when the block exits."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-ixplore-")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path: str, data: str):
    with atomic_open(path) as fh:
        fh.write(data)


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


def _write_rounds(fh, batch: EpisodeBatch, curves: RegretCurves, snapshots: list, config: ExperimentConfig):
    """Write the rounds.csv rows of a batch to `fh`, one replicate at a time."""
    inst = config.instance
    # each distinct code is decoded once; the file carries message values
    codes, inverse = bin_rows(batch.messages.ravel())
    names = np.array([_message_str(message(config.smap, c)) for c in codes], dtype=object)
    main = names[inverse].reshape(batch.messages.shape)
    rounds = range(1, inst.T + 1)
    stages = ["warmup" if t <= inst.T0 else "main" for t in rounds]
    snaps = {t: (lmin, ldiag) for t, lmin, ldiag in snapshots}
    for k, replicate in enumerate(batch.replicates):
        messages = [""] * inst.T0 + main[k].tolist()
        lams = [f"{_fmt(snaps[t][0][k])},{_fmt(snaps[t][1][k])}" if t in snaps else "," for t in rounds]
        rows = zip(
            rounds, stages, batch.type_ids[k].tolist(), messages, batch.arms[k].tolist(),
            batch.rewards[k].tolist(), batch.expected_rewards[k].tolist(),
            curves.per_round[k].tolist(), lams,
        )
        fh.write("".join(
            f"{replicate},{t},{stage},{tid},{m},{arm},{reward!r},{expected!r},{reg!r},{lam}\n"
            for t, stage, tid, m, arm, reward, expected, reg, lam in rows
        ))


def _replicate_summaries(batch: EpisodeBatch, curves: RegretCurves, snapshots: list) -> list:
    """The summary.json entry of every replicate of a batch."""
    # np.cumsum adds each row's rewards in round order; np.sum adds pairwise,
    # which would move the last digits of the emitted totals
    totals = _last(np.cumsum(batch.rewards, axis=1))
    lam_min, lam_diag = _final_lambdas(snapshots, len(batch.replicates))
    return [
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


def _summary_json(per_rep: list, config: ExperimentConfig, digest: str) -> dict:
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
    per_rep = []
    rounds_csv = os.path.join(output["dir"], "rounds.csv")
    with atomic_open(rounds_csv) if "csv" in output["formats"] else contextlib.nullcontext() as csv:
        if csv is not None:
            csv.write(",".join(CSV_COLUMNS) + "\n")
        for batch in run_chunks(config):
            curves = regret(batch)
            snapshots = lambda_snapshots(batch)
            if csv is not None:
                _write_rounds(csv, batch, curves, snapshots, config)
            per_rep += _replicate_summaries(batch, curves, snapshots)
    if "json" in output["formats"]:
        summary = _summary_json(per_rep, config, digest)
        validate_summary_json(summary)
        atomic_write(os.path.join(output["dir"], "summary.json"), json.dumps(summary, indent=2) + "\n")
    print(f"run complete: {config.replicates} replicates, T={config.instance.T}, output in {output['dir']}")
    return EXIT_OK


def cmd_audit(args) -> int:
    config, audit, output, digest = load_config(args.config, args.set or (), args.seed)
    for key in ("round", "epsilon"):
        if audit[key] is None:
            raise ConfigError(f"audit: missing required key {key!r}")
    provenance = {"config_digest": digest, "seed": config.seed, "c_cal": audit["c_cal"], "mode": audit["mode"],
                  "warmup_marginalized": True}
    report = audit_bic(config, t=audit["round"], replicates=audit["replicates"], eps_verdict=audit["epsilon"],
                       mode=audit["mode"], provenance=provenance)
    payload = report.to_json()
    validate_audit_json(payload)
    atomic_write(os.path.join(output["dir"], "audit.json"), json.dumps(payload, indent=2) + "\n")
    gap = "n/a" if report.min_gap_cell is None else f"{report.min_gap_cell.mean:.6g}"
    lo = "n/a" if report.min_gap_cell is None else f"{report.min_gap_cell.ci_lo:.6g}"
    print(f"verdict={report.verdict} min_gap={gap} ci_lo={lo} t={report.t} replicates={report.replicates}")
    return EXIT_OK


def cmd_primitives(args) -> int:
    config, audit, output, digest = load_config(args.config, args.set or (), args.seed)
    if audit["n_samples"] is None and not exact_primitives_supported(config.prior, config.smap):
        raise ConfigError("audit: exact primitives need a discrete prior, or a uniform-box prior with "
                          "a hypercube map; set n_samples for Monte Carlo")
    est = estimate_primitives(config.prior, config.smap, config.type_source.types, n_samples=audit["n_samples"],
                              gap_convention=audit["gap_convention"], seed=config.seed)
    thresholds_payload = None
    note = None
    try:
        thresholds = compute_thresholds(est, config.instance, scenario=audit["scenario"], c_cal=audit["c_cal"],
                                        alpha_margin=audit["alpha_margin"], rho=audit["rho"],
                                        eps_grid=audit["eps_grid"])
        thresholds_payload = dataclass_json(thresholds, exclude=("log_term",))
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
        "cells": dataclass_json(list(est.cells.values())),
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
    atomic_write(os.path.join(output["dir"], "primitives.json"), json.dumps(payload, indent=2) + "\n")
    print(
        f"delta_TS={est.delta_TS:.6g} eps_TS={'n/a' if est.eps_TS is None else f'{est.eps_TS:.6g}'}"
        f" mode={est.mode} cells={len(est.cells)}"
    )
    return EXIT_OK


def cmd_diversity(args) -> int:
    from dataclasses import replace

    config, _audit, _output, _digest = load_config(args.config, args.set or (), args.seed)
    warm_only = replace(config, instance=replace(config.instance, T=config.instance.T0))
    lam_min, lam_diag = [], []
    for batch in run_chunks(warm_only):
        lmin, ldiag = _final_lambdas(lambda_snapshots(batch), len(batch.replicates))
        lam_min += lmin
        lam_diag += ldiag
    print("replicate,lambda_min,lambda_diag")
    for replicate, (lmin, ldiag) in enumerate(zip(lam_min, lam_diag)):
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
                       help="accepted for compatibility; replicates run in one process in chunks "
                            "of engine.CHUNK, so peak memory scales with the chunk, not the replicates")
        p.add_argument("--seed", default=None, help="override the seed (beats IXPLORE_SEED)")
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
