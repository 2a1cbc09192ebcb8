"""The full game-protocol simulator: warm start, main stage, agent
behavior, and per-round instrumentation.

Replicates run as one in-process batch: every replicate's state is a row of
an array (posterior log-weights (n, M), precisions (n, d, d), policy
statistics as stacks), and each round is one vectorized step for the whole
batch. Every draw comes from its own counter-based cell (seed, replicate,
round, purpose), so a replicate's episode is the same alone or in any
batch. An episode's one result type is the `EpisodeBatch` of arrays, and
`regret` and `lambda_snapshots` (the spectral diversity of the played
features, which only `run` and `diversity` report) are reductions of a
finished batch, so the round loop plays the protocol alone. Within a
replicate, rounds are strictly sequential. Every layer the loop drives
(`generate_warmup`, `realize_outcome`, the policy steps, `policy_update`)
takes the whole batch, and a single replicate is a batch of one:
`run_episode(config, [r])`. Oracle agents read one table per batch, so its
Monte Carlo noise is common to all.
"""

from dataclasses import dataclass, replace

import numpy as np

from .domain import AgentType, Feedback, Instance, expected_reward, realize_outcome
from .errors import ConfigError
from .policies import (
    FlsState,
    FpsState,
    RoundRobin,
    UcbState,
    fls_step,
    fps_step,
    generate_warmup,
    policy_update,
    ucb_step,
    warmup_length,
)
from .priors import make_posterior, sample_prior
from .semantics import ArgmaxDirect, HypercubeCover, menu
from .spectral import GramAccumulator
from .streams import AGENT, MODEL_DRAW, NOISE, POLICY, TYPE_DRAW, StreamFamily, spawn_seed

ORACLE_INNER_DRAWS = 1000  # nested episodes behind the oracle agent's table


# ---------------------------------------------------------------------------
# Configuration pieces


@dataclass(frozen=True)
class Homogeneous:
    x0: AgentType


@dataclass(frozen=True)
class IIDSampler:
    types: tuple
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(self.types))
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.types),) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("type weights must be a probability vector over the types")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class Explicit:
    sequence: tuple

    def __post_init__(self):
        object.__setattr__(self, "sequence", tuple(self.sequence))


TypeSource = Homogeneous | IIDSampler | Explicit


@dataclass(frozen=True)
class FpsPolicy:
    pass


@dataclass(frozen=True)
class FlsPolicy:
    pass


@dataclass(frozen=True)
class UcbPolicy:
    rho: float = 0.0

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be >= 0")


COMPLIANT = "compliant"
ORACLE_BEST_RESPONSE = "oracle_best_response"


@dataclass(frozen=True)
class ExperimentConfig:
    instance: Instance
    prior: object
    smap: object
    policy: object
    warmup: object
    type_source: object
    agent_model: str = COMPLIANT
    seed: int = 0
    replicates: int = 1


def distinct_types(source) -> tuple:
    if isinstance(source, Homogeneous):
        return (source.x0,)
    if isinstance(source, IIDSampler):
        return source.types
    if isinstance(source, Explicit):
        seen = []
        for x in source.sequence:
            if not any(y is x for y in seen):
                seen.append(x)
        return tuple(seen)
    raise TypeError(f"unknown type source {type(source).__name__}")


def _is_identity_embedding(types, inst: Instance) -> bool:
    if inst.d != inst.K:
        return False
    eye = np.eye(inst.K)
    return all(np.array_equal(x.rows, eye) for x in types)


def validate_config(config: ExperimentConfig):
    """Reject structurally inconsistent configurations before any run."""
    inst = config.instance
    types = distinct_types(config.type_source)
    for x in types:
        if x.rows.shape != (inst.K, inst.d):
            raise ConfigError(
                f"type shape {x.rows.shape} does not match (K, d) = ({inst.K}, {inst.d})"
            )
    if inst.feedback is Feedback.SEMIBANDIT:
        for ti, x in enumerate(types):
            if not np.isin(x.rows, (0.0, 1.0)).all():
                raise ConfigError(f"semi-bandit feedback requires binary rows (type {ti})")
    if isinstance(config.policy, FlsPolicy) and not isinstance(config.smap, HypercubeCover):
        raise ConfigError("the least-squares policy requires a hypercube map")
    if isinstance(config.policy, UcbPolicy):
        if not isinstance(config.smap, ArgmaxDirect):
            raise ConfigError("the index policy requires direct (argmax) messages")
        if not _is_identity_embedding(types, inst):
            raise ConfigError("the index policy requires the K-armed identity embedding")
    if config.agent_model not in (COMPLIANT, ORACLE_BEST_RESPONSE):
        raise ConfigError(f"unknown agent model {config.agent_model!r}")
    if isinstance(config.type_source, Explicit) and len(config.type_source.sequence) < inst.T:
        raise ConfigError("explicit type sequence is shorter than the horizon")
    if (
        isinstance(config.warmup, RoundRobin)
        and config.warmup.per_atom is not None
        and not isinstance(config.type_source, Homogeneous)
    ):
        raise ConfigError("per-atom warm-up plans need a homogeneous type source")
    expected = warmup_length(config.warmup, inst, lambda t: types[0].rows[None])
    if expected != inst.T0:
        raise ConfigError(
            f"warm-up plan occupies {expected} rounds but T0 = {inst.T0}"
        )
    if config.replicates < 1:
        raise ConfigError("replicates must be >= 1")


# ---------------------------------------------------------------------------
# Episodes


@dataclass
class EpisodeBatch:
    """Episodes of a batch of replicates as arrays; row k is replicates[k].

    Per-round arrays have one column per round 1..T. `messages` has one
    list per main-stage round. `policy_state` is the stacked policy state
    after round T.
    """

    replicates: list
    types: tuple                      # distinct agent types, indexed by type_ids
    T0: int
    u_star: np.ndarray                # (n, d)
    type_ids: np.ndarray              # (n, T)
    arms: np.ndarray                  # (n, T)
    rewards: np.ndarray               # (n, T)
    expected_rewards: np.ndarray      # (n, T)
    compliance: np.ndarray            # (n, T)
    messages: list                    # [main round][replicate]
    noisy: "np.ndarray | None"        # (n, T, d) noisy models, semi-bandit only
    sampled_models: "np.ndarray | None"   # (n, T - T0, d), FPS
    clamp_flags: "np.ndarray | None"      # (n, T - T0), FLS
    policy_state: object


def draw_type_ids(config: ExperimentConfig, family: StreamFamily, replicates, rounds) -> np.ndarray:
    """(n, len(rounds)) indices into `distinct_types` of each replicate's
    agent type at each of `rounds`."""
    source = config.type_source
    shape = (len(replicates), len(rounds))
    if isinstance(source, Homogeneous):
        return np.zeros(shape, dtype=np.int64)
    if isinstance(source, Explicit):
        index = {id(x): i for i, x in enumerate(distinct_types(source))}
        ids = [index[id(source.sequence[t - 1])] for t in rounds]
        return np.broadcast_to(np.array(ids, dtype=np.int64), shape).copy()
    if isinstance(source, IIDSampler):
        out = np.empty(shape, dtype=np.int64)
        for c, t in enumerate(rounds):
            out[:, c] = family.cells(replicates, t, TYPE_DRAW).choice(len(source.types), source.weights)
        return out
    raise TypeError(f"unknown type source {type(source).__name__}")


def _fresh_policy_state(config: ExperimentConfig, n: int):
    if isinstance(config.policy, FpsPolicy):
        return FpsState(posterior=make_posterior(config.prior, n), smap=config.smap)
    if isinstance(config.policy, FlsPolicy):
        d = config.smap.dim
        return FlsState(smap=config.smap, gram=GramAccumulator(d, n), moment=np.zeros((n, d)))
    if isinstance(config.policy, UcbPolicy):
        return UcbState.fresh(config.instance.K, config.policy.rho, n)
    raise TypeError(f"unknown policy {type(config.policy).__name__}")


def run_episode(config: ExperimentConfig, replicates) -> EpisodeBatch:
    """Play full episodes of a sequence of replicates as one batch: draw the
    model, realize the warm-up, then run the main stage with the configured
    policy and agent behavior.

    Replicate r's episode is the same in any batch; an oracle agent's table
    depends on the config alone, and every replicate shares its noise. The
    config must have passed `validate_config`, which `run_replicates` and
    the audit run first.
    """
    replicates = list(replicates)
    inst = config.instance
    n, T, T0 = len(replicates), inst.T, inst.T0
    family = StreamFamily(config.seed)
    types = distinct_types(config.type_source)
    type_rows = np.stack([x.rows for x in types])
    public = np.array([x.public_id for x in types])
    ids = draw_type_ids(config, family, replicates, range(1, T + 1))
    u_star = sample_prior(config.prior, family.cells(replicates, 0, MODEL_DRAW))
    state = _fresh_policy_state(config, n)
    fps = isinstance(state, FpsState)
    fls = isinstance(state, FlsState)

    arms = np.zeros((n, T), dtype=np.int64)
    rewards = np.zeros((n, T))
    expected = np.zeros((n, T))
    compliance = np.ones((n, T), dtype=bool)
    noisy_log = np.zeros((n, T, inst.d)) if inst.feedback is Feedback.SEMIBANDIT else None
    messages = []
    sampled = np.zeros((n, T - T0, inst.d)) if fps else None
    clamps = np.zeros((n, T - T0), dtype=bool) if fls else None
    menus = {}  # menu() is a pure function of (type, message)
    oracle = config.agent_model == ORACLE_BEST_RESPONSE
    table, fallback = _oracle_table(config, public) if oracle else (None, None)

    def rows_at(t):
        return type_rows[ids[:, t - 1]]

    def cells_at(t, purpose):
        return family.cells(replicates, t, purpose)

    def observe(t, rows, played):
        c = t - 1
        policy_update(state, played, inst)
        arms[:, c] = played.arms
        rewards[:, c] = played.rewards
        expected[:, c] = expected_reward(u_star, rows, played.arms)
        if noisy_log is not None:
            noisy_log[:, c] = played.noisy

    for t, played in enumerate(generate_warmup(config.warmup, inst, rows_at, u_star, cells_at), start=1):
        observe(t, rows_at(t), played)

    for t in range(T0 + 1, T + 1):
        c, s = t - 1, t - T0 - 1
        tid = ids[:, c]
        pubs = public[tid]
        if fps:
            message, sampled[:, s] = fps_step(state, pubs, cells_at(t, POLICY))
        elif fls:
            message, _, clamps[:, s] = fls_step(state, pubs)
        else:
            message = ucb_step(state, t).tolist()
        messages.append(message)
        keys = list(zip(tid.tolist(), message))
        for ti, m in dict.fromkeys(keys):
            if (ti, m) not in menus:
                menus[ti, m] = menu(config.smap, types[ti], m)
        recommended = np.array([menus[key] for key in keys], dtype=np.int64)
        if not oracle:
            arm = recommended
        else:
            arm = np.array([
                np.argmax(types[ti].rows @ table.get((t, label, m), fallback))
                for ti, label, m in zip(tid.tolist(), pubs.tolist(), message)
            ], dtype=np.int64)
            compliance[:, c] = arm == recommended
        rows = rows_at(t)
        observe(t, rows, realize_outcome(u_star, rows, arm, cells_at(t, NOISE), inst))

    return EpisodeBatch(
        replicates=replicates,
        types=types,
        T0=T0,
        u_star=u_star,
        type_ids=ids,
        arms=arms,
        rewards=rewards,
        expected_rewards=expected,
        compliance=compliance,
        messages=messages,
        noisy=noisy_log,
        sampled_models=sampled,
        clamp_flags=clamps,
        policy_state=state,
    )


def bin_by_message(keys, messages) -> dict:
    """Row indices of a batch grouped by (keys[k], messages[k]) of row k."""
    bins = {}
    for k, key in enumerate(zip(keys, messages)):
        bins.setdefault(key, []).append(k)
    return bins


def _oracle_table(config: ExperimentConfig, public: np.ndarray):
    """(table, fallback): the oracle agent's E[u* | t, public label, message]
    under compliant predecessors, which depends on no replicate. One nested
    batch to horizon T serves every round t, since its round t is the last
    round of a horizon-t run on the same seed. Bins it never reaches fall
    back to its mean model."""
    inner = replace(
        config,
        agent_model=COMPLIANT,
        seed=spawn_seed(config.seed, 0, 0, AGENT),
        replicates=ORACLE_INNER_DRAWS,
    )
    batch = run_episode(inner, range(ORACLE_INNER_DRAWS))
    table = {}
    for t, messages in enumerate(batch.messages, start=batch.T0 + 1):
        labels = public[batch.type_ids[:, t - 1]].tolist()
        for (label, m), rows in bin_by_message(labels, messages).items():
            table[t, label, m] = batch.u_star[rows].mean(axis=0)
    return table, batch.u_star.mean(axis=0)


def run_replicates(config: ExperimentConfig) -> EpisodeBatch:
    """Validate the config, then play all its replicates, in replicate order,
    as one batch."""
    validate_config(config)
    return run_episode(config, range(config.replicates))


# ---------------------------------------------------------------------------
# Regret


@dataclass(frozen=True)
class RegretCurves:
    per_round: np.ndarray   # (n, T)
    cumulative: np.ndarray  # (n, T)


def regret(batch: EpisodeBatch) -> RegretCurves:
    """Per-round and cumulative regret of every replicate of a batch; their
    mean over axis 0 is the Bayesian regret.

    A round's regret is max_i x_i . u* - the played arm's expected reward.
    Each type's rows are multiplied against u* with the single-model kernel
    shape ((K, d) @ (d, 1)), then picked per round by type id.
    """
    type_rows = np.stack([x.rows for x in batch.types])
    best = np.matmul(type_rows, batch.u_star[:, None, :, None])[..., 0].max(axis=-1)
    per_round = np.take_along_axis(best, batch.type_ids, axis=1) - batch.expected_rewards
    return RegretCurves(per_round=per_round, cumulative=np.cumsum(per_round, axis=1))


# ---------------------------------------------------------------------------
# Spectral diversity


def _snapshot_rounds(T: int, T0: int) -> set:
    """Every max(1, T // 100)-th round, plus T0 and T."""
    step = max(1, T // 100)
    due = set(range(step, T + 1, step))
    if T0 >= 1:
        due.add(T0)
    if T >= 1:
        due.add(T)
    return due


def lambda_snapshots(batch: EpisodeBatch) -> list:
    """Spectral diversity of every replicate's played features, as
    (t, lambda_min (n,), lambda_diag (n,)) at each snapshot round in order:
    the minimum eigenvalue and the minimum diagonal entry of the Gram matrix
    of the features played in rounds 1..t, absorbed one round at a time."""
    n, T = batch.arms.shape
    type_rows = np.stack([x.rows for x in batch.types])
    gram = GramAccumulator(type_rows.shape[-1], n)
    due = _snapshot_rounds(T, batch.T0)
    snaps = []
    for c in range(T):
        gram.absorb(type_rows[batch.type_ids[:, c], batch.arms[:, c]])
        if c + 1 in due:
            snaps.append((c + 1, gram.min_eigen(), gram.diag_min()))
    return snaps
