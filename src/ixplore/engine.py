"""The full game-protocol simulator: warm start, main stage, agent
behavior, and per-round instrumentation.

A batch of replicates runs in process: every replicate's state is a row of
an array (posterior log-weights (n, M), precisions (n, d, d), policy
statistics as stacks), and each round is one vectorized step for the whole
batch. Every draw comes from its own counter-based cell (seed, replicate,
round, purpose), so a replicate's episode is the same alone or in any
batch: `chunks` cuts a config's replicates into consecutive batches of at
most `CHUNK`, which the audit and `run_chunks` play one at a time and
their callers reduce as each one finishes. An episode's one result type
is the `EpisodeBatch` of arrays, and `regret` and `lambda_snapshots` (the
spectral diversity of the played features, which only `run` and
`diversity` report) are reductions of a finished batch, so the round loop
plays the protocol alone. Within a replicate, rounds are strictly
sequential. The engine knows no policy: `policies` checks, builds, steps
and updates the configured one and yields the warm-up plan's arms, each
main round makes one `policy_step` call, and the engine realizes every
round, warm-up included, with one `realize_outcome` call. Every layer the
loop drives (`generate_warmup`, `realize_outcome`, `policy_step`,
`policy_update`) takes the whole batch, and a single replicate is a batch
of one: `run_episode(config, [r])`. Oracle agents read one table per
config, `ExperimentConfig.oracle`, so its Monte Carlo noise is common to
all replicates; the config builds it at its first read and keeps it.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .domain import Feedback, Instance, expected_reward, realize_outcome
from .errors import ConfigError
from .policies import (
    RoundRobin,
    check_policy,
    fresh_state,
    generate_warmup,
    policy_step,
    policy_update,
    warmup_schedule,
)
from .priors import sample_prior
from .semantics import bin_rows, check_map, menu, num_messages
from .spectral import GramAccumulator
from .streams import (
    AGENT, MODEL_DRAW, NOISE, POLICY, TYPE_DRAW, StreamFamily, Windows, spawn_seed, window_rounds,
)

ORACLE_INNER_DRAWS = 1000  # nested episodes behind the oracle agent's table
# Replicates per batch of `chunks`: small enough that a chunk's (n, T)
# arrays and posterior stacks stay cache-sized
CHUNK = 16_384


# ---------------------------------------------------------------------------
# Configuration pieces


def _check_types(types) -> tuple:
    types = tuple(types)
    if not types:
        raise ValueError("a type source needs at least one agent type")
    return types


@dataclass(frozen=True, eq=False)
class IIDSampler:
    """Each round's agent type is drawn from `types` with probabilities
    `weights`, uniform by default."""

    types: tuple
    weights: "np.ndarray | None" = None

    def __post_init__(self):
        types = _check_types(self.types)
        n = len(types)
        w = np.full(n, 1.0 / n) if self.weights is None else np.asarray(self.weights, dtype=float)
        if w.shape != (n,) or not np.isfinite(w).all() or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("type weights must be a probability vector over the types")
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True, eq=False)
class Explicit:
    """Round t's agent type is types[sequence[t - 1]]."""

    types: tuple
    sequence: tuple

    def __post_init__(self):
        types = _check_types(self.types)
        sequence = tuple(int(i) for i in self.sequence)
        if not all(0 <= i < len(types) for i in sequence):
            raise ValueError(f"explicit sequence indices must lie in [0, {len(types)})")
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "sequence", sequence)


TypeSource = IIDSampler | Explicit


COMPLIANT = "compliant"
ORACLE_BEST_RESPONSE = "oracle_best_response"


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment. Construction rejects a structurally inconsistent
    config with `ConfigError` (or the `IxploreError` of a piece that cannot
    run, such as a map over the message cap), so a config that exists can
    run, and `dataclasses.replace` checks every derived config again."""

    instance: Instance
    prior: object
    smap: object
    policy: object
    warmup: object
    type_source: object
    agent_model: str = COMPLIANT
    seed: int = 0
    replicates: int = 1

    def __post_init__(self):
        inst = self.instance
        if self.prior.dim != inst.d:
            raise ConfigError(f"prior dimension {self.prior.dim} does not match d = {inst.d}")
        types = self.type_source.types
        check_map(self.smap, types, inst)
        if inst.feedback is Feedback.SEMIBANDIT:
            for ti, x in enumerate(types):
                if not np.isin(x.rows, (0.0, 1.0)).all():
                    raise ConfigError(f"semi-bandit feedback requires binary rows (type {ti})")
        if self.agent_model not in (COMPLIANT, ORACLE_BEST_RESPONSE):
            raise ConfigError(f"unknown agent model {self.agent_model!r}")
        if isinstance(self.type_source, Explicit) and len(self.type_source.sequence) < inst.T:
            raise ConfigError("explicit type sequence is shorter than the horizon")
        if isinstance(self.warmup, RoundRobin) and self.warmup.per_atom is not None and len(types) != 1:
            raise ConfigError("per-atom warm-up plans need a type source of one agent type")
        schedule = warmup_schedule(self.warmup, inst, types[0].rows)
        if len(schedule) != inst.T0:
            raise ConfigError(f"warm-up plan occupies {len(schedule)} rounds but T0 = {inst.T0}")
        check_policy(self.policy, self.prior, self.smap, types, inst, schedule)
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        # a stream cell keys Philox with the seed mod 2**64, so any other seed
        # would draw what some seed in range draws
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")

    @cached_property
    def oracle(self):
        """The oracle agents' `oracle_table(self)`, built at its first read and kept."""
        return oracle_table(self)


# ---------------------------------------------------------------------------
# Episodes


@dataclass(eq=False)
class EpisodeBatch:
    """Episodes of a batch of replicates as arrays; row k is replicates[k].

    Per-round arrays have one column per round 1..T, and `messages` one
    column of message codes per main round T0 + 1..T (`semantics.message`
    decodes a code). `policy_state` is the stacked policy state after T,
    the only policy internals a batch keeps.
    """

    replicates: list
    types: tuple                      # the type source's agent types, indexed by type_ids
    T0: int
    u_star: np.ndarray                # (n, d)
    type_ids: np.ndarray              # (n, T)
    arms: np.ndarray                  # (n, T)
    rewards: np.ndarray               # (n, T)
    expected_rewards: np.ndarray      # (n, T)
    compliance: np.ndarray            # (n, T)
    messages: np.ndarray              # (n, T - T0) codes
    policy_state: object


def draw_type_ids(config: ExperimentConfig, family: StreamFamily, replicates, rounds) -> np.ndarray:
    """(n, len(rounds)) indices into `config.type_source.types` of each
    replicate's agent type at each of `rounds`, one `choice` per window of
    `window_rounds(n)` rounds. A source of one type draws nothing."""
    source = config.type_source
    shape = (len(replicates), len(rounds))
    if isinstance(source, Explicit):
        ids = np.array([source.sequence[t - 1] for t in rounds], dtype=np.int64)
        return np.broadcast_to(ids, shape).copy()
    if len(source.types) == 1:
        return np.zeros(shape, dtype=np.int64)
    out = np.empty(shape, dtype=np.int64)
    span = window_rounds(len(replicates))
    for c in range(0, len(rounds), span):
        window = rounds[c:c + span]
        drawn = family.grid(replicates, window, TYPE_DRAW).choice(len(source.types), source.weights)
        out[:, c:c + span] = drawn.reshape(len(window), len(replicates)).T
    return out


def run_episode(config: ExperimentConfig, replicates) -> EpisodeBatch:
    """Play full episodes of a sequence of replicates as one batch: draw the
    model, then play rounds 1..T, the warm-up plan's arms and then the main
    stage's, with the configured policy and agent behavior.

    Replicate r's episode is the same in any batch; an oracle agent's table,
    `config.oracle`, depends on the config alone, and every replicate
    shares its noise. The batch draws its cells a window of rounds at a
    time (`Windows`), which moves no draw.
    """
    column = np.array(replicates, dtype=np.uint64)  # the key column of every cell batch
    inst = config.instance
    n, T, T0 = len(column), inst.T, inst.T0
    family = StreamFamily(config.seed)
    types = config.type_source.types
    type_rows = np.stack([x.rows for x in types])
    public = np.array([x.public_id for x in types])
    ids = draw_type_ids(config, family, column, range(1, T + 1))
    u_star = sample_prior(config.prior, family.cells(column, 0, MODEL_DRAW))
    state = fresh_state(config.policy, config.prior, config.smap, inst.K, n)

    arms = np.zeros((n, T), dtype=np.int64)
    rewards = np.zeros((n, T))
    expected = np.zeros((n, T))
    compliance = np.ones((n, T), dtype=bool)
    messages = np.zeros((n, T - T0), dtype=np.int64)
    n_msgs = num_messages(config.smap)
    menus = np.zeros(len(types) * n_msgs, dtype=np.int64)  # 1 + menu() of each key, 0 until reached

    def agent_arms(t, key):
        """The recommended and the played arm of every row at round t from
        its key type * n_msgs + code: menu() runs once per key of the
        episode, the oracle's best response once per key of the round."""
        unseen = key[menus[key] == 0]
        for k in bin_rows(unseen)[0] if unseen.size else ():
            menus[k] = 1 + menu(config.smap, types[k // n_msgs], k % n_msgs)
        recommended = menus[key] - 1
        if config.agent_model != ORACLE_BEST_RESPONSE:
            return recommended, recommended
        table, fallback = config.oracle
        fibers, inverse = bin_rows(key)
        best = []
        for ti, code in (divmod(k, n_msgs) for k in fibers):
            best.append(np.argmax(types[ti].rows @ table.get((t, int(public[ti]), code), fallback)))
        return recommended, np.array(best, dtype=np.int64)[inverse]

    cells_at = Windows(family, column, T).cells
    warmup = generate_warmup(config.warmup, inst, types[0].rows, cells_at, n)

    for t in range(1, T + 1):
        c, tid = t - 1, ids[:, t - 1]
        if t <= T0:
            arm = next(warmup)
        else:
            s = t - T0 - 1
            messages[:, s] = policy_step(state, t, public[tid], cells_at(t, POLICY))
            recommended, arm = agent_arms(t, tid * n_msgs + messages[:, s])
            compliance[:, c] = arm == recommended
        rows = type_rows[tid]
        played = realize_outcome(u_star, rows, arm, cells_at(t, NOISE), inst)
        policy_update(state, played, inst)
        arms[:, c] = played.arms
        rewards[:, c] = played.rewards
        expected[:, c] = expected_reward(u_star, rows, played.arms)

    return EpisodeBatch(
        replicates=column.tolist(),
        types=types,
        T0=T0,
        u_star=u_star,
        type_ids=ids,
        arms=arms,
        rewards=rewards,
        expected_rewards=expected,
        compliance=compliance,
        messages=messages,
        policy_state=state,
    )


def oracle_table(config: ExperimentConfig):
    """(table, fallback): the oracle agent's E[u* | t, public label, message]
    under compliant predecessors, which depends on no replicate. One nested
    batch to horizon T serves every round t, since its round t is the last
    round of a horizon-t run on the same seed. Bins it never reaches fall
    back to its mean model."""
    public = np.array([x.public_id for x in config.type_source.types])
    n_msgs = num_messages(config.smap)
    inner = replace(
        config,
        agent_model=COMPLIANT,
        seed=spawn_seed(config.seed, 0, 0, AGENT),
        replicates=ORACLE_INNER_DRAWS,
    )
    batch = run_episode(inner, range(ORACLE_INNER_DRAWS))
    table = {}
    for t, codes in enumerate(batch.messages.T, start=batch.T0 + 1):
        for key, rows in bin_rows(public[batch.type_ids[:, t - 1]] * n_msgs + codes)[0].items():
            table[(t, *divmod(key, n_msgs))] = batch.u_star[rows].mean(axis=0)
    return table, batch.u_star.mean(axis=0)


def chunks(n: int) -> list:
    """`range(n)` cut into consecutive ranges of at most `CHUNK` replicates.
    Played one at a time, in order, and reduced as each finishes, they hold
    one chunk's arrays at a time, so peak memory scales with `CHUNK`, not
    with the replicate count; concatenated, they equal one batch field for
    field."""
    return [range(start, min(start + CHUNK, n)) for start in range(0, n, CHUNK)]


def run_chunks(config: ExperimentConfig):
    """The batches of `run_replicates` over the config's `chunks`, played as
    they are reached, in replicate order. Every chunk reads the one oracle table the config
    keeps."""
    return (run_replicates(config, block) for block in chunks(config.replicates))


def run_replicates(config: ExperimentConfig, replicates=None) -> EpisodeBatch:
    """Play `replicates` (by default all the config's, in replicate order)
    as one batch with `run_episode`, which holds every one of their arrays
    at once. `run_chunks` plays a config as one call per chunk of at most
    `CHUNK`, so peak memory scales with `CHUNK`, not with the replicate
    count."""
    return run_episode(config, range(config.replicates) if replicates is None else replicates)


# ---------------------------------------------------------------------------
# Regret


@dataclass(frozen=True, eq=False)
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
