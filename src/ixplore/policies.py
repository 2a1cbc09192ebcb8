"""Messaging policies and warm-start generators.

This module owns each messaging policy end to end: its config class
(`FpsPolicy`, `FlsPolicy`, `UcbPolicy`), the rules it puts on a config
(`check_policy`), its state (`fresh_state`), its step (`policy_step`, one
call per main round) and its update (`policy_update`). Policy states absorb
every observed round, warm-up included, before the main stage begins. A
state is a stack for a batch of replicates (arrays with a leading replicate
axis); a step reads it with one public label per row and a `Cells`, and
`policy_update` absorbs a `RoundBatch`. A single replicate is a stack of
one. Policies and warm-up plans only choose arms; the engine realizes
every round.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domain import Feedback, Instance, RoundBatch
from .errors import ConfigError, InfeasiblePlanError, UninitializedArmError
from .priors import DiscretePrior, make_posterior, posterior_sample, posterior_update
from .semantics import ArgmaxDirect, HypercubeCover, apply_map
from .spectral import GramAccumulator
from .streams import POLICY


# ---------------------------------------------------------------------------
# Policies


@dataclass(frozen=True)
class FpsPolicy:
    """Filtered posterior sampling: a posterior draw passed through the map."""


@dataclass(frozen=True)
class FlsPolicy:
    """Filtered least squares: a ridge estimate passed through a hypercube map."""


@dataclass(frozen=True)
class UcbPolicy:
    """Index baseline over K arms; `rho` scales the exploration bonus."""

    rho: float = 0.0

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be >= 0")


def check_policy(policy, prior, smap, types, inst: Instance, schedule):
    """Reject a prior, map, agent types or warm-up `schedule` (as
    `warmup_schedule` gives it) the policy cannot run with: FPS needs a
    discrete prior at R = 0, FLS a hypercube map, and UCB argmax messages,
    the K-armed identity embedding and, before a main round, a warm-up that
    plays every arm (a near-uniform warm-up draws its arms and passes)."""
    if isinstance(policy, FpsPolicy) and inst.R == 0 and inst.T >= 1 and not isinstance(prior, DiscretePrior):
        raise ConfigError("posterior sampling at R = 0 needs a discrete prior: no other prior absorbs "
                          "exact observations")
    if isinstance(policy, FlsPolicy) and not isinstance(smap, HypercubeCover):
        raise ConfigError("the least-squares policy requires a hypercube map")
    if isinstance(policy, UcbPolicy):
        if not isinstance(smap, ArgmaxDirect):
            raise ConfigError("the index policy requires direct (argmax) messages")
        eye = np.eye(inst.K)
        if not all(np.array_equal(x.rows, eye) for x in types):
            raise ConfigError("the index policy requires the K-armed identity embedding")
        unplayed = set(range(inst.K)).difference(schedule)
        if inst.T > inst.T0 and None not in schedule and unplayed:
            raise ConfigError(f"the index policy needs a warm-up that plays every arm; arm {min(unplayed)} "
                              "is never played")


@dataclass(eq=False)
class FpsState:
    """Filtered posterior sampling: a posterior plus the announced map."""

    posterior: "PosteriorState"
    smap: object


@dataclass(eq=False)
class FlsState:
    """Filtered least squares: ridge statistics (the Gram matrices of a
    stack of n histories, (n, d) moments) plus a hypercube map."""

    smap: HypercubeCover
    gram: GramAccumulator
    moment: np.ndarray


@dataclass(eq=False)
class UcbState:
    """Index policy over K arms (the d = K embedding with direct messages),
    with (n, K) play counts and empirical means."""

    rho: float
    counts: np.ndarray
    means: np.ndarray


def fresh_state(policy, prior, smap, K: int, n: int):
    """The policy's state of a batch of n replicates before round 1."""
    if isinstance(policy, FpsPolicy):
        return FpsState(posterior=make_posterior(prior, n), smap=smap)
    if isinstance(policy, FlsPolicy):
        return FlsState(smap=smap, gram=GramAccumulator(smap.dim, n), moment=np.zeros((n, smap.dim)))
    if isinstance(policy, UcbPolicy):
        return UcbState(rho=float(policy.rho), counts=np.zeros((n, K), dtype=int), means=np.zeros((n, K)))
    raise TypeError(f"unknown policy {type(policy).__name__}")


def fps_step(state: FpsState, x_pub, rng):
    """Sample a model per row from the posterior and pass it through the map.
    `x_pub` holds one label per row and `rng` is a `Cells`; returns the (n,)
    message codes and the (n, d) sampled models."""
    u = posterior_sample(state.posterior, rng)
    return apply_map(state.smap, x_pub, u), u


def fls_step(state: FlsState, x_pub):
    """Ridge estimate, clamped into the map's box if it escaped, then mapped.

    Returns the (n,) message codes, the (n, d) estimates and the (n,) clamp
    flags. The estimator itself stays unconstrained; only the cell lookup
    sees the clamped point.
    """
    d = state.smap.dim
    u_hat = np.linalg.solve(np.eye(d) + state.gram.matrix, state.moment[..., None])[..., 0]
    lo, hi = state.smap.box()
    clipped = np.clip(u_hat, lo, hi)
    clamped = np.any(clipped != u_hat, axis=-1)
    return apply_map(state.smap, x_pub, clipped), u_hat, clamped


def ucb_step(state: UcbState, t: int):
    """(n,) array of each row's arm with the highest index at round t; ties
    go to the lowest arm.

    The bonus uses the natural log of t - 1 and is treated as zero whenever
    log(t - 1) <= 0, which only happens before the warm-up has ended.
    """
    if np.any(state.counts < 1):
        missing = int(np.nonzero(state.counts < 1)[-1][0])
        raise UninitializedArmError(f"arm {missing} has no samples; warm it up first")
    log_term = math.log(t - 1) if t >= 2 else 0.0
    bonus = np.sqrt(state.rho * max(log_term, 0.0) / state.counts)
    return np.argmax(state.means + bonus, axis=-1)


def policy_step(state, t: int, x_pub, cells):
    """The (n,) message codes of main round t: one label per row in `x_pub`,
    and the round's POLICY `Cells`, which only FPS draws from."""
    if isinstance(state, FpsState):
        return fps_step(state, x_pub, cells)[0]
    if isinstance(state, FlsState):
        return fls_step(state, x_pub)[0]
    if isinstance(state, UcbState):
        return ucb_step(state, t)
    raise TypeError(f"unknown policy state {type(state).__name__}")


def policy_update(state, played: RoundBatch, inst: Instance):
    """Absorb one observed round of every row into the policy state."""
    if isinstance(state, FpsState):
        state.posterior = posterior_update(state.posterior, played, inst)
        return state
    if isinstance(state, FlsState):
        state.gram.absorb(played.features)
        state.moment += played.features * played.rewards[:, None]
        return state
    if isinstance(state, UcbState):
        arm = (np.arange(len(played.arms)), played.arms)
        state.counts[arm] += 1
        state.means[arm] += (played.rewards - state.means[arm]) / state.counts[arm]
        return state
    raise TypeError(f"unknown policy state {type(state).__name__}")


# ---------------------------------------------------------------------------
# Warm-start plans


@dataclass(frozen=True)
class RoundRobin:
    """Non-adaptive schedule: either N plays of every arm in arm order, or a
    greedy arm schedule until every atom has N semi-bandit observations."""

    per_arm: "int | None" = None
    per_atom: "int | None" = None

    def __post_init__(self):
        if (self.per_arm is None) == (self.per_atom is None):
            raise ValueError("set exactly one of per_arm / per_atom")
        n = self.per_arm if self.per_arm is not None else self.per_atom
        if n < 0:
            raise ValueError("warm-up counts must be >= 0")


@dataclass(frozen=True)
class NearUniform:
    """Uniform-random arms for a fixed number of rounds. `epsilon`, the
    exploration floor, is validated but read by nothing downstream."""

    epsilon: float
    rounds: int

    def __post_init__(self):
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must lie in (0, 1]")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")


@dataclass(frozen=True)
class FixedSequence:
    arms: tuple

    def __post_init__(self):
        object.__setattr__(self, "arms", tuple(int(a) for a in self.arms))


WarmstartPlan = RoundRobin | NearUniform | FixedSequence


def _per_atom_schedule(plan: RoundRobin, inst: Instance, rows: np.ndarray):
    """Greedy cover: repeatedly play the arm covering the most deficient
    atoms until every atom has per_atom observations. `rows` are the (K, d)
    feature rows of the warm-up's one agent type."""
    if inst.feedback is not Feedback.SEMIBANDIT:
        raise InfeasiblePlanError("per-atom warm-up requires semi-bandit feedback")
    covered_somewhere = rows.any(axis=0)
    if not covered_somewhere.all():
        orphan = int(np.argmin(covered_somewhere))
        raise InfeasiblePlanError(f"atom {orphan} appears in no arm")
    deficits = np.full(inst.d, plan.per_atom, dtype=int)
    schedule = []
    cap = plan.per_atom * inst.d * inst.K + inst.K
    while np.any(deficits > 0):
        gains = rows @ (deficits > 0)
        arm = int(np.argmax(gains))
        if gains[arm] == 0:
            raise InfeasiblePlanError("no arm covers the remaining deficient atoms")
        schedule.append(arm)
        deficits -= rows[arm].astype(int)
        if len(schedule) > cap:
            raise InfeasiblePlanError("per-atom schedule failed to terminate")
    return schedule


def warmup_schedule(plan, inst: Instance, rows) -> list:
    """One entry per warm-up round of the plan, in round order: the arm of a
    non-random plan, or None for a near-uniform round, whose arm is
    `integers(K)` from the round's POLICY cells. `rows` are the (K, d)
    feature rows of the type source's one agent type, which only per-atom
    plans read."""
    if isinstance(plan, RoundRobin) and plan.per_arm is not None:
        return [i for i in range(inst.K) for _ in range(plan.per_arm)]
    if isinstance(plan, RoundRobin):
        return _per_atom_schedule(plan, inst, rows)
    if isinstance(plan, NearUniform):
        return [None] * plan.rounds
    if isinstance(plan, FixedSequence):
        for a in plan.arms:
            if not 0 <= a < inst.K:
                raise InfeasiblePlanError(f"fixed sequence arm {a} lies outside [0, K) = [0, {inst.K})")
        return list(plan.arms)
    raise TypeError(f"unknown warm-up plan {type(plan).__name__}")


def generate_warmup(plan, inst: Instance, rows, rng_at, n: int):
    """The arms of the warm-up rounds 1..T0 of a batch of n replicates, as
    an iterator of (n,) arrays in round order: the plan's arm, or
    `integers(K)` from `rng_at(t, POLICY)`, round t's `Cells`, drawn when
    the round is reached. `rows` is as in `warmup_schedule`. These rounds
    are exogenous: no message is sent, and the caller realizes each one.
    """
    return (rng_at(t, POLICY).integers(inst.K) if arm is None else np.full(n, arm, dtype=np.int64)
            for t, arm in enumerate(warmup_schedule(plan, inst, rows), start=1))
