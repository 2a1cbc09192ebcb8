"""Messaging policies and warm-start generators.

Policy states absorb every observed round, warm-up included, before the
main stage begins. A state is a stack for a batch of replicates (arrays
with a leading replicate axis); the step functions read it with one public
label per row and a `Cells`, and `policy_update` absorbs a `RoundBatch`.
A single replicate is a stack of one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domain import Feedback, Instance, RoundBatch, realize_outcome
from .errors import InfeasiblePlanError, UninitializedArmError
from .priors import posterior_sample, posterior_update
from .semantics import HypercubeCover, apply_map
from .spectral import GramAccumulator
from .streams import NOISE, POLICY


# ---------------------------------------------------------------------------
# Policy states


@dataclass
class FpsState:
    """Filtered posterior sampling: a posterior plus the announced map."""

    posterior: "PosteriorState"
    smap: object


@dataclass
class FlsState:
    """Filtered least squares: ridge statistics (the Gram matrices of a
    stack of n histories, (n, d) moments) plus a hypercube map."""

    smap: HypercubeCover
    gram: GramAccumulator
    moment: np.ndarray


@dataclass
class UcbState:
    """Index policy over K arms (the d = K embedding with direct messages),
    with (n, K) play counts and empirical means."""

    rho: float
    counts: np.ndarray
    means: np.ndarray

    @classmethod
    def fresh(cls, K: int, rho: float, n: int) -> "UcbState":
        return cls(rho=float(rho), counts=np.zeros((n, K), dtype=int), means=np.zeros((n, K)))


def fps_step(state: FpsState, x_pub, rng):
    """Sample a model per row from the posterior and pass it through the map.
    `x_pub` holds one label per row and `rng` is a `Cells`; returns the list
    of messages and the (n, d) sampled models."""
    u = posterior_sample(state.posterior, rng)
    return apply_map(state.smap, x_pub, u), u


def fls_step(state: FlsState, x_pub):
    """Ridge estimate, clamped into the map's box if it escaped, then mapped.

    Returns the list of messages, the (n, d) estimates and the (n,) clamp
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
    """Uniform-random arms for a fixed number of rounds. `epsilon` is the
    certified exploration floor quoted by downstream diversity checks."""

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


def _per_atom_schedule(plan: RoundRobin, inst: Instance, x: np.ndarray):
    """Greedy cover: repeatedly play the arm covering the most deficient
    atoms until every atom has per_atom observations. `x` holds the (n, K, d)
    rows of every replicate's warm-up type, which must agree."""
    if inst.feedback is not Feedback.SEMIBANDIT:
        raise InfeasiblePlanError("per-atom warm-up requires semi-bandit feedback")
    rows = x[0]
    if np.any(x != rows):
        raise InfeasiblePlanError("per-atom warm-up needs one agent type for every replicate")
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


def warmup_length(plan, inst: Instance, type_at=None) -> int:
    """Number of rounds the plan will occupy (T0 must match). `type_at(1)`
    yields the (n, K, d) rows of the round-1 types, which only per-atom plans
    read."""
    if isinstance(plan, RoundRobin):
        if plan.per_arm is not None:
            return plan.per_arm * inst.K
        if type_at is None:
            raise InfeasiblePlanError("per-atom length needs the warm-up type")
        return len(_per_atom_schedule(plan, inst, type_at(1)))
    if isinstance(plan, NearUniform):
        return plan.rounds
    if isinstance(plan, FixedSequence):
        return len(plan.arms)
    raise TypeError(f"unknown warm-up plan {type(plan).__name__}")


def warmup_schedule(plan, inst: Instance, type_at):
    """Arms of a non-random warm-up plan in round order, or None for a
    near-uniform plan, whose round-t arm is `integers(K)` from the round's
    POLICY stream. `type_at(1)` yields the (n, K, d) rows of the round-1
    types, which only per-atom plans read."""
    if isinstance(plan, RoundRobin) and plan.per_arm is not None:
        return [i for i in range(inst.K) for _ in range(plan.per_arm)]
    if isinstance(plan, RoundRobin):
        return _per_atom_schedule(plan, inst, type_at(1))
    if isinstance(plan, NearUniform):
        return None
    if isinstance(plan, FixedSequence):
        arms = list(plan.arms)
        if any(not 0 <= a < inst.K for a in arms):
            raise InfeasiblePlanError("fixed sequence contains an out-of-range arm")
        return arms
    raise TypeError(f"unknown warm-up plan {type(plan).__name__}")


def generate_warmup(plan, inst: Instance, type_at, u_star, rng_at):
    """Realize the warm-up rounds 1..T0 of a batch of replicates.

    `u_star` is (n, d), `type_at(t)` yields the (n, K, d) feature rows of
    every replicate's round-t type and `rng_at(t, purpose)` the round's
    `Cells`. The rounds come back as an iterator of `RoundBatch`, each
    realized when it is reached, so a batch holds one warm-up round at a
    time. These rounds are exogenous: no message is sent.
    """
    schedule = warmup_schedule(plan, inst, type_at)
    count = plan.rounds if schedule is None else len(schedule)

    def realize(t):
        arm = schedule[t - 1] if schedule is not None else rng_at(t, POLICY).integers(inst.K)
        arms = np.broadcast_to(np.asarray(arm, dtype=np.int64), (len(u_star),))
        return realize_outcome(u_star, type_at(t), arms, rng_at(t, NOISE), inst)

    return map(realize, range(1, count + 1))
