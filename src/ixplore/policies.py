"""Messaging policies and warm-start generators.

Policy states absorb every observed round, warm-up included, before the
main stage begins. A state belongs to one replicate, or is a stack for a
batch of replicates (arrays with a leading replicate axis); the step and
update functions take either, with a `RoundBatch` and a `Cells` in place of
a `RoundRecord` and a generator for a stack. A single state is updated as a
stack of one, so both go through the same arithmetic.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domain import AgentType, Feedback, Instance, RoundBatch, RoundRecord, realize_outcome
from .errors import InfeasiblePlanError, UninitializedArmError
from .priors import posterior_sample, posterior_update
from .semantics import HypercubeCover, apply_map
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
    """Filtered least squares: ridge statistics plus a hypercube map."""

    smap: HypercubeCover
    gram: np.ndarray = None
    moment: np.ndarray = None

    def __post_init__(self):
        d = self.smap.dim
        if self.gram is None:
            self.gram = np.zeros((d, d))
        if self.moment is None:
            self.moment = np.zeros(d)


@dataclass
class UcbState:
    """Index policy over K arms (the d = K embedding with direct messages)."""

    rho: float
    counts: np.ndarray
    means: np.ndarray

    @classmethod
    def fresh(cls, K: int, rho: float, n: "int | None" = None) -> "UcbState":
        shape = (K,) if n is None else (n, K)
        return cls(rho=float(rho), counts=np.zeros(shape, dtype=int), means=np.zeros(shape))


def fps_step(state: FpsState, x_pub, rng):
    """Sample a model from the posterior and pass it through the map. For a
    stack, `x_pub` holds one label per row and `rng` is a `Cells`; the
    messages come back as a list."""
    u = posterior_sample(state.posterior, rng)
    return apply_map(state.smap, x_pub, u), u


def fls_step(state: FlsState, x_pub):
    """Ridge estimate, clamped into the map's box if it escaped, then mapped.

    Returns (message, estimate, clamped). The estimator itself stays
    unconstrained; only the cell lookup sees the clamped point.
    """
    d = state.smap.dim
    u_hat = np.linalg.solve(np.eye(d) + state.gram, state.moment[..., None])[..., 0]
    lo, hi = state.smap.box()
    clipped = np.clip(u_hat, lo, hi)
    clamped = np.any(clipped != u_hat, axis=-1)
    if clamped.ndim == 0:
        clamped = bool(clamped)
    return apply_map(state.smap, x_pub, clipped), u_hat, clamped


def ucb_step(state: UcbState, t: int):
    """Arm with the highest index at round t; ties go to the lowest arm. For
    a stack, an (n,) array of arms.

    The bonus uses the natural log of t - 1 and is treated as zero whenever
    log(t - 1) <= 0, which only happens before the warm-up has ended.
    """
    if np.any(state.counts < 1):
        missing = int(np.nonzero(state.counts < 1)[-1][0])
        raise UninitializedArmError(f"arm {missing} has no samples; warm it up first")
    log_term = math.log(t - 1) if t >= 2 else 0.0
    bonus = np.sqrt(state.rho * max(log_term, 0.0) / state.counts)
    arms = np.argmax(state.means + bonus, axis=-1)
    return int(arms) if arms.ndim == 0 else arms


def policy_update(state, record, inst: Instance):
    """Absorb one observed round into the policy state: a `RoundBatch` for a
    stack, or a `RoundRecord` for a single state, updated as a stack of one."""
    if isinstance(record, RoundRecord):
        record = RoundBatch.of_record(record, inst)
    if isinstance(state, FpsState):
        state.posterior = posterior_update(state.posterior, record, inst)
        return state
    if isinstance(state, FlsState):
        # in-place updates through a stack-of-one view also update a single state
        stacked = state.gram.ndim == 3
        gram = state.gram if stacked else state.gram[None]
        moment = state.moment if stacked else state.moment[None]
        feat = record.features
        gram += feat[:, :, None] * feat[:, None, :]
        moment += feat * record.rewards[:, None]
        return state
    if isinstance(state, UcbState):
        stacked = state.counts.ndim == 2
        counts = state.counts if stacked else state.counts[None]
        means = state.means if stacked else state.means[None]
        arm = (np.arange(len(record.arms)), record.arms)
        counts[arm] += 1
        means[arm] += (record.rewards - means[arm]) / counts[arm]
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


def _per_atom_schedule(plan: RoundRobin, inst: Instance, x):
    """Greedy cover: repeatedly play the arm covering the most deficient
    atoms until every atom has per_atom observations. `x` is the warm-up
    type, or the (n, K, d) rows of every replicate's, which must agree."""
    if inst.feedback is not Feedback.SEMIBANDIT:
        raise InfeasiblePlanError("per-atom warm-up requires semi-bandit feedback")
    if isinstance(x, AgentType):
        rows = x.rows
    else:
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
    """Number of rounds the plan will occupy (T0 must match)."""
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
    POLICY stream. `type_at(1)` is only consulted by per-atom plans."""
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
    """Realize the warm-up rounds.

    `type_at(t)` yields the round-t agent type and `rng_at(t, purpose)` the
    round's random stream. Returns the records for rounds 1..T0 as a tuple
    of `RoundRecord`s; messages are None because these rounds are exogenous.

    For a batch of replicates, `u_star` is (n, d), `type_at(t)` yields the
    (n, K, d) feature rows of every replicate's round-t type and
    `rng_at(t, purpose)` a `Cells`; the rounds come back as an iterator of
    `RoundBatch`, each realized when it is reached, so a batch holds one
    warm-up round at a time.
    """
    single = np.ndim(u_star) == 1
    schedule = warmup_schedule(plan, inst, type_at)
    count = plan.rounds if schedule is None else len(schedule)

    def realize(t):
        arm = schedule[t - 1] if schedule is not None else rng_at(t, POLICY).integers(inst.K)
        x = type_at(t)
        if single:
            reward, aux = realize_outcome(u_star, x, int(arm), rng_at(t, NOISE), inst)
            return RoundRecord(t=t, type=x, message=None, arm=int(arm), reward=reward, aux=aux)
        arms = np.broadcast_to(np.asarray(arm, dtype=np.int64), (len(u_star),))
        return realize_outcome(u_star, x, arms, rng_at(t, NOISE), inst)

    rounds = map(realize, range(1, count + 1))
    return tuple(rounds) if single else rounds
