"""Core problem data: models, agent types, instances, rounds, and the
linear reward semantics.

Model vectors are plain 1-d float arrays. Structured records (types,
instances, round logs) are frozen dataclasses whose arrays are marked
read-only. A `RoundBatch` is one round of a whole batch of replicates, the
engine's unit of work.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

CAP_TOL = 1e-9  # slack when comparing norms against caps


class Feedback(str, Enum):
    BANDIT = "bandit"
    SEMIBANDIT = "semibandit"


def frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class AgentType:
    """Per-arm feature rows stacked as a (K, d) matrix plus the public label.

    The public label encodes the observation regime: all types sharing label
    0 model private/homogeneous agents, label == type index models public
    ones. Labels are assigned when a configuration is loaded.
    """

    rows: np.ndarray
    public_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rows", frozen_array(self.rows))
        if self.rows.ndim != 2:
            raise ValueError("type rows must form a (K, d) matrix")
        if self.public_id < 0:
            raise ValueError("public_id must be non-negative")

    @property
    def num_arms(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class Instance:
    """Problem-wide constants: sizes, caps, noise scale, and horizon split."""

    d: int
    K: int
    C_U: float
    C_X: float
    s: int
    R: float
    T: int
    T0: int
    feedback: Feedback = Feedback.BANDIT

    def __post_init__(self):
        object.__setattr__(self, "feedback", Feedback(self.feedback))
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if not 1 <= self.s <= self.d:
            raise ValueError("s must lie in [1, d]")
        # R = 0 is allowed for noiseless exercises; posterior families that
        # cannot absorb exact observations reject it at update time.
        if self.R < 0:
            raise ValueError("R must be >= 0")
        if not 0 <= self.T0 <= self.T:
            raise ValueError("T0 must lie in [0, T]")


@dataclass(frozen=True)
class RoundRecord:
    """One played round.

    `aux` holds (coordinate, observed noisy-model coordinate) pairs and is
    present exactly under semi-bandit feedback; `message` is None during
    warm-up rounds, which are exogenous.
    """

    t: int
    type: AgentType
    message: "int | tuple[int, ...] | None"
    arm: int
    reward: float
    aux: "tuple[tuple[int, float], ...] | None" = None


@dataclass(frozen=True)
class RoundBatch:
    """One played round of a batch of replicates; row k is the k-th replicate.

    `features` holds each row's chosen feature row x_i. `noisy` holds the
    round's noisy models and is present exactly under semi-bandit feedback,
    where a row observes its noisy model on the support of its feature row.
    """

    arms: np.ndarray        # (n,)
    features: np.ndarray    # (n, d)
    rewards: np.ndarray     # (n,)
    noisy: "np.ndarray | None" = None

    @classmethod
    def of_record(cls, record: RoundRecord, inst: "Instance") -> "RoundBatch":
        """A played round as a batch of one; `aux` becomes the noisy model's
        observed coordinates."""
        features = np.asarray(record.type.rows[record.arm], dtype=float)[None]
        noisy = None
        if inst.feedback is Feedback.SEMIBANDIT:
            if record.aux is None:
                raise ValueError("semi-bandit instance requires aux observations")
            coords = [int(j) for j, _ in record.aux]
            if coords != np.flatnonzero(features[0]).tolist():
                raise ValueError("aux must observe the played row's support, in coordinate order")
            noisy = np.zeros_like(features)
            noisy[0, coords] = [float(v) for _, v in record.aux]
        return cls(np.array([record.arm]), features, np.array([float(record.reward)]), noisy)


def _one_row(u, x: AgentType, i: int):
    """Validate a single (model, type, arm) triple and stack it as one row."""
    u = np.asarray(u, dtype=float)
    if not 0 <= i < x.num_arms:
        raise ValueError(f"arm {i} out of range [0, {x.num_arms})")
    if u.shape != (x.dim,):
        raise ValueError(f"model shape {u.shape} does not match type dim {x.dim}")
    return u[None], x.rows[None], np.array([i])


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_k . b_k for every row k of two (n, d) matrices, computed by the same
    BLAS dot product as the 1-d `a_k @ b_k`, so batch and scalar agree bitwise."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def expected_reward(u: np.ndarray, x, i):
    """Linear expected reward x_i . u.

    For a batch, `u` is (n, d), `x` the (n, K, d) feature rows of each row's
    type and `i` an (n,) array of arms; returns the (n,) rewards.
    """
    single = isinstance(x, AgentType)
    if single:
        u, x, i = _one_row(u, x, i)
    rewards = row_dot(x[np.arange(len(i)), i], u)
    return float(rewards[0]) if single else rewards


def realize_outcome(u: np.ndarray, x, i, rng, inst: Instance):
    """Draw one noisy outcome.

    The round's noisy model is u + xi with iid N(0, R^2) coordinates; the
    reward is x_i . (u + xi). Under semi-bandit feedback the noisy model is
    also read out on the support of the chosen row, as `aux`.

    For a batch, `u` is (n, d), `x` the (n, K, d) feature rows of each row's
    type, `i` an (n,) array of arms and `rng` a `Cells`; row k draws its
    noise from the k-th cell, and the round comes back as a `RoundBatch`.
    """
    single = isinstance(x, AgentType)
    if single:
        u, x, i = _one_row(u, x, i)
    features = x[np.arange(len(i)), i]
    noisy = u + rng.normal(0.0, inst.R, size=u.shape[1])
    rewards = row_dot(features, noisy)
    semi = inst.feedback is Feedback.SEMIBANDIT
    if not single:
        return RoundBatch(i, features, rewards, noisy if semi else None)
    return float(rewards[0]), (observed_aux(features[0], noisy[0]) if semi else None)


def observed_aux(feature: np.ndarray, noisy: np.ndarray) -> tuple:
    """Semi-bandit readout of a round: (coordinate, noisy-model coordinate)
    pairs on the support of the played feature row."""
    return tuple((int(j), float(noisy[j])) for j in np.flatnonzero(feature))


def validate_instance(inst: Instance, types, models) -> list:
    """Report every violated cap; an empty list means all inputs conform.

    Checks model norms against C_U, row norms against C_X, row sparsity
    against s, and row binarity under semi-bandit feedback. Report-only:
    nothing raises.
    """
    violations = []
    for k, u in enumerate(models):
        norm = float(np.linalg.norm(u))
        if norm > inst.C_U + CAP_TOL:
            violations.append(f"model {k}: ||u||_2 = {norm:.6g} exceeds C_U = {inst.C_U:.6g}")
    for ti, x in enumerate(types):
        if x.rows.shape != (inst.K, inst.d):
            violations.append(
                f"type {ti}: shape {x.rows.shape} does not match (K, d) = ({inst.K}, {inst.d})"
            )
            continue
        for i in range(inst.K):
            row = x.rows[i]
            norm = float(np.linalg.norm(row))
            if norm > inst.C_X + CAP_TOL:
                violations.append(
                    f"type {ti} row {i}: ||x_i||_2 = {norm:.6g} exceeds C_X = {inst.C_X:.6g}"
                )
            nnz = int(np.count_nonzero(row))
            if nnz > inst.s:
                violations.append(
                    f"type {ti} row {i}: {nnz} nonzero entries exceed sparsity cap s = {inst.s}"
                )
            if inst.feedback is Feedback.SEMIBANDIT and not np.isin(row, (0.0, 1.0)).all():
                violations.append(f"type {ti} row {i}: semi-bandit rows must lie in {{0,1}}^d")
    return violations
