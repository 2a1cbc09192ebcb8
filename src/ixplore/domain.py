"""Core problem data: models, agent types, instances, played rounds, and
the linear reward semantics.

Model vectors are plain 1-d float arrays. Types and instances are frozen
dataclasses whose arrays are marked read-only. A played round is always a
`RoundBatch`, one round of a whole batch of replicates: the engine's unit of
work, and a single replicate is a batch of one.
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


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_k . b_k for every row k of two (n, d) matrices, computed by the same
    BLAS dot product as the 1-d `a_k @ b_k`, so batch and scalar agree bitwise."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _played_features(u: np.ndarray, x: np.ndarray, i) -> np.ndarray:
    """Each row's played feature row x_k[i_k], once the arms lie in [0, K)
    and the models' dimension is the rows' (`u` (n, d), `x` (n, K, d))."""
    n, K, d = x.shape
    if u.shape != (n, d):
        raise ValueError(f"models of shape {u.shape} do not match the (n, d) = ({n}, {d}) of the type rows")
    outside = (i < 0) | (i >= K)
    if outside.any():
        raise ValueError(f"arm {int(i[outside][0])} out of range [0, {K})")
    return x[np.arange(n), i]


def expected_reward(u: np.ndarray, x: np.ndarray, i) -> np.ndarray:
    """Linear expected reward x_i . u of every row: `u` is (n, d), `x` the
    (n, K, d) feature rows of each row's type and `i` an (n,) array of arms;
    returns the (n,) rewards."""
    return row_dot(_played_features(u, x, i), u)


def realize_outcome(u: np.ndarray, x: np.ndarray, i, rng, inst: Instance) -> RoundBatch:
    """Draw one noisy outcome per row.

    The round's noisy model is u + xi with iid N(0, R^2) coordinates; the
    reward is x_i . (u + xi). Under semi-bandit feedback the noisy model is
    also kept, since the row observes it on the support of its feature row.

    `u` is (n, d), `x` the (n, K, d) feature rows of each row's type, `i` an
    (n,) array of arms and `rng` a `Cells`; row k draws its noise from the
    k-th cell.
    """
    features = _played_features(u, x, i)
    noisy = u + rng.normal(0.0, inst.R, size=u.shape[1])
    rewards = row_dot(features, noisy)
    return RoundBatch(i, features, rewards, noisy if inst.feedback is Feedback.SEMIBANDIT else None)


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
