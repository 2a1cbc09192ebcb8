"""Prior families with exact posterior updates and posterior sampling.

Discrete and Gaussian posteriors are exact. Uniform priors over balls and
boxes have truncated-Gaussian posteriors: the data contributes a (possibly
rank-deficient) Gaussian factor and the support constraint is kept, so
sampling works by rejection with a proposal that is Gaussian along informed
directions and flat along uninformed ones. All weight arithmetic happens in
log space with log-sum-exp normalization.

Posterior states are stacks: arrays with a leading replicate axis
(log-weights (n, M), precision (n, d, d), shift (n, d)), and a single
replicate is a stack of one. `posterior_update` absorbs a `RoundBatch` into
a stack, and `sample_prior` / `posterior_sample` take a `Cells`; row k then
uses only replicate k's data and cell.

A stack of truncated posteriors is sampled in one pass: one stacked `eigh`,
then the rejection proposals of every full-rank row screened together in
the first blocks, each row drawing from its own cell and taking its first
hit. Rows with a flat direction, and the rare rows that reject every
proposal of those blocks, run the per-row sampler on their own cell, which
also holds the grid fallback; every such row's draw is the one the per-row
sampler makes from that cell. Rows with zero precision draw from the prior.

A bandit observation (type x, arm i, reward y) contributes one scalar
Gaussian likelihood on x_i . u with standard deviation R * ||x_i||_2, which
is the reward's exact law when the noisy model has iid N(0, R^2)
coordinates. A semi-bandit observation contributes one scalar likelihood
per observed coordinate with standard deviation R.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domain import Feedback, Instance, RoundBatch, frozen_array, row_dot
from .errors import (
    DegeneratePosteriorError,
    SamplingError,
    UnsupportedOperationError,
)
from .semantics import message_indices, message_space
from .streams import Cells

MAX_REJECT = 10_000      # consecutive rejections before the grid fallback
REJECT_BLOCK = 256       # most proposals drawn per numpy call
FALLBACK_GRID = 64       # grid points per dimension, d <= 3 only
WEIGHT_SUM_TOL = 1e-12
EXACT_MATCH_TOL = 1e-12  # residual tolerance for R = 0 likelihoods


# ---------------------------------------------------------------------------
# Prior families


@dataclass(frozen=True)
class DiscretePrior:
    models: np.ndarray   # (n, d)
    weights: np.ndarray  # (n,), sums to 1

    def __post_init__(self):
        object.__setattr__(self, "models", frozen_array(self.models))
        object.__setattr__(self, "weights", frozen_array(self.weights))
        if self.models.ndim != 2:
            raise ValueError("models must form an (n, d) matrix")
        if self.weights.shape != (len(self.models),):
            raise ValueError("weights must give one probability per model")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        if abs(float(self.weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1 within 1e-12")

    @property
    def dim(self) -> int:
        return self.models.shape[1]


@dataclass(frozen=True)
class GaussianPrior:
    mean: np.ndarray
    cov: np.ndarray  # symmetric positive definite

    def __post_init__(self):
        object.__setattr__(self, "mean", frozen_array(self.mean))
        object.__setattr__(self, "cov", frozen_array(self.cov))
        if self.cov.shape != (self.dim, self.dim):
            raise ValueError("cov must be (d, d)")
        if not np.allclose(self.cov, self.cov.T):
            raise ValueError("cov must be symmetric")
        try:
            np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("cov must be positive definite") from exc

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class UniformBallPrior:
    radius: float
    dim: int

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


@dataclass(frozen=True)
class UniformBoxPrior:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", frozen_array(self.lo))
        object.__setattr__(self, "hi", frozen_array(self.hi))
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo and hi must be vectors of equal length")
        if np.any(self.lo >= self.hi):
            raise ValueError("lo must be < hi coordinatewise")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]


Prior = DiscretePrior | GaussianPrior | UniformBallPrior | UniformBoxPrior


def sup_density(prior):
    """Supremum of the prior density, or None for discrete priors."""
    if isinstance(prior, UniformBoxPrior):
        return 1.0 / float(np.prod(prior.hi - prior.lo))
    if isinstance(prior, UniformBallPrior):
        d = prior.dim
        vol = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * prior.radius**d
        return 1.0 / vol
    if isinstance(prior, GaussianPrior):
        det = float(np.linalg.det(prior.cov))
        return (2.0 * math.pi) ** (-prior.dim / 2.0) / math.sqrt(det)
    return None


# ---------------------------------------------------------------------------
# Posterior states


@dataclass(frozen=True)
class DiscretePosterior:
    prior: DiscretePrior
    log_weights: np.ndarray  # normalized: logsumexp == 0

    def __post_init__(self):
        object.__setattr__(self, "log_weights", frozen_array(self.log_weights))

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


@dataclass(frozen=True)
class GaussianPosterior:
    prior: GaussianPrior
    precision: np.ndarray  # prior precision + data terms
    shift: np.ndarray      # precision-weighted mean accumulator

    def __post_init__(self):
        object.__setattr__(self, "precision", frozen_array(self.precision))
        object.__setattr__(self, "shift", frozen_array(self.shift))

    @property
    def mean(self) -> np.ndarray:
        return np.linalg.solve(self.precision, self.shift[..., None])[..., 0]

    @property
    def cov(self) -> np.ndarray:
        return np.linalg.inv(self.precision)


@dataclass(frozen=True)
class TruncatedPosterior:
    """Uniform prior over a ball or box: data-only Gaussian factor plus the
    support constraint. The precision may be singular before the data spans
    all directions."""

    prior: "UniformBallPrior | UniformBoxPrior"
    precision: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "precision", frozen_array(self.precision))
        object.__setattr__(self, "shift", frozen_array(self.shift))


PosteriorState = DiscretePosterior | GaussianPosterior | TruncatedPosterior


def make_posterior(prior, n: int):
    """Zero-observation posterior states of a prior, as a stack of n copies."""
    stack = lambda a: np.broadcast_to(a, (n,) + a.shape)  # noqa: E731
    if isinstance(prior, DiscretePrior):
        with np.errstate(divide="ignore"):
            logw = np.log(prior.weights)
        return DiscretePosterior(prior, stack(_log_normalize(logw)))
    if isinstance(prior, GaussianPrior):
        precision = np.linalg.inv(prior.cov)
        precision = 0.5 * (precision + precision.T)
        return GaussianPosterior(prior, stack(precision), stack(precision @ prior.mean))
    if isinstance(prior, (UniformBallPrior, UniformBoxPrior)):
        d = prior.dim
        return TruncatedPosterior(prior, stack(np.zeros((d, d))), stack(np.zeros(d)))
    raise TypeError(f"unknown prior {type(prior).__name__}")


# ---------------------------------------------------------------------------
# Prior sampling


def sample_prior(prior, cells: Cells) -> np.ndarray:
    """One prior draw per cell of `cells`, as an (n, d) matrix."""
    if isinstance(prior, DiscretePrior):
        return prior.models[cells.choice(len(prior.models), p=prior.weights)]
    if isinstance(prior, GaussianPrior):
        chol = np.linalg.cholesky(prior.cov)
        z = cells.standard_normal(prior.dim)
        return prior.mean + np.matmul(chol, z[..., None])[..., 0]
    if isinstance(prior, UniformBoxPrior):
        return cells.uniform(prior.lo, prior.hi)
    if isinstance(prior, UniformBallPrior):  # two draws per cell, so one cell at a time
        points = [ball_points(prior.radius, gen.standard_normal(prior.dim), gen.random()) for gen in cells]
        return np.array(points).reshape(len(cells), prior.dim)
    raise TypeError(f"unknown prior {type(prior).__name__}")


def ball_points(radius: float, normals: np.ndarray, uniforms) -> np.ndarray:
    """Uniform points in the centered d-ball from standard normals (..., d)
    and uniforms (...): a Gaussian direction times radius * U^(1/d). Exact
    at any d, unlike rejection from the bounding box."""
    d = normals.shape[-1]
    scale = radius * np.asarray(uniforms, dtype=float)[..., None] ** (1.0 / d)
    return normals / np.linalg.norm(normals, axis=-1, keepdims=True) * scale


# ---------------------------------------------------------------------------
# Posterior updates


def _log_normalize(logw: np.ndarray) -> np.ndarray:
    m = logw.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise DegeneratePosteriorError(
            "all posterior log-weights are -inf (data inconsistent with every model)"
        )
    total = m + np.log(np.exp(logw - m).sum(axis=-1, keepdims=True))
    return logw - total


def _likelihood_terms(obs: RoundBatch, inst: Instance):
    """Scalar Gaussian likelihood terms of one round as row-aligned arrays.
    Yields (rows, feats, values, sigmas): term k updates stack row rows[k]
    with feature feats[k], observed value values[k] and standard deviation
    sigmas[k]. A bandit round is one term per row on its own feature. Under
    semi-bandit feedback each observed coordinate is its own term, applied
    in coordinate order."""
    if inst.feedback is Feedback.SEMIBANDIT:
        eye = np.eye(obs.features.shape[1])
        observed = obs.features != 0.0
        rank = np.cumsum(observed, axis=1)
        for q in range(int(rank[:, -1].max(initial=0))):
            rows = np.flatnonzero(rank[:, -1] > q)
            coords = np.argmax(rank[rows] == q + 1, axis=1)
            yield rows, eye[coords], obs.noisy[rows, coords], np.full(len(rows), inst.R)
    else:
        f = obs.features
        # sqrt(f . f) by the BLAS dot of `np.linalg.norm(f_k)`
        yield np.arange(len(f)), f, obs.rewards, inst.R * np.sqrt(row_dot(f, f))


def posterior_update(state, obs: RoundBatch, inst: Instance):
    """Exact Bayes update of every row of a stack of posteriors with its row
    of one round's observation."""
    if isinstance(state, DiscretePosterior):
        logw = state.log_weights.copy()
        models = state.prior.models
        for rows, feats, values, sigmas in _likelihood_terms(obs, inst):
            preds = np.matmul(models, feats[:, :, None])[:, :, 0]  # one gemv per row, as models @ f
            sigma = sigmas[:, None]
            current = logw[rows]
            with np.errstate(divide="ignore", invalid="ignore"):
                updated = current - 0.5 * ((values[:, None] - preds) / sigma) ** 2
            exact = np.abs(preds - values[:, None]) <= EXACT_MATCH_TOL
            updated = np.where(sigma == 0.0, np.where(exact, current, -np.inf), updated)
            logw[rows] = updated
        return DiscretePosterior(state.prior, _log_normalize(logw))
    if isinstance(state, (GaussianPosterior, TruncatedPosterior)):
        precision = state.precision.copy()
        shift = state.shift.copy()
        for rows, feats, values, sigmas in _likelihood_terms(obs, inst):
            if (sigmas == 0.0).any():
                raise ValueError(
                    "exact (R = 0) observations are only supported for discrete priors"
                )
            # libm pow, as the scalar 1.0 / sigma**2 (sigmas**2 rounds differently)
            w = 1.0 / np.float_power(sigmas, 2.0)
            precision[rows] = precision[rows] + w[:, None, None] * (feats[:, :, None] * feats[:, None, :])
            shift[rows] = shift[rows] + (w * values)[:, None] * feats
        precision = 0.5 * (precision + np.swapaxes(precision, -1, -2))
        return type(state)(state.prior, precision, shift)
    raise TypeError(f"unknown posterior state {type(state).__name__}")


# ---------------------------------------------------------------------------
# Posterior sampling


def _in_support(prior, points) -> np.ndarray:
    """Support membership of each row of `points` (k, d). A ball compares
    sqrt(p . p), the same BLAS dot and rounding as `np.linalg.norm(p)`."""
    if isinstance(prior, UniformBallPrior):
        return np.sqrt(row_dot(points, points)) <= prior.radius
    return ((points >= prior.lo) & (points <= prior.hi)).all(axis=1)


def _support_box(prior):
    if isinstance(prior, UniformBallPrior):
        lo = np.full(prior.dim, -prior.radius)
        hi = np.full(prior.dim, prior.radius)
    else:
        lo, hi = prior.lo, prior.hi
    return lo, hi


def _circumradius(prior) -> float:
    if isinstance(prior, UniformBallPrior):
        return prior.radius
    corners = np.maximum(np.abs(prior.lo), np.abs(prior.hi))
    return float(np.linalg.norm(corners))


def _truncated_log_density(precision: np.ndarray, shift: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Unnormalized log density at each of the (G, d) points: (G,) for one
    (d, d) precision and (d,) shift, (n, G) for a stack of them."""
    quad = np.einsum("gj,...jk,gk->...g", points, precision, points)
    return -0.5 * quad + np.inner(shift, points)


def _grid_fallback(prior, precision: np.ndarray, shift: np.ndarray, rng) -> np.ndarray:
    d = prior.dim
    if d > 3:
        raise SamplingError(
            f"rejection underflowed after {MAX_REJECT} draws and the grid "
            f"fallback only supports d <= 3 (got d = {d})"
        )
    lo, hi = _support_box(prior)
    axes = [lo[j] + (np.arange(FALLBACK_GRID) + 0.5) * (hi[j] - lo[j]) / FALLBACK_GRID for j in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    points = points[_in_support(prior, points)]
    if len(points) == 0:
        raise SamplingError("fallback grid contains no point of the support")
    logp = _truncated_log_density(precision, shift, points)
    logp -= logp.max()
    weights = np.exp(logp)
    total = float(weights.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise SamplingError(
            "fallback grid weights underflowed; the grid is too coarse to "
            f"contain posterior mass (acceptance rate < 1/{MAX_REJECT})"
        )
    k = int(rng.choice(len(points), p=weights / total))
    # jitter uniformly within the chosen cell to avoid atoms at grid nodes
    half = 0.5 * (hi - lo) / FALLBACK_GRID
    return points[k] + rng.uniform(-half, half)


def _truncated_sample(prior, precision: np.ndarray, shift: np.ndarray, rng) -> np.ndarray:
    """One draw from the truncated posterior of `prior` with the given
    nonzero (d, d) precision and (d,) shift, from one generator."""
    evals, vecs = np.linalg.eigh(precision)
    tol = max(float(evals.max()), 1.0) * 1e-12
    pos = evals > tol
    b_w = vecs.T @ shift
    mean_w = np.zeros(prior.dim)
    mean_w[pos] = b_w[pos] / evals[pos]
    rho = _circumradius(prior)
    n_pos = int(pos.sum())
    n_flat = prior.dim - n_pos
    mean_pos, scale = mean_w[pos], np.sqrt(evals[pos])

    # Proposals come in blocks growing from 1 to REJECT_BLOCK, whose draws
    # are those of one proposal after another, so a long run of rejections
    # costs a few numpy calls. A proposal that mixes normal and uniform
    # draws interleaves them, so those come one at a time.
    drawn, k = 0, 1
    while drawn < MAX_REJECT:
        w = np.empty((k, prior.dim))
        if n_pos:
            w[:, pos] = mean_pos + rng.standard_normal((k, n_pos)) / scale
        if n_flat:
            w[:, ~pos] = rng.uniform(-rho, rho, size=(k, n_flat))
        u = np.matmul(vecs, w[:, :, None])[:, :, 0]  # one gemv per proposal, as vecs @ w
        hits = np.flatnonzero(_in_support(prior, u))
        if len(hits):
            return u[hits[0]]
        drawn += k
        if not (n_pos and n_flat):
            k = min(4 * k, REJECT_BLOCK, MAX_REJECT - drawn)
    return _grid_fallback(prior, precision, shift, rng)


def _truncated_sample_batch(prior, precision: np.ndarray, shift: np.ndarray, cells: Cells) -> np.ndarray:
    """One draw per row of a stack of truncated posteriors ((n, d, d)
    precisions, (n, d) shifts) as an (n, d) matrix.

    Rows with zero precision are prior draws from their cells. One stacked
    `eigh` serves every other row, and the proposal transform keeps the
    per-row sampler's matmul core shapes, so each row's arithmetic is bit
    for bit its own. Rows whose precision has full rank then screen
    proposals together in the per-row sampler's blocks below REJECT_BLOCK
    (1, 4, 16 and 64 proposals): at each stage every pending row draws its
    cumulative proposal count from the start of its cell and keeps the
    newest block, the same normals as drawing block after block, and takes
    its first hit. Rows with a flat direction, and rows that reject all 85
    of those proposals, run `_truncated_sample` on their own cell; its loop
    carries one generator forward through the later blocks and the grid
    fallback, where redrawing from the cell start at every stage would cost
    time quadratic in the proposal count. Every row with nonzero precision
    draws what `_truncated_sample` draws on that row and its cell.
    """
    n, d = shift.shape
    out = np.empty((n, d))
    zero = ~precision.any(axis=(1, 2))
    if zero.any():
        out[zero] = sample_prior(prior, cells.take(np.flatnonzero(zero)))
    evals, vecs = np.linalg.eigh(precision)
    tol = np.maximum(evals.max(axis=1), 1.0) * 1e-12
    full_rank = (evals > tol[:, None]).all(axis=1)
    per_row = ~full_rank & ~zero
    full = np.flatnonzero(full_rank)
    b_w = np.matmul(np.swapaxes(vecs[full], -1, -2), shift[full, :, None])[:, :, 0]
    mean_w, scale = b_w / evals[full], np.sqrt(evals[full])
    vecs = vecs[full, None]  # broadcast over a row's proposals, as in the per-row matmul
    pending, done, k = full, 0, 1
    while len(pending) and k < REJECT_BLOCK:
        z = np.array([gen.standard_normal((done + k, d))[done:] for gen in cells.take(pending)])
        u = np.matmul(vecs, (mean_w[:, None] + z / scale[:, None])[..., None])[..., 0]
        hits = _in_support(prior, u.reshape(-1, d)).reshape(len(pending), k)
        found = hits.any(axis=1)
        out[pending[found]] = u[found, hits[found].argmax(axis=1)]
        pending, mean_w, scale, vecs = (a[~found] for a in (pending, mean_w, scale, vecs))
        done += k
        k *= 4
    per_row[pending] = True
    rest = np.flatnonzero(per_row)
    for i, gen in zip(rest, cells.take(rest)):
        out[i] = _truncated_sample(prior, precision[i], shift[i], gen)
    return out


def posterior_sample(state, cells: Cells) -> np.ndarray:
    """One draw per row of a stack of posteriors, from that row's cell of
    `cells`, as an (n, d) matrix. Truncated posteriors go through
    `_truncated_sample_batch`."""
    if isinstance(state, DiscretePosterior):
        return state.prior.models[cells.choice(len(state.prior.models), p=state.weights)]
    if isinstance(state, GaussianPosterior):
        chol = np.linalg.cholesky(state.precision)
        z = cells.standard_normal(state.prior.dim)
        # precision = L L^T, so L^-T z has the posterior covariance
        return state.mean + np.linalg.solve(np.swapaxes(chol, -1, -2), z[..., None])[..., 0]
    if isinstance(state, TruncatedPosterior):
        return _truncated_sample_batch(state.prior, state.precision, state.shift, cells)
    raise TypeError(f"unknown posterior state {type(state).__name__}")


# ---------------------------------------------------------------------------
# Message distributions


@dataclass(frozen=True)
class MessageDistribution:
    messages: tuple
    probs: np.ndarray
    exact: bool

    def __post_init__(self):
        object.__setattr__(self, "probs", frozen_array(self.probs))


def message_distribution(state, smap, x_pub: int, grid=None) -> MessageDistribution:
    """Law of the map applied to a draw from a discrete prior or from each
    posterior of a stack.

    Each message's probability is the sum of its models' weights in model
    order: exact for discrete states, where a stack with (n, M) log-weights
    gives (n, n_messages) rows each equal to its single call. Continuous
    states need a quadrature grid of model points and are tagged approximate.
    """
    exact = isinstance(state, (DiscretePrior, DiscretePosterior))
    if exact:
        points = state.models if isinstance(state, DiscretePrior) else state.prior.models
        weights = state.weights
    elif grid is None:
        raise UnsupportedOperationError(
            "continuous posteriors need a quadrature grid for message distributions"
        )
    else:
        points = np.atleast_2d(np.asarray(grid, dtype=float))
        if isinstance(state, GaussianPosterior):
            diff = points - state.mean[..., None, :]
            logp = -0.5 * np.einsum("...gj,...jk,...gk->...g", diff, state.precision, diff)
        elif isinstance(state, TruncatedPosterior):
            inside = _in_support(state.prior, points)
            if not inside.any():
                raise UnsupportedOperationError(
                    "no grid point lies in the support of the posterior"
                )
            logp = np.where(inside, _truncated_log_density(state.precision, state.shift, points), -np.inf)
        else:
            raise TypeError(f"unknown posterior state {type(state).__name__}")
        weights = np.exp(logp - logp.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
    messages = message_space(smap)
    probs = np.zeros(weights.shape[:-1] + (len(messages),))
    np.add.at(probs, (..., message_indices(smap, x_pub, points)), weights)
    return MessageDistribution(messages, probs, exact)
