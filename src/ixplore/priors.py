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

A stack of truncated posteriors is sampled in one pass. One stacked `eigh`
gives every row its eigenbasis, and the proposals of every full-rank row
are screened together in stages growing 4-fold, each row drawing from its
own cell and taking its first hit. Rows with a flat direction go one
proposal at a time on their cell's generator, and a row that rejects
MAX_REJECT proposals draws the grid fallback from its cell's generator.
Either way a row draws what proposing one model after another from its
cell would draw. Rows with zero precision draw from the prior.

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
from .semantics import apply_map, num_messages
from .streams import Cells

MAX_REJECT = 10_000      # consecutive rejections before the grid fallback
SCREEN = 5               # proposals in the first stage of the batch screen
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
        if self.models.ndim != 2 or not np.isfinite(self.models).all():
            raise ValueError("models must form a finite (n, d) matrix")
        if self.weights.shape != (len(self.models),) or not np.isfinite(self.weights).all():
            raise ValueError("weights must give one finite probability per model")
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
        if not (np.isfinite(self.mean).all() and np.isfinite(self.cov).all()):
            raise ValueError("mean and cov must be finite")
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
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
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
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all() and np.all(self.lo < self.hi)):
            raise ValueError("lo and hi must be finite with lo < hi coordinatewise")

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
    if isinstance(prior, UniformBallPrior):
        draws = cells.normals_then_uniforms(prior.dim, 1)
        return ball_points(prior.radius, draws[:, :-1], draws[:, -1])
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
    quad = np.einsum("ij,jk,ik->i", points, precision, points)
    return -0.5 * quad + points @ shift


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


def _proposals(gen, pos: np.ndarray, mean_w: np.ndarray, scale: np.ndarray, rho: float) -> np.ndarray:
    """One proposal of a row in its eigenbasis, as a (d,) vector, drawn from
    `gen` in this order: normals along the informed directions `pos` (a
    mask), with means `mean_w` and standard deviations 1 / `scale`, one
    entry per informed direction, then uniforms on [-rho, rho] along the
    flat ones."""
    w = np.empty(len(pos))
    w[pos] = mean_w + gen.standard_normal(len(mean_w)) / scale
    w[~pos] = gen.uniform(-rho, rho, size=len(pos) - len(mean_w))
    return w


def _truncated_sample_batch(prior, precision: np.ndarray, shift: np.ndarray, cells: Cells) -> np.ndarray:
    """One draw per row of a stack of truncated posteriors ((n, d, d)
    precisions, (n, d) shifts) as an (n, d) matrix.

    Rows with zero precision are prior draws from their cells. One stacked
    `eigh` gives every other row its informed directions, mean and scale.
    Full-rank rows screen proposals together in stages of SCREEN proposals
    growing 4-fold, up to MAX_REJECT in all: at each stage every pending row
    draws its cumulative proposal count from the start of its cell, keeps
    the newest block and takes its first hit. The other rows run on their
    cell's generator: a row with a flat direction proposes one model at a
    time, since its normals and uniforms interleave, and a full-rank row
    that rejected all MAX_REJECT screened proposals skips their normals.
    After MAX_REJECT rejections the generator draws the grid fallback. The
    proposal transform keeps a single row's matmul core shapes, so every
    row draws, bit for bit, what proposing one model after another from its
    cell would draw.
    """
    n, d = shift.shape
    out = np.empty((n, d))
    zero = ~precision.any(axis=(1, 2))
    if zero.any():
        out[zero] = sample_prior(prior, cells.take(np.flatnonzero(zero)))
    evals, bases = np.linalg.eigh(precision)
    tol = np.maximum(evals.max(axis=1), 1.0) * 1e-12
    informed = evals > tol[:, None]
    b_w = np.matmul(np.swapaxes(bases, -1, -2), shift[:, :, None])[:, :, 0]
    means = np.divide(b_w, evals, out=np.zeros((n, d)), where=informed)
    scales = np.sqrt(evals, out=np.zeros((n, d)), where=informed)
    full_rank = informed.all(axis=1)
    pending = np.flatnonzero(full_rank)
    mean_w, scale = means[pending], scales[pending]
    vecs = bases[pending, None]  # broadcast over a row's proposals, as in the per-row matmul
    done, k = 0, SCREEN
    while len(pending) and done < MAX_REJECT:
        z = cells.take(pending).standard_normal((done + k) * d)[:, done * d:].reshape(len(pending), k, d)
        u = np.matmul(vecs, (mean_w[:, None] + z / scale[:, None])[..., None])[..., 0]
        hits = _in_support(prior, u.reshape(-1, d)).reshape(len(pending), k)
        found = hits.any(axis=1)
        out[pending[found]] = u[found, hits[found].argmax(axis=1)]
        pending, mean_w, scale, vecs = (a[~found] for a in (pending, mean_w, scale, vecs))
        done, k = done + k, min(4 * k, MAX_REJECT - done - k)
    rho = _circumradius(prior)
    rest = np.concatenate([np.flatnonzero(~full_rank & ~zero), pending])
    for i, gen in zip(rest, cells.take(rest)):
        pos = informed[i]
        mean_w, scale = means[i, pos], scales[i, pos]
        drawn = MAX_REJECT if full_rank[i] else 0
        gen.standard_normal(drawn * d)  # skip an exhausted row's screened proposals
        while drawn < MAX_REJECT:
            u = bases[i] @ _proposals(gen, pos, mean_w, scale, rho)
            if _in_support(prior, u[None])[0]:
                out[i] = u
                break
            drawn += 1
        else:
            out[i] = _grid_fallback(prior, precision[i], shift[i], gen)
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


def message_distribution(state, smap, x_pub: int) -> np.ndarray:
    """Law of the map applied to a draw from a discrete prior or from each
    posterior of a stack, over the map's message codes.

    Each message's probability is the sum of its models' weights in model
    order: an (n_messages,) array for a prior, and (n, n_messages) rows for
    a stack with (n, M) log-weights, each equal to its single call.
    Continuous states have no finite law and raise.
    """
    if isinstance(state, DiscretePrior):
        points = state.models
    elif isinstance(state, DiscretePosterior):
        points = state.prior.models
    else:
        raise UnsupportedOperationError(
            f"message distributions need a discrete state, not {type(state).__name__}"
        )
    weights = state.weights
    probs = np.zeros(weights.shape[:-1] + (num_messages(smap),))
    np.add.at(probs, (..., apply_map(smap, x_pub, points)), weights)
    return probs
