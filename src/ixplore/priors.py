"""Prior families with exact posterior updates and posterior sampling.

Discrete posteriors are exact reweightings. Every other posterior is one
`GaussianPosterior`, a Gaussian factor times the prior, and the prior picks
the sampler: a Gaussian prior's factor is the exact posterior, and a ball
or box truncates a data-only (possibly rank-deficient) factor to its
support, sampled by rejection with a proposal that is Gaussian along
informed directions and flat along uninformed ones. All weight arithmetic
happens in log space with log-sum-exp normalization.

Posterior states are stacks: arrays with a leading replicate axis
(log-weights (n, M), precision (n, d, d), shift (n, d)), and a single
replicate is a stack of one. `posterior_update` absorbs a `RoundBatch` into
a stack, and `sample_prior` / `posterior_sample` take a `Cells`; row k then
uses only replicate k's data and cell.

A stack of truncated posteriors is sampled in one pass. One stacked `eigh`
gives every row its eigenbasis, and the proposals of every row are
screened together in stages growing 4-fold from one window block per
row, each row taking its first hit.
Proposal k of a row reads the k-th d words of its cell, so a row draws
what proposing one model after another from its cell would draw, whatever
the stages. A row that rejects MAX_REJECT proposals draws the grid
fallback from the words after them. Rows with zero precision draw from the
prior.

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
from .errors import DegeneratePosteriorError, SamplingError
from .streams import BLOCK_LANES, Cells, as_normals, as_uniforms

MAX_REJECT = 10_000      # consecutive rejections before the grid fallback
FALLBACK_GRID = 64       # grid points per dimension, d <= 3 only
WEIGHT_SUM_TOL = 1e-12
EXACT_MATCH_TOL = 1e-12  # residual tolerance for R = 0 likelihoods


# ---------------------------------------------------------------------------
# Prior families


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
        with np.errstate(over="ignore"):
            span = self.hi - self.lo
        if not np.isfinite(span).all():
            raise ValueError("hi - lo must be finite in every coordinate")

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


@dataclass(frozen=True, eq=False)
class DiscretePosterior:
    prior: DiscretePrior
    log_weights: np.ndarray  # normalized: logsumexp == 0

    def __post_init__(self):
        object.__setattr__(self, "log_weights", frozen_array(self.log_weights))

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


@dataclass(frozen=True, eq=False)
class GaussianPosterior:
    """A Gaussian factor (precision, shift) times the prior. Under a
    Gaussian prior the factor holds the prior's own precision and shift, so
    it is the whole posterior. Under a uniform ball or box prior it holds
    only the data's, and the prior's support truncates it; its precision
    may then be singular until the data spans every direction."""

    prior: "GaussianPrior | UniformBallPrior | UniformBoxPrior"
    precision: np.ndarray  # prior precision (Gaussian prior only) + data terms
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


PosteriorState = DiscretePosterior | GaussianPosterior


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
        return GaussianPosterior(prior, stack(np.zeros((d, d))), stack(np.zeros(d)))
    raise TypeError(f"unknown prior {type(prior).__name__}")


# ---------------------------------------------------------------------------
# Prior sampling


def sample_prior(prior, cells: Cells) -> np.ndarray:
    """One prior draw per cell of `cells`, as an (n, d) matrix."""
    if isinstance(prior, DiscretePrior):
        return prior.models[cells.choice(len(prior.models), p=prior.weights)]
    if isinstance(prior, GaussianPrior):
        chol = np.linalg.cholesky(prior.cov)
        z = as_normals(cells.words(prior.dim))
        return prior.mean + np.matmul(chol, z[..., None])[..., 0]
    if isinstance(prior, UniformBoxPrior):
        # numpy's uniform(lo, hi): lo + (hi - lo) * u
        return prior.lo + (prior.hi - prior.lo) * as_uniforms(cells.words(prior.dim))
    if isinstance(prior, UniformBallPrior):
        words = cells.words(prior.dim + 1)
        return ball_points(prior.radius, as_normals(words[:, :-1]), as_uniforms(words[:, -1]))
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
    sigmas[k]. `rows` is an index array, or `slice(None)` when the term
    updates every row in order. A bandit round is one term per row on its
    own feature. Under semi-bandit feedback each observed coordinate is its
    own term, applied in coordinate order."""
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
        yield slice(None), f, obs.rewards, inst.R * np.sqrt(row_dot(f, f))


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
    if isinstance(state, GaussianPosterior):
        precision = state.precision.copy()
        shift = state.shift.copy()
        for rows, feats, values, sigmas in _likelihood_terms(obs, inst):
            if (sigmas == 0.0).any():
                raise ValueError(
                    "exact (R = 0) observations are only supported for discrete priors"
                )
            # libm pow, as the scalar 1.0 / sigma**2 (sigmas**2 rounds differently)
            w = 1.0 / np.float_power(sigmas, 2.0)
            # each term is exactly symmetric (f_i f_j = f_j f_i), so the precision stays so
            precision[rows] = precision[rows] + w[:, None, None] * (feats[:, :, None] * feats[:, None, :])
            shift[rows] = shift[rows] + (w * values)[:, None] * feats
        return GaussianPosterior(state.prior, precision, shift)
    raise TypeError(f"unknown posterior state {type(state).__name__}")


# ---------------------------------------------------------------------------
# Posterior sampling


def _in_support(prior, points) -> np.ndarray:
    """Support membership of each row of `points` (k, d). A ball compares
    sqrt(p . p), the same BLAS dot and rounding as `np.linalg.norm(p)`."""
    if isinstance(prior, UniformBallPrior):
        return np.sqrt(row_dot(points, points)) <= prior.radius
    return ((points >= prior.lo) & (points <= prior.hi)).all(axis=1)


def support_box(prior):
    """(lo, hi), the smallest box that holds a uniform prior's support: the
    box itself, or [-radius, radius] in every coordinate of a ball."""
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


def _grid_fallback(prior, precision: np.ndarray, shift: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A draw of the truncated posterior from a grid of its support, from
    d + 1 uniforms `u`: u[0], searched in the normalized cumulative sum of
    the grid's weights as `Generator.choice` searches it, picks a grid
    point, and u[1:] jitter it uniformly within its grid cell."""
    d = prior.dim
    if d > 3:
        raise SamplingError(
            f"rejection underflowed after {MAX_REJECT} draws and the grid "
            f"fallback only supports d <= 3 (got d = {d})"
        )
    lo, hi = support_box(prior)
    axes = [lo[j] + (np.arange(FALLBACK_GRID) + 0.5) * (hi[j] - lo[j]) / FALLBACK_GRID for j in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    points = points[_in_support(prior, points)]
    if len(points) == 0:
        raise SamplingError("fallback grid contains no point of the support")
    logp = _truncated_log_density(precision, shift, points)
    logp -= logp.max()
    cdf = np.cumsum(np.exp(logp))
    if not np.isfinite(cdf[-1]) or cdf[-1] <= 0.0:
        raise SamplingError(
            "fallback grid weights underflowed; the grid is too coarse to "
            f"contain posterior mass (acceptance rate < 1/{MAX_REJECT})"
        )
    cdf /= cdf[-1]
    k = int(np.searchsorted(cdf, u[0], side="right"))
    # jitter uniformly within the chosen cell to avoid atoms at grid nodes
    half = 0.5 * (hi - lo) / FALLBACK_GRID
    return points[k] + (2.0 * half * u[1:] - half)


def _stage_points(words: np.ndarray, means: np.ndarray, scales: np.ndarray, flat: np.ndarray,
                  rho: float) -> np.ndarray:
    """(m, k, d) proposals in their rows' eigenbases from (m, k, d) words.
    Coordinate j of a row is means[j] + z / scales[j], for the normal z of
    its word, if direction j is informed, and 2 rho u - rho, uniform on
    [-rho, rho] for the uniform u of its word, if `flat[j]`: every word
    is decoded as a normal, and only the flat coordinates' words again as
    uniforms, which replace their normals."""
    w = as_normals(words)
    w /= scales[:, None]
    w += means[:, None]
    f = np.broadcast_to(flat[:, None], words.shape)
    w[f] = 2.0 * rho * as_uniforms(words[f]) - rho
    return w


def _truncated_sample_batch(prior, precision: np.ndarray, shift: np.ndarray, cells: Cells) -> np.ndarray:
    """One draw per row of a stack of truncated posteriors ((n, d, d)
    precisions, (n, d) shifts) as an (n, d) matrix.

    Rows with zero precision are prior draws from their cells. One stacked
    `eigh` gives every other row its informed directions, mean and scale.
    Proposal k of a row reads words [k d, (k + 1) d) of its cell, each
    decoded as `_stage_points` says, and the row takes its first proposal
    in the support. The rows screen together in stages, each drawing only
    its new words: one window block (first = BLOCK_LANES // d proposals,
    at least 1) per row, then 4 times as many per stage, at most
    MAX_REJECT in all, and in a stage at most first * MAX_REJECT over its
    rows (or first per row), which bounds its memory.
    No word depends on the stages, so neither does any draw.
    A row that rejects MAX_REJECT proposals draws `_grid_fallback` from
    words [MAX_REJECT d, MAX_REJECT d + d + 1). The proposal transform
    keeps a single row's matmul core shapes, so each row draws, bit for
    bit, what proposing one model after another would draw.
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
    scales = np.sqrt(evals, out=np.ones((n, d)), where=informed)
    rho = _circumradius(prior)
    pending = np.flatnonzero(~zero)
    first = max(1, BLOCK_LANES // d)
    done, k = 0, first
    while len(pending) and done < MAX_REJECT:
        k = min(k, MAX_REJECT - done, max(first, first * MAX_REJECT // len(pending)))
        words = cells.take(pending).words(k * d, done * d).reshape(len(pending), k, d)
        w = _stage_points(words, means[pending], scales[pending], ~informed[pending], rho)
        u = np.matmul(bases[pending, None], w[..., None])[..., 0]
        hits = _in_support(prior, u.reshape(-1, d)).reshape(len(pending), k)
        found = hits.any(axis=1)
        out[pending[found]] = u[found, hits[found].argmax(axis=1)]
        pending = pending[~found]
        done, k = done + k, 4 * k
    if len(pending):
        uniforms = as_uniforms(cells.take(pending).words(d + 1, MAX_REJECT * d))
        for i, u in zip(pending, uniforms):
            out[i] = _grid_fallback(prior, precision[i], shift[i], u)
    return out


def posterior_sample(state, cells: Cells) -> np.ndarray:
    """One draw per row of a stack of posteriors, from that row's cell of
    `cells`, as an (n, d) matrix. A Gaussian factor under a uniform prior
    is truncated to its support and goes through `_truncated_sample_batch`."""
    if isinstance(state, DiscretePosterior):
        return state.prior.models[cells.choice(len(state.prior.models), p=state.weights)]
    if not isinstance(state, GaussianPosterior):
        raise TypeError(f"unknown posterior state {type(state).__name__}")
    if not isinstance(state.prior, GaussianPrior):
        return _truncated_sample_batch(state.prior, state.precision, state.shift, cells)
    chol = np.linalg.cholesky(state.precision)
    z = as_normals(cells.words(state.prior.dim))
    # precision = L L^T, so L^-T z has the posterior covariance
    return state.mean + np.linalg.solve(np.swapaxes(chol, -1, -2), z[..., None])[..., 0]
