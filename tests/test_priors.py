import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ixplore as ix
from conftest import cells_of, reference_cells
from ixplore import priors
from ixplore.domain import Feedback, RoundBatch
from ixplore.errors import DegeneratePosteriorError, UnsupportedOperationError
from ixplore.priors import (
    EXACT_MATCH_TOL,
    MAX_REJECT,
    DiscretePosterior,
    TruncatedPosterior,
    _grid_fallback,
    ball_points,
    make_posterior,
)
from ixplore.streams import BLOCK_LANES, CROSSOVER, MODEL_DRAW, POLICY, StreamFamily, _normals, philox_lanes, stream

RNG = lambda s: np.random.default_rng(s)  # noqa: E731

TWO_MODELS = np.array([[0.9, 0.1], [0.2, 0.8]])
IDENTITY = ix.AgentType(np.eye(2))


def bandit_instance(R=1.0, d=2):
    return ix.Instance(d=d, K=2, C_U=2.0, C_X=2.0, s=d, R=R, T=10, T0=0)


def bandit_obs(arm, y, x=IDENTITY):
    """One bandit round of a batch of one: arm `arm` of type `x`, reward y."""
    return RoundBatch(np.array([arm]), x.rows[[arm]], np.array([float(y)]))


def copies(state, n):
    """A stack of n copies of the truncated posterior of a stack of one."""
    return TruncatedPosterior(state.prior, np.repeat(state.precision, n, axis=0), np.repeat(state.shift, n, axis=0))


def policy_cells(seed, n):
    """The round-0 POLICY cells of replicates 0..n-1 of a seed."""
    return StreamFamily(seed).cells(range(n), 0, POLICY)


def one_at_a_time(prior, precision, shift, rng):
    """The rejection sampler of the truncated posterior of `prior` with a
    (d, d) precision and a (d,) shift, written one proposal per iteration.
    Returns (draw or None after MAX_REJECT rejections, proposals)."""
    evals, vecs = np.linalg.eigh(precision)
    pos = evals > max(float(evals.max()), 1.0) * 1e-12
    mean_w = np.zeros(prior.dim)
    mean_w[pos] = (vecs.T @ shift)[pos] / evals[pos]
    if isinstance(prior, ix.UniformBallPrior):
        rho = prior.radius
    else:
        rho = float(np.linalg.norm(np.maximum(np.abs(prior.lo), np.abs(prior.hi))))
    for k in range(1, MAX_REJECT + 1):
        w = np.empty(prior.dim)
        if pos.any():
            w[pos] = mean_w[pos] + rng.standard_normal(int(pos.sum())) / np.sqrt(evals[pos])
        if not pos.all():
            w[~pos] = rng.uniform(-rho, rho, size=int((~pos).sum()))
        u = vecs @ w
        if isinstance(prior, ix.UniformBallPrior):
            inside = float(np.linalg.norm(u)) <= prior.radius
        else:
            inside = bool(np.all(u >= prior.lo) and np.all(u <= prior.hi))
        if inside:
            return u, k
    return None, MAX_REJECT


def reference_draw(prior, precision, shift, address):
    """The draw of a truncated posterior from the cell at `address` (seed,
    replicate, round, purpose) by the reference samplers: a prior draw at
    zero precision, else `one_at_a_time` on the cell's stream, followed on
    the same stream by the grid fallback if it rejects MAX_REJECT times."""
    if not precision.any():
        seed, r, t, purpose = address
        return ix.sample_prior(prior, reference_cells(seed, [r], t, purpose))[0]
    gen = stream(*address)
    draw, _ = one_at_a_time(prior, precision, shift, gen)
    return _grid_fallback(prior, precision, shift, gen) if draw is None else draw


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: ix.DiscretePrior(TWO_MODELS, [NAN, 0.5]),
    lambda: ix.DiscretePrior(TWO_MODELS, [INF, 0.5]),
    lambda: ix.DiscretePrior([[NAN, 0.1], [0.2, 0.8]], [0.5, 0.5]),
    lambda: ix.DiscretePrior([[INF, 0.1], [0.2, 0.8]], [0.5, 0.5]),
    lambda: ix.GaussianPrior([NAN, 0.0], np.eye(2)),
    lambda: ix.GaussianPrior([0.0, 0.0], [[INF, 0.0], [0.0, 1.0]]),
    lambda: ix.GaussianPrior([0.0, 0.0], [[1.0, NAN], [NAN, 1.0]]),
    lambda: ix.UniformBallPrior(radius=NAN, dim=2),
    lambda: ix.UniformBallPrior(radius=INF, dim=2),
    lambda: ix.UniformBoxPrior([NAN, 0.0], [1.0, 1.0]),
    lambda: ix.UniformBoxPrior([0.0, 0.0], [1.0, NAN]),
    lambda: ix.UniformBoxPrior([-INF, 0.0], [1.0, 1.0]),
    lambda: ix.UniformBoxPrior([0.0, 0.0], [1.0, INF]),
], ids=[
    "discrete-nan-weight", "discrete-inf-weight", "discrete-nan-model", "discrete-inf-model",
    "gaussian-nan-mean", "gaussian-inf-cov", "gaussian-nan-cov", "ball-nan-radius", "ball-inf-radius",
    "box-nan-lo", "box-nan-hi", "box-inf-lo", "box-inf-hi",
])
def test_priors_reject_non_finite_parameters(build):
    with pytest.raises(ValueError):
        build()


class TestSamplePrior:
    def test_point_mass(self):
        prior = ix.DiscretePrior(TWO_MODELS, np.array([1.0, 0.0]))
        draws = ix.sample_prior(prior, cells_of(RNG(0), 50))
        assert np.array_equal(draws, np.tile(TWO_MODELS[0], (50, 1)))

    def test_box_moments(self):
        prior = ix.UniformBoxPrior(np.zeros(2), np.ones(2))
        draws = ix.sample_prior(prior, cells_of(RNG(1), 10**5))
        assert np.all(np.abs(draws.mean(axis=0) - 0.5) <= 0.01)

    def test_gaussian_covariance(self):
        prior = ix.GaussianPrior(np.zeros(3), np.eye(3))
        draws = ix.sample_prior(prior, cells_of(RNG(2), 10**5))
        sample_cov = np.cov(draws.T)
        assert np.linalg.norm(sample_cov - np.eye(3), ord="fro") <= 0.05

    def test_ball_area_ratio(self):
        # P(||u|| <= r/2) for uniform on a 2-ball is exactly 1/4
        prior = ix.UniformBallPrior(1.0, 2)
        draws = ix.sample_prior(prior, cells_of(RNG(3), 10**5))
        assert np.all(np.linalg.norm(draws, axis=1) <= 1.0)
        frac = np.mean(np.linalg.norm(draws, axis=1) <= 0.5)
        assert abs(frac - 0.25) <= 0.01


    def test_ball_sampling_is_fast_in_high_dimension(self):
        # rejection from the bounding box accepts about 1 draw in 4e7 at d = 20
        prior = ix.UniformBallPrior(2.0, 20)
        rng = RNG(8)
        start = time.perf_counter()
        draws = ix.sample_prior(prior, cells_of(rng, 200))
        batch = ix.sample_prior(prior, StreamFamily(8).cells(range(200), 0, MODEL_DRAW))
        assert time.perf_counter() - start < 1.0
        assert np.all(np.linalg.norm(np.vstack([draws, batch]), axis=1) <= 2.0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 20])
    def test_ball_batch_matches_one_cell_at_a_time(self, dim):
        # a draw of at most BLOCK_LANES lanes (dims 1-3) comes from counters,
        # whether its normals stay on the ziggurat's fast path or leave it,
        # and a wider one (dim 20, 21 lanes) from each cell's re-keyed
        # generator; every row must be its cell's normals, then its uniform,
        # bit for bit
        prior = ix.UniformBallPrior(1.5, dim)
        replicates = range(2**40, 2**40 + 4 * CROSSOVER)
        family, rekeyed = StreamFamily(21), []
        at = family.at
        family.at = lambda *cell: rekeyed.append(cell) or at(*cell)
        got = ix.sample_prior(prior, family.cells(replicates, 0, MODEL_DRAW))
        gens = [stream(21, r, 0, MODEL_DRAW) for r in replicates]
        want = np.array([ball_points(1.5, g.standard_normal(dim), g.random()) for g in gens])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert [cell[0] for cell in rekeyed] == (list(replicates) if dim + 1 > BLOCK_LANES else [])
        _, fast = _normals(philox_lanes(21, replicates, 0, MODEL_DRAW, dim))
        fast = fast.all(axis=1)
        assert fast.any() and not fast.all()

    @pytest.mark.parametrize("dim", [1, 3, 20])
    def test_ball_radius_law_is_uniform(self, dim):
        # for a uniform point in the d-ball, (||u|| / radius)^d is U(0, 1)
        prior = ix.UniformBallPrior(1.5, dim)
        n = 4000
        assert n >= CROSSOVER  # the second batch comes from counters
        counters = StreamFamily(10).cells(range(n), 0, MODEL_DRAW)
        for draws in (ix.sample_prior(prior, cells_of(RNG(9), n)), ix.sample_prior(prior, counters)):
            v = np.sort((np.linalg.norm(draws, axis=1) / 1.5) ** dim)
            i = np.arange(1, n + 1)
            ks = max((i / n - v).max(), (v - (i - 1) / n).max())
            assert ks < 1.95 / np.sqrt(n)  # Kolmogorov-Smirnov at level 0.001


class TestPosteriorUpdate:
    def test_gaussian_conjugate_example(self):
        prior = ix.GaussianPrior(np.zeros(3), np.eye(3))
        state = make_posterior(prior, 1)
        x = ix.AgentType(np.eye(3))
        inst = ix.Instance(d=3, K=3, C_U=2.0, C_X=1.0, s=3, R=1.0, T=5, T0=0)
        state = ix.posterior_update(state, bandit_obs(0, 1.0, x), inst)
        assert state.mean[0] == pytest.approx([0.5, 0.0, 0.0], abs=1e-12)

    def test_zero_observations_is_prior(self):
        prior = ix.GaussianPrior(np.array([0.3, -0.1]), np.array([[2.0, 0.5], [0.5, 1.0]]))
        state = make_posterior(prior, 1)
        assert state.mean[0] == pytest.approx(prior.mean, abs=1e-12)
        assert np.allclose(state.cov[0], prior.cov, atol=1e-12)

    def test_discrete_density_ratio(self):
        # w2 / w1 = exp(-0.5 * (0.7 / 0.1)^2) = exp(-24.5), about 2.3e-11
        prior = ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5]))
        state = ix.posterior_update(
            make_posterior(prior, 1), bandit_obs(0, 0.9), bandit_instance(R=0.1)
        )
        l1, l2 = 1.0, np.exp(-24.5)
        assert state.weights[0, 0] == pytest.approx(l1 / (l1 + l2), abs=1e-15)
        assert state.weights[0, 1] == pytest.approx(2.3e-11, rel=0.02)

    def test_discrete_weights_drop_common_normalizers(self):
        # direct normalized likelihood products (with full Gaussian
        # normalizing constants) must match the log-space implementation
        rng = RNG(8)
        prior = ix.DiscretePrior(TWO_MODELS, np.array([0.3, 0.7]))
        inst = bandit_instance(R=0.5)
        state = make_posterior(prior, 1)
        raw = np.array([0.3, 0.7])
        for t in range(1, 6):
            arm = int(rng.integers(2))
            y = float(rng.normal())
            state = ix.posterior_update(state, bandit_obs(arm, y), inst)
            feat = IDENTITY.rows[arm]
            sigma = 0.5 * np.linalg.norm(feat)
            dens = np.exp(-0.5 * ((y - TWO_MODELS @ feat) / sigma) ** 2)
            dens /= sigma * np.sqrt(2 * np.pi)
            raw = raw * dens
        assert state.weights[0] == pytest.approx(raw / raw.sum(), abs=1e-12)

    def test_degenerate_at_zero_noise(self):
        prior = ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5]))
        inst = bandit_instance(R=0.0)
        with pytest.raises(DegeneratePosteriorError):
            ix.posterior_update(make_posterior(prior, 1), bandit_obs(0, 0.5), inst)

    def test_exact_identification_at_zero_noise(self):
        prior = ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5]))
        inst = bandit_instance(R=0.0)
        state = ix.posterior_update(make_posterior(prior, 1), bandit_obs(0, 0.9), inst)
        assert state.weights[0] == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_gaussian_rejects_zero_noise(self):
        prior = ix.GaussianPrior(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            ix.posterior_update(make_posterior(prior, 1), bandit_obs(0, 0.9), bandit_instance(R=0.0))

    def test_semibandit_coordinate_updates(self):
        prior = ix.GaussianPrior(np.zeros(2), np.eye(2))
        inst = ix.Instance(d=2, K=2, C_U=2.0, C_X=1.0, s=2, R=1.0, T=5, T0=0,
                           feedback="semibandit")
        x = ix.AgentType([[1.0, 1.0], [0.0, 1.0]])
        # arm 0 observes its noisy model (0.5, 1.0) on both coordinates
        obs = RoundBatch(np.array([0]), x.rows[[0]], np.array([1.5]), np.array([[0.5, 1.0]]))
        state = ix.posterior_update(make_posterior(prior, 1), obs, inst)
        # each coordinate observed once with unit noise: mean = value / 2
        assert state.mean[0] == pytest.approx([0.25, 0.5], abs=1e-12)

    def test_order_invariance(self):
        rng = RNG(21)
        inst = bandit_instance(R=0.8)
        obs = [bandit_obs(int(rng.integers(2)), float(rng.normal())) for _ in range(8)]
        prior_g = ix.GaussianPrior(np.zeros(2), np.eye(2))
        prior_d = ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5]))
        perm = rng.permutation(len(obs))
        for prior in (prior_g, prior_d):
            a = make_posterior(prior, 1)
            b = make_posterior(prior, 1)
            for o in obs:
                a = ix.posterior_update(a, o, inst)
            for k in perm:
                b = ix.posterior_update(b, obs[k], inst)
            if isinstance(prior, ix.GaussianPrior):
                assert np.allclose(a.precision, b.precision, atol=1e-10)
                assert np.allclose(a.shift, b.shift, atol=1e-10)
            else:
                assert np.allclose(a.log_weights, b.log_weights, atol=1e-10)


@st.composite
def update_sets(draw):
    """A prior, an instance and a list of `RoundBatch`es for a stack of n
    posteriors, with two orders of applying them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))  # K = 3 feature rows, so rows often share one
    kind = draw(st.sampled_from(["discrete", "gaussian", "box", "ball"]))
    semi = draw(st.booleans())
    R = draw(st.floats(0.5, 1.0))
    if kind == "discrete":
        models = rng.uniform(-1.0, 1.0, (int(rng.integers(2, 5)), d))
        prior = ix.DiscretePrior(models, rng.dirichlet(np.ones(len(models))))
    elif kind == "gaussian":
        a = rng.standard_normal((d, d))
        prior = ix.GaussianPrior(rng.uniform(-0.5, 0.5, d), a @ a.T + np.eye(d))
    elif kind == "box":
        prior = ix.UniformBoxPrior(-np.ones(d), np.ones(d))
    else:
        prior = ix.UniformBallPrior(1.0, d)
    K = 3
    if semi:
        rows = rng.integers(0, 2, (K, d)).astype(float)
    else:
        rows = rng.standard_normal((K, d))
        rows *= rng.uniform(0.25, 2.0, (K, 1)) / np.linalg.norm(rows, axis=1, keepdims=True)
    inst = ix.Instance(d=d, K=K, C_U=2.0, C_X=1.0, s=d, R=R, T=10, T0=0,
                       feedback="semibandit" if semi else "bandit")
    batches = []
    for _ in range(draw(st.integers(2, 6))):
        arms = rng.integers(0, K, n)
        features = rows[arms]
        if semi:
            noisy = rng.uniform(-1.0, 1.0, (n, d))
            rewards = (features * noisy).sum(axis=1)
        else:
            noisy, rewards = None, rng.uniform(-1.5, 1.5, n)
        batches.append(RoundBatch(arms, features, rewards, noisy))
    order = draw(st.permutations(range(len(batches))))
    return prior, inst, n, batches, order


def squaring_sensitive_case():
    """An `update_sets` case on a Gaussian prior whose three feature rows
    have bandit sigmas R * ||x|| for which 1 / sigma**2 by CPython's pow and
    1 / (sigma * sigma) round differently."""
    rng = np.random.default_rng(8)
    R, d, n = 0.7312, 3, 5
    candidates = rng.standard_normal((5000, d)) * rng.uniform(0.25, 2.0, (5000, 1))
    sigmas = [R * float(np.linalg.norm(x)) for x in candidates]
    rows = candidates[[1.0 / s**2 != 1.0 / (s * s) for s in sigmas]][:3]
    assert len(rows) == 3
    prior = ix.GaussianPrior(np.zeros(d), np.eye(d))
    inst = ix.Instance(d=d, K=3, C_U=2.0, C_X=2.0, s=d, R=R, T=10, T0=0)
    arms = [np.array([0, 1, 2, 0, 1]), np.array([2, 2, 1, 0, 2])]
    batches = [RoundBatch(a, rows[a], rng.uniform(-1.5, 1.5, n)) for a in arms]
    return prior, inst, n, batches, [1, 0]


def grouped_update(state, obs, inst):
    """The stacked update with a bandit round's rows grouped by distinct
    feature through `np.unique`, one Python-float sigma per feature and
    w = 1 / sigma**2 by CPython's pow: the reference that `posterior_update`
    must match byte for byte."""
    n = len(obs.arms)
    if inst.feedback is Feedback.SEMIBANDIT:
        eye = np.eye(obs.features.shape[1])
        rank = np.cumsum(obs.features != 0.0, axis=1)
        terms = []
        for q in range(int(rank[:, -1].max(initial=0))):
            rows = np.flatnonzero(rank[:, -1] > q)
            coords = np.argmax(rank[rows] == q + 1, axis=1)
            terms.append((rows, eye, coords, obs.noisy[rows, coords], [inst.R] * len(eye)))
    else:
        feats, inv = np.unique(obs.features, axis=0, return_inverse=True)
        sigmas = [inst.R * float(np.linalg.norm(f)) for f in feats]
        terms = [(np.arange(n), feats, inv.reshape(n), obs.rewards, sigmas)]
    if isinstance(state, DiscretePosterior):
        logw, models = state.log_weights.copy(), state.prior.models
        for rows, feats, inv, values, sigmas in terms:
            preds = np.stack([models @ f for f in feats])[inv]
            sigma = np.asarray(sigmas)[inv][:, None]
            current = logw[rows]
            with np.errstate(divide="ignore", invalid="ignore"):
                updated = current - 0.5 * ((values[:, None] - preds) / sigma) ** 2
            exact = np.abs(preds - values[:, None]) <= EXACT_MATCH_TOL
            logw[rows] = np.where(sigma == 0.0, np.where(exact, current, -np.inf), updated)
        m = logw.max(axis=-1, keepdims=True)
        logw = logw - (m + np.log(np.exp(logw - m).sum(axis=-1, keepdims=True)))
        return DiscretePosterior(state.prior, logw)
    precision, shift = state.precision.copy(), state.shift.copy()
    for rows, feats, inv, values, sigmas in terms:
        w = np.array([1.0 / sigma**2 for sigma in sigmas])
        outer = w[:, None, None] * (feats[:, :, None] * feats[:, None, :])
        precision[rows] = precision[rows] + outer[inv]
        shift[rows] = shift[rows] + (w[inv] * values)[:, None] * feats[inv]
    precision = 0.5 * (precision + np.swapaxes(precision, -1, -2))
    return type(state)(state.prior, precision, shift)


def stack_row(state, k):
    """Row k of a stack of posteriors, as a stack of one."""
    if isinstance(state, DiscretePosterior):
        return DiscretePosterior(state.prior, state.log_weights[k:k + 1])
    return type(state)(state.prior, state.precision[k:k + 1], state.shift[k:k + 1])


def state_bytes(state):
    if isinstance(state, DiscretePosterior):
        return [state.log_weights.tobytes()]
    return [state.precision.tobytes(), state.shift.tobytes()]


class TestUpdateOrder:
    @settings(max_examples=80, deadline=None)
    @given(case=update_sets())
    def test_posterior_does_not_depend_on_update_order(self, case):
        prior, inst, n, batches, order = case
        ahead, permuted = make_posterior(prior, n), make_posterior(prior, n)
        for batch in batches:
            ahead = ix.posterior_update(ahead, batch, inst)
        for k in order:
            permuted = ix.posterior_update(permuted, batches[k], inst)
        if isinstance(prior, ix.DiscretePrior):
            assert np.abs(ahead.log_weights - permuted.log_weights).max() <= 1e-12
            return
        for a, b in ((ahead.precision, permuted.precision), (ahead.shift, permuted.shift)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    @settings(max_examples=80, deadline=None)
    @given(case=update_sets())
    @example(case=squaring_sensitive_case())
    def test_each_row_updates_alone_and_as_the_grouped_formula(self, case):
        # every row of the stacked update is byte for byte the row updated as
        # a stack of one, and the update that grouped rows by feature
        prior, inst, n, batches, _ = case
        state = make_posterior(prior, n)
        for batch in batches:
            stacked = ix.posterior_update(state, batch, inst)
            assert state_bytes(stacked) == state_bytes(grouped_update(state, batch, inst))
            for k in range(n):
                alone = RoundBatch(*(None if a is None else a[k:k + 1] for a in
                                     (batch.arms, batch.features, batch.rewards, batch.noisy)))
                row = ix.posterior_update(stack_row(state, k), alone, inst)
                assert state_bytes(stack_row(stacked, k)) == state_bytes(row)
            state = stacked


class TestPosteriorSample:
    def test_point_mass(self):
        prior = ix.DiscretePrior(TWO_MODELS, np.array([0.0, 1.0]))
        draws = ix.posterior_sample(make_posterior(prior, 50), cells_of(RNG(0), 50))
        assert np.array_equal(draws, np.tile(TWO_MODELS[1], (50, 1)))

    def test_gaussian_prior_replication(self):
        cov = np.array([[1.0, 0.4], [0.4, 0.8]])
        state = make_posterior(ix.GaussianPrior(np.zeros(2), cov), 10**5)
        draws = ix.posterior_sample(state, cells_of(RNG(4), 10**5))
        assert np.linalg.norm(np.cov(draws.T) - cov, ord="fro") <= 0.05

    def test_uniform_ball_no_data(self):
        state = make_posterior(ix.UniformBallPrior(1.0, 2), 10**5)
        draws = ix.posterior_sample(state, cells_of(RNG(5), 10**5))
        frac = np.mean(np.linalg.norm(draws, axis=1) <= 0.5)
        assert abs(frac - 0.25) <= 0.01

    def test_truncated_with_data_matches_quadrature(self):
        # posterior mean on a grid oracle vs rejection samples
        prior = ix.UniformBoxPrior(np.zeros(2), np.ones(2))
        inst = bandit_instance(R=0.5)
        state = make_posterior(prior, 1)
        for arm, y in [(0, 0.9), (1, 0.2), (0, 0.7)]:
            state = ix.posterior_update(state, bandit_obs(arm, y), inst)
        axes = np.linspace(0.0005, 0.9995, 1000)
        gx, gy = np.meshgrid(axes, axes, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
        logp = -0.5 * np.einsum("ij,jk,ik->i", grid, state.precision[0], grid) + grid @ state.shift[0]
        w = np.exp(logp - logp.max())
        oracle_mean = (w[:, None] * grid).sum(axis=0) / w.sum()
        draws = ix.posterior_sample(copies(state, 20000), policy_cells(6, 20000))
        assert np.all(draws >= 0.0) and np.all(draws <= 1.0)
        assert np.all(np.abs(draws.mean(axis=0) - oracle_mean) <= 0.02)

    def test_rejection_fallback_grid(self):
        # data far outside the support forces the rejection loop to fail
        # over to the grid-weighted draw, which must stay inside the box
        prior = ix.UniformBoxPrior(np.zeros(2), np.ones(2))
        inst = bandit_instance(R=0.01)
        state = make_posterior(prior, 1)
        for _ in range(4):
            state = ix.posterior_update(state, bandit_obs(0, 8.0), inst)
            state = ix.posterior_update(state, bandit_obs(1, 8.0), inst)
        draw = ix.posterior_sample(state, policy_cells(7, 1))[0]
        assert np.all(draw >= 0.0) and np.all(draw <= 1.0)
        # the mass concentrates at the corner nearest the data
        assert np.all(draw >= 0.9)


    @pytest.mark.parametrize("case", ["box", "ball", "box_flat_direction"])
    def test_block_rejection_matches_one_at_a_time(self, case):
        # posteriors centred outside the support, so most proposals are
        # rejected and many draws are accepted after the first block
        inst = bandit_instance(R=0.3)
        if case == "ball":
            prior, data = ix.UniformBallPrior(1.0, 2), [(0, 1.1), (1, 0.4)]
        elif case == "box":
            prior, data = ix.UniformBoxPrior(np.zeros(2), np.ones(2)), [(0, 1.2), (1, 1.1)]
        else:  # arm 1 never played: one flat direction, one proposal at a time
            prior, data = ix.UniformBoxPrior(np.zeros(2), np.ones(2)), [(0, 1.2)]
        state = make_posterior(prior, 1)
        for arm, y in data:
            state = ix.posterior_update(state, bandit_obs(arm, y), inst)
        proposals = 0
        for r in range(200):
            expected, k = one_at_a_time(prior, state.precision[0], state.shift[0], stream(12, r, 0, POLICY))
            proposals += k
            draw = ix.posterior_sample(state, reference_cells(12, [r], 0, POLICY))
            assert draw[0].tobytes() == expected.tobytes()
        assert proposals > 400

    def test_block_rejection_fallback_matches_one_at_a_time(self):
        prior = ix.UniformBoxPrior(np.zeros(2), np.ones(2))
        inst = bandit_instance(R=0.01)
        state = make_posterior(prior, 1)
        for _ in range(4):
            state = ix.posterior_update(state, bandit_obs(0, 8.0), inst)
            state = ix.posterior_update(state, bandit_obs(1, 8.0), inst)
        precision, shift, single = state.precision[0], state.shift[0], stream(13, 0, 0, POLICY)
        rejected, _ = one_at_a_time(prior, precision, shift, single)
        assert rejected is None
        expected = _grid_fallback(prior, precision, shift, single)
        draw = ix.posterior_sample(state, reference_cells(13, [0], 0, POLICY))
        assert draw[0].tobytes() == expected.tobytes()


ROW_KINDS = ("zero", "partial", "full", "edge", "fallback")


def truncated_row(prior, kind, rng):
    """(precision, shift) of one truncated posterior of `prior`: zero
    precision, a flat direction, full rank centred inside the support, or
    full rank centred just outside (about one proposal in 100 accepted, so
    the batch screen runs through several stages) or far outside (no
    proposal is accepted and the grid fallback draws)."""
    d = prior.dim
    if isinstance(prior, ix.UniformBallPrior):
        centre, scale = np.zeros(d), prior.radius
    else:
        centre, scale = 0.5 * (prior.lo + prior.hi), float(np.min(prior.hi - prior.lo))
    if kind == "zero" or (kind == "partial" and d == 1):
        return np.zeros((d, d)), np.zeros(d)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q *= np.sign(np.diag(r))
    if kind == "partial":
        rank = int(rng.integers(1, d))
        evals = np.r_[rng.uniform(1.0, 20.0, rank), np.zeros(d - rank)] / scale**2
        mean = centre + rng.uniform(-0.2, 0.2, d) * scale
    elif kind == "full":
        evals = rng.uniform(1.0, 50.0, d) / scale**2
        mean = centre + rng.uniform(-0.4, 0.4, d) * scale
    else:
        sigma, out = (0.1 * scale, 2.0) if kind == "edge" else (0.01 * scale, 40.0)
        evals = rng.uniform(1.0, 1.5, d) / sigma**2
        if isinstance(prior, ix.UniformBallPrior):
            e = rng.standard_normal(d)
            mean = (prior.radius + out * sigma) * e / np.linalg.norm(e)
        else:
            j = int(rng.integers(d))
            mean = centre.copy()
            mean[j] = prior.hi[j] + out * sigma
    precision = (q * evals) @ q.T
    precision = 0.5 * (precision + precision.T)
    return precision, precision @ mean


@st.composite
def truncated_stacks(draw):
    """A prior, a stack of truncated posteriors of mixed kinds, and the
    cells' (seed, replicates, round)."""
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        prior = ix.UniformBallPrior(float(rng.uniform(0.5, 2.0)), d)
    else:
        prior = ix.UniformBoxPrior(rng.uniform(-1.0, -0.3, d), rng.uniform(0.3, 1.0, d))
    kinds = ROW_KINDS if d <= 3 else ROW_KINDS[:-1]  # the grid fallback stops at d = 3
    rows = rng.choice(kinds, draw(st.integers(1, 6))).tolist()
    if rows.count("fallback") > 1:  # one grid row per stack keeps an example fast
        first = rows.index("fallback") + 1
        rows[first:] = ["edge" if k == "fallback" else k for k in rows[first:]]
    pairs = [truncated_row(prior, kind, rng) for kind in rows]
    replicates = draw(st.lists(st.integers(0, 2**20), min_size=len(rows),
                               max_size=len(rows), unique=True))
    seed = draw(st.integers(0, 2**64 - 1))
    t = draw(st.integers(0, 10**4))
    precision = np.stack([p for p, _ in pairs])
    shift = np.stack([b for _, b in pairs])
    return prior, precision, shift, seed, replicates, t


class TestTruncatedBatch:
    @settings(max_examples=60, deadline=None)
    @given(case=truncated_stacks())
    def test_batch_matches_per_row_sampler(self, case):
        prior, precision, shift, seed, replicates, t = case
        state = TruncatedPosterior(prior, precision, shift)
        cells = StreamFamily(seed).cells(replicates, t, POLICY)
        batch = ix.posterior_sample(state, cells)
        assert batch.shape == shift.shape
        for k, r in enumerate(replicates):
            expected = reference_draw(prior, precision[k], shift[k], (seed, r, t, POLICY))
            assert batch[k].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("prior", [
        ix.UniformBoxPrior(np.array([-0.5, 0.0]), np.array([0.5, 1.0])),
        ix.UniformBallPrior(1.3, 3),
    ])
    def test_large_stack_matches_one_at_a_time(self, prior):
        # at least CROSSOVER pending full-rank rows, whose first screen stage
        # (5 proposals, at most BLOCK_LANES normals) draws from counters and
        # decodes rows with a lane off the ziggurat's fast path there, and
        # whose later, wider stages re-key each pending row's generator
        rng = np.random.default_rng(17)
        kinds = rng.permutation(["zero"] * 6 + ["partial"] * 8 + ["full"] * 20 + ["edge"] * 100 + ["fallback"])
        pairs = [truncated_row(prior, kind, rng) for kind in kinds]
        precision = np.stack([p for p, _ in pairs])
        shift = np.stack([b for _, b in pairs])
        seed, t = 2**64 - 1001, 31
        replicates = [2**62 + 7 * k for k in range(len(kinds))]
        cells = StreamFamily(seed).cells(replicates, t, POLICY)
        batch = ix.posterior_sample(TruncatedPosterior(prior, precision, shift), cells)
        for k, r in enumerate(replicates):
            expected = reference_draw(prior, precision[k], shift[k], (seed, r, t, POLICY))
            assert batch[k].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("prior", [
        ix.UniformBoxPrior(np.array([-0.5, 0.0, -1.0]), np.array([0.5, 1.0, 0.4])),
        ix.UniformBallPrior(1.3, 3),
    ])
    def test_kinds_reach_their_paths(self, prior):
        # the strategy's row kinds do what they claim: an edge row rejects
        # through several blocks, a fallback row rejects MAX_REJECT times
        rng = np.random.default_rng(5)
        for kind, lo, hi in (("edge", 21, MAX_REJECT - 1), ("fallback", MAX_REJECT, MAX_REJECT)):
            counts = []
            for _ in range(8):
                precision, shift = truncated_row(prior, kind, rng)
                counts.append(one_at_a_time(prior, precision, shift, np.random.default_rng(len(counts)))[1])
            assert lo <= np.median(counts) and max(counts) <= hi

    def test_only_flat_rows_propose_one_at_a_time(self, monkeypatch):
        # full-rank rows are screened together, so only a row with a flat
        # direction reaches `_proposals`, once per proposal, up to MAX_REJECT
        # before its grid fallback; a full-rank row that rejects every
        # screened proposal skips their normals and draws its grid fallback
        calls = []
        propose = priors._proposals
        monkeypatch.setattr(priors, "_proposals", lambda *args: calls.append(1) or propose(*args))
        prior = ix.UniformBoxPrior(np.zeros(2), np.ones(2))
        rng = np.random.default_rng(3)
        inst = bandit_instance(R=0.01)
        flat = make_posterior(prior, 1)
        for y in (0.3, 0.4):  # arm 1 never played
            flat = ix.posterior_update(flat, bandit_obs(0, y), inst)
        flat_out = ix.posterior_update(flat, bandit_obs(0, 8.0), inst)
        cases = {
            "full": ([truncated_row(prior, kind, rng) for kind in ["full"] * 4 + ["edge"] * 8], False),
            "flat": ([(flat.precision[0], flat.shift[0])], True),
            "flat_fallback": ([(flat_out.precision[0], flat_out.shift[0])], True),
            "fallback": ([truncated_row(prior, "fallback", rng)], False),
        }
        tries = {}
        for name, (rows, flat_rows) in cases.items():
            precision, shift = np.stack([p for p, _ in rows]), np.stack([b for _, b in rows])
            calls.clear()
            batch = ix.posterior_sample(TruncatedPosterior(prior, precision, shift), policy_cells(14, len(rows)))
            tries[name] = []
            for k in range(len(rows)):
                address = (14, k, 0, POLICY)
                tries[name].append(one_at_a_time(prior, precision[k], shift[k], stream(*address))[1])
                assert batch[k].tobytes() == reference_draw(prior, precision[k], shift[k], address).tobytes()
            assert len(calls) == (sum(tries[name]) if flat_rows else 0)
        assert max(tries["full"]) < MAX_REJECT and tries["flat"][0] < MAX_REJECT
        assert tries["flat_fallback"] == tries["fallback"] == [MAX_REJECT]


class TestPosteriorMatch:
    def test_message_marginals_agree(self):
        # (F_t, u_t) and (F_t, u*) are identically distributed, so the
        # messages generated from posterior draws match those generated
        # from the true models in frequency
        prior = ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5]))
        smap = ix.ArgmaxDirect(representatives=(IDENTITY,))
        inst = bandit_instance(R=1.0)
        n = 10**4
        from_star = np.zeros(2)
        from_post = np.zeros(2)
        rng = RNG(12)
        for _ in range(n):
            k = int(rng.integers(2))
            u_star = TWO_MODELS[k]
            state = make_posterior(prior, 1)
            for _ in range(3):
                arm = int(rng.integers(2))
                y = float(u_star[arm] + rng.normal())
                state = ix.posterior_update(state, bandit_obs(arm, y), inst)
            u_t = ix.posterior_sample(state, cells_of(rng))[0]
            from_star[ix.apply_map(smap, 0, u_star[None])[0]] += 1
            from_post[ix.apply_map(smap, 0, u_t[None])[0]] += 1
        p_pool = (from_star + from_post) / (2 * n)
        for m in range(2):
            sigma = np.sqrt(2 * p_pool[m] * (1 - p_pool[m]) / n)
            assert abs(from_star[m] - from_post[m]) / n <= 3 * sigma + 1e-12


class TestMessageDistribution:
    def test_two_model_argmax(self):
        prior = ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5]))
        smap = ix.ArgmaxDirect(representatives=(IDENTITY,))
        probs = ix.message_distribution(make_posterior(prior, 1), smap, 0)
        assert probs[0] == pytest.approx([0.5, 0.5])

    def test_point_mass_indicator(self):
        prior = ix.DiscretePrior(TWO_MODELS, np.array([0.0, 1.0]))
        smap = ix.ArgmaxDirect(representatives=(IDENTITY,))
        probs = ix.message_distribution(make_posterior(prior, 1), smap, 0)
        assert probs[0] == pytest.approx([0.0, 1.0])

    def test_after_dominant_update(self):
        prior = ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5]))
        smap = ix.ArgmaxDirect(representatives=(IDENTITY,))
        state = ix.posterior_update(
            make_posterior(prior, 1), bandit_obs(0, 0.9), bandit_instance(R=0.1)
        )
        probs = ix.message_distribution(state, smap, 0)
        assert probs[0, 0] == pytest.approx(1.0 - 2.3e-11, abs=1e-12)
        assert probs[0, 1] == pytest.approx(2.3e-11, rel=0.02)

    def test_continuous_without_grid_errors(self):
        smap = ix.ArgmaxDirect(representatives=(IDENTITY,))
        for prior in (ix.UniformBoxPrior(np.zeros(2), np.ones(2)), ix.GaussianPrior(np.full(2, 0.5), np.eye(2))):
            for state in (prior, make_posterior(prior, 1), make_posterior(prior, 2)):
                with pytest.raises(UnsupportedOperationError):
                    ix.message_distribution(state, smap, 0)

    def test_discrete_prior_reads_its_own_weights(self):
        weights = np.array([0.3, 0.7])
        prior = ix.DiscretePrior(TWO_MODELS, weights)
        smap = ix.ArgmaxDirect(representatives=(IDENTITY,))
        probs = ix.message_distribution(prior, smap, 0)
        assert probs.tolist() == weights.tolist()


class TestBallPosteriorWithData:
    def test_samples_stay_in_ball_and_track_data(self):
        prior = ix.UniformBallPrior(1.0, 2)
        inst = bandit_instance(R=0.4)
        state = make_posterior(prior, 1)
        for arm, y in [(0, 0.8), (1, -0.1), (0, 0.6)]:
            state = ix.posterior_update(state, bandit_obs(arm, y), inst)
        draws = ix.posterior_sample(copies(state, 5000), policy_cells(31, 5000))
        assert np.all(np.linalg.norm(draws, axis=1) <= 1.0 + 1e-12)
        # data points toward positive x1, negative-to-small x2
        assert draws[:, 0].mean() > 0.3
        # quadrature oracle over the disc
        axes = np.linspace(-0.999, 0.999, 600)
        gx, gy = np.meshgrid(axes, axes, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
        grid = grid[np.linalg.norm(grid, axis=1) <= 1.0]
        logp = -0.5 * np.einsum("ij,jk,ik->i", grid, state.precision[0], grid) + grid @ state.shift[0]
        w = np.exp(logp - logp.max())
        oracle = (w[:, None] * grid).sum(axis=0) / w.sum()
        assert np.all(np.abs(draws.mean(axis=0) - oracle) <= 0.03)
