import numpy as np
import pytest

import ixplore as ix
from conftest import cells_of, reference_cells
from ixplore.domain import RoundBatch
from ixplore.errors import InfeasiblePlanError, UninitializedArmError
from ixplore.policies import policy_update, warmup_length
from ixplore.priors import make_posterior
from ixplore.spectral import GramAccumulator

TWO_MODELS = np.array([[0.9, 0.1], [0.2, 0.8]])
IDENTITY = ix.AgentType(np.eye(2))


def fps_state(weights=(0.5, 0.5)):
    """A stack of one FPS state over the two-model prior."""
    prior = ix.DiscretePrior(TWO_MODELS, np.array(weights))
    smap = ix.ArgmaxDirect(representatives=(IDENTITY,))
    return ix.FpsState(posterior=make_posterior(prior, 1), smap=smap)


def played(feature, reward):
    """One observed round of a batch of one: a played feature row and its reward."""
    return RoundBatch(np.array([0]), np.asarray(feature, dtype=float)[None], np.array([float(reward)]))


def ucb_state(rho, counts, means):
    """A stack of one index-policy state."""
    return ix.UcbState(rho=rho, counts=np.asarray(counts)[None], means=np.asarray(means)[None])


class TestFps:
    def test_point_mass_always_same_message(self):
        state = fps_state(weights=(0.0, 1.0))
        rng = np.random.default_rng(0)
        for _ in range(30):
            message, u = ix.fps_step(state, [0], cells_of(rng))
            assert message == [1]
            assert np.array_equal(u[0], TWO_MODELS[1])

    def test_prior_message_frequencies(self):
        state = fps_state()
        rng = np.random.default_rng(1)
        n = 10**4
        counts = np.zeros(2)
        for _ in range(n):
            message, _ = ix.fps_step(state, [0], cells_of(rng))
            counts[message[0]] += 1
        sigma = np.sqrt(0.25 / n)
        assert abs(counts[0] / n - 0.5) <= 3 * sigma

    def test_data_dominant_update(self):
        state = fps_state()
        inst = ix.Instance(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=0.1, T=5, T0=0)
        policy_update(state, played(IDENTITY.rows[0], 0.9), inst)
        rng = np.random.default_rng(2)
        messages = {ix.fps_step(state, [0], cells_of(rng))[0][0] for _ in range(10**4)}
        assert messages == {0}  # u2 has posterior mass about 2.3e-11

    def test_first_round_distribution_equals_prior_exactly(self):
        state = fps_state(weights=(0.3, 0.7))
        dist = ix.message_distribution(state.posterior, state.smap, 0)
        assert dist.probs[0] == pytest.approx([0.3, 0.7], abs=0.0)


def fls_state(smap):
    """A stack of one FLS state with no data."""
    d = smap.dim
    return ix.FlsState(smap=smap, gram=GramAccumulator(d, 1), moment=np.zeros((1, d)))


class TestFls:
    def make_state(self):
        smap = ix.HypercubeCover(origin=np.array([-1.0, -1.0]), cell_radius=0.25,
                                 grid_extents=(4, 4))
        return fls_state(smap)

    def test_zero_data_estimate_is_zero(self):
        message, u_hat, clamped = ix.fls_step(self.make_state(), [0])
        assert u_hat[0] == pytest.approx([0.0, 0.0])
        assert not clamped[0]

    def test_single_observation(self):
        state = self.make_state()
        inst = ix.Instance(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=1.0, T=5, T0=0)
        policy_update(state, played(IDENTITY.rows[0], 1.0), inst)
        _, u_hat, _ = ix.fls_step(state, [0])
        assert u_hat[0] == pytest.approx([0.5, 0.0], abs=1e-12)

    def test_noiseless_error_bound(self):
        # closed form: u_hat - u = -(I + Sigma)^-1 u under noiseless data
        rng = np.random.default_rng(3)
        state = self.make_state()
        inst = ix.Instance(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=0.0, T=60, T0=0)
        u = np.array([0.3, 0.6])
        gram = np.zeros((2, 2))
        for t in range(1, 51):
            feat = rng.normal(size=2)
            feat /= np.linalg.norm(feat)
            policy_update(state, played(feat, feat @ u), inst)
            gram += np.outer(feat, feat)
        u_hat = ix.fls_step(state, [0])[1][0]
        expected = u - np.linalg.solve(np.eye(2) + gram, u)
        assert u_hat == pytest.approx(expected, abs=1e-10)
        lam_min = np.linalg.eigvalsh(np.eye(2) + gram)[0]
        assert np.linalg.norm(u_hat - u) <= 2 * np.linalg.norm(u) / lam_min

    def test_matches_dense_normal_equations(self):
        rng = np.random.default_rng(4)
        for d in (2, 4, 8):
            smap = ix.HypercubeCover(origin=-np.ones(d), cell_radius=0.5,
                                     grid_extents=(4,) * d)
            state = fls_state(smap)
            inst = ix.Instance(d=d, K=2, C_U=1.0, C_X=2.0, s=d, R=1.0, T=40, T0=0)
            feats, ys = [], []
            for t in range(1, 31):
                feat = rng.normal(size=d)
                y = float(rng.normal())
                policy_update(state, played(feat, y), inst)
                feats.append(feat)
                ys.append(y)
            A = np.eye(d) + np.array(feats).T @ np.array(feats)
            b = np.array(feats).T @ np.array(ys)
            _, u_hat, _ = ix.fls_step(state, [0])
            assert u_hat[0] == pytest.approx(np.linalg.solve(A, b), abs=1e-10)

    def test_clamp_flag(self):
        state = self.make_state()
        inst = ix.Instance(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=1.0, T=5, T0=0)
        for t in range(1, 30):
            policy_update(state, played(IDENTITY.rows[0], 5.0), inst)
        message, u_hat, clamped = ix.fls_step(state, [0])
        assert clamped[0]
        assert u_hat[0, 0] > 1.0  # raw estimate escapes the box
        assert message[0] in range(16)


class TestUcb:
    def test_rho_zero_is_greedy(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            K = int(rng.integers(2, 6))
            state = ucb_state(0.0, rng.integers(1, 50, size=K), rng.normal(size=K))
            assert ix.ucb_step(state, t=int(rng.integers(2, 100)))[0] == int(np.argmax(state.means[0]))

    def test_index_formula(self):
        state = ucb_state(1.0, [1, 100], [0.5, 0.9])
        # t - 1 = e: indices (1.5, 1.0) -> arm 0
        assert ix.ucb_step(state, t=1 + np.e)[0] == 0

    def test_tie_goes_to_arm_zero(self):
        state = ucb_state(0.0, [5, 5], [0.7, 0.7])
        assert ix.ucb_step(state, t=10)[0] == 0

    def test_uninitialized_arm(self):
        state = ucb_state(1.0, [3, 0], [0.5, 0.0])
        with pytest.raises(UninitializedArmError, match="arm 1"):
            ix.ucb_step(state, t=5)

    def test_early_rounds_have_zero_bonus(self):
        state = ucb_state(10.0, [1, 1], [0.2, 0.1])
        assert ix.ucb_step(state, t=2)[0] == 0  # log(1) = 0


class TestWarmup:
    def instance(self, **kw):
        base = dict(d=2, K=3, C_U=1.0, C_X=1.0, s=2, R=0.5, T=10, T0=6)
        base.update(kw)
        return ix.Instance(**base)

    def rng_at(self, t, purpose):
        return reference_cells(99, [0], t, purpose)

    def warmup(self, plan, inst, x, u):
        """The arms of the warm-up rounds of a batch of one, in round order."""
        rounds = ix.generate_warmup(plan, inst, lambda t: x.rows[None], np.array(u)[None], self.rng_at)
        return [int(r.arms[0]) for r in rounds]

    def test_round_robin_schedule(self):
        inst = self.instance()
        x = ix.AgentType(np.ones((3, 2)) * 0.5)
        assert self.warmup(ix.RoundRobin(per_arm=2), inst, x, [0.5, 0.5]) == [0, 0, 1, 1, 2, 2]

    def test_per_atom_greedy_cover(self):
        inst = self.instance(K=2, feedback="semibandit")
        x = ix.AgentType([[0.0, 1.0], [1.0, 0.0]])
        assert self.warmup(ix.RoundRobin(per_atom=1), inst, x, [0.5, 0.5]) == [0, 1]

    def test_per_atom_infeasible(self):
        inst = self.instance(K=2, feedback="semibandit")
        x = ix.AgentType([[0.0, 1.0], [0.0, 1.0]])  # atom 0 in no arm
        with pytest.raises(InfeasiblePlanError):
            self.warmup(ix.RoundRobin(per_atom=1), inst, x, [0.5, 0.5])

    def test_fixed_sequence(self):
        inst = self.instance(T0=2)
        x = ix.AgentType(np.ones((3, 2)) * 0.5)
        assert self.warmup(ix.FixedSequence(arms=(2, 0)), inst, x, [0.5, 0.5]) == [2, 0]

    def test_near_uniform_plays_all_arms(self):
        inst = self.instance(T0=300, T=300)
        x = ix.AgentType(np.ones((3, 2)) * 0.5)
        arms = self.warmup(ix.NearUniform(epsilon=1.0, rounds=300), inst, x, [0.5, 0.5])
        counts = np.bincount(arms, minlength=3)
        assert counts.min() > 60  # roughly uniform over 3 arms

    def test_round_robin_min_eigen_equals_per_arm(self):
        # K-armed identity embedding: N plays of each basis vector
        inst = ix.Instance(d=3, K=3, C_U=1.0, C_X=1.0, s=3, R=0.5, T=20, T0=12)
        x = ix.AgentType(np.eye(3))
        rounds = ix.generate_warmup(ix.RoundRobin(per_arm=4), inst, lambda t: x.rows[None],
                                    np.array([[0.1, 0.2, 0.3]]), self.rng_at)
        gram = GramAccumulator(3, 1)
        for r in rounds:
            gram.absorb(r.features)
        assert gram.min_eigen()[0] == pytest.approx(4.0, abs=1e-12)

    def test_warmup_length(self):
        inst = self.instance()
        assert warmup_length(ix.RoundRobin(per_arm=2), inst) == 6
        assert warmup_length(ix.NearUniform(epsilon=0.5, rounds=7), inst) == 7
        assert warmup_length(ix.FixedSequence(arms=(0, 1)), inst) == 2
