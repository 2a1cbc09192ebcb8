import numpy as np
import pytest

import ixplore as ix
from ixplore.domain import Feedback
from ixplore.streams import NOISE, stream


def make_instance(**kw):
    base = dict(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=1.0, T=10, T0=0)
    base.update(kw)
    return ix.Instance(**base)


def reward(u, x, i):
    """Expected reward of arm i of type x under model u, as a batch of one."""
    return ix.expected_reward(np.asarray(u)[None], x.rows[None], np.array([i]))[0]


def outcome(u, x, i, rng, inst):
    """One realized round of arm i of type x under model u, as a batch of one."""
    return ix.realize_outcome(np.asarray(u)[None], x.rows[None], np.array([i]), rng, inst)


class TestExpectedReward:
    def test_exact_cancellation(self):
        x = ix.AgentType([[2.0, 4.0], [0.0, 1.0]])
        assert reward(np.array([0.5, -0.25]), x, 0) == 0.0

    def test_basis_identity(self):
        x = ix.AgentType(np.eye(3))
        assert reward(np.array([1.0, 0.0, 0.0]), x, 0) == 1.0

    def test_direct_dot_product(self):
        x = ix.AgentType([[1.0, 1.0], [0.0, 1.0]])
        assert reward(np.array([0.3, 0.7]), x, 0) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        x = ix.AgentType(np.eye(2))
        with pytest.raises(ValueError):
            reward(np.array([1.0, 0.0, 0.0]), x, 0)

    def test_arm_out_of_range(self):
        x = ix.AgentType(np.eye(2))
        with pytest.raises(ValueError):
            reward(np.array([1.0, 0.0]), x, 2)

    def test_negative_arm(self):
        # numpy would read arm -1 as the last arm; the batch form rejects it
        rows = np.eye(2)[None]
        with pytest.raises(ValueError, match="out of range"):
            ix.expected_reward(np.array([[0.9, 0.1]]), rows, np.array([-1]))
        with pytest.raises(ValueError, match="out of range"):
            ix.realize_outcome(np.array([[0.9, 0.1]]), rows, np.array([-1]),
                               stream(0, 0, 1, NOISE), make_instance())

    def test_bad_row_among_good_ones(self):
        u = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
        rows = np.broadcast_to(np.eye(2), (3, 2, 2))
        assert ix.expected_reward(u, rows, np.array([0, 1, 1])).tolist() == [0.9, 0.8, 0.5]
        with pytest.raises(ValueError, match="arm 2 out of range"):
            ix.expected_reward(u, rows, np.array([0, 2, 1]))
        with pytest.raises(ValueError):
            ix.expected_reward(u[:2], rows, np.array([0, 1, 1]))

    def test_bilinear_in_model(self):
        rng = np.random.default_rng(3)
        x = ix.AgentType(rng.normal(size=(3, 4)))
        u = rng.normal(size=4)
        for alpha in (-2.0, 0.0, 0.5, 3.25):
            assert reward(alpha * u, x, 1) == pytest.approx(
                alpha * reward(u, x, 1), abs=1e-12
            )


class TestRealizeOutcome:
    def test_zero_noise_bandit(self):
        inst = make_instance(R=0.0)
        x = ix.AgentType(np.eye(2))
        played = outcome(np.array([1.0, 0.0]), x, 0, stream(0, 0, 1, NOISE), inst)
        assert played.rewards.tolist() == [1.0]
        assert played.noisy is None

    def test_zero_noise_semibandit_support_readout(self):
        inst = make_instance(d=3, s=3, R=0.0, feedback="semibandit")
        x = ix.AgentType([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        played = outcome(np.array([0.2, 0.9, 0.4]), x, 0, stream(0, 0, 1, NOISE), inst)
        assert played.rewards[0] == pytest.approx(0.6)
        assert played.features.tolist() == [[1.0, 0.0, 1.0]]
        assert played.noisy[0, [0, 2]] == pytest.approx([0.2, 0.4])

    def test_zero_noise_matches_expected_reward(self):
        rng = np.random.default_rng(5)
        inst = make_instance(d=3, K=3, s=3, R=0.0)
        x = ix.AgentType(rng.normal(size=(3, 3)))
        u = rng.normal(size=3)
        for i in range(3):
            played = outcome(u, x, i, stream(0, 0, i + 1, NOISE), inst)
            assert played.rewards[0] == pytest.approx(reward(u, x, i), abs=1e-12)

    def test_monte_carlo_mean(self):
        # empirical mean of rewards concentrates on x_i . u at rate R ||x_i|| / sqrt(n)
        inst = make_instance(R=1.0)
        x = ix.AgentType([[0.6, 0.8], [0.0, 1.0]])
        u = np.array([0.5, -0.3])
        n = 10**5
        rng = stream(42, 0, 1, NOISE)
        total = 0.0
        for _ in range(n):
            total += float(outcome(u, x, 0, rng, inst).rewards[0])
        bound = 3.0 * inst.R * np.linalg.norm(x.rows[0]) / np.sqrt(n)
        assert abs(total / n - reward(u, x, 0)) <= bound

    def test_semibandit_aux_reconstructs_reward(self):
        rng = np.random.default_rng(9)
        inst = make_instance(d=4, K=2, s=4, R=0.7, feedback="semibandit")
        x = ix.AgentType([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0]])
        u = rng.normal(size=4)
        for t in range(1, 20):
            played = outcome(u, x, 0, stream(1, 0, t, NOISE), inst)
            observed = played.noisy[0, np.flatnonzero(played.features[0])]
            assert sum(observed.tolist()) == pytest.approx(played.rewards[0], abs=1e-12)


class TestValidateInstance:
    def test_all_within_caps(self):
        inst = make_instance()
        types = [ix.AgentType(np.eye(2))]
        models = [np.array([0.6, 0.3])]
        assert ix.validate_instance(inst, types, models) == []

    def test_row_norm_violation_names_type_and_row(self):
        inst = make_instance()
        bad = ix.AgentType([[1.0, 0.0], [1.1, 0.0]])
        report = ix.validate_instance(inst, [bad], [])
        assert len(report) == 1
        assert "type 0 row 1" in report[0]
        assert "C_X" in report[0]

    def test_semibandit_binarity_violation(self):
        inst = make_instance(feedback="semibandit")
        bad = ix.AgentType([[0.5, 1.0], [1.0, 0.0]])
        report = ix.validate_instance(inst, [bad], [])
        assert any("0,1" in line for line in report)

    def test_model_norm_and_sparsity(self):
        inst = make_instance(s=1)
        types = [ix.AgentType([[1.0, 1.0], [0.0, 1.0]])]  # row 0 has 2 nonzeros
        models = [np.array([2.0, 0.0])]
        report = ix.validate_instance(inst, types, models)
        assert any("C_U" in line for line in report)
        assert any("sparsity" in line for line in report)


class TestInstanceInvariants:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            make_instance(K=1)
        with pytest.raises(ValueError):
            make_instance(s=0)
        with pytest.raises(ValueError):
            make_instance(T0=11)

    def test_feedback_coerces_from_string(self):
        assert make_instance(feedback="semibandit").feedback is Feedback.SEMIBANDIT

    def test_types_are_immutable(self):
        x = ix.AgentType(np.eye(2))
        with pytest.raises(ValueError):
            x.rows[0, 0] = 5.0
