from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ixplore as ix
from conftest import TWO_MODELS, reference_cells, two_model_config
from ixplore import engine
from ixplore.engine import validate_config
from ixplore.errors import ConfigError
from ixplore.policies import policy_update
from ixplore.priors import make_posterior
from ixplore.streams import MODEL_DRAW, NOISE, POLICY

# One round of one replicate, read back from a batch. `aux` is the
# semi-bandit readout: (coordinate, noisy-model coordinate) pairs on the
# support of the played row.
Played = namedtuple("Played", "t type message arm reward aux")


def records(batch, k):
    """Row k of a batch as the `Played` rounds 1..T."""
    out = []
    for c in range(batch.arms.shape[1]):
        t = c + 1
        x = batch.types[batch.type_ids[k, c]]
        arm = int(batch.arms[k, c])
        aux = None
        if batch.noisy is not None:
            aux = tuple((int(j), float(batch.noisy[k, c, j])) for j in np.flatnonzero(x.rows[arm]))
        message = None if t <= batch.T0 else batch.messages[t - batch.T0 - 1][k]
        out.append(Played(t=t, type=x, message=message, arm=arm,
                          reward=float(batch.rewards[k, c]), aux=aux))
    return out


def rows_equal(a, k, b, j):
    """Row k of batch a and row j of batch b play the same arms, messages
    and rewards on the same model."""
    return (
        np.array_equal(a.arms[k], b.arms[j])
        and np.array_equal(a.rewards[k], b.rewards[j])
        and [m[k] for m in a.messages] == [m[j] for m in b.messages]
        and np.array_equal(a.u_star[k], b.u_star[j])
    )


class TestDeterminism:
    def test_same_replicate_same_log(self):
        cfg = two_model_config(per_arm=2, T_extra=3, replicates=1)
        assert rows_equal(ix.run_episode(cfg, [0]), 0, ix.run_episode(cfg, [0]), 0)

    def test_single_replicate_equals_run_episode(self):
        cfg = two_model_config(per_arm=1, T_extra=2, replicates=1)
        assert rows_equal(ix.run_replicates(cfg), 0, ix.run_episode(cfg, [0]), 0)


class TestEpisodeStructure:
    def test_compliant_agents_follow_menu(self):
        cfg = two_model_config(per_arm=2, T_extra=6, replicates=3)
        batch = ix.run_replicates(cfg)
        assert batch.compliance.all()
        for k in range(cfg.replicates):
            for rec in records(batch, k)[cfg.instance.T0 :]:
                assert rec.arm == ix.menu(cfg.smap, rec.type, rec.message)

    def test_warmup_only_horizon(self):
        cfg = two_model_config(per_arm=2, T_extra=0)
        batch = ix.run_episode(cfg, [0])
        assert batch.arms.shape == (1, cfg.instance.T0)
        assert batch.messages == []
        assert batch.sampled_models.shape == (1, 0, cfg.instance.d)

    def test_record_count_is_horizon(self):
        cfg = two_model_config(per_arm=3, T_extra=5)
        batch = ix.run_episode(cfg, [0])
        for name in ("type_ids", "arms", "rewards", "expected_rewards", "compliance"):
            assert getattr(batch, name).shape == (1, cfg.instance.T)
        assert len(batch.messages) == cfg.instance.T - cfg.instance.T0

    def test_lambda_snapshots_non_decreasing(self):
        cfg = two_model_config(per_arm=4, T_extra=30, replicates=2)
        snapshots = ix.lambda_snapshots(ix.run_replicates(cfg))
        for k in range(cfg.replicates):
            lams = [lam[k] for _, lam, _ in snapshots]
            assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))
            diags = [d[k] for _, _, d in snapshots]
            assert all(d >= lam - 1e-9 for lam, d in zip(lams, diags))

    def test_lambda_snapshots_reduce_the_played_features(self):
        # an FLS run's ridge Gram sums the same outer products in the same
        # order, so the last snapshot reads the policy's own Gram matrix
        cfg = replace(two_model_config(per_arm=2, T_extra=7, replicates=3),
                      smap=ix.HypercubeCover(origin=np.zeros(2), cell_radius=0.5, grid_extents=(2, 2)),
                      policy=ix.FlsPolicy())
        batch = ix.run_replicates(cfg)
        t, lmin, ldiag = ix.lambda_snapshots(batch)[-1]
        gram = batch.policy_state.gram
        assert t == cfg.instance.T
        assert np.array_equal(lmin, gram.min_eigen())
        assert np.array_equal(ldiag, gram.diag_min())

    def test_validate_rejects_mismatched_warmup(self):
        cfg = two_model_config(per_arm=4)
        bad = ix.ExperimentConfig(**{**cfg.__dict__, "warmup": ix.RoundRobin(per_arm=3)})
        with pytest.raises(ConfigError):
            validate_config(bad)

    def test_validate_rejects_ucb_without_embedding(self):
        cfg = two_model_config()
        x = ix.AgentType([[0.6, 0.8], [1.0, 0.0]])
        bad = ix.ExperimentConfig(**{
            **cfg.__dict__,
            "policy": ix.UcbPolicy(rho=1.0),
            "type_source": ix.Homogeneous(x),
            "smap": ix.ArgmaxDirect(representatives=(x,)),
        })
        with pytest.raises(ConfigError):
            validate_config(bad)


class TestPosteriorMatchRoundwise:
    def test_first_round_message_frequencies(self):
        # at t = 1 with no data the message law is the prior message law
        cfg = two_model_config(per_arm=0, T_extra=1, replicates=3000, seed=5)
        batch = ix.run_replicates(cfg)
        freq = np.bincount(batch.messages[0], minlength=2) / cfg.replicates
        sigma = np.sqrt(0.25 / cfg.replicates)
        assert abs(freq[0] - 0.5) <= 3 * sigma

    def test_post_warmup_message_vs_model_frequencies(self):
        # Fact-style check after warm-up: over replicates, the realized
        # message matches the law of the map applied to the true model
        cfg = two_model_config(per_arm=2, T_extra=1, replicates=4000, seed=6)
        batch = ix.run_replicates(cfg)
        from_message = np.zeros(2)
        from_model = np.zeros(2)
        for m, u in zip(batch.messages[0], batch.u_star):
            from_message[m] += 1
            from_model[ix.apply_map(cfg.smap, 0, u)] += 1
        n = cfg.replicates
        pool = (from_message + from_model) / (2 * n)
        for m in range(2):
            sigma = np.sqrt(2 * pool[m] * (1 - pool[m]) / n)
            assert abs(from_message[m] - from_model[m]) / n <= 3 * sigma + 1e-12


class TestRegret:
    def test_point_mass_policy_has_zero_regret(self):
        x0 = ix.AgentType(np.eye(2))
        prior = ix.DiscretePrior(TWO_MODELS, np.array([1.0, 0.0]))
        inst = ix.Instance(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=0.5, T=20, T0=0)
        cfg = ix.ExperimentConfig(
            instance=inst, prior=prior,
            smap=ix.ArgmaxDirect(representatives=(x0,)),
            policy=ix.FpsPolicy(), warmup=ix.RoundRobin(per_arm=0),
            type_source=ix.Homogeneous(x0), seed=3, replicates=2,
        )
        curves = ix.regret(ix.run_replicates(cfg))
        for cumulative in curves.cumulative:
            assert cumulative[-1] == pytest.approx(0.0, abs=1e-12)

    def test_fixed_worst_arm_regret_is_linear(self):
        x0 = ix.AgentType(np.eye(2))
        prior = ix.DiscretePrior(TWO_MODELS, np.array([1.0, 0.0]))  # u* = (0.9, 0.1)
        T = 15
        inst = ix.Instance(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=0.5, T=T, T0=T)
        cfg = ix.ExperimentConfig(
            instance=inst, prior=prior,
            smap=ix.ArgmaxDirect(representatives=(x0,)),
            policy=ix.FpsPolicy(), warmup=ix.FixedSequence(arms=(1,) * T),
            type_source=ix.Homogeneous(x0), seed=3, replicates=1,
        )
        curves = ix.regret(ix.run_episode(cfg, [0]))
        gap = 0.9 - 0.1
        assert curves.per_round[0] == pytest.approx(np.full(T, gap))
        assert curves.cumulative[0] == pytest.approx(gap * np.arange(1, T + 1))

    def test_reward_gap_is_zero_mean(self):
        cfg = two_model_config(per_arm=1, T_extra=1, replicates=10**4, seed=8)
        batch = ix.run_replicates(cfg)
        gaps = batch.rewards.sum(axis=1) - batch.expected_rewards.sum(axis=1)
        assert abs(gaps.mean()) <= 3 * gaps.std(ddof=1) / np.sqrt(len(gaps))

    def test_fps_beats_uniform_baseline(self):
        # paired comparison on the same model draws and a matched budget
        reps, T = 200, 500
        cfg = two_model_config(per_arm=2, T_extra=T - 4, replicates=reps, seed=9)
        fps_regret = ix.regret(ix.run_replicates(cfg)).cumulative.mean(axis=0)
        rng = np.random.default_rng(9)
        uniform_total = 0.0
        for _ in range(reps):
            u = TWO_MODELS[rng.integers(2)]
            arms = rng.integers(2, size=T)
            uniform_total += (u.max() * T - u[arms].sum())
        uniform_mean = uniform_total / reps
        assert fps_regret[-1] < 0.9 * uniform_mean

    def test_aggregate_is_mean_of_singles(self):
        cfg = two_model_config(per_arm=1, T_extra=3, replicates=3)
        agg = ix.regret(ix.run_replicates(cfg)).per_round.mean(axis=0)
        singles = np.mean([ix.regret(ix.run_episode(cfg, [r])).per_round[0] for r in range(3)], axis=0)
        assert agg == pytest.approx(singles)


def swapped_labels_config():
    """IID agents under two public labels whose identity rows are swapped,
    so one message names opposite coordinates under the two labels."""
    xa = ix.AgentType(np.eye(2), public_id=0)
    xb = ix.AgentType(np.array([[0.0, 1.0], [1.0, 0.0]]), public_id=1)
    inst = ix.Instance(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=1.0, T=10, T0=8)
    return ix.ExperimentConfig(
        instance=inst,
        prior=ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5])),
        smap=ix.ArgmaxDirect(representatives=(xa, xb)),
        policy=ix.FpsPolicy(),
        warmup=ix.RoundRobin(per_arm=4),
        type_source=ix.IIDSampler((xa, xb), np.array([0.5, 0.5])),
        agent_model="oracle_best_response",
        seed=7,
        replicates=1,
    )


def gaussian_oracle_config():
    cfg = two_model_config(per_arm=4, T_extra=2, R=0.5, agent_model="oracle_best_response", seed=13)
    return replace(cfg, prior=ix.GaussianPrior(np.zeros(2), np.eye(2)))


class TestOracleAgent:
    def test_gaussian_prior_oracle_complies_after_strong_warmup(self):
        cfg = gaussian_oracle_config()
        validate_config(cfg)
        batch = ix.run_episode(cfg, range(8))
        assert batch.compliance.all()

    def test_oracle_complies_after_strong_warmup(self):
        # with N_TS = 4 per arm the policy is strong-BIC, so the exact
        # best response is the recommended arm itself
        cfg = two_model_config(per_arm=4, T_extra=1, agent_model="oracle_best_response", seed=13)
        batch = ix.run_episode(cfg, [0])
        assert bool(batch.compliance[0, -1])

    def test_oracle_deviates_without_warmup(self):
        # with no data the message is uninformative: the best response is
        # the prior-optimal arm 0 whatever the recommendation says
        cfg = two_model_config(per_arm=0, T_extra=1, agent_model="oracle_best_response")
        deviated = False
        for r in range(12):
            batch = ix.run_episode(cfg, [r])
            assert batch.arms[0, -1] == 0
            if batch.messages[-1][0] == 1:
                deviated = True
                assert not batch.compliance[0, -1]
        assert deviated

    def test_messages_are_read_under_their_own_label(self):
        # the same message under the other label means the other model;
        # pooling the labels would blur the posterior and break compliance
        batch = ix.run_episode(swapped_labels_config(), range(20))
        assert set(batch.type_ids[:, 8:].ravel().tolist()) == {0, 1}
        assert batch.compliance.all()

    def test_batch_plays_one_nested_batch(self, monkeypatch):
        play = engine.run_episode
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return play(*args, **kwargs)

        monkeypatch.setattr(engine, "run_episode", counting)
        play(swapped_labels_config(), range(5))
        assert len(calls) == 1

    @pytest.mark.parametrize("cfg", [
        # without warm-up, later rounds' gaps are within the table's noise
        two_model_config(per_arm=0, T_extra=4, agent_model="oracle_best_response", seed=27),
        gaussian_oracle_config(),
    ], ids=["discrete_no_warmup", "gaussian"])
    def test_single_replicate_equals_its_row_of_a_batch(self, cfg):
        batch = ix.run_episode(cfg, range(6))
        for r in range(6):
            _assert_rows_identical(ix.run_episode(cfg, [r]), batch, r)


class TestPolicyIntegration:
    def test_fls_episode_with_hypercube_map(self):
        x0 = ix.AgentType(np.eye(2))
        smap = ix.HypercubeCover(origin=np.zeros(2), cell_radius=0.125, grid_extents=(4, 4))
        inst = ix.Instance(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=0.3, T=40, T0=8)
        cfg = ix.ExperimentConfig(
            instance=inst,
            prior=ix.UniformBoxPrior(np.zeros(2), np.ones(2)),
            smap=smap, policy=ix.FlsPolicy(),
            warmup=ix.RoundRobin(per_arm=4),
            type_source=ix.Homogeneous(x0), seed=21, replicates=2,
        )
        batch = ix.run_replicates(cfg)
        assert batch.compliance.all()
        assert batch.clamp_flags.shape == (cfg.replicates, inst.T - inst.T0)
        for k in range(cfg.replicates):
            for rec in records(batch, k)[inst.T0:]:
                assert rec.message in range(16)
                assert rec.arm == ix.menu(smap, rec.type, rec.message)

    def test_fls_estimate_tracks_model(self):
        # noiseless data identifies the model, so late messages pin its cell
        x0 = ix.AgentType(np.array([[0.9, 0.1], [0.1, 0.9]]))
        smap = ix.HypercubeCover(origin=np.zeros(2), cell_radius=0.125, grid_extents=(4, 4))
        inst = ix.Instance(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=1e-9, T=60, T0=20)
        u_fixed = np.array([[0.62, 0.42]])
        cfg = ix.ExperimentConfig(
            instance=inst,
            prior=ix.DiscretePrior(u_fixed, np.array([1.0])),
            smap=smap, policy=ix.FlsPolicy(),
            warmup=ix.RoundRobin(per_arm=10),
            type_source=ix.Homogeneous(x0), seed=22, replicates=1,
        )
        batch = ix.run_episode(cfg, [0])
        assert batch.messages[-1][0] == smap.cell_index(u_fixed[0])

    def test_ucb_episode(self):
        x0 = ix.AgentType(np.eye(2))
        inst = ix.Instance(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=0.5, T=30, T0=4)
        cfg = ix.ExperimentConfig(
            instance=inst,
            prior=ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5])),
            smap=ix.ArgmaxDirect(representatives=(x0,)),
            policy=ix.UcbPolicy(rho=1.0),
            warmup=ix.RoundRobin(per_arm=2),
            type_source=ix.Homogeneous(x0), seed=23, replicates=2,
        )
        batch = ix.run_replicates(cfg)
        assert batch.compliance.all()
        for arms in batch.arms:
            # greedy-with-bonus plays the empirically better arm most rounds
            assert len(set(arms.tolist())) == 2

    def test_greedy_exploits_after_warmup(self):
        # rho = 0 with a point-mass model and tiny noise locks onto the best arm
        x0 = ix.AgentType(np.eye(2))
        inst = ix.Instance(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=0.01, T=20, T0=2)
        cfg = ix.ExperimentConfig(
            instance=inst,
            prior=ix.DiscretePrior(np.array([[0.9, 0.1]]), np.array([1.0])),
            smap=ix.ArgmaxDirect(representatives=(x0,)),
            policy=ix.UcbPolicy(rho=0.0),
            warmup=ix.RoundRobin(per_arm=1),
            type_source=ix.Homogeneous(x0), seed=24, replicates=1,
        )
        batch = ix.run_episode(cfg, [0])
        assert (batch.arms[0, inst.T0:] == 0).all()

    def test_semibandit_episode_with_per_atom_warmup(self):
        rows = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        x0 = ix.AgentType(rows)
        models = np.array([[0.8, 0.1, 0.2], [0.1, 0.2, 0.9]])
        inst = ix.Instance(d=3, K=3, C_U=1.5, C_X=2.0, s=2, R=1.0, T=8, T0=2,
                           feedback="semibandit")
        cfg = ix.ExperimentConfig(
            instance=inst,
            prior=ix.DiscretePrior(models, np.array([0.5, 0.5])),
            smap=ix.ArgmaxDirect(representatives=(x0,)),
            policy=ix.FpsPolicy(),
            warmup=ix.RoundRobin(per_atom=1),
            type_source=ix.Homogeneous(x0), seed=25, replicates=2,
        )
        batch = ix.run_replicates(cfg)
        for k in range(cfg.replicates):
            for rec in records(batch, k):
                assert rec.aux is not None
                support = set(np.flatnonzero(rows[rec.arm]))
                assert {j for j, _ in rec.aux} == support
                assert sum(v for _, v in rec.aux) == pytest.approx(rec.reward)

    def test_sleeping_bandits_with_ranking_messages(self):
        def sleeping(awake):
            m = np.zeros((3, 3))
            for i in awake:
                m[i, i] = 1.0
            return ix.AgentType(m)

        types = (sleeping({0, 1, 2}), sleeping({1, 2}), sleeping({0, 2}))
        models = np.array([[0.9, 0.5, 0.1], [0.2, 0.8, 0.6]])
        inst = ix.Instance(d=3, K=3, C_U=1.5, C_X=1.0, s=1, R=1.0, T=30, T0=12)
        cfg = ix.ExperimentConfig(
            instance=inst,
            prior=ix.DiscretePrior(models, np.array([0.5, 0.5])),
            smap=ix.Ranking(num_arms=3, fiber_models=models),
            policy=ix.FpsPolicy(),
            warmup=ix.RoundRobin(per_arm=4),
            type_source=ix.IIDSampler(types, np.array([0.4, 0.3, 0.3])),
            seed=26, replicates=2,
        )
        batch = ix.run_replicates(cfg)
        for k in range(cfg.replicates):
            for rec in records(batch, k)[inst.T0:]:
                assert rec.type.rows[rec.arm, rec.arm] == 1.0  # chosen arm is awake
                # the recommended arm is the top-ranked awake arm
                for better in rec.message:
                    if better == rec.arm:
                        break
                    assert rec.type.rows[better, better] == 0.0

    def test_explicit_public_types(self):
        xa = ix.AgentType(np.eye(2), public_id=0)
        xb = ix.AgentType(np.array([[0.0, 1.0], [1.0, 0.0]]), public_id=1)
        seq = (xa, xb) * 5
        inst = ix.Instance(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=0.8, T=10, T0=2)
        cfg = ix.ExperimentConfig(
            instance=inst,
            prior=ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5])),
            smap=ix.ArgmaxDirect(representatives=(xa, xb)),
            policy=ix.FpsPolicy(),
            warmup=ix.FixedSequence(arms=(0, 1)),
            type_source=ix.Explicit(seq),
            seed=27, replicates=1,
        )
        batch = ix.run_episode(cfg, [0])
        assert batch.type_ids[0].tolist() == [0, 1] * 5
        # with swapped rows the same sampled model maps to the swapped arm
        for rec, u in zip(records(batch, 0)[inst.T0:], batch.sampled_models[0]):
            expected = int(np.argmax(rec.type.rows @ u))
            assert rec.arm == expected


def _assert_rows_identical(single, batch, r):
    """The one-replicate batch `single` holds row r of `batch`, field for field."""
    assert single.replicates == [batch.replicates[r]]
    assert len(single.types) == len(batch.types)
    assert all(a is b for a, b in zip(single.types, batch.types))
    assert single.T0 == batch.T0
    for name in ("u_star", "type_ids", "arms", "rewards", "expected_rewards", "compliance",
                 "noisy", "sampled_models", "clamp_flags"):
        a, b = getattr(single, name), getattr(batch, name)
        if a is None:
            assert b is None, name
        else:
            assert np.array_equal(a[0], b[r]), name
    assert [m[0] for m in single.messages] == [m[r] for m in batch.messages]
    assert [(t, lmin[0], ldiag[0]) for t, lmin, ldiag in ix.lambda_snapshots(single)] == [
        (t, lmin[r], ldiag[r]) for t, lmin, ldiag in ix.lambda_snapshots(batch)]


@st.composite
def small_configs(draw):
    """Valid small configs over the prior, policy, map, type, warm-up and
    feedback branches of the engine."""
    eye = ix.AgentType(np.eye(2))
    swap_pub = draw(st.sampled_from([0, 1]))
    swap = ix.AgentType(np.array([[0.0, 1.0], [1.0, 0.0]]), public_id=swap_pub)
    policy = draw(st.sampled_from(["fps", "fls", "ucb"]))
    feedback = draw(st.sampled_from(["bandit", "semibandit"]))
    if policy == "ucb":
        types = (eye,)
    else:
        # `wide` has a row with two atoms, so semi-bandit rounds observe two coordinates
        wide = ix.AgentType(np.array([[1.0, 1.0], [0.0, 1.0]]))
        types = draw(st.sampled_from([(eye,), (eye, swap), (wide,)]))
    reps = {x.public_id: x for x in reversed(types)}
    smap = ix.ArgmaxDirect(representatives=tuple(reps[k] for k in sorted(reps)))
    kind = draw(st.sampled_from(["discrete", "gaussian", "box", "ball"]))
    if kind == "discrete":
        prior = ix.DiscretePrior(TWO_MODELS, np.array([0.4, 0.6]))
    elif kind == "gaussian":
        prior = ix.GaussianPrior(np.array([0.3, 0.1]), np.array([[1.0, 0.2], [0.2, 0.5]]))
    elif kind == "ball":
        prior = ix.UniformBallPrior(1.0, 2)
    else:
        prior = ix.UniformBoxPrior(np.zeros(2), np.ones(2))
    if policy == "fls" or (policy == "fps" and kind == "box" and draw(st.booleans())):
        smap = ix.HypercubeCover(origin=np.zeros(2), cell_radius=0.25, grid_extents=(2, 2))
    if policy == "fls":
        policy_obj = ix.FlsPolicy()
    elif policy == "ucb":
        policy_obj = ix.UcbPolicy(rho=draw(st.sampled_from([0.0, 1.0])))
    else:
        policy_obj = ix.FpsPolicy()
    if policy == "ucb" or draw(st.booleans()):
        warmup = ix.RoundRobin(per_arm=draw(st.integers(1 if policy == "ucb" else 0, 2)))
        T0 = 2 * warmup.per_arm
    else:
        warmup = ix.NearUniform(epsilon=1.0, rounds=draw(st.integers(0, 4)))
        T0 = warmup.rounds
    if len(types) == 1:
        source = ix.Homogeneous(types[0])
    else:
        source = ix.IIDSampler(types, np.array([0.5, 0.5]))
    inst = ix.Instance(d=2, K=2, C_U=2.0, C_X=1.0, s=2, R=draw(st.sampled_from([0.3, 1.0])),
                       T=T0 + draw(st.integers(0, 4)), T0=T0, feedback=feedback)
    return ix.ExperimentConfig(
        instance=inst, prior=prior, smap=smap, policy=policy_obj, warmup=warmup,
        type_source=source, seed=draw(st.integers(0, 2**32)), replicates=1,
    )


class TestBatchInvariance:
    @settings(max_examples=40, deadline=None)
    @given(config=small_configs(), n=st.integers(1, 6), data=st.data())
    def test_single_replicate_equals_its_row_of_a_batch(self, config, n, data):
        r = data.draw(st.integers(0, n - 1))
        _assert_rows_identical(ix.run_episode(config, [r]), ix.run_episode(config, range(n)), r)


def _fresh_state_of_one(config):
    """The policy state of a batch of one before round 1."""
    if isinstance(config.policy, ix.FpsPolicy):
        return ix.FpsState(posterior=make_posterior(config.prior, 1), smap=config.smap)
    if isinstance(config.policy, ix.FlsPolicy):
        d = config.smap.dim
        return ix.FlsState(smap=config.smap, gram=ix.GramAccumulator(d, 1), moment=np.zeros((1, d)))
    return ix.UcbState.fresh(config.instance.K, config.policy.rho, 1)


class TestScalarReplay:
    """Batch-of-one calls of `sample_prior`, `generate_warmup`,
    `realize_outcome`, `expected_reward`, the policy steps and
    `policy_update`, fed `Cells` built on the reference `stream` cells,
    replay an engine episode bit for bit: the engine draws each purpose code
    from the cell that defines it."""

    @settings(max_examples=40, deadline=None)
    @given(config=small_configs(), r=st.integers(0, 5))
    def test_scalar_functions_replay_the_engine(self, config, r):
        inst, seed = config.instance, config.seed
        batch = ix.run_episode(config, [r])
        cell = lambda t, purpose: reference_cells(seed, [r], t, purpose)  # noqa: E731
        type_rows = np.stack([x.rows for x in batch.types])
        rows_at = lambda t: type_rows[batch.type_ids[:, t - 1]]  # noqa: E731
        u_star = ix.sample_prior(config.prior, cell(0, MODEL_DRAW))
        assert np.array_equal(u_star, batch.u_star)
        warmup = list(ix.generate_warmup(config.warmup, inst, rows_at, u_star, cell))
        assert len(warmup) == inst.T0
        state = _fresh_state_of_one(config)
        for c in range(inst.T):
            t, rows, arms = c + 1, rows_at(c + 1), batch.arms[:, c]
            assert np.array_equal(ix.expected_reward(u_star, rows, arms), batch.expected_rewards[:, c])
            if t <= inst.T0:
                played = warmup[c]
            else:
                pubs = np.array([batch.types[i].public_id for i in batch.type_ids[:, c]])
                s = t - inst.T0 - 1
                if isinstance(state, ix.FpsState):
                    message, u = ix.fps_step(state, pubs, cell(t, POLICY))
                    assert np.array_equal(u, batch.sampled_models[:, s])
                elif isinstance(state, ix.FlsState):
                    message, _, clamped = ix.fls_step(state, pubs)
                    assert np.array_equal(clamped, batch.clamp_flags[:, s])
                else:
                    message = ix.ucb_step(state, t).tolist()
                assert message == batch.messages[s]
                played = ix.realize_outcome(u_star, rows, arms, cell(t, NOISE), inst)
            assert np.array_equal(played.arms, arms)
            assert np.array_equal(played.rewards, batch.rewards[:, c])
            if batch.noisy is not None:
                assert np.array_equal(played.noisy, batch.noisy[:, c])
            policy_update(state, played, inst)
        engine_state = batch.policy_state
        if isinstance(state, ix.FpsState):
            mine, theirs = state.posterior, engine_state.posterior
            names = ["log_weights"] if hasattr(mine, "log_weights") else ["precision", "shift"]
            pairs = [(getattr(mine, k), getattr(theirs, k)) for k in names]
        elif isinstance(state, ix.FlsState):
            pairs = [(state.gram.matrix, engine_state.gram.matrix), (state.moment, engine_state.moment)]
        else:
            pairs = [(state.counts, engine_state.counts), (state.means, engine_state.means)]
        for a, b in pairs:
            assert np.array_equal(a, b)
