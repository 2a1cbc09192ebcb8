from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ixplore as ix
from conftest import TWO_MODELS, reference_cells, two_model_config
from ixplore import engine, streams
from ixplore.domain import RoundBatch
from ixplore.errors import ConfigError
from ixplore.policies import policy_update
from ixplore.streams import MODEL_DRAW, NOISE, POLICY

# One round of one replicate, read back from a batch.
Played = namedtuple("Played", "t type message arm reward")


def records(batch, k):
    """Row k of a batch as the `Played` rounds 1..T."""
    out = []
    for c in range(batch.arms.shape[1]):
        t = c + 1
        x = batch.types[batch.type_ids[k, c]]
        message = None if t <= batch.T0 else int(batch.messages[k, t - batch.T0 - 1])
        out.append(Played(t=t, type=x, message=message, arm=int(batch.arms[k, c]),
                          reward=float(batch.rewards[k, c])))
    return out


def rows_equal(a, k, b, j):
    """Row k of batch a and row j of batch b play the same arms, messages
    and rewards on the same model."""
    return (
        np.array_equal(a.arms[k], b.arms[j])
        and np.array_equal(a.rewards[k], b.rewards[j])
        and np.array_equal(a.messages[k], b.messages[j])
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
        assert batch.messages.shape == (1, 0)

    def test_record_count_is_horizon(self):
        cfg = two_model_config(per_arm=3, T_extra=5)
        batch = ix.run_episode(cfg, [0])
        for name in ("type_ids", "arms", "rewards", "expected_rewards", "compliance"):
            assert getattr(batch, name).shape == (1, cfg.instance.T)
        assert batch.messages.shape == (1, cfg.instance.T - cfg.instance.T0)

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
        # T0 = 8 and a plan that fills 6 rounds: rounds 7-8 would play arm 0
        # for reward 0.0 if a config could exist without its checks
        cfg = two_model_config(per_arm=4)
        with pytest.raises(ConfigError, match="occupies 6 rounds but T0 = 8"):
            ix.ExperimentConfig(**{**cfg.__dict__, "warmup": ix.RoundRobin(per_arm=3)})
        with pytest.raises(ConfigError, match="occupies 6 rounds"):
            replace(cfg, warmup=ix.RoundRobin(per_arm=3))

    def test_validate_rejects_ucb_without_embedding(self):
        cfg = two_model_config()
        x = ix.AgentType([[0.6, 0.8], [1.0, 0.0]])
        with pytest.raises(ConfigError, match="identity embedding"):
            ix.ExperimentConfig(**{
                **cfg.__dict__,
                "policy": ix.UcbPolicy(rho=1.0),
                "type_source": ix.IIDSampler((x,)),
                "smap": ix.ArgmaxDirect(representatives=(x,)),
            })

    @pytest.mark.parametrize("changes, message", [
        pytest.param({"smap": ix.SignMap()}, "sign map requires d = 1", id="sign"),
        pytest.param({"smap": ix.FullReveal(np.ones((1, 3)))}, "revealed model dimension 3 does not match d = 2",
                     id="full-reveal"),
        pytest.param({"smap": ix.ArgmaxDirect(representatives=(ix.AgentType(np.ones((2, 3))),))},
                     r"type shape \(2, 3\) does not match", id="argmax-representative"),
        pytest.param({"type_source": ix.IIDSampler((ix.AgentType(np.eye(2), public_id=1),))},
                     "every public label needs a representative", id="argmax-label"),
        pytest.param({"smap": ix.Ranking(num_arms=2),
                      "type_source": ix.IIDSampler((ix.AgentType([[0.6, 0.8], [1.0, 0.0]]),))},
                     "need a finite model set", id="ranking-non-sleeping-type"),
    ])
    def test_validate_rejects_map_that_cannot_run(self, changes, message):
        # each of these once built and then raised at the first message of a run
        with pytest.raises(ConfigError, match=message):
            replace(two_model_config(), **changes)

    def test_iid_sampler_rejects_nan_weights(self):
        # NaN passes both `w < 0` and the sum check; such a sampler once
        # built and then failed at the first type draw of a run
        x = ix.AgentType(np.eye(2))
        with pytest.raises(ValueError, match="probability vector"):
            ix.IIDSampler((x, x), [np.nan, np.nan])


class TestPosteriorMatchRoundwise:
    def test_first_round_message_frequencies(self):
        # at t = 1 with no data the message law is the prior message law
        cfg = two_model_config(per_arm=0, T_extra=1, replicates=3000, seed=5)
        batch = ix.run_replicates(cfg)
        freq = np.bincount(batch.messages[:, 0], minlength=2) / cfg.replicates
        sigma = np.sqrt(0.25 / cfg.replicates)
        assert abs(freq[0] - 0.5) <= 3 * sigma

    def test_post_warmup_message_vs_model_frequencies(self):
        # Fact-style check after warm-up: over replicates, the realized
        # message matches the law of the map applied to the true model
        cfg = two_model_config(per_arm=2, T_extra=1, replicates=4000, seed=6)
        batch = ix.run_replicates(cfg)
        from_message = np.zeros(2)
        from_model = np.zeros(2)
        for m, u in zip(batch.messages[:, 0], batch.u_star):
            from_message[m] += 1
            from_model[ix.apply_map(cfg.smap, 0, u[None])[0]] += 1
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
            type_source=ix.IIDSampler((x0,)), seed=3, replicates=2,
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
            type_source=ix.IIDSampler((x0,)), seed=3, replicates=1,
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
            if batch.messages[0, -1] == 1:
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

    def test_calls_on_one_config_share_one_nested_batch(self, monkeypatch):
        # the config keeps its table: 8 calls of one replicate each once ran
        # the nested batch 8 times
        play = engine.run_episode
        nested = []
        monkeypatch.setattr(engine, "run_episode", lambda config, *args: nested.append(config) or play(config, *args))
        config = swapped_labels_config()
        for r in range(8):
            play(config, [r])
        assert [(c.agent_model, c.replicates) for c in nested] == [("compliant", engine.ORACLE_INNER_DRAWS)]

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
            type_source=ix.IIDSampler((x0,)), seed=21, replicates=2,
        )
        batch = ix.run_replicates(cfg)
        assert batch.compliance.all()
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
            type_source=ix.IIDSampler((x0,)), seed=22, replicates=1,
        )
        batch = ix.run_episode(cfg, [0])
        assert batch.messages[0, -1] == smap.cell_indices(u_fixed)[0]

    def test_ucb_episode(self):
        x0 = ix.AgentType(np.eye(2))
        inst = ix.Instance(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=0.5, T=30, T0=4)
        cfg = ix.ExperimentConfig(
            instance=inst,
            prior=ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5])),
            smap=ix.ArgmaxDirect(representatives=(x0,)),
            policy=ix.UcbPolicy(rho=1.0),
            warmup=ix.RoundRobin(per_arm=2),
            type_source=ix.IIDSampler((x0,)), seed=23, replicates=2,
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
            type_source=ix.IIDSampler((x0,)), seed=24, replicates=1,
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
            type_source=ix.IIDSampler((x0,)), seed=25, replicates=2,
        )
        batch = ix.run_replicates(cfg)
        assert batch.compliance.all()
        # the greedy cover's two warm-up arms observe every atom
        assert rows[batch.arms[:, :inst.T0]].any(axis=1).all()

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
                for better in ix.message(cfg.smap, rec.message):
                    if better == rec.arm:
                        break
                    assert rec.type.rows[better, better] == 0.0

    def test_explicit_public_types(self):
        xa = ix.AgentType(np.eye(2), public_id=0)
        xb = ix.AgentType(np.array([[0.0, 1.0], [1.0, 0.0]]), public_id=1)
        inst = ix.Instance(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=0.8, T=10, T0=2)
        cfg = ix.ExperimentConfig(
            instance=inst,
            prior=ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5])),
            smap=ix.ArgmaxDirect(representatives=(xa, xb)),
            policy=ix.FpsPolicy(),
            warmup=ix.FixedSequence(arms=(0, 1)),
            type_source=ix.Explicit((xa, xb), (0, 1) * 5),
            seed=27, replicates=1,
        )
        batch = ix.run_episode(cfg, [0])
        assert batch.type_ids[0].tolist() == [0, 1] * 5
        # with swapped rows the same sampled model maps to the swapped arm:
        # replay the posterior on the played rounds and redraw each sample
        state = ix.fresh_state(cfg.policy, cfg.prior, cfg.smap, inst.K, 1)
        for rec in records(batch, 0):
            if rec.t > inst.T0:
                u = ix.posterior_sample(state.posterior, reference_cells(cfg.seed, [0], rec.t, POLICY))[0]
                assert rec.arm == int(np.argmax(rec.type.rows @ u))
            arm = np.array([rec.arm])
            policy_update(state, RoundBatch(arm, rec.type.rows[arm], np.array([rec.reward])), inst)


EPISODE_ARRAYS = ("u_star", "type_ids", "arms", "rewards", "expected_rewards", "compliance", "messages")


def policy_arrays(state):
    """The per-replicate arrays of a stacked policy state, by name: the
    posterior's log-weights or precision and shift, the Gram matrices and
    moments, or the counts and means."""
    if isinstance(state, ix.FpsState):
        names = ["log_weights"] if hasattr(state.posterior, "log_weights") else ["precision", "shift"]
        return {name: getattr(state.posterior, name) for name in names}
    if isinstance(state, ix.FlsState):
        return {"gram": state.gram.matrix, "moment": state.moment}
    return {"counts": state.counts, "means": state.means}


def episode_arrays(batch):
    """A batch's per-replicate arrays by name: its episode arrays, then its
    final policy state's."""
    return {**{name: getattr(batch, name) for name in EPISODE_ARRAYS}, **policy_arrays(batch.policy_state)}


def _assert_rows_identical(single, batch, r):
    """The one-replicate batch `single` holds row r of `batch`, field for field."""
    assert single.replicates == [batch.replicates[r]]
    assert len(single.types) == len(batch.types)
    assert all(a is b for a, b in zip(single.types, batch.types))
    assert single.T0 == batch.T0
    theirs = episode_arrays(batch)
    for name, a in episode_arrays(single).items():
        assert np.array_equal(a[0], theirs[name][r]), name
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
    inst = ix.Instance(d=2, K=2, C_U=2.0, C_X=1.0, s=2, R=draw(st.sampled_from([0.3, 1.0])),
                       T=T0 + draw(st.integers(0, 4)), T0=T0, feedback=feedback)
    return ix.ExperimentConfig(
        instance=inst, prior=prior, smap=smap, policy=policy_obj, warmup=warmup,
        type_source=ix.IIDSampler(types), seed=draw(st.integers(0, 2**32)), replicates=1,
    )


class TestBatchInvariance:
    @settings(max_examples=40, deadline=None)
    @given(config=small_configs(), n=st.integers(1, 6), data=st.data())
    def test_single_replicate_equals_its_row_of_a_batch(self, config, n, data):
        r = data.draw(st.integers(0, n - 1))
        _assert_rows_identical(ix.run_episode(config, [r]), ix.run_episode(config, range(n)), r)


class TestScalarReplay:
    """Batch-of-one calls of `sample_prior`, `generate_warmup`,
    `realize_outcome`, `expected_reward`, `policy_step` and
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
        warmup = list(ix.generate_warmup(config.warmup, inst, batch.types[0].rows, cell, 1))
        assert len(warmup) == inst.T0
        state = ix.fresh_state(config.policy, config.prior, config.smap, inst.K, 1)
        for c in range(inst.T):
            t, rows, arms = c + 1, rows_at(c + 1), batch.arms[:, c]
            assert np.array_equal(ix.expected_reward(u_star, rows, arms), batch.expected_rewards[:, c])
            if t <= inst.T0:
                assert np.array_equal(warmup[c], arms)
            else:
                pubs = np.array([batch.types[i].public_id for i in batch.type_ids[:, c]])
                message = ix.policy_step(state, t, pubs, cell(t, POLICY))
                assert np.array_equal(message, batch.messages[:, t - inst.T0 - 1])
            played = ix.realize_outcome(u_star, rows, arms, cell(t, NOISE), inst)
            assert np.array_equal(played.arms, arms)
            assert np.array_equal(played.rewards, batch.rewards[:, c])
            policy_update(state, played, inst)
        theirs = policy_arrays(batch.policy_state)
        for name, a in policy_arrays(state).items():
            assert np.array_equal(a, theirs[name]), name


BOX_TYPES = (ix.AgentType(np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]]), public_id=0),
             ix.AgentType(np.array([[0.8, -0.6], [0.0, 1.0], [-0.6, 0.8]]), public_id=1))


def box_config(T=120, warmup=ix.RoundRobin(per_arm=2), T0=6, seed=3000):
    """The uniform-box, 4x4-hypercube config of the run benchmark, 16 replicates."""
    return ix.ExperimentConfig(
        instance=ix.Instance(d=2, K=3, C_U=1.5, C_X=1.0, s=2, R=1.0, T=T, T0=T0),
        prior=ix.UniformBoxPrior(np.zeros(2), np.ones(2)),
        smap=ix.HypercubeCover(origin=np.zeros(2), cell_radius=0.125, grid_extents=(4, 4)),
        policy=ix.FpsPolicy(), warmup=warmup, type_source=ix.IIDSampler(BOX_TYPES),
        seed=seed, replicates=16,
    )


SWAPPED_TYPES = (ix.AgentType(np.eye(2)), ix.AgentType(np.eye(2)[::-1], public_id=1))
WINDOW_CONFIGS = {
    "box": box_config(),
    "box-no-warmup": box_config(warmup=ix.RoundRobin(per_arm=0), T0=0, seed=41),
    "box-near-uniform": box_config(warmup=ix.NearUniform(epsilon=1.0, rounds=6), seed=42),
    "discrete": replace(two_model_config(per_arm=2, T_extra=60, seed=43, replicates=16),
                        smap=ix.ArgmaxDirect(representatives=SWAPPED_TYPES), type_source=ix.IIDSampler(SWAPPED_TYPES)),
}


class TestWindows:
    """A batch of n replicates draws its cells a window of 2048 // n rounds
    at a time, and plays the episode it plays with one-round windows, where
    every draw is direct, and the one its rows play in any other batch."""

    @pytest.mark.parametrize("name", sorted(WINDOW_CONFIGS))
    def test_windows_move_no_draw(self, monkeypatch, name):
        config = WINDOW_CONFIGS[name]
        sizes = (0, 1, 16, 63, 64, 100, 1000)  # windows of 2048 rounds down to 2, an empty batch's too
        episodes = [ix.run_episode(config, range(n)) for n in sizes]
        monkeypatch.setattr(streams, "WINDOW_CELLS", 1)
        episodes += [ix.run_episode(config, range(n)) for n in sizes]
        monkeypatch.setattr(streams, "WINDOW_CELLS", 5 * 16)  # windows of five rounds
        episodes.append(ix.run_episode(config, range(16)))
        widest = episode_arrays(episodes[len(sizes) - 1])
        for batch in episodes:
            n = len(batch.replicates)
            for field, b in episode_arrays(batch).items():
                assert np.array_equal(widest[field][:n], b), field

    def test_windows_rekey_few_cells(self, monkeypatch):
        """The box config at T = 100 re-keys 175-245 cells at seeds 3000-3002
        and 7 (281-354 when the first screen stage read 10 words per row): a
        row's proposals past the first eight, one window block in two
        dimensions, whose later screen stages read 64 words or more per row,
        wider than a window block, so each stage a row reaches re-keys it.
        Every narrower slice, the first stage and the model draw included,
        comes from the window's blocks."""
        rekeyed = [0]
        at = streams.StreamFamily.at

        def counting(self, *args):
            rekeyed[0] += 1
            return at(self, *args)

        monkeypatch.setattr(streams.StreamFamily, "at", counting)
        ix.run_episode(box_config(T=100), range(16))
        assert rekeyed[0] < 300


CHUNK_CONFIGS = {
    # every chunk reads the one oracle table the config builds and keeps
    "discrete-oracle": swapped_labels_config(),
    "gaussian": replace(two_model_config(per_arm=2, T_extra=4, seed=44),
                        prior=ix.GaussianPrior(np.array([0.3, 0.1]), np.array([[1.0, 0.2], [0.2, 0.5]])),
                        smap=ix.ArgmaxDirect(representatives=SWAPPED_TYPES), type_source=ix.IIDSampler(SWAPPED_TYPES)),
    "box": box_config(T=10, seed=45),
    "box-fls": replace(box_config(T=10, seed=46), policy=ix.FlsPolicy()),
}


class TestChunks:
    """Consecutive chunks of replicates play what one batch plays, whatever
    the cut points: a chunk of n replicates draws windows of 2048 // n
    rounds, so chunks of different sizes cut their windows at different
    rounds."""

    @pytest.mark.parametrize("name", sorted(CHUNK_CONFIGS))
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 200), data=st.data())
    def test_concatenated_chunks_equal_one_batch(self, name, n, data):
        config = CHUNK_CONFIGS[name]
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=5)) if n > 1 else set())
        bounds = [0, *cuts, n]
        whole = ix.run_episode(config, range(n))
        chunks = [ix.run_episode(config, range(a, b)) for a, b in zip(bounds, bounds[1:])]
        assert sum((c.replicates for c in chunks), []) == whole.replicates == list(range(n))
        parts = [episode_arrays(c) for c in chunks]
        for field, a in episode_arrays(whole).items():
            assert np.array_equal(np.concatenate([p[field] for p in parts]), a), field

    def test_run_chunks_tile_the_replicates(self, monkeypatch):
        monkeypatch.setattr(engine, "CHUNK", 7)
        config = replace(CHUNK_CONFIGS["gaussian"], replicates=30)
        sizes = [len(batch.replicates) for batch in engine.run_chunks(config)]
        assert sizes == [7, 7, 7, 7, 2]
