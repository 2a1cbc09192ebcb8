import numpy as np
import pytest

import ixplore as ix
from conftest import TWO_MODELS, two_model_config
from ixplore.audit import (
    VERDICT_BIC,
    VERDICT_LOW_POWER,
    VERDICT_STRONG,
    VERDICT_VIOLATED,
    VERDICT_WEAK,
    AuditCell,
    _min_gap_cell,
    _verdict,
    sample_prior_batch,
)
from ixplore.errors import UndefinedThresholdError, UnsupportedOperationError
from ixplore.priors import make_posterior

IDENTITY = ix.AgentType(np.eye(2))


def two_model_est(**kw):
    prior = ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5]))
    smap = ix.ArgmaxDirect(representatives=(IDENTITY,))
    return ix.estimate_primitives(prior, smap, [IDENTITY], **kw)


class TestEstimatePrimitivesExact:
    def test_two_model_table(self):
        est = two_model_est()
        assert est.mode == "exact"
        assert est.gap_convention == "positive_part"  # binary rows
        assert est.delta_TS == pytest.approx(0.5)
        assert est.eps_TS == pytest.approx(0.6)
        cell0 = est.cells[(0, 0)]
        cell1 = est.cells[(0, 1)]
        assert cell0.i == 0 and cell0.gaps[1] == pytest.approx(0.8)
        assert cell1.i == 1 and cell1.gaps[0] == pytest.approx(0.6)

    def test_point_mass_prior(self):
        prior = ix.DiscretePrior(TWO_MODELS, np.array([1.0, 0.0]))
        smap = ix.ArgmaxDirect(representatives=(IDENTITY,))
        est = ix.estimate_primitives(prior, smap, [IDENTITY])
        # delta_TS is reported over messages the prior can produce; the
        # unproducible message is listed and voids thresholds downstream
        assert est.delta_TS == pytest.approx(1.0)
        assert est.cells[(0, 0)].prob == pytest.approx(1.0)
        assert (0, 1) in est.zero_probability_messages

    def test_signed_convention_for_general_rows(self):
        x = ix.AgentType([[0.6, 0.8], [1.0, 0.0]])
        prior = ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5]))
        smap = ix.ArgmaxDirect(representatives=(x,))
        est = ix.estimate_primitives(prior, smap, [x])
        assert est.gap_convention == "signed"

    def test_uniform_hypercube_exact(self):
        prior = ix.UniformBoxPrior(np.zeros(2), np.ones(2))
        smap = ix.HypercubeCover(origin=np.zeros(2), cell_radius=0.25, grid_extents=(2, 2))
        x = ix.AgentType([[0.6, 0.8], [1.0, 0.0]])
        est = ix.estimate_primitives(prior, smap, [x])
        assert est.mode == "exact"
        assert est.delta_TS == pytest.approx(0.25)
        assert est.eta_exact_one
        # cell gaps come from cell centroids
        c = est.cells[(0, 0)]
        centroid = np.array([0.25, 0.25])
        expected = (x.rows[c.i] - x.rows) @ centroid
        assert c.gaps == pytest.approx(expected)

    def test_exact_needs_supported_family(self):
        prior = ix.GaussianPrior(np.zeros(2), np.eye(2))
        smap = ix.ArgmaxDirect(representatives=(IDENTITY,))
        with pytest.raises(UnsupportedOperationError):
            ix.estimate_primitives(prior, smap, [IDENTITY])


class TestEstimatePrimitivesMonteCarlo:
    def test_matches_exact_within_ci(self):
        exact = two_model_est()
        mc = two_model_est(n_samples=10**5, seed=1)
        assert mc.mode == "monte_carlo"
        for key, cell in exact.cells.items():
            est_cell = mc.cells[key]
            for j in range(2):
                if j == cell.i:
                    continue
                assert abs(est_cell.gaps[j] - cell.gaps[j]) <= est_cell.ci_half[j] + 1e-12
        assert abs(mc.delta_TS - exact.delta_TS) <= 0.01
        assert abs(mc.eps_TS - exact.eps_TS) <= 0.02

    def test_unestimated_bins_are_listed(self):
        prior = ix.DiscretePrior(TWO_MODELS, np.array([1.0, 0.0]))
        smap = ix.ArgmaxDirect(representatives=(IDENTITY,))
        est = ix.estimate_primitives(prior, smap, [IDENTITY], n_samples=500)
        assert (0, 1) in est.unestimated

    def test_delta_ts_cross_module_consistency(self):
        est = two_model_est()
        prior = ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5]))
        smap = ix.ArgmaxDirect(representatives=(IDENTITY,))
        dist = ix.message_distribution(make_posterior(prior, 1), smap, 0)
        assert est.delta_TS == float(dist.probs.min())

    def test_batch_sampler_families(self):
        rng = np.random.default_rng(3)
        for prior in (
            ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5])),
            ix.GaussianPrior(np.zeros(2), np.eye(2)),
            ix.UniformBoxPrior(np.zeros(2), np.ones(2)),
            ix.UniformBallPrior(1.0, 2),
        ):
            out = sample_prior_batch(prior, 64, rng)
            assert out.shape == (64, 2)


class TestThresholds:
    def test_n_ts_example(self):
        est = two_model_est()
        inst = two_model_config().instance
        th = ix.compute_thresholds(est, inst, scenario=1, c_cal=1.0)
        assert th.N_TS == pytest.approx(np.log(4.0) / 0.36, rel=1e-12)
        assert th.N_TS_ceil == 4

    def test_lambda_example(self):
        est = two_model_est()
        inst = two_model_config(R=1.0).instance  # C_X = R = 1
        th = ix.compute_thresholds(est, inst, scenario=1, c_cal=1.0)
        assert th.lambda_at(0.1) == pytest.approx(100.0 * np.log(4.0), rel=1e-12)

    def test_lambda_monotone_in_eps_and_D(self):
        est = two_model_est()
        inst = two_model_config().instance
        th1 = ix.compute_thresholds(est, inst, scenario=1)
        grid = np.linspace(0.05, 1.0, 20)
        values = [th1.lambda_at(e) for e in grid]
        assert all(b < a for a, b in zip(values, values[1:]))
        th2 = ix.compute_thresholds(est, inst, scenario=2)
        assert th2.D > th1.D
        assert all(th2.lambda_at(e) > th1.lambda_at(e) for e in grid)

    def test_scenario_formulas(self):
        inst = ix.Instance(d=3, K=2, C_U=1.5, C_X=2.0, s=2, R=0.7, T=100, T0=0,
                           feedback="semibandit")
        from ixplore.audit import scenario_D

        assert scenario_D(inst, 1) == pytest.approx(2.0**2 * 0.7**2)
        assert scenario_D(inst, 2) == pytest.approx(
            3 * (0.7 * 2.0 + 1.5) ** 2 * np.log(4.0 * 100 + 3)
        )
        assert scenario_D(inst, 3) == pytest.approx(2 * 0.7**2)

    def test_scenario3_requires_semibandit(self):
        est = two_model_est()
        inst = two_model_config().instance
        with pytest.raises(UndefinedThresholdError):
            ix.compute_thresholds(est, inst, scenario=3)

    def test_unproducible_message_voids_thresholds(self):
        prior = ix.DiscretePrior(TWO_MODELS, np.array([1.0, 0.0]))
        smap = ix.ArgmaxDirect(representatives=(IDENTITY,))
        est = ix.estimate_primitives(prior, smap, [IDENTITY])
        inst = two_model_config().instance
        with pytest.raises(UndefinedThresholdError):
            ix.compute_thresholds(est, inst, scenario=1)

    def test_eps_ucb_and_n_ucb(self):
        est = two_model_est()
        inst = two_model_config().instance
        th = ix.compute_thresholds(est, inst, scenario=1, c_cal=1.0, alpha_margin=1.0, rho=0.5)
        eps_ucb = 0.6 * 0.5 / 2.0
        assert th.eps_UCB == pytest.approx(eps_ucb)
        expected = 3.0 / eps_ucb**2 * np.log(1.0 / eps_ucb)
        expected += 0.5 * np.log(inst.T) / eps_ucb**2
        assert th.N_UCB == pytest.approx(expected)

    def test_eta_identity_uniform_tiled_box(self):
        prior = ix.UniformBoxPrior(np.zeros(2), np.ones(2))
        smap = ix.HypercubeCover(origin=np.zeros(2), cell_radius=0.25, grid_extents=(2, 2))
        x = ix.AgentType([[0.6, 0.8], [1.0, 0.0]])
        est = ix.estimate_primitives(prior, smap, [x])
        inst = ix.Instance(d=2, K=2, C_U=2.0, C_X=1.0, s=2, R=1.0, T=10, T0=0)
        th = ix.compute_thresholds(est, inst, scenario=1)
        assert th.eta == 1.0  # exact equality

    def test_eta_general_formula(self):
        # imperfect tiling: cover only the lower-left quadrant of the prior box
        prior = ix.UniformBoxPrior(np.zeros(2), 2.0 * np.ones(2))
        smap = ix.HypercubeCover(origin=np.zeros(2), cell_radius=0.25, grid_extents=(2, 2))
        x = ix.AgentType([[0.6, 0.8], [1.0, 0.0]])
        est = ix.estimate_primitives(prior, smap, [x])
        inst = ix.Instance(d=2, K=2, C_U=3.0, C_X=1.0, s=2, R=1.0, T=10, T0=0)
        th = ix.compute_thresholds(est, inst, scenario=1)
        # every cell mass = 0.25 / 4 = 1/16; (2 eps)^2 sup f = 0.25 / 4
        assert th.eta == pytest.approx(1.0)
        assert not est.eta_exact_one


class TestGEpsilon:
    def test_formula(self):
        est = two_model_est()
        value = ix.g_epsilon(est, 0.1)
        assert value == pytest.approx(0.6 - 0.025 * np.sqrt(2.0), rel=1e-12)

    def test_eps_zero_is_min_gap(self):
        est = two_model_est()
        assert ix.g_epsilon(est, 0.0) == pytest.approx(0.6)

    def test_non_increasing_on_grid(self):
        est = two_model_est()
        grid = np.linspace(0.0, 2.0, 20)
        values = [ix.g_epsilon(est, e) for e in grid]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_unestimated_cells_error(self):
        prior = ix.DiscretePrior(TWO_MODELS, np.array([1.0, 0.0]))
        smap = ix.ArgmaxDirect(representatives=(IDENTITY,))
        est = ix.estimate_primitives(prior, smap, [IDENTITY], n_samples=200)
        with pytest.raises(UnsupportedOperationError):
            ix.g_epsilon(est, 0.1)


class TestVerdicts:
    def cell(self, lo, hi):
        mean = 0.5 * (lo + hi)
        return AuditCell(0, 0, 0, 1, 100, mean, lo, hi, False)

    def test_ci_position_rules(self):
        assert _verdict(self.cell(0.35, 0.5), 0.3) == VERDICT_STRONG
        assert _verdict(self.cell(0.05, 0.5), 0.3) == VERDICT_BIC
        assert _verdict(self.cell(-0.1, 0.5), 0.3) == VERDICT_WEAK
        assert _verdict(self.cell(-0.5, -0.1), 0.3) == VERDICT_VIOLATED
        assert _verdict(None, 0.3) == VERDICT_LOW_POWER

    def test_rules_on_the_lowest_bound_not_the_lowest_mean(self):
        tight = AuditCell(0, 0, 0, 1, 400, 0.30, 0.28, 0.32, False)
        wide = AuditCell(0, 1, 1, 0, 40, 0.50, 0.10, 0.90, False)
        weak = AuditCell(1, 0, 0, 1, 20, 0.0, -0.5, 0.5, True)
        cell = _min_gap_cell([tight, wide, weak])
        assert cell is wide
        assert _verdict(cell, 0.2) == VERDICT_BIC
        assert _min_gap_cell([weak]) is None

    def test_widening_ci_only_weakens(self):
        order = [VERDICT_STRONG, VERDICT_BIC, VERDICT_WEAK, VERDICT_VIOLATED]
        mean = 0.35
        last = 0
        for half in (0.01, 0.2, 0.5, 1.0):
            v = _verdict(self.cell(mean - half, mean + half), 0.3)
            assert order.index(v) >= last
            last = order.index(v)


class TestAuditBic:
    def test_round_one_exact_identity(self):
        cfg = two_model_config(per_arm=0, T_extra=1, replicates=1)
        est = two_model_est()
        report = ix.audit_bic(cfg, t=1, replicates=16, eps_verdict=0.3, mode="exact")
        for cell in report.cells:
            expected = est.cells[(0, cell.message)].gaps[cell.j]
            assert abs(cell.mean - expected) <= 1e-12
            assert cell.ci_hi - cell.ci_lo <= 1e-12

    def test_point_mass_zero_width(self):
        x0 = IDENTITY
        prior = ix.DiscretePrior(TWO_MODELS, np.array([1.0, 0.0]))
        inst = ix.Instance(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=1.0, T=1, T0=0)
        cfg = ix.ExperimentConfig(
            instance=inst, prior=prior,
            smap=ix.ArgmaxDirect(representatives=(x0,)),
            policy=ix.FpsPolicy(), warmup=ix.RoundRobin(per_arm=0),
            type_source=ix.Homogeneous(x0), seed=2, replicates=1,
        )
        report = ix.audit_bic(cfg, t=1, replicates=64, eps_verdict=0.8, mode="mc")
        cell = report.min_gap_cell
        assert cell.mean == pytest.approx(0.8)
        assert cell.ci_hi - cell.ci_lo == pytest.approx(0.0, abs=1e-12)
        assert report.verdict == VERDICT_STRONG
        assert any("empty bin" in f for f in report.flags)

    def test_mc_audit_positive_after_warmup(self):
        cfg = two_model_config(per_arm=4, T_extra=1, replicates=1, seed=3)
        mc = ix.audit_bic(cfg, t=9, replicates=600, eps_verdict=0.0)
        assert mc.verdict in (VERDICT_BIC, VERDICT_STRONG)
        assert mc.min_gap_cell.ci_lo > 0.0

    def test_bin_counts_sum_to_replicates(self):
        cfg = two_model_config(per_arm=1, T_extra=1, replicates=1, seed=4)
        report = ix.audit_bic(cfg, t=3, replicates=200, eps_verdict=0.1)
        per_message = {}
        for cell in report.cells:
            per_message[cell.message] = cell.n_eff
        assert sum(per_message.values()) == 200

    def test_low_power_flagging(self):
        cfg = two_model_config(per_arm=1, T_extra=1, replicates=1, seed=5)
        report = ix.audit_bic(cfg, t=3, replicates=20, eps_verdict=0.1)
        assert report.verdict == VERDICT_LOW_POWER
        assert all(c.low_power for c in report.cells)

    def test_requires_post_warmup_round(self):
        cfg = two_model_config(per_arm=2, T_extra=1)
        with pytest.raises(ValueError):
            ix.audit_bic(cfg, t=3, replicates=10, eps_verdict=0.1)

    def test_report_serializes(self):
        import json

        cfg = two_model_config(per_arm=1, T_extra=1, replicates=1, seed=6)
        report = ix.audit_bic(cfg, t=3, replicates=50, eps_verdict=0.1)
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["t"] == 3
        assert payload["replicates"] == 50
        assert len(payload["cells"]) == len(report.cells)

    def test_ci_width_shrinks_with_replicates(self):
        cfg = two_model_config(per_arm=1, T_extra=1, replicates=1, seed=7)
        small = ix.audit_bic(cfg, t=3, replicates=500, eps_verdict=0.1)
        large = ix.audit_bic(cfg, t=3, replicates=2000, eps_verdict=0.1)

        def widths(report):
            return {(c.type_index, c.message, c.j): c.ci_hi - c.ci_lo for c in report.cells}

        w_small, w_large = widths(small), widths(large)
        for key, wide in w_small.items():
            ratio = wide / w_large[key]
            assert 1.5 <= ratio <= 2.7  # expect about sqrt(4) = 2
