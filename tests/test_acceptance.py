"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import time

import numpy as np
import pytest

import ixplore as ix
from conftest import two_model_config, write_config
from ixplore.cli import main as cli_main
from ixplore.domain import RoundBatch
from ixplore.priors import make_posterior
from ixplore.spectral import GramAccumulator


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:>2} {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_01_posterior_match_first_round():
    started = time.time()
    models = np.array([
        [0.9, 0.2, 0.1],
        [0.1, 0.8, 0.3],
        [0.2, 0.3, 0.7],
        [0.6, 0.5, 0.4],
    ])
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    x0 = ix.AgentType(np.eye(3))
    prior = ix.DiscretePrior(models, weights)
    smap = ix.ArgmaxDirect(representatives=(x0,))
    inst = ix.Instance(d=3, K=3, C_U=1.5, C_X=1.0, s=3, R=1.0, T=1, T0=0)
    cfg = ix.ExperimentConfig(
        instance=inst, prior=prior, smap=smap, policy=ix.FpsPolicy(),
        warmup=ix.RoundRobin(per_arm=0), type_source=ix.Homogeneous(x0),
        seed=1001, replicates=10**4,
    )
    exact = ix.message_distribution(make_posterior(prior, 1), smap, 0).probs[0]
    counts = np.zeros(3)
    for message in ix.run_replicates(cfg).messages[0]:
        counts[message] += 1
    n = cfg.replicates
    freqs = counts / n
    deviations = np.abs(freqs - exact)
    bounds = 3.0 * np.sqrt(exact * (1.0 - exact) / n)
    elapsed = time.time() - started
    ok = bool(np.all(deviations <= bounds)) and elapsed < 30.0
    report(1, "first-round message frequencies match the prior law",
           ok, f"max dev {deviations.max():.4f} vs bound {bounds.min():.4f}, {elapsed:.1f}s")


def test_criterion_02_round_one_audit_identity():
    cfg = two_model_config(per_arm=0, T_extra=1, replicates=1, seed=1002)
    est = ix.estimate_primitives(cfg.prior, cfg.smap, [cfg.type_source.x0])
    audit = ix.audit_bic(cfg, t=1, replicates=32, eps_verdict=0.3, mode="exact")
    worst = 0.0
    for cell in audit.cells:
        expected = est.cells[(0, cell.message)].gaps[cell.j]
        worst = max(worst, abs(cell.mean - expected))
    report(2, "exact-assisted round-1 audit equals the exact gap table",
           worst <= 1e-12, f"max abs diff {worst:.2e}")


def test_criterion_03_warmup_prescription_desk_reproduction():
    started = time.time()
    cfg = two_model_config(per_arm=4, T_extra=1, replicates=1, seed=1003)
    est = ix.estimate_primitives(cfg.prior, cfg.smap, [cfg.type_source.x0])
    assert est.eps_TS == pytest.approx(0.6)
    assert est.delta_TS == pytest.approx(0.5)
    thresholds = ix.compute_thresholds(est, cfg.instance, scenario=1, c_cal=1.0)
    assert thresholds.N_TS_ceil == 4
    audit = ix.audit_bic(cfg, t=9, replicates=10**4, eps_verdict=0.3)
    lo = audit.min_gap_cell.ci_lo
    elapsed = time.time() - started
    clears_theory = lo > 0.3
    ok = lo > 0.0 and elapsed < 120.0
    report(3, "prescribed warm-up makes the audited minimum gap positive", ok,
           f"min_gap {audit.min_gap_cell.mean:.4f}, CI lower {lo:.4f}, "
           f"clears eps_TS/2=0.3: {clears_theory}, {elapsed:.1f}s")


def test_criterion_04_ranking_message_probability():
    prior = ix.UniformBoxPrior(np.zeros(3), np.ones(3))
    smap = ix.Ranking(num_arms=3)
    x0 = ix.AgentType(np.eye(3))
    est = ix.estimate_primitives(prior, smap, [x0], n_samples=10**5, seed=1004)
    target = 1.0 / 6.0
    ok = abs(est.delta_TS - target) <= 0.02
    report(4, "uniform-cube ranking messages have minimum probability 1/K!",
           ok, f"delta_TS {est.delta_TS:.4f} vs 1/6 = {target:.4f}")


def test_criterion_05_eigenvalue_growth_under_near_uniform():
    d = 4
    lam0 = 1.0 / d  # each type has orthonormal rows, so E[(1/K) sum xx^T] = I/K
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    types = (ix.AgentType(np.eye(d)), ix.AgentType(q))
    inst = ix.Instance(d=d, K=d, C_U=2.0, C_X=1.0, s=d, R=1.0, T=1000, T0=1000)
    cfg = ix.ExperimentConfig(
        instance=inst,
        prior=ix.GaussianPrior(np.zeros(d), np.eye(d)),
        smap=ix.ArgmaxDirect(representatives=(types[0],)),
        policy=ix.FpsPolicy(),
        warmup=ix.NearUniform(epsilon=1.0, rounds=1000),
        type_source=ix.IIDSampler(types, np.array([0.5, 0.5])),
        seed=1005,
        replicates=20,
    )
    passes = 0
    slopes = []
    snapshots = ix.lambda_snapshots(ix.run_replicates(cfg))
    for k in range(cfg.replicates):
        points = [(t, lam[k]) for t, lam, _ in snapshots if 100 <= t <= 1000]
        ts, lams = zip(*points)
        slope = float(np.polyfit(ts, lams, 1)[0])
        slopes.append(slope)
        passes += slope >= 0.5 * 1.0 * lam0
    ok = passes >= 18
    report(5, "near-uniform warm-up grows the minimum eigenvalue linearly",
           ok, f"{passes}/20 replicates, median slope {np.median(slopes):.3f} vs 0.5*lam0 = {0.5*lam0:.3f}")


def test_criterion_06_hadamard_dominance():
    rng = np.random.default_rng(1006)
    violations = 0
    checked = 0
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 40))
        acc = GramAccumulator(d, 1)
        for f in rng.normal(size=(n, d)):
            acc.absorb(f[None])
        lam = acc.min_eigen()[0]
        if lam > 0:
            checked += 1
            if acc.diag_min()[0] < lam - 1e-9:
                violations += 1
    report(6, "diagonal minimum dominates the minimum eigenvalue",
           violations == 0, f"{checked} positive-definite histories, {violations} violations")


def test_criterion_07_eta_identity():
    prior = ix.UniformBoxPrior(np.zeros(2), np.ones(2))
    smap = ix.HypercubeCover(origin=np.zeros(2), cell_radius=0.125, grid_extents=(4, 4))
    x0 = ix.AgentType([[0.6, 0.8], [1.0, 0.0]])
    est = ix.estimate_primitives(prior, smap, [x0])
    inst = ix.Instance(d=2, K=2, C_U=2.0, C_X=1.0, s=2, R=1.0, T=10, T0=0)
    thresholds = ix.compute_thresholds(est, inst, scenario=1)
    report(7, "uniform prior over a perfectly tiled box gives eta = 1 exactly",
           thresholds.eta == 1.0, f"eta = {thresholds.eta!r}")


def test_criterion_08_gaussian_posterior_vs_quadrature():
    mean0 = np.array([0.3, -0.2])
    cov0 = np.array([[1.0, 0.3], [0.3, 0.8]])
    R = 0.7
    rng = np.random.default_rng(1008)
    u_true = np.array([0.5, 0.4])
    inst = ix.Instance(d=2, K=2, C_U=2.0, C_X=2.0, s=2, R=R, T=20, T0=0)
    state = make_posterior(ix.GaussianPrior(mean0, cov0), 1)
    feats, ys = [], []
    for _ in range(10):
        feat = rng.normal(size=2)
        feat /= np.linalg.norm(feat)
        y = float(feat @ u_true + R * rng.normal())
        state = ix.posterior_update(state, RoundBatch(np.array([0]), feat[None], np.array([y])), inst)
        feats.append(feat)
        ys.append(y)
    # quadrature oracle on a 400 x 400 grid over the +-6 sigma prior box
    sig = np.sqrt(np.diag(cov0))
    axes = [np.linspace(mean0[j] - 6 * sig[j], mean0[j] + 6 * sig[j], 400) for j in range(2)]
    gx, gy = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    prec0 = np.linalg.inv(cov0)
    diff = grid - mean0
    logw = -0.5 * np.einsum("ij,jk,ik->i", diff, prec0, diff)
    for feat, y in zip(feats, ys):
        sigma = R * np.linalg.norm(feat)
        logw += -0.5 * ((y - grid @ feat) / sigma) ** 2
    w = np.exp(logw - logw.max())
    oracle_mean = (w[:, None] * grid).sum(axis=0) / w.sum()
    err = float(np.max(np.abs(state.mean[0] - oracle_mean)))
    report(8, "conjugate posterior mean matches grid quadrature",
           err < 1e-3, f"max abs diff {err:.2e}")


def test_criterion_09_warmup_monotonicity_of_incentives():
    cells = []
    for per_arm in (0, 1, 4, 16):
        cfg = two_model_config(per_arm=per_arm, T_extra=1, replicates=1, seed=1009)
        audit = ix.audit_bic(cfg, t=cfg.instance.T0 + 1, replicates=4000, eps_verdict=0.3)
        cells.append(audit.min_gap_cell)
    ok = True
    for prev, nxt in zip(cells, cells[1:]):
        if nxt.ci_hi < prev.ci_lo:
            ok = False
    detail = ", ".join(f"{c.mean:.3f}" for c in cells)
    report(9, "audited minimum gap grows with warm-up size", ok, f"min_gap trend [{detail}]")


def test_criterion_10_worker_count_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, replicates=8,
                 instance={"d": 2, "K": 2, "C_U": 1.0, "C_X": 1.0, "s": 2, "R": 1.0,
                           "T": 12, "T0": 4, "feedback": "bandit"},
                 warmup={"kind": "round_robin", "per_arm": 2},
                 output={"dir": str(tmp_path / "w1"), "formats": ["csv"]})
    assert cli_main(["run", str(cfg), "--workers", "1"]) == 0
    bytes1 = (tmp_path / "w1" / "rounds.csv").read_bytes()
    write_config(cfg, replicates=8,
                 instance={"d": 2, "K": 2, "C_U": 1.0, "C_X": 1.0, "s": 2, "R": 1.0,
                           "T": 12, "T0": 4, "feedback": "bandit"},
                 warmup={"kind": "round_robin", "per_arm": 2},
                 output={"dir": str(tmp_path / "w8"), "formats": ["csv"]})
    assert cli_main(["run", str(cfg), "--workers", "8"]) == 0
    bytes8 = (tmp_path / "w8" / "rounds.csv").read_bytes()
    report(10, "CSV output is byte-identical for 1 and 8 workers",
           bytes1 == bytes8, f"{len(bytes1)} bytes")


def test_criterion_11_greedy_ucb_coherence():
    rng = np.random.default_rng(1011)
    mismatches = 0
    for _ in range(1000):
        K = int(rng.integers(2, 7))
        state = ix.UcbState(rho=0.0,
                            counts=rng.integers(1, 100, size=(1, K)),
                            means=rng.normal(size=(1, K)))
        t = int(rng.integers(2, 10**4))
        if ix.ucb_step(state, t)[0] != int(np.argmax(state.means[0])):
            mismatches += 1
    report(11, "zero-exploration index policy reduces to the empirical argmax",
           mismatches == 0, f"{mismatches} mismatches in 1000 states")
