"""Known-answer MC audits: cells held to a closed form.

Take a Gaussian prior N(m0, S0), K = d = 2 identity arms, the argmax map,
FPS, and a round-robin warm-up of n plays per arm, and audit round
t = T0 + 1. Each arm's n plays observe its coordinate of u* with noise R,
so the round-t posterior covariance is P = (S0^-1 + n I / R^2)^-1 whatever
the data. The posterior mean mu is N(m0, S0 - P) over replicates, the
sampled model mu + N(0, P), and message i is sent when a . (sampled model)
> 0 for a = e_i - e_j. With v1 = a'(S0 - P)a, v2 = a'Pa, s = sqrt(v1 + v2)
and z = a'm0 / s,

    E[gap(u*) | message i] = a'm0 + (v1 / s) phi(z) / Phi(z),

the second term being what the message reveals about u* through mu.
"""

import math

import numpy as np
import pytest

import ixplore as ix

M0 = np.array([0.3, 0.0])
S0 = np.array([[1.0, 0.3], [0.3, 0.5]])
R = 1.0
REPLICATES = 100_000
Z_95 = 1.959963984540054
BOUND_SE = 4.0


def exact_gap(n: int, i: int, selection: bool = True) -> float:
    """E[(e_i - e_j) . u* | message i] after n warm-up plays per arm; without
    `selection`, only its prior term a'm0."""
    a = np.eye(2)[i] - np.eye(2)[1 - i]
    P = np.linalg.inv(np.linalg.inv(S0) + n * np.eye(2) / R**2)
    v1, v2 = a @ (S0 - P) @ a, a @ P @ a
    s = math.sqrt(v1 + v2)
    z = a @ M0 / s
    phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    Phi = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    return float(a @ M0 + (v1 / s * phi / Phi if selection else 0.0))


def audited_cells(n: int, seed: int, replicates: int = REPLICATES) -> list:
    x = ix.AgentType(np.eye(2))
    config = ix.ExperimentConfig(
        instance=ix.Instance(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=R, T=2 * n + 1, T0=2 * n),
        prior=ix.GaussianPrior(M0, S0),
        smap=ix.ArgmaxDirect(representatives=(x,)),
        policy=ix.FpsPolicy(),
        warmup=ix.RoundRobin(per_arm=n),
        type_source=ix.IIDSampler((x,)),
        seed=seed,
    )
    report = ix.audit_bic(config, t=2 * n + 1, replicates=replicates, eps_verdict=0.1)
    assert sorted(c.i for c in report.cells) == [0, 1]
    return report.cells


def z_score(cell, target: float) -> float:
    se = (cell.ci_hi - cell.ci_lo) / (2.0 * Z_95)
    return (cell.mean - target) / se


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("n", [0, 1, 4])
def test_mc_cells_match_the_closed_form(n, seed):
    """Every cell lies within 4 standard errors of its exact value; at 10^5
    replicates these 12 cells read |z| <= 2.06 (message 1 at n = 1: 0.0300
    and 0.0339 against 0.0287)."""
    for cell in audited_cells(n, seed):
        assert abs(z_score(cell, exact_gap(n, cell.i))) <= BOUND_SE


def test_the_bound_rejects_the_gap_without_selection():
    """At n = 4 the message carries the warm-up's information, and the same
    bound rejects a'm0, the formula without its selection term, in every
    cell (message 1's gap is 0.330, not -0.3)."""
    for cell in audited_cells(4, 7):
        assert abs(z_score(cell, exact_gap(4, cell.i, selection=False))) > BOUND_SE


def test_mc_intervals_cover_the_closed_form():
    """The audit's 95% intervals cover the exact gap at their nominal rate:
    seeds 100-139 at n = 0, 1 and 4 give 240 cells at 5,000 replicates, of
    which 229 cover (73, 77 and 79 of 80 per n). At least 216 (0.90) must;
    the same intervals at half their width cover 162."""
    covered = [
        cell.ci_lo <= exact_gap(n, cell.i) <= cell.ci_hi
        for n in (0, 1, 4)
        for seed in range(100, 140)
        for cell in audited_cells(n, seed, replicates=5_000)
    ]
    assert len(covered) == 240
    assert sum(covered) >= 216
