"""Prior-dependent primitives, theorem-side thresholds, and the Monte
Carlo audit of Bayesian incentive-compatibility.

The audited quantity for a cell (type x, message m, competing arm j) is
the conditional mean of (x_i - x_j) . u* given that round t's message is
m, with i the menu's arm. Monte Carlo mode estimates it from fresh
replicates of the whole process (the empirical check of the definition).
Exact-assisted mode, available for discrete priors, enumerates the
policy's own posterior at round t instead of the single realized model,
and so averages the gap of the *sampled* model, E[gap(u~) | sigma(u~) = m],
not the gap of u*. Where each message's restricted posterior is a single
model (argmax messages over two models), it returns the prior gap table
at every t, whatever the history.

Both modes play the replicates as engine chunks (`chunks`), one
`run_episode` batch each, keep of each chunk only what they bin, and
reduce that into cells once; no per-replicate log is built.

Theory constants that the analysis leaves as "some absolute constant" are
exposed as the calibration factor `c_cal` (default 1) and recorded with
every threshold output.
"""

import math
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .domain import Feedback, Instance
from .engine import (
    COMPLIANT,
    ExperimentConfig,
    chunks,
    draw_type_ids,
    run_episode,
)
from .errors import UndefinedThresholdError, UnsupportedOperationError
from .policies import FpsPolicy
from .priors import (
    DiscretePosterior,
    DiscretePrior,
    UniformBoxPrior,
    sample_prior,
    sup_density,
)
from .semantics import HypercubeCover, apply_map, bin_rows, menu, message, message_distribution, num_messages
from .streams import MODEL_DRAW, StreamFamily

Z_95 = 1.959963984540054  # two-sided 95% normal quantile
LOW_POWER_MIN = 30        # bins below this effective count carry no verdict
EMPTY_BINS_LISTED = 20    # empty bins named one flag each; the rest are counted in one

VERDICT_STRONG = "eps_strong_bic"
VERDICT_BIC = "bic"
VERDICT_WEAK = "eps_weak_bic"
VERDICT_VIOLATED = "violated"
VERDICT_LOW_POWER = "low_power"


# ---------------------------------------------------------------------------
# Primitive estimates


@dataclass(frozen=True, eq=False)
class CellEstimate:
    """Per (type, message) primitives: the menu arm, signed and
    positive-part gaps against every arm, and Monte Carlo error bars."""

    type_index: int
    message: object
    i: int
    prob: float
    gaps: np.ndarray
    gaps_pos: "np.ndarray | None"
    ci_half: "np.ndarray | None"
    n: "int | None"


@dataclass(eq=False)
class PrimitiveEstimates:
    types: tuple
    cells: dict                      # (type_index, message) -> CellEstimate
    delta_TS: float
    eps_TS: "float | None"
    gap_convention: str              # "signed" or "positive_part"
    mode: str                        # "exact" or "monte_carlo"
    n_samples: "int | None"
    zero_probability_messages: list  # (type_index, message) excluded from delta_TS
    unestimated: list                # (type_index, message) with no samples
    cell_radius: "float | None"
    sup_density: "float | None"
    eta_exact_one: bool


def _auto_convention(types) -> str:
    binary = all(np.isin(x.rows, (0.0, 1.0)).all() for x in types)
    return "positive_part" if binary else "signed"


def _eps_ts(cells, convention):
    worst = None
    for cell in cells.values():
        gaps = cell.gaps if convention == "signed" else cell.gaps_pos
        for j in range(len(gaps)):
            if j == cell.i:
                continue
            value = float(gaps[j])
            if worst is None or value < worst:
                worst = value
    return worst


def _conditional_gaps(state, smap, x):
    """E[gap(u) | sigma(u) = m] for u drawn from a discrete prior, or from
    each posterior of a stack, for every message m of the map.

    Yields (code, menu arm i, q, gaps, gaps_pos): q (n_m,) holds the positive
    probabilities of m, one per row that gives it any, and gaps and
    gaps_pos (n_m, K) those rows' signed and positive-part gap vectors of
    arm i under their weights restricted to m's models.
    """
    probs = np.atleast_2d(message_distribution(state, smap, x.public_id))
    weights = np.atleast_2d(state.weights)
    models = state.models if isinstance(state, DiscretePrior) else state.prior.models
    fiber_of = bin_rows(apply_map(smap, x.public_id, models))[0]
    for code, q in enumerate(probs.T):
        rows = q > 0.0
        if not rows.any():
            yield code, None, q[rows], None, None
            continue
        i = menu(smap, x, code)
        diffs = (x.rows[i] - x.rows) @ models[fiber_of[code]].T  # (K, M_m)
        cond = (weights[rows][:, fiber_of[code]] / q[rows, None])[:, :, None]
        gaps = np.matmul(diffs, cond)[:, :, 0]
        yield code, i, q[rows], gaps, np.matmul(np.maximum(diffs, 0.0), cond)[:, :, 0]


def _exact_discrete(prior, smap, types):
    cells = {}
    zero_prob = []
    for ti, x in enumerate(types):
        for code, i, q, gaps, gaps_pos in _conditional_gaps(prior, smap, x):
            m = message(smap, code)
            if not q.size:
                zero_prob.append((ti, m))
                continue
            cells[(ti, m)] = CellEstimate(
                type_index=ti,
                message=m,
                i=i,
                prob=float(q[0]),
                gaps=gaps[0],
                gaps_pos=gaps_pos[0],
                ci_half=None,
                n=None,
            )
    return cells, zero_prob


def _perfect_tiling(prior: UniformBoxPrior, smap: HypercubeCover) -> bool:
    lo, hi = smap.box()
    return bool(
        np.allclose(prior.lo, lo, rtol=1e-12, atol=1e-12)
        and np.allclose(prior.hi, hi, rtol=1e-12, atol=1e-12)
    )


def _exact_uniform_hypercube(prior, smap, types, convention):
    if convention == "positive_part":
        raise UnsupportedOperationError(
            "positive-part gaps over uniform cells need Monte Carlo estimation"
        )
    widths = prior.hi - prior.lo
    perfect = _perfect_tiling(prior, smap)
    cells = {}
    zero_prob = []
    for m in range(num_messages(smap)):
        center = smap.cell_center(m)
        c_lo = center - smap.cell_radius
        c_hi = center + smap.cell_radius
        ov_lo = np.maximum(c_lo, prior.lo)
        ov_hi = np.minimum(c_hi, prior.hi)
        if perfect:
            p = 1.0 / smap.num_cells
            centroid = center
        else:
            overlap = np.maximum(ov_hi - ov_lo, 0.0)
            p = float(np.prod(overlap / widths))
            centroid = 0.5 * (ov_lo + ov_hi)
        if p == 0.0:
            zero_prob.extend((ti, m) for ti in range(len(types)))
            continue
        for ti, x in enumerate(types):
            i = menu(smap, x, m)
            cells[(ti, m)] = CellEstimate(
                type_index=ti,
                message=m,
                i=i,
                prob=p,
                gaps=(x.rows[i] - x.rows) @ centroid,
                gaps_pos=None,
                ci_half=None,
                n=None,
            )
    return cells, zero_prob, perfect


def _monte_carlo(prior, smap, types, n_samples, seed):
    replicates = np.arange(n_samples, dtype=np.uint64)
    samples = sample_prior(prior, StreamFamily(seed).cells(replicates, 0, MODEL_DRAW))
    cells = {}
    unestimated = []
    for ti, x in enumerate(types):
        fiber_of = bin_rows(apply_map(smap, x.public_id, samples))[0]
        for code in range(num_messages(smap)):
            m = message(smap, code)
            idx = fiber_of.get(code)
            if idx is None:
                unestimated.append((ti, m))
                continue
            i = menu(smap, x, code)
            diffs = (x.rows[i] - x.rows) @ samples[idx].T  # (K, n_m)
            n_m = len(idx)
            gaps = diffs.mean(axis=1)
            if n_m > 1:
                sd = diffs.std(axis=1, ddof=1)
                ci_half = Z_95 * sd / math.sqrt(n_m)
            else:
                ci_half = np.full(len(gaps), np.inf)
            cells[(ti, m)] = CellEstimate(
                type_index=ti,
                message=m,
                i=i,
                prob=n_m / n_samples,
                gaps=gaps,
                gaps_pos=np.maximum(diffs, 0.0).mean(axis=1),
                ci_half=ci_half,
                n=n_m,
            )
    return cells, unestimated


def exact_primitives_supported(prior, smap) -> bool:
    """Whether `estimate_primitives` can enumerate the primitives of a
    prior and a map exactly: it needs a discrete prior, or a uniform-box
    prior with a hypercube map."""
    return isinstance(prior, DiscretePrior) or (
        isinstance(prior, UniformBoxPrior) and isinstance(smap, HypercubeCover)
    )


def estimate_primitives(
    prior,
    smap,
    types,
    n_samples: "int | None" = None,
    gap_convention: str = "auto",
    seed: int = 0,
) -> PrimitiveEstimates:
    """Estimate the per-cell gap table, the minimum message probability, and
    the minimum conditional gap.

    `n_samples=None` requests exact enumeration: supported for discrete
    priors with enumerable messages, and analytically for a uniform-box
    prior under a hypercube map (where cell masses and centroids are closed
    form). Monte Carlo mode bins `n_samples` >= 1 prior draws, sample k
    drawn from the model cell of replicate k under `seed` (so it is the u*
    that `run_episode` draws for replicate k, and a smaller count draws a
    prefix), and attaches per-cell 95% half-widths; empty bins are listed
    as unestimated rather than dropped.
    """
    types = tuple(types)
    if gap_convention == "auto":
        gap_convention = _auto_convention(types)
    if gap_convention not in ("signed", "positive_part"):
        raise ValueError("gap_convention must be 'auto', 'signed', or 'positive_part'")
    cell_radius = smap.cell_radius if isinstance(smap, HypercubeCover) else None
    supf = sup_density(prior)
    eta_exact_one = False
    if n_samples is None:
        if not exact_primitives_supported(prior, smap):
            raise UnsupportedOperationError(
                "exact primitives need a discrete prior, or a uniform-box "
                "prior with a hypercube map; pass n_samples for Monte Carlo"
            )
        if isinstance(prior, DiscretePrior):
            cells, zero_prob = _exact_discrete(prior, smap, types)
        else:
            cells, zero_prob, eta_exact_one = _exact_uniform_hypercube(
                prior, smap, types, gap_convention
            )
        unestimated = []
        mode = "exact"
    else:
        if n_samples < 1:
            raise ValueError(f"n_samples must be at least 1, got {n_samples}")
        cells, unestimated = _monte_carlo(prior, smap, types, int(n_samples), seed)
        zero_prob = []
        mode = "monte_carlo"
    # reported over positive-probability (or observed) messages; messages a
    # prior certifiably never produces are listed separately and void the
    # thresholds downstream, since the full-message-set minimum is then 0
    delta_ts = min((c.prob for c in cells.values()), default=0.0)
    eps_ts = _eps_ts(cells, gap_convention) if cells else None
    return PrimitiveEstimates(
        types=types,
        cells=cells,
        delta_TS=float(delta_ts),
        eps_TS=eps_ts,
        gap_convention=gap_convention,
        mode=mode,
        n_samples=None if n_samples is None else int(n_samples),
        zero_probability_messages=zero_prob,
        unestimated=unestimated,
        cell_radius=cell_radius,
        sup_density=supf,
        eta_exact_one=eta_exact_one,
    )


# ---------------------------------------------------------------------------
# Thresholds


@dataclass
class Thresholds:
    scenario: int
    c_cal: float
    D: float
    log_term: float
    N_TS: "float | None"
    N_TS_ceil: "int | None"
    eps_UCB: "float | None"
    N_UCB: "float | None"
    eta: "float | None"
    eta_note: "str | None"
    lambda_grid: "list | None"

    def lambda_at(self, eps: float) -> float:
        if eps <= 0:
            raise ValueError("eps must be positive")
        return self.c_cal * self.D / eps**2 * self.log_term


def scenario_D(inst: Instance, scenario: int) -> float:
    """Sub-Gaussian scale constant of the theorem's three warm-up regimes."""
    if scenario == 1:
        return inst.C_X**2 * inst.R**2
    if scenario == 2:
        return inst.d * (inst.R * inst.C_X + inst.C_U) ** 2 * math.log(inst.C_X**2 * inst.T + 3)
    if scenario == 3:
        if inst.feedback is not Feedback.SEMIBANDIT:
            raise UndefinedThresholdError("scenario 3 requires semi-bandit feedback")
        return inst.s * inst.R**2
    raise ValueError("scenario must be 1, 2, or 3")


def compute_thresholds(
    est: PrimitiveEstimates,
    inst: Instance,
    scenario: int,
    c_cal: float = 1.0,
    alpha_margin: float = 1.0,
    rho: float = 0.0,
    eps_grid=None,
) -> Thresholds:
    """Diversity and warm-up prescriptions implied by the estimates.

    `alpha_margin` is the margin exponent of the prior regularity condition
    behind the index-policy bound and `rho` its exploration coefficient;
    both only shape eps_UCB / N_UCB.
    """
    if not (c_cal > 0 and alpha_margin > 0 and rho >= 0):
        raise ValueError(f"thresholds need c_cal > 0, alpha_margin > 0 and rho >= 0, "
                         f"got {c_cal}, {alpha_margin} and {rho}")
    if est.zero_probability_messages:
        sample = ", ".join(str(m) for _, m in est.zero_probability_messages[:10])
        raise UndefinedThresholdError(
            "some announced messages carry no prior mass, so the minimum "
            f"message probability is 0 and thresholds diverge (messages: {sample})"
        )
    if est.delta_TS <= 0.0:
        raise UndefinedThresholdError(
            "delta_TS is zero: some message has no prior mass, thresholds are undefined"
        )
    D = scenario_D(inst, scenario)
    log_term = math.log(2.0 / est.delta_TS)
    if est.eps_TS is not None and est.eps_TS > 0:
        n_ts = c_cal / est.eps_TS**2 * log_term
        n_ts_ceil = int(math.ceil(n_ts))
        base = est.eps_TS * est.delta_TS / (c_cal * inst.K)
        eps_ucb = base ** (1.0 / alpha_margin)
        n_ucb = (alpha_margin + 2.0) / eps_ucb**2 * math.log(1.0 / eps_ucb)
        n_ucb += rho * math.log(inst.T) / eps_ucb**2 if inst.T > 1 else 0.0
    else:
        n_ts = n_ts_ceil = eps_ucb = n_ucb = None
    if est.eta_exact_one:
        eta, eta_note = 1.0, "uniform prior over a perfectly tiled box"
    elif est.cell_radius is not None and est.sup_density is not None:
        eta = est.delta_TS / ((2.0 * est.cell_radius) ** inst.d * est.sup_density)
        eta_note = None
    else:
        eta = None
        eta_note = "eta needs a hypercube map and a prior with a density"
    thresholds = Thresholds(
        scenario=scenario,
        c_cal=c_cal,
        D=D,
        log_term=log_term,
        N_TS=n_ts,
        N_TS_ceil=n_ts_ceil,
        eps_UCB=eps_ucb,
        N_UCB=n_ucb,
        eta=eta,
        eta_note=eta_note,
        lambda_grid=None,
    )
    if eps_grid is not None:
        thresholds.lambda_grid = [(float(e), thresholds.lambda_at(float(e))) for e in eps_grid]
    return thresholds


def g_epsilon(est: PrimitiveEstimates, eps: float, types=None) -> float:
    """Worst-case slack of the general guarantee at diversity level eps."""
    if est.unestimated:
        listing = ", ".join(f"(type {ti}, message {m})" for ti, m in est.unestimated[:20])
        raise UnsupportedOperationError(
            f"{len(est.unestimated)} cells are unestimated: {listing}"
        )
    types = est.types if types is None else tuple(types)
    worst = np.inf
    for (ti, _m), cell in est.cells.items():
        x = types[ti]
        for j in range(x.num_arms):
            if j == cell.i:
                continue
            penalty = 0.25 * eps * float(np.linalg.norm(x.rows[cell.i] - x.rows[j]))
            worst = min(worst, float(cell.gaps[j]) - penalty)
    return float(worst)


# ---------------------------------------------------------------------------
# The BIC audit


@dataclass(frozen=True)
class AuditCell:
    type_index: int
    message: object
    i: int
    j: int
    n_eff: float
    mean: float
    ci_lo: float
    ci_hi: float
    low_power: bool


@dataclass
class BicAuditReport:
    t: int
    eps_verdict: float
    replicates: int
    mode: str
    cells: list
    min_gap_cell: "AuditCell | None"
    verdict: str
    flags: list
    provenance: dict

    def to_json(self) -> dict:
        return dataclass_json(self)


def _message_str(m) -> str:
    if isinstance(m, tuple):
        return "-".join(str(int(v)) for v in m)
    return str(m)


def dataclass_json(value, exclude=()):
    """`value` as JSON data: a dataclass as its fields in declaration order,
    less those named in `exclude`, with a `message` field through
    `_message_str`; arrays, tuples and lists as lists; dicts by value."""
    if is_dataclass(value):
        return {f.name: _message_str(getattr(value, f.name)) if f.name == "message"
                else dataclass_json(getattr(value, f.name)) for f in fields(value) if f.name not in exclude}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [dataclass_json(v) for v in value]
    if isinstance(value, dict):
        return {k: dataclass_json(v) for k, v in value.items()}
    return value


def _min_gap_cell(cells) -> "AuditCell | None":
    """The usable cell with the lowest CI bound, the one a verdict rules on."""
    return min((c for c in cells if not c.low_power), key=lambda c: c.ci_lo, default=None)


def _verdict(min_cell, eps: float) -> str:
    if min_cell is None:
        return VERDICT_LOW_POWER
    if min_cell.ci_lo >= eps:
        return VERDICT_STRONG
    if min_cell.ci_lo >= 0.0:
        return VERDICT_BIC
    if min_cell.ci_lo >= -eps:
        return VERDICT_WEAK
    return VERDICT_VIOLATED


def _cells_from_weighted(samples, types, smap):
    """Reduce per-replicate (weight, value) pairs into audit cells.

    `samples` maps (type_index, message code) to (weights (n,), gaps
    (n, K)), one row per contributing replicate in replicate order, with
    gaps the per-arm gap vector. Monte Carlo replicates carry weight 1;
    exact-assisted replicates carry the message probability. The mean is
    the weighted ratio estimator, summed as offsets from the bin's first
    row so that a bin whose rows are all equal returns that row exactly,
    and the error bar is its linearization. Cells
    come by type, then by `str` of the decoded message.
    """
    cells = []
    for ti, code in sorted(samples, key=lambda key: (key[0], str(message(smap, key[1])))):
        weights, gapmat = samples[ti, code]
        x = types[ti]
        total = float(weights.sum())
        if total == 0.0:
            continue
        i = menu(smap, x, code)
        ref = gapmat[0]
        means = ref + weights @ (gapmat - ref) / total
        low_power = total < LOW_POWER_MIN
        for j in range(x.num_arms):
            if j == i:
                continue
            centered = gapmat[:, j] - means[j]
            se = math.sqrt(float((weights**2 * centered**2).sum())) / total
            half = Z_95 * se
            cells.append(
                AuditCell(
                    type_index=ti,
                    message=message(smap, code),
                    i=i,
                    j=j,
                    n_eff=total,
                    mean=float(means[j]),
                    ci_lo=float(means[j] - half),
                    ci_hi=float(means[j] + half),
                    low_power=low_power,
                )
            )
    return cells


def _posterior_samples(prior, smap, types, log_weights, type_ids) -> dict:
    """Exact-assisted cell samples from each replicate's posterior (rows of
    `log_weights`) and round-t type: for every message m a replicate gives
    positive probability q, the pair (q, E[gap(u) | sigma(u) = m]), keyed by
    (type index, message code) in replicate order, one message law per type."""
    samples = {}
    for ti, rows in bin_rows(type_ids)[0].items():
        stack = DiscretePosterior(prior, log_weights[rows])
        for code, _i, q, gaps, _gaps_pos in _conditional_gaps(stack, smap, types[ti]):
            if q.size:
                samples[(ti, code)] = (q, gaps)
    return samples


def exact_audit_supported(config: ExperimentConfig) -> bool:
    """Whether the exact-assisted audit can audit `config`: it needs a
    discrete prior under posterior sampling."""
    return isinstance(config.prior, DiscretePrior) and isinstance(config.policy, FpsPolicy)


def audit_bic(
    config: ExperimentConfig,
    t: int,
    replicates: int,
    eps_verdict: float,
    mode: str = "mc",
    provenance: "dict | None" = None,
) -> BicAuditReport:
    """Empirical incentive audit at round t over fresh replicates.

    Monte Carlo mode bins the realized (model, message) pairs. The
    exact-assisted mode (discrete priors under posterior sampling) replaces
    each replicate's realized draw with the policy's full round-t posterior:
    message probabilities become the bin weights and the posterior-
    conditional gaps of the sampled model, E[gap(u~) | sigma(u~) = m], the
    bin values. That is not the gap of u*: at t = 1 with no warm-up the
    cells equal the prior gap table identically, and where every message
    holds one model they equal it at every t.

    The audit plays the config at horizon t with compliant agents, a config
    built with `dataclasses.replace`, so one that is invalid at horizon t
    (an explicit type sequence shorter than t) raises `ConfigError`. The
    replicates play in engine chunks of at most `engine.CHUNK`, and of
    each chunk the audit keeps only what it bins (MC: each replicate's
    round-t bin key and u*; exact: its round-t type and posterior
    log-weights), so peak memory scales with `CHUNK` and that residue, not
    with whole episodes. Bins no replicate reached are flagged, the first
    `EMPTY_BINS_LISTED` by name and the rest in one count.
    """
    inst = config.instance
    if t <= inst.T0:
        raise ValueError(f"audit round t = {t} must exceed T0 = {inst.T0}")
    if mode not in ("mc", "exact"):
        raise ValueError("mode must be 'mc' or 'exact'")
    flags = []
    if config.agent_model != COMPLIANT:
        flags.append("agent model forced to compliant for the audited prefix")
    types = config.type_source.types
    smap = config.smap
    if mode == "exact" and not exact_audit_supported(config):
        raise UnsupportedOperationError(
            "the exact-assisted audit needs a discrete prior under posterior sampling"
        )
    # both modes read round t's type, so the audited config has horizon t;
    # exact mode plays up to round t - 1 and reads the posterior round t samples from
    audited = replace(config, instance=replace(inst, T=t), agent_model=COMPLIANT, replicates=replicates)
    played = audited if mode == "mc" else replace(audited, instance=replace(inst, T=t - 1))
    n_msgs = num_messages(smap)
    family = StreamFamily(config.seed)

    def kept(batch):
        """What the audit bins of one chunk: the round-t bin key and u* of
        each replicate (MC), or its round-t type and posterior (exact)."""
        if mode == "mc":
            return batch.type_ids[:, t - 1] * n_msgs + batch.messages[:, -1], batch.u_star
        return draw_type_ids(config, family, batch.replicates, [t])[:, 0], batch.policy_state.posterior.log_weights

    # a generator and temporaries, so no name keeps the chunks' parts alive
    # beside their concatenation (24 MB at 10^6 replicates)
    chunked = (kept(run_episode(played, block)) for block in chunks(replicates))
    ids, values = map(np.concatenate, zip(*chunked))
    if mode == "mc":
        samples = {}
        for key, rows in bin_rows(ids)[0].items():
            ti, code = divmod(key, n_msgs)
            x = types[ti]
            i = menu(smap, x, code)
            gaps = np.matmul(x.rows[i] - x.rows, values[rows][:, :, None])[:, :, 0]
            samples[(ti, code)] = (np.ones(len(rows)), gaps)
    else:
        samples = _posterior_samples(config.prior, smap, types, values, ids)

    cells = _cells_from_weighted(samples, types, smap)
    reached = np.zeros(len(types) * n_msgs, dtype=bool)
    reached[[ti * n_msgs + code for ti, code in samples]] = True
    empty = np.flatnonzero(~reached)
    for key in empty[:EMPTY_BINS_LISTED].tolist():
        ti, code = divmod(key, n_msgs)
        flags.append(f"empty bin: type {ti}, message {_message_str(message(smap, code))}")
    if len(empty) > EMPTY_BINS_LISTED:
        flags.append(f"{len(empty) - EMPTY_BINS_LISTED} more empty bins")
    if any(c.low_power for c in cells):
        flags.append("some cells are low-power (effective count < 30) and carry no verdict")
    min_cell = _min_gap_cell(cells)
    report = BicAuditReport(
        t=t,
        eps_verdict=float(eps_verdict),
        replicates=replicates,
        mode=mode,
        cells=cells,
        min_gap_cell=min_cell,
        verdict=_verdict(min_cell, float(eps_verdict)),
        flags=flags,
        provenance=provenance
        or {"seed": config.seed, "t": t, "mode": mode, "replicates": replicates},
    )
    return report

