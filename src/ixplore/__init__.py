"""Simulation and audit toolkit for incentivized exploration in linear
contextual bandits: the principal-agent messaging protocol with filtered
posterior sampling and baselines, plus empirical checks of Bayesian
incentive-compatibility against prior-dependent thresholds.

Importing ixplore before numpy caps the BLAS thread pool at one thread
unless OPENBLAS_NUM_THREADS or MKL_NUM_THREADS is already set. The engine's
BLAS calls are per-replicate kernels on d-sized operands, too small for a
pool to split, so its threads would only spin (about 0.1 s of CPU at
start-up) and contend with the interpreter for cores.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .audit import (
    BicAuditReport,
    PrimitiveEstimates,
    Thresholds,
    audit_bic,
    compute_thresholds,
    estimate_primitives,
    g_epsilon,
)
from .domain import (
    AgentType,
    Feedback,
    Instance,
    expected_reward,
    realize_outcome,
    validate_instance,
)
from .engine import (
    EpisodeBatch,
    Explicit,
    ExperimentConfig,
    IIDSampler,
    lambda_snapshots,
    regret,
    run_episode,
    run_replicates,
)
from .policies import (
    FixedSequence,
    FlsPolicy,
    FlsState,
    FpsPolicy,
    FpsState,
    NearUniform,
    RoundRobin,
    UcbPolicy,
    UcbState,
    fls_step,
    fps_step,
    fresh_state,
    generate_warmup,
    policy_step,
    ucb_step,
)
from .priors import (
    DiscretePrior,
    GaussianPrior,
    UniformBallPrior,
    UniformBoxPrior,
    make_posterior,
    posterior_sample,
    posterior_update,
    sample_prior,
)
from .semantics import (
    ArgmaxDirect,
    ConsistencyReport,
    FullReveal,
    HypercubeCover,
    Ranking,
    SignMap,
    VoronoiCover,
    apply_map,
    build_voronoi_cover,
    check_menu_consistency,
    granularity,
    menu,
    message,
    message_distribution,
    num_messages,
)
from .spectral import GramAccumulator

__version__ = "0.1.0"
