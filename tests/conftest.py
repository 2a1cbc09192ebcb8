import json

import numpy as np
import pytest

import ixplore as ix
from ixplore.streams import Cells, stream

TWO_MODELS = np.array([[0.9, 0.1], [0.2, 0.8]])


class StandInFamily:
    """A stream family whose cell (replicate, round, purpose) is whatever
    generator `at` returns for it."""

    def __init__(self, at):
        self.at = at


def reference_cells(seed, replicates, round_index, purpose):
    """The `Cells` of a batch drawn from the reference `stream` cells."""
    family = StandInFamily(lambda r, t, p: stream(seed, r, t, p))
    return Cells(family, list(replicates), round_index, purpose)


def cells_of(gen, n=1):
    """A batch of n whose every cell is the generator `gen`, read on from its
    current state, so rows and repeated calls draw from `gen` in sequence: a
    method that draws once per cell gives row k the draw of the k-th of n
    calls on `gen`."""
    return Cells(StandInFamily(lambda r, t, p: gen), list(range(n)), 0, 0)


@pytest.fixture
def identity_type():
    return ix.AgentType(np.eye(2))


@pytest.fixture
def two_model_prior():
    return ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5]))


def two_model_config(per_arm=4, T_extra=1, seed=7, replicates=1, R=1.0, agent_model="compliant"):
    """The correlated two-arm workhorse: identity embedding, argmax messages."""
    x0 = ix.AgentType(np.eye(2))
    T0 = 2 * per_arm
    inst = ix.Instance(d=2, K=2, C_U=1.0, C_X=1.0, s=2, R=R, T=T0 + T_extra, T0=T0)
    return ix.ExperimentConfig(
        instance=inst,
        prior=ix.DiscretePrior(TWO_MODELS, np.array([0.5, 0.5])),
        smap=ix.ArgmaxDirect(representatives=(x0,)),
        policy=ix.FpsPolicy(),
        warmup=ix.RoundRobin(per_arm=per_arm),
        type_source=ix.Homogeneous(x0),
        agent_model=agent_model,
        seed=seed,
        replicates=replicates,
    )


@pytest.fixture
def config_factory():
    return two_model_config


def write_config(path, **overrides):
    """A minimal valid CLI config for the two-model instance."""
    raw = {
        "instance": {"d": 2, "K": 2, "C_U": 1.0, "C_X": 1.0, "s": 2, "R": 1.0,
                     "T": 9, "T0": 8, "feedback": "bandit"},
        "prior": {"kind": "discrete", "models": [[0.9, 0.1], [0.2, 0.8]],
                  "weights": [0.5, 0.5]},
        "semantic_map": {"kind": "argmax"},
        "policy": {"kind": "fps"},
        "warmup": {"kind": "round_robin", "per_arm": 4},
        "types": {"kind": "homogeneous", "matrices": [[[1.0, 0.0], [0.0, 1.0]]]},
        "seed": 11,
        "replicates": 3,
        "audit": {"round": 9, "epsilon": 0.3, "c_cal": 1.0, "scenario": 1,
                  "replicates": 200},
        "output": {"dir": str(path.parent / "out"), "formats": ["csv", "json"]},
    }
    raw.update(overrides)
    path.write_text(json.dumps(raw))
    return raw
