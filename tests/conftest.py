import json

import numpy as np
import pytest

import ixplore as ix
from ixplore.streams import Cells, stream

TWO_MODELS = np.array([[0.9, 0.1], [0.2, 0.8]])

# `write_config` overrides for the run benchmark's uniform-box, 4x4-hypercube
# config at T = 40: at the default seed and 3 replicates, its truncated
# sampler's screen reaches its second stage.
BOX_HYPERCUBE = dict(
    instance={"d": 2, "K": 3, "C_U": 1.5, "C_X": 1.0, "s": 2, "R": 1.0, "T": 40, "T0": 6},
    prior={"kind": "uniform_box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
    semantic_map={"kind": "hypercube", "origin": [0.0, 0.0], "cell_radius": 0.125, "grid_extents": [4, 4]},
    warmup={"kind": "round_robin", "per_arm": 2},
    types={"kind": "iid", "regime": "public",
           "matrices": [[[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]], [[0.8, -0.6], [0.0, 1.0], [-0.6, 0.8]]]},
)


LO32, HI32, TOP53 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)


def cell_words(seed, replicate, round_index, purpose, count, start=0):
    """Words `start` to `start + count - 1` of the reference cell."""
    return stream(seed, replicate, round_index, purpose).bit_generator.random_raw(start + count)[start:]


def word_normals(words):
    """The specified normal of each uint64 word, written out with numpy's
    ufuncs: sqrt(-2 ln u1) cos(2 pi u2), u1 = (high half + 1) 2^-32 and
    u2 = low half 2^-32."""
    words = np.asarray(words, dtype=np.uint64)
    u1 = ((words >> HI32) + np.uint64(1)) * 2.0**-32
    u2 = (words & LO32) * 2.0**-32
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def word_uniforms(words):
    """The uniform of each uint64 word: its top 53 bits times 2^-53."""
    return (np.asarray(words, dtype=np.uint64) >> TOP53) * 2.0**-53


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
    current state, so rows and repeated calls read `gen`'s words in
    sequence: row k of a draw reads the k-th run of words that the draw
    asks of `gen`."""
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
        type_source=ix.IIDSampler((x0,)),
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
