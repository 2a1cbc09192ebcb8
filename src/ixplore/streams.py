"""Counter-based random streams.

Every draw site in a simulation is addressed by (seed, replicate, round,
purpose) and gets its own Philox stream, a "cell". Streams never overlap:
the address lives in the Philox key/counter words, and the in-stream block
counter has 2**64 blocks of headroom. Adding a new draw site therefore
never perturbs existing draws, and a draw depends only on its cell, never
on which other replicates run beside it or in what order.

The engine runs replicates as one in-process batch. `StreamFamily` holds a
single bit generator for a whole batch and re-keys it per cell, and `Cells`
gathers one round's draws of every replicate in the batch into arrays.
Both are bit-identical to `stream`, the reference definition of a cell.
"""

import numpy as np
from numpy.random import Generator, Philox

# Purpose codes. Keep stable: they are part of the reproducibility contract.
MODEL_DRAW = 0  # nature draws the model (round 0)
TYPE_DRAW = 1   # per-round agent type
POLICY = 2      # posterior sampling / warm-up arm randomness
NOISE = 3       # outcome noise
AGENT = 4       # strategic-agent internals (nested simulations)

_MASK = (1 << 64) - 1


def stream(seed: int, replicate: int, round_index: int, purpose: int) -> Generator:
    """Independent generator for one (replicate, round, purpose) cell."""
    key = np.array([seed & _MASK, replicate & _MASK], dtype=np.uint64)
    counter = np.array([0, 0, purpose & _MASK, round_index & _MASK], dtype=np.uint64)
    return Generator(Philox(counter=counter, key=key))


class StreamFamily:
    """The cells of every replicate of one seed, sharing one bit generator.

    `at(replicate, round, purpose)` yields draws bit-identical to
    `stream(seed, replicate, round, purpose)`, but costs a write of the key
    and counter words into a cached state dict instead of a bit-generator
    allocation. Not thread-safe, and each returned generator is only valid
    until the next `at` call.
    """

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._bitgen = Philox(key=np.array([self._seed, 0], dtype=np.uint64))
        self._gen = Generator(self._bitgen)
        self._state = self._bitgen.state

    def at(self, replicate: int, round_index: int, purpose: int) -> Generator:
        state = self._state
        state["state"]["key"][:] = (self._seed, replicate & _MASK)
        state["state"]["counter"][:] = (0, 0, purpose & _MASK, round_index & _MASK)
        state["buffer_pos"] = 4  # discard any buffered block
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._bitgen.state = state
        return self._gen

    def cells(self, replicates, round_index: int, purpose: int) -> "Cells":
        return Cells(self, replicates, round_index, purpose)


class Cells:
    """One (round, purpose) cell for each replicate of a batch.

    Iterating yields each replicate's generator in turn; the array methods
    take one call per cell and stack the results, so row k of every result
    comes from the k-th replicate's cell alone.

    Every method call re-keys each cell to its start, so a draw site may
    make only one method call per `Cells`: a second call would draw the
    same bits again. A site that takes several draws from a cell iterates
    the cells and draws them from each generator in turn.
    """

    def __init__(self, family: StreamFamily, replicates, round_index: int, purpose: int):
        self.family = family
        self.replicates = replicates
        self.round_index = round_index
        self.purpose = purpose

    def __len__(self) -> int:
        return len(self.replicates)

    def __iter__(self):
        at, t, purpose = self.family.at, self.round_index, self.purpose
        for r in self.replicates:
            yield at(r, t, purpose)

    def take(self, rows) -> "Cells":
        """The cells of rows `rows` of this batch, in that order."""
        return Cells(self.family, [self.replicates[k] for k in rows], self.round_index, self.purpose)

    def random(self) -> np.ndarray:
        return np.array([gen.random() for gen in self])

    def standard_normal(self, dim: int) -> np.ndarray:
        return np.array([gen.standard_normal(dim) for gen in self]).reshape(len(self), dim)

    def normal(self, loc: float, scale: float, size: int) -> np.ndarray:
        return np.array([gen.normal(loc, scale, size=size) for gen in self]).reshape(len(self), size)

    def uniform(self, low, high) -> np.ndarray:
        return np.array([gen.uniform(low, high) for gen in self]).reshape(len(self), -1)

    def integers(self, high: int) -> np.ndarray:
        return np.array([gen.integers(high) for gen in self], dtype=np.int64)

    def choice(self, a: int, p: np.ndarray) -> np.ndarray:
        """Index in range(a) drawn with probabilities row k of `p` (or `p`
        itself, if 1-d) from replicate k's cell, exactly as
        `Generator.choice(a, p=p)`: one uniform per cell, searched in the
        normalized cumulative sum."""
        if np.shape(p)[-1] != a:
            raise ValueError("p must give one probability per choice")
        cdf = np.cumsum(p, axis=-1)
        cdf /= cdf[..., -1:]
        u = self.random()
        if cdf.ndim == 1:
            return np.searchsorted(cdf, u, side="right")
        return (cdf <= u[:, None]).sum(axis=1)


def spawn_seed(seed: int, replicate: int, round_index: int, purpose: int) -> int:
    """Derive a fresh 63-bit seed for a nested simulation."""
    return int(stream(seed, replicate, round_index, purpose).integers(0, 1 << 63))
