"""Counter-based random streams.

Every draw site in a simulation is addressed by (seed, replicate, round,
purpose) and gets its own Philox stream, a "cell". Streams never overlap:
the address lives in the Philox key/counter words, and the in-stream block
counter has 2**64 blocks of headroom. Adding a new draw site therefore
never perturbs existing draws, and a draw depends only on its cell, never
on which other replicates run beside it or in what order.

A cell's words are those of `stream`, the reference definition that tests
hold the program's cells to: numpy's Philox4x64-10 with key (seed,
replicate) and counter (0, 0, purpose, round). Its first block has counter
(1, 0, purpose, round), so the k-th uint64 of a cell is lane k mod 4 of
block 1 + k // 4.

Every value of a draw reads one fixed word of its cell: value j of a draw
that starts at word s is word s + j. A uniform is the word's top 53 bits
(`as_uniforms`), and a normal is Box-Muller on the word's two halves
(`as_normals`); callers decode the words of `Cells.words` with them. An
integer is numpy's 32-bit Lemire draw, which reads on past a rejected word.
`Cells.words` is the one source of words: a slice of at most `BLOCK_LANES`
words comes from `philox_lanes`, which runs Philox on the blocks of a whole
batch at once, and a wider one from each cell's re-keyed generator
(`StreamFamily.at`). `numpy.random` is imported only where a generator is
built, so a run or an audit whose draws are all at most `BLOCK_LANES` words
wide never loads it.

Most draw sites' cells depend on their address alone, not on earlier
rounds, so `Windows` draws a batch a window of rounds at a time: the first
narrow word slice of a given shape in a window computes that slice for
every (replicate, round) cell of the window in one `Cells` call, whose
round is a column, and each later round slices its rows. A window of a
batch of 2048 replicates or more spans one round, and draws directly.
"""

import numpy as np

# Purpose codes. Keep stable: they are part of the reproducibility contract.
MODEL_DRAW = 0  # nature draws the model (round 0)
TYPE_DRAW = 1   # per-round agent type
POLICY = 2      # posterior sampling / warm-up arm randomness
NOISE = 3       # outcome noise
AGENT = 4       # strategic-agent internals (nested simulations)

# Cells in one window of rounds (`Windows`): a `philox_lanes` call costs
# about 0.2 ms whether it computes one row of 4 words or 500 rows of 8, so
# a small batch computes many rounds' cells per call. A window of 8192
# cells took about 2.5 MB more at its peak than one of 2048 and ran no
# faster.
WINDOW_CELLS = 2048

# The widest word slice computed from counters, and so the widest window
# block. A wider slice comes from each cell's re-keyed generator, whose C
# Philox outruns `philox_lanes`' ufuncs there: drawing the truncated
# sampler's wide stages from counters cost `run_box_csv` 15-70% more CPU.
BLOCK_LANES = 16

_MASK = (1 << 64) - 1
_SUM_TOL = np.sqrt(np.finfo(np.float64).eps)  # Generator.choice's tolerance on sum(p)
_U64 = np.uint64
_LO32, _32 = _U64(0xFFFFFFFF), _U64(32)
# Philox4x64 round multipliers and key increments (Random123, as numpy),
# stacked for words (0, 2) of a block and for key words (0, 1)
_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64).reshape(2, 1, 1)
_M_LO, _M_HI = _M & _LO32, _M >> _32
_TO_DOUBLE = 2.0**-53  # a word's top 53 bits scale into [0, 1)
_TO_HALF = 2.0**-32    # a 32-bit half scales into [0, 1)


def stream(seed: int, replicate: int, round_index: int, purpose: int) -> "Generator":
    """Independent generator for one (replicate, round, purpose) cell."""
    from numpy.random import Generator, Philox

    key = np.array([seed & _MASK, replicate & _MASK], dtype=np.uint64)
    counter = np.array([0, 0, purpose & _MASK, round_index & _MASK], dtype=np.uint64)
    return Generator(Philox(counter=counter, key=key))


def as_uniforms(words: np.ndarray) -> np.ndarray:
    """The uniform on [0, 1) of each word: its top 53 bits, as numpy's `random`."""
    return (words >> _U64(11)).astype(np.float64) * _TO_DOUBLE


def as_normals(words: np.ndarray) -> np.ndarray:
    """The standard normal of each word by Box-Muller:
    sqrt(-2 ln u1) * cos(2 pi u2), with u1 = (high half + 1) * 2**-32 in
    (0, 1] and u2 = low half * 2**-32 in [0, 1). Its magnitude is at most
    sqrt(64 ln 2), about 6.6604."""
    r = (words >> _32).astype(np.float64)
    r += 1.0
    r *= _TO_HALF
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    angle = (words & _LO32).astype(np.float64)
    angle *= 2.0 * np.pi * _TO_HALF
    r *= np.cos(angle, out=angle)
    return r


def _mulhilo(a: np.ndarray, hi: np.ndarray, lo: np.ndarray, s: np.ndarray, t: np.ndarray):
    """Write the high and low words of the 128-bit products `_M * a`, from
    32-bit halves, into `hi` and `lo`; `s` and `t` are scratch. All four
    have `a`'s shape, so a Philox round allocates nothing."""
    np.bitwise_and(a, _LO32, out=s)       # a_lo
    np.right_shift(a, _32, out=t)         # a_hi
    np.multiply(s, _M_LO, out=lo)
    np.right_shift(lo, _32, out=lo)       # low >> 32
    np.multiply(t, _M_LO, out=hi)
    np.add(hi, lo, out=hi)                # mid
    np.multiply(s, _M_HI, out=s)
    np.bitwise_and(hi, _LO32, out=lo)
    np.add(s, lo, out=s)                  # mid2
    np.right_shift(s, _32, out=s)
    np.right_shift(hi, _32, out=hi)
    np.multiply(t, _M_HI, out=t)
    np.add(hi, t, out=hi)
    np.add(hi, s, out=hi)                 # a_hi * M_HI + (mid >> 32) + (mid2 >> 32)
    np.multiply(a, _M, out=lo)


def philox_lanes(seed: int, replicates, round_index, purpose: int, count: int, start: int = 0) -> np.ndarray:
    """(n, count) uint64: row k holds words `start` to `start + count - 1`
    of cell (seed, replicates[k], round, purpose), as
    `stream(...).bit_generator.random_raw(start + count)[start:]` returns
    them. The round is `round_index`, or its k-th entry if it is a column
    of n rounds.

    Philox4x64-10 runs on all (n, blocks) blocks at once. Words 0 and 2 of
    a block, which a round multiplies, are stacked in `x`, and words 1 and
    3, which it passes on, in `y`, so each round is one pass of ufuncs over
    the whole batch, in buffers allocated once.
    """
    n, skip = len(replicates), start % 4
    blocks = -(-(skip + count) // 4)
    key = np.empty((2, n, 1), dtype=np.uint64)
    key[0] = seed & _MASK
    key[1, :, 0] = np.asarray(replicates, dtype=np.uint64)
    x = np.empty((2, n, blocks), dtype=np.uint64)
    x[0] = np.arange(start // 4 + 1, start // 4 + blocks + 1, dtype=np.uint64)  # the block counter
    x[1] = purpose & _MASK
    y = np.zeros_like(x)
    if np.ndim(round_index):
        y[1] = np.asarray(round_index, dtype=np.uint64)[:, None]
    else:
        y[1] = round_index & _MASK
    hi, lo, s, t = (np.empty_like(x) for _ in range(4))
    for i in range(10):
        if i:
            key += _W
        _mulhilo(x, hi, lo, s, t)
        np.bitwise_xor(hi[::-1], y, out=y)
        np.bitwise_xor(y, key, out=y)  # the new x
        x[...] = lo[::-1]              # the new y
        x, y = y, x
    del hi, lo, s, t  # before the output is allocated
    # word 2i + j of a block is x[i] for j = 0 and y[i] for j = 1
    out = np.empty((n, blocks, 2, 2), dtype=np.uint64)
    out[..., 0] = x.transpose(1, 2, 0)
    out[..., 1] = y.transpose(1, 2, 0)
    return out.reshape(n, 4 * blocks)[:, skip:skip + count]


class StreamFamily:
    """The cells of every replicate of one seed, sharing one bit generator.

    `at(replicate, round, purpose)` yields draws bit-identical to
    `stream(seed, replicate, round, purpose)`, but costs a write of the key
    and counter words into a cached state dict instead of a bit-generator
    allocation. Not thread-safe, and each returned generator is only valid
    until the next `at` call.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._gen = None  # built, and `numpy.random` imported, by the first `at`

    def at(self, replicate: int, round_index: int, purpose: int) -> "Generator":
        if self._gen is None:
            from numpy.random import Generator, Philox

            self._bitgen = Philox(key=np.array([self.seed, 0], dtype=np.uint64))
            self._gen = Generator(self._bitgen)
            self._state = self._bitgen.state
        state = self._state
        state["state"]["key"][:] = (self.seed, replicate & _MASK)
        state["state"]["counter"][:] = (0, 0, purpose & _MASK, round_index & _MASK)
        state["buffer_pos"] = 4  # discard any buffered block
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._bitgen.state = state
        return self._gen

    def cells(self, replicates, round_index: int, purpose: int) -> "Cells":
        return Cells(self, replicates, round_index, purpose)

    def grid(self, replicates, rounds, purpose: int) -> "Cells":
        """The cells of every replicate at each of `rounds`, round by round:
        row c * n + k is the k-th replicate's cell at rounds[c]."""
        rounds = np.asarray(rounds, dtype=np.uint64)
        return Cells(self, np.tile(replicates, len(rounds)), np.repeat(rounds, len(replicates)), purpose)


class Cells:
    """One (round, purpose) cell for each replicate of a batch.

    The round is one `round_index` for every cell, or a column of one round
    per cell. Row k of every result comes from the k-th cell's words alone.
    `words` is their one source, for a `StreamFamily` and for any other
    family whose `at(replicate, round, purpose)` returns a generator.

    Draw sites decode floats from `words` with `as_normals` and
    `as_uniforms`; `choice` and `integers` decode theirs here, equal to
    numpy's methods on the cell.

    Every method call draws from each cell's start, so a draw site may make
    only one method call per `Cells`: a second call would draw the same
    bits again. A site that takes several draws from a cell reads them from
    one method, or from `words` at its own offsets.
    """

    def __init__(self, family: StreamFamily, replicates, round_index, purpose: int):
        self.family = family
        self.replicates = np.asarray(replicates, dtype=np.uint64)
        self.round_index = round_index
        self.purpose = purpose

    def __len__(self) -> int:
        return len(self.replicates)

    def take(self, rows) -> "Cells":
        """The cells of rows `rows` of this batch, in that order."""
        t = self.round_index[rows] if np.ndim(self.round_index) else self.round_index
        return Cells(self.family, self.replicates[rows], t, self.purpose)

    def words(self, count: int, start: int = 0) -> np.ndarray:
        """(n, count) uint64: words `start` to `start + count - 1` of every
        cell, from `philox_lanes` for at most `BLOCK_LANES` words of a
        `StreamFamily`, or else from each cell's generator, advanced past
        the whole blocks before `start`."""
        family = self.family
        if isinstance(family, StreamFamily) and count <= BLOCK_LANES:
            return philox_lanes(family.seed, self.replicates, self.round_index, self.purpose, count, start)
        rounds = self.round_index.tolist() if np.ndim(self.round_index) else [self.round_index] * len(self)
        out = np.empty((len(self), count), dtype=np.uint64)
        for k, (r, t) in enumerate(zip(self.replicates.tolist(), rounds)):
            bits = family.at(r, t, self.purpose).bit_generator
            if start >= 4:
                bits.advance(start // 4)
            out[k] = bits.random_raw(start % 4 + count)[start % 4:]
        return out

    def integers(self, high: int) -> np.ndarray:
        """Row k is the k-th cell's `integers(high)`, numpy's 32-bit Lemire
        draw on the low half of word 0, reading on in `_lemire` for the rows
        it rejects. Rejects a bound below 1 with numpy's error, and one
        above 2**32, which needs numpy's 64-bit draw, with its own."""
        if high < 1:
            raise ValueError("high <= 0")
        if high > 1 << 32:
            raise ValueError(f"high must be at most 2**32, got {high}")
        m = (self.words(1)[:, 0] & _LO32) * _U64(high)
        out = (m >> _32).astype(np.int64)
        rejected = np.flatnonzero((m & _LO32) < _U64((2**32 - high) % high))
        if len(rejected):
            out[rejected] = self.take(rejected)._lemire(high)
        return out

    def _lemire(self, high: int, words: int = 4) -> np.ndarray:
        """Row by row, the first 32-bit draw x, a word's low then high half
        (numpy's `next_uint32`), whose x * high has low 32 bits of at least
        (2**32 - high) % high, shifted down by 32. Rows that reject all of
        `words` words read twice as many."""
        threshold = (2**32 - high) % high
        out, short = np.empty(len(self), dtype=np.int64), []
        for k, row in enumerate(self.words(words).tolist()):
            draws = (half for word in row for half in (word & 0xFFFFFFFF, word >> 32))
            m = next((m for m in (x * high for x in draws) if m & 0xFFFFFFFF >= threshold), None)
            if m is None:
                short.append(k)
            else:
                out[k] = m >> 32
        if short:
            out[short] = self.take(short)._lemire(high, 2 * words)
        return out

    def choice(self, a: int, p: np.ndarray) -> np.ndarray:
        """Index in range(a) drawn with probabilities row k of `p` (or `p`
        itself, if 1-d) from replicate k's cell, exactly as
        `Generator.choice(a, p=p)`: one uniform per cell, searched in the
        normalized cumulative sum. As numpy, rejects a row of `p` that holds
        NaN or a negative entry, or whose sum is off 1 by more than
        sqrt(eps)."""
        p = np.asarray(p, dtype=np.float64)
        if p.shape[-1] != a:
            raise ValueError("p must give one probability per choice")
        with np.errstate(invalid="ignore", over="ignore"):  # numpy's own sum is silent
            cdf = np.cumsum(p, axis=-1)
        if np.isnan(cdf[..., -1]).any():
            raise ValueError("probabilities contain NaN")
        if (p < 0).any():
            raise ValueError("probabilities are not non-negative")
        if (np.abs(cdf[..., -1] - 1.0) > _SUM_TOL).any():
            raise ValueError("probabilities do not sum to 1")
        cdf /= cdf[..., -1:]
        u = as_uniforms(self.words(1))[:, 0]
        if cdf.ndim == 1:
            return np.searchsorted(cdf, u, side="right")
        return (cdf <= u[:, None]).sum(axis=1)


class Windows:
    """Round t's cells of one batch, asked for in increasing rounds up to
    `last_round`, drawn a window of rounds at a time.

    A window spans `window_rounds(n)` rounds from the first round asked of
    it, and only the current window's blocks are kept. The first word slice
    of a given (purpose, count, start) in a window, at most `BLOCK_LANES`
    words, draws that slice for the cells of every replicate at that round
    and each later round of the window, in one `words` call on the `grid`
    of those cells; later rounds slice their rows of that block. A wider
    slice, or one first asked for at a window's last round, is drawn as its
    round's `Cells` draws it.
    """

    def __init__(self, family: StreamFamily, replicates, last_round: int):
        self.family = family
        self.replicates = np.asarray(replicates, dtype=np.uint64)
        self.last_round = last_round
        self.rounds = range(0)  # the current window
        self._blocks = {}       # (purpose, count, start) -> (first round, (rounds, n, count) words)

    def cells(self, t: int, purpose: int) -> Cells:
        if t not in self.rounds:
            self.rounds = range(t, min(t + window_rounds(len(self.replicates)), self.last_round + 1))
            self._blocks = {}
        return _WindowCells(self, np.arange(len(self.replicates)), t, purpose)

    def block(self, t: int, purpose: int, count: int, start: int):
        """Round t's rows of the current window's block of this word slice,
        drawing the block first if there is none and a later round of the
        window would read it too, or None."""
        hit = self._blocks.get((purpose, count, start))
        if hit is not None and hit[0] <= t:
            return hit[1][t - hit[0]]
        n, rounds = len(self.replicates), range(t, self.rounds.stop)
        if t not in self.rounds[:-1] or count > BLOCK_LANES:
            return None
        drawn = self.family.grid(self.replicates, rounds, purpose).words(count, start)
        self._blocks[purpose, count, start] = (t, drawn.reshape(len(rounds), n, count))
        return drawn[:n]


class _WindowCells(Cells):
    """Round t's cells of rows `rows` of a `Windows` batch, whose words its
    current window's blocks serve where they can."""

    def __init__(self, windows: Windows, rows: np.ndarray, t: int, purpose: int):
        super().__init__(windows.family, windows.replicates[rows], t, purpose)
        self.windows, self.rows = windows, rows

    def take(self, rows) -> Cells:
        return _WindowCells(self.windows, self.rows[rows], self.round_index, self.purpose)

    def words(self, count: int, start: int = 0) -> np.ndarray:
        block = self.windows.block(self.round_index, self.purpose, count, start)
        if block is None:
            return super().words(count, start)
        return block[self.rows]


def window_rounds(n: int) -> int:
    """Rounds in one window of a batch of n replicates: as many as
    `WINDOW_CELLS` cells hold, and at least one, an empty batch's too."""
    return max(1, WINDOW_CELLS // max(n, 1))


def spawn_seed(seed: int, replicate: int, round_index: int, purpose: int) -> int:
    """Derive a fresh 63-bit seed for a nested simulation: the cell's first
    word shifted right by one, which is numpy's `integers(0, 2**63)`, since
    its 64-bit Lemire draw never rejects at that bound."""
    return int(StreamFamily(seed).cells([replicate & _MASK], round_index, purpose).words(1)[0, 0]) >> 1
