"""Counter-based random streams.

Every draw site in a simulation is addressed by (seed, replicate, round,
purpose) and gets its own Philox stream, a "cell". Streams never overlap:
the address lives in the Philox key/counter words, and the in-stream block
counter has 2**64 blocks of headroom. Adding a new draw site therefore
never perturbs existing draws, and a draw depends only on its cell, never
on which other replicates run beside it or in what order.

`stream` is the reference definition of a cell, the one tests hold the
program's cells to: numpy's Philox4x64-10 with key (seed, replicate) and
counter (0, 0, purpose, round). Its first block has counter (1, 0, purpose,
round), so the k-th uint64 of a cell is lane k mod 4 of block 1 + k // 4.
`numpy.random` is imported only where a generator is built, so importing
the package (`ixplore --help`, a config that exits 2) does not load it.

The engine runs replicates as one in-process batch, and `Cells` gathers one
round's draws of every replicate in the batch into arrays, all its float
arrays through one decoder. Every draw at most `BLOCK_LANES` wide is
computed from counters: `philox_lanes` runs Philox on the blocks of the
whole batch at once, and the lanes become draws as numpy's `Generator`
turns them, a uniform from a lane's top 53 bits and a normal by the fast
path of numpy's ziggurat. A normal that leaves the fast path (a tail or
wedge lane, about 1.5% of lanes) reads further lanes, so a row with such a
lane is decoded on its own from its cell's words in order, as numpy's
`random_standard_normal` decodes them: the wedge against exp(-x^2 / 2), the
tail by pairs of doubles through `math.log1p`. It reads on into the words
its batch drew, in whole blocks, and the rows that read further get the
words after those from one more `philox_lanes` call. An integer is numpy's
Lemire draw, read on through a cell's words past a rejection. Every draw is
therefore bit-identical to `stream`.

`StreamFamily.at` re-keys one generator per cell, and builds it (importing
`numpy.random`) on its first call. It serves only a draw wider than
`BLOCK_LANES`, at any batch size, and cells a caller iterates (the
truncated prior's per-row loop and its grid fallback), so a run or an
audit of a discrete prior in at most `BLOCK_LANES` dimensions never loads
`numpy.random`.

Most draw sites' cells depend on their address alone, not on earlier
rounds, so `Windows` draws a batch of fewer than `CROSSOVER` replicates a
window of rounds at a time: the first draw of a given shape in a window
computes that shape for every (replicate, round) cell of the window in one
`Cells` call, whose round is a column, and each later round slices its rows.
"""

import math

import numpy as np

# Purpose codes. Keep stable: they are part of the reproducibility contract.
MODEL_DRAW = 0  # nature draws the model (round 0)
TYPE_DRAW = 1   # per-round agent type
POLICY = 2      # posterior sampling / warm-up arm randomness
NOISE = 3       # outcome noise
AGENT = 4       # strategic-agent internals (nested simulations)

# A batch smaller than this draws a window of rounds at a time (`Windows`):
# a `philox_lanes` call costs about 0.2 ms whether it computes one row of 4
# words or 500 rows of 8, so a small batch computes many rounds' cells per
# call. A window holds at most WINDOW_CELLS cells; a window of 8192 cells
# took about 2.5 MB more at its peak than one of 2048 and ran no faster.
CROSSOVER = 64
WINDOW_CELLS = 2048

# The widest draw computed from counters, and so the widest window block. A
# wider draw re-keys each cell's generator at any batch size: 256 cells x 170
# normals took 10-13 ms on counters against 6.2-6.5 ms re-keyed (min of 15
# calls, 2-core Xeon VM, numpy 2.4), since Python decodes each slow lane and
# nearly every row that wide has two or three.
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
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53: a lane's top 53 bits scale into [0, 1)
# numpy's ziggurat_nor_r, where the tail starts, and ziggurat_nor_inv_r
_R, _INV_R = 3.6541528853610088, 0.27366123732975828
# A slow row (one with a normal off the ziggurat's fast path) whose draw reads
# past the words its batch drew gets _SLACK more words (at least 1) plus one
# per 8 normals, and twice as many again while it needs more. Such rows read
# 1.5 extra words on average at 2 normals.
_SLACK = 4
# A batch of at most this many cells draws one more block of words up front
# when it draws normals: there that costs less than the second `philox_lanes`
# call (about 0.2 ms at any size) that a slow row reading past its words costs.
# Screening 5 proposals of a 256-replicate box-prior run, 436 of 494 draws
# made that call without the block and 3 with it.
_EAGER_CELLS = 512


def stream(seed: int, replicate: int, round_index: int, purpose: int) -> "Generator":
    """Independent generator for one (replicate, round, purpose) cell."""
    from numpy.random import Generator, Philox

    key = np.array([seed & _MASK, replicate & _MASK], dtype=np.uint64)
    counter = np.array([0, 0, purpose & _MASK, round_index & _MASK], dtype=np.uint64)
    return Generator(Philox(counter=counter, key=key))


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
    """(n, count) uint64: row k holds the first `count` words of cell
    (seed, replicates[k], round, purpose), as
    `stream(...).bit_generator.random_raw(count)` returns them, or the
    `count` words from word `start` on, a multiple of 4. The round is
    `round_index`, or its k-th entry if it is a column of n rounds.

    Philox4x64-10 runs on all (n, ceil(count / 4)) blocks at once. Words 0
    and 2 of a block, which a round multiplies, are stacked in `x`, and
    words 1 and 3, which it passes on, in `y`, so each round is one pass of
    ufuncs over the whole batch, in buffers allocated once.
    """
    n, blocks = len(replicates), -(-count // 4)
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
    return out.reshape(n, 4 * blocks)[:, :count]


def _doubles(lanes: np.ndarray) -> np.ndarray:
    """numpy's `next_double` of each lane: its top 53 bits, scaled into [0, 1)."""
    return (lanes >> _U64(11)).astype(np.float64) * _TO_DOUBLE


def _normals(lanes: np.ndarray):
    """numpy's ziggurat `standard_normal` of each lane on its fast path,
    and whether the lane stays on it. A lane's low 8 bits pick the layer,
    bit 8 the sign and bits 9..60 the magnitude."""
    layer = (lanes & _U64(0xFF)).astype(np.intp)
    rabs = (lanes >> _U64(9)) & _U64((1 << 52) - 1)
    x = rabs.astype(np.float64) * WI_DOUBLE[layer]
    np.negative(x, out=x, where=(lanes & _U64(0x100)).astype(bool))
    return x, rabs < KI_DOUBLE[layer]


def _normal(words: list, i: int):
    """numpy's `random_standard_normal` read from words[i:] of a cell, and
    the index after the last word it read; IndexError if the words run out.

    A lane off the fast path is in the wedge of its layer, which draws one
    more double and keeps x if it falls under exp(-x^2 / 2), or else starts
    over on the next word; or in the tail (layer 0), which draws pairs of
    doubles until one is accepted and takes its sign from bit 8 of the
    magnitude, as numpy does. `math` calls the same libm as numpy's C code."""
    while True:
        r = words[i]
        i += 1
        layer, rabs = r & 0xFF, (r >> 9) & 0xFFFFFFFFFFFFF
        x = rabs * _WI[layer]
        if r & 0x100:
            x = -x
        if rabs < _KI[layer]:
            return x, i
        if layer == 0:
            while True:
                xx = -_INV_R * math.log1p(-(words[i] >> 11) * _TO_DOUBLE)
                yy = -math.log1p(-(words[i + 1] >> 11) * _TO_DOUBLE)
                i += 2
                if yy + yy > xx * xx:
                    return (-(_R + xx) if (rabs >> 8) & 1 else _R + xx), i
        u = (words[i] >> 11) * _TO_DOUBLE
        i += 1
        if (_FI[layer - 1] - _FI[layer]) * u + _FI[layer] < math.exp(-0.5 * x * x):
            return x, i


def _slow_normals(words: list, slow: list, normals: int, uniforms: int) -> list:
    """Walk one cell's words as `standard_normal(normals)` then
    `random(uniforms)` read them, decoding in `_normal` only the lanes at
    positions `slow` (increasing), the ones off the fast path: every other
    draw is one word. Returns (column, value, extra words read) for each
    normal that starts on a slow lane; IndexError if the draw reads past
    the last word."""
    starts, i, j = [], 0, 0  # normal j starts at word i
    for s in slow:
        if s < i:  # read by an earlier slow normal
            continue
        if j + s - i >= normals:
            break
        j += s - i
        x, end = _normal(words, s)
        starts.append((j, x, end - s - 1))
        i, j = end, j + 1
    if i + normals - j + uniforms > len(words):
        raise IndexError("the draw reads past the cell's last word")
    return starts


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
    per cell. Iterating yields each cell's generator in turn; the array
    methods stack one draw per cell, so row k of every result comes from the
    k-th cell alone, bit for bit as its generator draws it.

    `normals_then_uniforms` is the one float draw, and `random`,
    `standard_normal`, `normal` and `uniform` (and `choice`, which reads
    `random`) wrap it under their `Generator` names. It computes the cells
    of a `StreamFamily` from counters, by `philox_lanes`, and decodes a row
    with a normal off the ziggurat's fast path from its cell's later words.
    Only a draw wider than `BLOCK_LANES`, every row of another family and
    every cell a caller iterates come from generators.

    Every method call draws from each cell's start, so a draw site may
    make only one method call per `Cells`: a second call would draw the
    same bits again. A site that takes several draws from a cell reads them
    from one method or draws them from each iterated generator in turn.
    """

    def __init__(self, family: StreamFamily, replicates, round_index, purpose: int):
        self.family = family
        self.replicates = np.asarray(replicates, dtype=np.uint64)
        self.round_index = round_index
        self.purpose = purpose

    def __len__(self) -> int:
        return len(self.replicates)

    def __iter__(self):
        at, purpose = self.family.at, self.purpose
        rounds = self.round_index.tolist() if np.ndim(self.round_index) else [self.round_index] * len(self)
        for r, t in zip(self.replicates.tolist(), rounds):
            yield at(r, t, purpose)

    def take(self, rows) -> "Cells":
        """The cells of rows `rows` of this batch, in that order."""
        t = self.round_index[rows] if np.ndim(self.round_index) else self.round_index
        return Cells(self.family, self.replicates[rows], t, self.purpose)

    def normals_then_uniforms(self, normals: int, uniforms: int) -> np.ndarray:
        """(n, normals + uniforms): row k is the k-th cell's
        `standard_normal(normals)` followed by its `random(uniforms)`."""
        width = normals + uniforms
        if not isinstance(self.family, StreamFamily) or width > BLOCK_LANES:
            return self._from_generators(normals, uniforms)
        # a slow row reads on into the whole last block, into one more word per
        # 8 normals and, in a batch of at most _EAGER_CELLS cells, into one
        # more block, which is where its slow rows most often end
        more = normals // 8 + (4 if normals and len(self) <= _EAGER_CELLS else 0)
        lanes = self._lanes(-(-(width + more) // 4) * 4)
        z, fast = _normals(lanes[:, :normals])
        out = np.concatenate((z, _doubles(lanes[:, normals:width])), axis=1)
        slow = np.flatnonzero(~fast.all(axis=1))
        if len(slow):
            out[slow] = self.take(slow)._decoded(normals, uniforms, lanes[slow], _SLACK + normals // 8)
        return out

    def _lanes(self, count: int, start: int = 0) -> np.ndarray:
        """`count` words of every cell from word `start` on (`philox_lanes`)."""
        return philox_lanes(self.family.seed, self.replicates, self.round_index, self.purpose, count, start)

    def _decoded(self, normals: int, uniforms: int, lanes: np.ndarray, more: int) -> np.ndarray:
        """`normals_then_uniforms` of rows whose normals leave the ziggurat's
        fast path, read in order as numpy's `Generator` reads them from
        `lanes`, at least the first normals + uniforms words of each cell.
        `_slow_normals` decodes the normals that start on a slow lane; every
        other draw is its one word's fast-path normal or double, read as
        many words past its column as the slow normals before it read past
        theirs. The rows whose draw reads past `lanes` are decoded again
        with `more` words more, which one `philox_lanes` call over them
        adds, and so on with twice as many more."""
        width, n = normals + uniforms, len(self)
        z, fast = _normals(lanes)
        rows, positions = np.nonzero(~fast)
        bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
        positions = positions.tolist()
        # extra[k, c]: the words that row k's slow normal in column c - 1 read past its own
        extra = np.zeros((n, width + 1), dtype=np.intp)
        slow_rows, slow_columns, slow_values, short = [], [], [], []
        for k in range(n):
            try:
                # one row's words at a time: a block's Python ints held at once cost
                # run_box_csv 0.3 MB of peak RSS
                starts = _slow_normals(lanes[k].tolist(), positions[bounds[k]:bounds[k + 1]], normals, uniforms)
            except IndexError:
                short.append(k)
                continue
            for j, x, read in starts:
                slow_rows.append(k)
                slow_columns.append(j)
                slow_values.append(x)
                extra[k, j + 1] = read
        word = np.arange(width) + np.cumsum(extra[:, :width], axis=1)
        out = np.concatenate((np.take_along_axis(z, word[:, :normals], axis=1),
                              _doubles(np.take_along_axis(lanes, word[:, normals:], axis=1))), axis=1)
        out[slow_rows, slow_columns] = slow_values
        if short:
            cells, start = self.take(short), lanes.shape[1] // 4 * 4  # a partial last block is drawn again
            longer = np.concatenate((lanes[short, :start], cells._lanes(lanes.shape[1] - start + more, start)), axis=1)
            out[short] = cells._decoded(normals, uniforms, longer, 2 * more)
        return out

    def _from_generators(self, normals: int, uniforms: int) -> np.ndarray:
        """`normals_then_uniforms`, each row filled in place from its cell's generator."""
        out = np.empty((len(self), normals + uniforms))
        z, u = out[:, :normals], out[:, normals:]
        for k, gen in enumerate(self):
            if normals:
                gen.standard_normal(out=z[k])
            if uniforms:
                gen.random(out=u[k])
        return out

    def random(self) -> np.ndarray:
        return self.normals_then_uniforms(0, 1)[:, 0]

    def standard_normal(self, dim: int) -> np.ndarray:
        return self.normals_then_uniforms(dim, 0)

    def normal(self, loc: float, scale: float, size: int) -> np.ndarray:
        """numpy's loc + scale * z; as numpy, rejects a negative scale, -0.0 included, but not NaN."""
        if np.signbit(scale) and not np.isnan(scale):
            raise ValueError("scale < 0")
        return loc + scale * self.standard_normal(size)

    def uniform(self, low, high) -> np.ndarray:
        """Row k is the k-th cell's `uniform(low, high)`, flattened: numpy's
        low + (high - low) * u for each entry of the broadcast bounds. Like
        numpy, rejects a span that is not finite or has its sign bit set."""
        low = np.asarray(low, dtype=np.float64)
        span = np.asarray(high, dtype=np.float64) - low
        if not np.isfinite(span).all():
            raise OverflowError("high - low range exceeds valid bounds")
        if np.signbit(span).any():
            raise ValueError("high - low < 0")
        return np.broadcast_to(low, span.shape).ravel() + span.ravel() * self.normals_then_uniforms(0, span.size)

    def integers(self, high: int) -> np.ndarray:
        """Row k is the k-th cell's `integers(high)`, numpy's Lemire draw:
        32-bit on the low half of word 0 for high <= 2**32, reading on in
        `_lemire` for the rows it rejects, and 64-bit in `_lemire` above.
        Rejects a bound outside [1, 2**63] with numpy's error."""
        if high < 1:
            raise ValueError("high <= 0")
        if high > 1 << 63:
            raise ValueError("high is out of bounds for int64")
        if not isinstance(self.family, StreamFamily):
            return self._integers_from_generators(high)
        if high > 1 << 32:
            return self._lemire(high, 64)
        m = (self._lanes(1)[:, 0] & _LO32) * _U64(high)
        out = (m >> _32).astype(np.int64)
        rejected = np.flatnonzero((m & _LO32) < _U64((2**32 - high) % high))
        if len(rejected):
            out[rejected] = self.take(rejected)._lemire(high, 32)
        return out

    def _lemire(self, high: int, bits: int, words: int = 4) -> np.ndarray:
        """Row by row, the first draw x whose x * high has low `bits` bits of
        at least (2**bits - high) % high, shifted down by `bits`; a draw is a
        word, or at 32 bits its low then high half (numpy's `next_uint32`).
        Rows that reject all of `words` words read twice as many."""
        mask = (1 << bits) - 1
        threshold = (mask + 1 - high) % high
        out, short = np.empty(len(self), dtype=np.int64), []
        for k, row in enumerate(self._lanes(words).tolist()):
            draws = row if bits == 64 else (half for word in row for half in (word & mask, word >> 32))
            m = next((m for m in (x * high for x in draws) if m & mask >= threshold), None)
            if m is None:
                short.append(k)
            else:
                out[k] = m >> bits
        if short:
            out[short] = self.take(short)._lemire(high, bits, 2 * words)
        return out

    def _integers_from_generators(self, high: int) -> np.ndarray:
        return np.array([gen.integers(high) for gen in self], dtype=np.int64)

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
        u = self.random()
        if cdf.ndim == 1:
            return np.searchsorted(cdf, u, side="right")
        return (cdf <= u[:, None]).sum(axis=1)


class Windows:
    """Round t's cells of one batch, asked for in increasing rounds up to
    `last_round`. A batch of `CROSSOVER` replicates or more gets each
    round's `Cells`, whose draws already take the counter path.

    A smaller batch draws a window of rounds at a time. A window spans
    `window_rounds(n)` rounds from the first round asked of it, and only the
    current window's blocks are kept. The first float draw of a given
    (purpose, normals, uniforms) in a window, at most `BLOCK_LANES` wide,
    draws that shape for the cells of every replicate at that round and each
    later round of the window, in one `normals_then_uniforms` call on the
    `grid` of those cells; later rounds slice their rows of that block. A
    wider draw is drawn as its round's `Cells` draws it.
    """

    def __init__(self, family: StreamFamily, replicates, last_round: int):
        self.family = family
        self.replicates = np.asarray(replicates, dtype=np.uint64)
        self.last_round = last_round
        self.rounds = range(0)  # the current window
        self._blocks = {}       # (purpose, normals, uniforms) -> (first round, (rounds, n, width) draws)

    def cells(self, t: int, purpose: int) -> Cells:
        n = len(self.replicates)
        if n >= CROSSOVER:
            return Cells(self.family, self.replicates, t, purpose)
        if t not in self.rounds:
            self.rounds = range(t, min(t + window_rounds(n), self.last_round + 1))
            self._blocks = {}
        return _WindowCells(self, np.arange(n), t, purpose)

    def block(self, t: int, purpose: int, normals: int, uniforms: int):
        """Round t's rows of the current window's block of this draw shape,
        drawing the block first if there is none and one may, or None."""
        hit = self._blocks.get((purpose, normals, uniforms))
        if hit is not None and hit[0] <= t:
            return hit[1][t - hit[0]]
        n, rounds = len(self.replicates), range(t, self.rounds.stop)
        if t not in self.rounds or normals + uniforms > BLOCK_LANES:
            return None
        drawn = self.family.grid(self.replicates, rounds, purpose).normals_then_uniforms(normals, uniforms)
        self._blocks[purpose, normals, uniforms] = (t, drawn.reshape(len(rounds), n, normals + uniforms))
        return drawn[:n]


class _WindowCells(Cells):
    """Round t's cells of rows `rows` of a `Windows` batch, whose float draws
    its current window's blocks serve where they can."""

    def __init__(self, windows: Windows, rows: np.ndarray, t: int, purpose: int):
        super().__init__(windows.family, windows.replicates[rows], t, purpose)
        self.windows, self.rows = windows, rows

    def take(self, rows) -> Cells:
        return _WindowCells(self.windows, self.rows[rows], self.round_index, self.purpose)

    def normals_then_uniforms(self, normals: int, uniforms: int) -> np.ndarray:
        block = self.windows.block(self.round_index, self.purpose, normals, uniforms)
        if block is None:
            return super().normals_then_uniforms(normals, uniforms)
        return block[self.rows]


def window_rounds(n: int) -> int:
    """Rounds in one window of a batch of n replicates: as many as
    `WINDOW_CELLS` cells hold and at least one, or one at `CROSSOVER`
    replicates or more."""
    return 1 if n >= CROSSOVER else max(1, WINDOW_CELLS // max(n, 1))


def spawn_seed(seed: int, replicate: int, round_index: int, purpose: int) -> int:
    """Derive a fresh 63-bit seed for a nested simulation: the cell's
    `integers(0, 2**63)`, its first word shifted right by one."""
    return int(StreamFamily(seed).cells([replicate & _MASK], round_index, purpose).integers(1 << 63)[0])


# numpy's ziggurat tables for `standard_normal` (ki_double, wi_double and
# fi_double in numpy/random/src/distributions/ziggurat_constants.h): layer i
# keeps a lane whose 52-bit magnitude is below KI_DOUBLE[i] and scales it by
# WI_DOUBLE[i]; FI_DOUBLE[i] is the density exp(-x^2 / 2) at layer i's edge,
# which the wedge test reads. FI_DOUBLE is numpy's literal table: the value
# exp(-(WI_DOUBLE[i] * 2**52)^2 / 2) computed in doubles is 1 ulp off it on 10
# layers.
KI_DOUBLE = np.array([
    4208095142473578, 0, 3387314423973544, 3838760076542274, 4030768804392682,
    4136731738896254, 4203757248105145, 4249917568205994, 4283617341590296, 4309289223136604,
    4329489775174550, 4345795907393188, 4359232558744730, 4370494503737299, 4380069246215646,
    4388308869042394, 4395473957549321, 4401761481783924, 4407323076021240, 4412277362218204,
    4416718463613199, 4420722014516422, 4424349484777079, 4427651345409294, 4430669422005229,
    4433438668975191, 4435988524278344, 4438343955930065, 4440526279077425, 4442553800234660,
    4444442329865861, 4446205593658138, 4447855565093316, 4449402736340121, 4450856340408624,
    4452224534496486, 4453514552210512, 4454732830656798, 4455885117109368, 4456976558985043,
    4458011780094444, 4458994945550386, 4459929817254120, 4460819801517196, 4461667990089170,
    4462477195632268, 4463249982500384, 4463988693531856, 4464695473445501, 4465372289331869,
    4466020948651920, 4466643115089764, 4467240322552142, 4467813987562542, 4468365420260672,
    4468895834186994, 4469406355006040, 4469898028300364, 4470371826548633, 4470828655385770,
    4471269359229841, 4471694726349190, 4472105493433674, 4472502349725738, 4472885940759935,
    4473256871753524, 4473615710685532, 4473962991097124, 4474299214642296, 4474624853414418,
    4474940352071305, 4475246129778808, 4475542581990776, 4475830082081194, 4476108982842610,
    4476379617863426, 4476642302795321, 4476897336520866, 4477145002230339, 4477385568415884,
    4477619289790266, 4477846408136804, 4478067153096380, 4478281742896886, 4478490385029917,
    4478693276879082, 4478890606303906, 4479082552182886, 4479269284918997, 4479450966910588,
    4479627752990372, 4479799790834988, 4479967221347354, 4480130179013872, 4480288792238368,
    4480443183654460, 4480593470417939, 4480739764480586, 4480882172846772, 4481020797814010,
    4481155737198612, 4481287084547452, 4481414929336784, 4481539357158974, 4481660449897960,
    4481778285894165, 4481892940099539, 4482004484223382, 4482112986869492, 4482218513665204,
    4482321127382802, 4482420888053758, 4482517853076245, 4482612077316275, 4482703613202871,
    4482792510817576, 4482878817978627, 4482962580320076, 4483043841366126, 4483122642600925,
    4483199023534056, 4483273021761922, 4483344673025224, 4483414011262724, 4483481068661428,
    4483545875703378, 4483608461209170, 4483668852378323, 4483727074826624, 4483783152620564,
    4483837108308932, 4483888962951686, 4483938736146144, 4483986446050596, 4484032109405372,
    4484075741551420, 4484117356446452, 4484156966678662, 4484194583478081, 4484230216725550,
    4484263874959345, 4484295565379450, 4484325293849474, 4484353064896186, 4484378881706674,
    4484402746123075, 4484424658634833, 4484444618368474, 4484462623074794, 4484478669113436,
    4484492751434740, 4484504863558830, 4484514997551788, 4484523143998833, 4484529291974394,
    4484533429008906, 4484535541052219, 4484535612433424, 4484533625816926, 4484529562154580,
    4484523400633636, 4484515118620291, 4484504691598554, 4484492093104164, 4484477294653230,
    4484460265665252, 4484440973380154, 4484419382768918, 4484395456437370, 4484369154522621,
    4484340434581640, 4484309251471359, 4484275557219678, 4484239300886654, 4484200428415112,
    4484158882469814, 4484114602264271, 4484067523374160, 4484017577536216, 4483964692431365,
    4483908791450714, 4483849793442887, 4483787612441036, 4483722157367660, 4483653331715198,
    4483581033200083, 4483505153387764, 4483425577285833, 4483342182902157, 4483254840764470,
    4483163413397547, 4483067754753536, 4482967709590562, 4482863112794072, 4482753788634692,
    4482639549955636, 4482520197281720, 4482395517841076, 4482265284489409, 4482129254525304,
    4481987168383486, 4481838748191074, 4481683696169781, 4481521692864464, 4481352395175570,
    4481175434169564, 4480990412637506, 4480796902367134, 4480594441088331, 4480382529045225,
    4480160625140311, 4479928142586662, 4479684443993061, 4479428835793398, 4479160561915451,
    4478878796564388, 4478582635972392, 4478271088936406, 4477943065929958, 4477597366530538,
    4477232664848704, 4476847492576192, 4476440219183781, 4476009028690434, 4475551892286424,
    4475066535915646, 4474550401693506, 4474000601739904, 4473413862618200, 4472786458058295,
    4472114126959004, 4471391972746494, 4470614338917719, 4469774653883156, 4468865235838896,
    4467877045039530, 4466799366045354, 4465619395558397, 4464321701199635, 4462887501169282,
    4461293691124341, 4459511507635972, 4457504658253067, 4455226650325010, 4452616884242348,
    4449594783440798, 4446050695647666, 4441831266659618, 4436714892174061, 4430368316897338,
    4422264825074740, 4411517007702132, 4396496531309976, 4373832704204284, 4335125104963628,
    4251099761679434,
], dtype=np.uint64)
WI_DOUBLE = np.array([
    8.683627060801306e-16, 4.779330175727737e-17, 6.354352417405262e-17, 7.454870481247696e-17,
    8.3293668157931e-17, 9.068060405059482e-17, 9.714860076567762e-17, 1.0294750314241019e-16,
    1.0823430288447684e-16, 1.131147019610903e-16, 1.176635945702292e-16, 1.2193617278714363e-16,
    1.2597439914637093e-16, 1.2981099886264032e-16, 1.3347203736824123e-16, 1.3697864842571203e-16,
    1.4034823001242382e-16, 1.4359529452056943e-16, 1.4673208742364422e-16, 1.4976904668391037e-16,
    1.5271515003596198e-16, 1.5557818169460764e-16, 1.5836494009290885e-16, 1.6108140175274928e-16,
    1.6373285203969853e-16, 1.6632399058420835e-16, 1.6885901708676596e-16, 1.713417017655966e-16,
    1.737754436586486e-16, 1.7616331923000996e-16, 1.7850812316976727e-16, 1.8081240285799152e-16,
    1.830784876482675e-16, 1.853085138861802e-16, 1.8750444639373882e-16, 1.896680970077476e-16,
    1.918011406483862e-16, 1.9390512930625104e-16, 1.9598150426628824e-16, 1.9803160683128174e-16,
    2.000566877627333e-16, 2.0205791562071654e-16, 2.0403638415480212e-16, 2.0599311887403706e-16,
    2.079290829041402e-16, 2.0984518222370352e-16, 2.1174227035760342e-16, 2.1362115259449868e-16,
    2.1548258978581458e-16, 2.1732730177564367e-16, 2.191559705042727e-16, 2.2096924282235318e-16,
    2.2276773304789553e-16, 2.2455202529414355e-16, 2.263226755928568e-16, 2.280802138345017e-16,
    2.2982514554424684e-16, 2.3155795351040804e-16, 2.3327909928004356e-16, 2.3498902453470955e-16,
    2.3668815235791604e-16, 2.3837688840454243e-16, 2.4005562198135063e-16, 2.4172472704675025e-16,
    2.433845631371103e-16, 2.4503547622614954e-16, 2.466777995232705e-16, 2.4831185421610877e-16,
    2.4993795016204524e-16, 2.515563865329658e-16, 2.5316745241713583e-16, 2.547714273816944e-16,
    2.563685819989397e-16, 2.579591783392867e-16, 2.5954347043351707e-16, 2.6112170470670194e-16,
    2.6269412038597256e-16, 2.6426094988411895e-16, 2.658224191608307e-16, 2.6737874806323633e-16,
    2.689301506472616e-16, 2.704768354811995e-16, 2.720190059327732e-16, 2.735568604408679e-16,
    2.7509059277301666e-16, 2.7662039226963903e-16, 2.781464440759544e-16, 2.79668929362423e-16,
    2.8118802553450207e-16, 2.827039064324479e-16, 2.842167425218406e-16, 2.8572670107546015e-16,
    2.87233946347098e-16, 2.887386397378482e-16, 2.9024093995538423e-16, 2.9174100316669455e-16,
    2.9323898314471816e-16, 2.947350314092935e-16, 2.9622929736280665e-16, 2.977219284209029e-16,
    2.992130701386013e-16, 3.007028663321331e-16, 3.0219145919680615e-16, 3.036789894211802e-16,
    3.051655962978219e-16, 3.0665141783089545e-16, 3.081365908408297e-16, 3.0962125106629225e-16,
    3.111055332636893e-16, 3.125895713043999e-16, 3.140734982699446e-16, 3.1555744654528006e-16,
    3.1704154791040285e-16, 3.1852593363044065e-16, 3.2001073454440114e-16, 3.214960811527447e-16,
    3.2298210370394156e-16, 3.244689322801698e-16, 3.2595669688230784e-16, 3.2744552751437067e-16,
    3.2893555426753697e-16, 3.3042690740391284e-16, 3.3191971744017523e-16, 3.3341411523123725e-16,
    3.3491023205407785e-16, 3.364081996918765e-16, 3.37908150518595e-16, 3.394102175841489e-16,
    3.409145347003126e-16, 3.424212365275018e-16, 3.4393045866258313e-16, 3.454423377278584e-16,
    3.4695701146137835e-16, 3.4847461880874137e-16, 3.499953000165381e-16, 3.5151919672760744e-16,
    3.53046452078274e-16, 3.5457721079774357e-16, 3.5611161930983884e-16, 3.5764982583726505e-16,
    3.59191980508603e-16, 3.6073823546823514e-16, 3.6228874498941915e-16, 3.6384366559073444e-16,
    3.65403156156137e-16, 3.669673780588701e-16, 3.685364952894914e-16, 3.7011067458828983e-16,
    3.716900855823823e-16, 3.7327490092779435e-16, 3.7486529645684887e-16, 3.7646145133120287e-16,
    3.7806354820089604e-16, 3.7967177336979443e-16, 3.8128631696783774e-16, 3.829073731305243e-16,
    3.8453514018609596e-16, 3.8616982085091493e-16, 3.878116224335587e-16, 3.894607570481926e-16,
    3.9111744183782054e-16, 3.9278189920805415e-16, 3.944543570720877e-16, 3.9613504910761354e-16,
    3.9782421502646826e-16, 3.995221008578565e-16, 4.012289592460629e-16, 4.029450497636328e-16,
    4.04670639241075e-16, 4.0640600211422504e-16, 4.0815142079049387e-16, 4.0990718603532664e-16,
    4.1167359738030257e-16, 4.134509635544236e-16, 4.1523960294026883e-16, 4.170398440568316e-16,
    4.1885202607101123e-16, 4.206764993399015e-16, 4.2251362598620494e-16, 4.243637805093078e-16,
    4.262273504347798e-16, 4.2810473700531167e-16, 4.2999635591638323e-16, 4.3190263810026294e-16,
    4.338240305622791e-16, 4.357609972736849e-16, 4.3771402012585875e-16, 4.3968359995105214e-16,
    4.4167025761542035e-16, 4.4367453519065673e-16, 4.456969972112043e-16, 4.477382320247534e-16,
    4.49798853244555e-16, 4.518795013130059e-16, 4.539808451870034e-16, 4.561035841567422e-16,
    4.582484498109567e-16, 4.604162081631153e-16, 4.626076619547846e-16, 4.648236531543207e-16,
    4.670650656712631e-16, 4.693328283093329e-16, 4.716279179838351e-16, 4.739513632325867e-16,
    4.763042480533137e-16, 4.786877161048723e-16, 4.811029753147417e-16, 4.835513029411525e-16,
    4.860340511450812e-16, 4.885526531353603e-16, 4.91108629959527e-16, 4.937035980240335e-16,
    4.963392774403987e-16, 4.990175013091822e-16, 5.017402260718089e-16, 5.045095430818727e-16,
    5.073276915733542e-16, 5.101970732341562e-16, 5.131202686306784e-16, 5.161000557743228e-16,
    5.191394311757699e-16, 5.222416338000234e-16, 5.254101724177597e-16, 5.286488569504945e-16,
    5.3196183453384e-16, 5.353536311816497e-16, 5.388292001334053e-16, 5.423939782201712e-16,
    5.46053951907478e-16, 5.498157350892814e-16, 5.536866612467876e-16, 5.576748932926576e-16,
    5.617895553555417e-16, 5.660408920082422e-16, 5.704404621291389e-16, 5.750013768919895e-16,
    5.797385945724594e-16, 5.846692893455479e-16, 5.898133176477899e-16, 5.951938149641444e-16,
    6.008379696271908e-16, 6.067780409333449e-16, 6.130527208725282e-16, 6.197089894581626e-16,
    6.268046963301284e-16, 6.344122407127506e-16, 6.426239659548055e-16, 6.515603317344994e-16,
    6.613827885097664e-16, 6.723150462505587e-16, 6.846803417564259e-16, 6.98971833638762e-16,
    7.159994934830664e-16, 7.372424301798799e-16, 7.658936370805573e-16, 8.113849337656484e-16,
])
FI_DOUBLE = np.array([
    1.0, 0.9771017012676716, 0.9598790918001067, 0.9451989534422996,
    0.9320600759592305, 0.919991505039347, 0.9087264400521309, 0.8980959218983434,
    0.8879846607558334, 0.8783096558089174, 0.869008688036857, 0.8600336211963315,
    0.851346258458678, 0.8429156531122042, 0.8347162929868834, 0.8267268339462214,
    0.8189291916037024, 0.8113078743126563, 0.8038494831709643, 0.796542330422959,
    0.7893761435660246, 0.7823418326548025, 0.7754313049811872, 0.7686373157984863,
    0.7619533468367954, 0.7553735065070961, 0.7488924472191568, 0.742505296340151,
    0.7362075981268627, 0.7299952645614762, 0.7238645334686302, 0.717811932630722,
    0.7118342488782484, 0.7059285013327543, 0.7000919181365116, 0.6943219161261167,
    0.6886160830046718, 0.6829721616449949, 0.6773880362187735, 0.6718617198970821,
    0.6663913439087501, 0.6609751477766631, 0.6556114705796973, 0.6502987431108167,
    0.6450354808208223, 0.6398202774530566, 0.6346517992876236, 0.6295287799248367,
    0.6244500155470265, 0.6194143606058343, 0.6144207238889139, 0.6094680649257734,
    0.6045553906974678, 0.5996817526191253, 0.5948462437679874, 0.590047996332826,
    0.5852861792633715, 0.5805599961007909, 0.5758686829723537, 0.5712115067352532,
    0.5665877632561644, 0.5619967758145243, 0.557437893618766, 0.5529104904258323,
    0.5484139632552658, 0.5439477311900263, 0.5395112342569521, 0.5351039323804576,
    0.5307253044036621, 0.5263748471716845, 0.5220520746723218, 0.5177565172297564,
    0.513487720747327, 0.5092452459957479, 0.5050286679434681, 0.5008375751261487,
    0.4966715690524897, 0.49253026364386854, 0.48841328470545803, 0.4843202694266833,
    0.48025086590904675, 0.47620473271950586, 0.4721815384677302, 0.4681809614056936,
    0.46420268904817436, 0.46024641781284287, 0.45631185267871643, 0.4523987068618485,
    0.44850670150720306, 0.4446355653957394, 0.440785034665804, 0.43695485254798555,
    0.43314476911265226, 0.4293545410294414, 0.42558393133802197, 0.4218327092294959,
    0.4181006498378482, 0.4143875340408911, 0.41069314827018816, 0.40701728432947337,
    0.4033597392211145, 0.3997203149801972, 0.39609881851583245, 0.3924950614593156,
    0.3889088600187887, 0.3853400348400773, 0.38178841087339366, 0.3782538172456192,
    0.37473608713789114, 0.3712350576682395, 0.3677505697790326, 0.36428246812900406,
    0.36083060098964803, 0.3573948201457805, 0.3539749808000768, 0.3505709414814061,
    0.34718256395679364, 0.3438097131468507, 0.34045225704452187, 0.33711006663700605,
    0.33378301583071845, 0.3304709813791636, 0.3271738428136014, 0.3238914823763911,
    0.32062378495690536, 0.3173706380299136, 0.3141319315963372, 0.3109075581262865,
    0.30769741250429206, 0.30450139197665, 0.30131939610080305, 0.2981513266966855,
    0.2949970877999618, 0.2918565856170952, 0.2887297284821829, 0.28561642681550176,
    0.2825165930837076, 0.27943014176163794, 0.2763569892956683, 0.27329705406857707,
    0.27025025636587546, 0.26721651834356147, 0.2641957639972612, 0.2611879191327212,
    0.25819291133761924, 0.25521066995466196, 0.2522411260559422, 0.24928421241852852,
    0.24633986350126383, 0.2434080154227503, 0.2404886059405006, 0.2375815744312381,
    0.23468686187233, 0.23180441082433872, 0.22893416541468034, 0.22607607132238028,
    0.22323007576391748, 0.220396127480152, 0.21757417672433113, 0.21476417525117358,
    0.21196607630703018, 0.20917983462112508, 0.2064054063978808, 0.2036427493103349,
    0.2008918224946566, 0.19815258654577514, 0.1954250035141343, 0.19270903690358918,
    0.19000465167046499, 0.1873118142238003, 0.18463049242679927, 0.18196065559952251,
    0.17930227452284758, 0.17665532144373486, 0.17401977008183855, 0.17139559563750575,
    0.1687827748012113, 0.1661812857644819, 0.16359110823236558, 0.161012223437511,
    0.15844461415592428, 0.1558882647244792, 0.15334316106026286, 0.15080929068184568,
    0.14828664273257455, 0.14577520800599403, 0.14327497897351346, 0.1407859498144447,
    0.13830811644855073, 0.13584147657125376, 0.13338602969166916, 0.13094177717364436,
    0.12850872227999957, 0.1260868702201859, 0.12367622820159657, 0.1212768054847903,
    0.11888861344291006, 0.11651166562561087, 0.11414597782783849, 0.11179156816383809,
    0.1094484571468118, 0.1071166677746838, 0.10479622562248707, 0.10248715894193525,
    0.10018949876881002, 0.09790327903886246, 0.095628536713009, 0.09336531191269101,
    0.09111364806637376, 0.08887359206827589, 0.08664519445055807, 0.08442850957035347,
    0.0822235958132029, 0.08003051581466307, 0.07784933670209612, 0.07568013035892718,
    0.07352297371398132, 0.0713779490588904, 0.06924514439700676, 0.0671246538277885,
    0.0650165779712429, 0.06292102443775814, 0.06083810834953988, 0.05876795292093374,
    0.0567106901062029, 0.05466646132488892, 0.05263541827679219, 0.05061772386094778,
    0.04861355321586854, 0.04662309490193038, 0.044646552251294463, 0.04268414491647446,
    0.04073611065594094, 0.03880270740452615, 0.036884215688567305, 0.034980941461716125,
    0.03309321945857858, 0.0312214171919203, 0.02936593975813336, 0.027527235669603113,
    0.02570580400854891, 0.02390220330579588, 0.02211706270730885, 0.02035109623004451,
    0.018605121275724622, 0.016880083152543142, 0.01517708830793531, 0.013497450601739867,
    0.011842757857907879, 0.010214971439701459, 0.008616582769398726, 0.007050875471373222,
    0.0055224032992509916, 0.0040379725933630236, 0.0026090727461021593, 0.001260285930498598,
])
_KI, _WI, _FI = KI_DOUBLE.tolist(), WI_DOUBLE.tolist(), FI_DOUBLE.tolist()  # for `_normal`'s scalars
