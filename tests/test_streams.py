"""StreamFamily and Cells give the same bits as the reference `stream`.

Both sides run under whatever numpy is installed, so these checks hold on
any numpy version (the golden digests in test_parity.py only hold on the
one they were recorded with). The counter path of `Cells` reimplements
numpy's Philox and ziggurat, so the checks below reach it with batches on
both sides of `CROSSOVER`, 64-bit addresses and lanes off the fast path.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ixplore import streams
from ixplore.streams import (
    AGENT, BLOCK_LANES, CROSSOVER, FI_DOUBLE, MODEL_DRAW, NOISE, POLICY, TYPE_DRAW, WI_DOUBLE,
    StreamFamily, Windows, _normal, _normals, philox_lanes, stream,
)

SEED = 2**40 + 17
REPLICATES = [0, 3, 1, 2**33 + 5]
CELLS = [(0, MODEL_DRAW), (1, TYPE_DRAW), (7, POLICY), (7, NOISE), (12, AGENT)]


@pytest.mark.parametrize("t, purpose", CELLS)
def test_at_matches_stream(t, purpose):
    family = StreamFamily(SEED)
    for r in REPLICATES:
        # a previous cell's partly used block must not leak into the next one
        family.at(r + 1, t, purpose).random(3)
        got = family.at(r, t, purpose)
        want = stream(SEED, r, t, purpose)
        assert got.random() == want.random()
        assert np.array_equal(got.normal(0.0, 0.7, size=5), want.normal(0.0, 0.7, size=5))
        assert got.integers(1 << 40) == want.integers(1 << 40)


@pytest.mark.parametrize("t, purpose", CELLS)
def test_cells_match_stream(t, purpose):
    cells = StreamFamily(SEED).cells(REPLICATES, t, purpose)
    gens = lambda: [stream(SEED, r, t, purpose) for r in REPLICATES]  # noqa: E731
    assert np.array_equal(cells.random(), [g.random() for g in gens()])
    assert np.array_equal(cells.normal(0.0, 1.3, size=4), [g.normal(0.0, 1.3, size=4) for g in gens()])
    assert np.array_equal(cells.standard_normal(3), [g.standard_normal(3) for g in gens()])
    assert np.array_equal(cells.integers(5), [g.integers(5) for g in gens()])
    lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([0.5, 1.0, 3.0])
    assert np.array_equal(cells.uniform(lo, hi), [g.uniform(lo, hi) for g in gens()])


@pytest.mark.parametrize("t, purpose", CELLS)
def test_cells_choice_matches_generator_choice(t, purpose):
    rng = np.random.default_rng(t)
    shared = np.array([0.1, 0.0, 0.25, 0.65])
    rows = rng.dirichlet(np.ones(4), size=len(REPLICATES))
    rows[0] = [0.0, 0.0, 1.0, 0.0]
    family = StreamFamily(SEED)
    got = family.cells(REPLICATES, t, purpose).choice(4, shared)
    assert got.tolist() == [int(stream(SEED, r, t, purpose).choice(4, p=shared)) for r in REPLICATES]
    got = family.cells(REPLICATES, t, purpose).choice(4, rows)
    assert got.tolist() == [
        int(stream(SEED, r, t, purpose).choice(4, p=p)) for r, p in zip(REPLICATES, rows)
    ]


def test_cells_iterate_in_replicate_order():
    cells = StreamFamily(SEED).cells(REPLICATES, 4, NOISE)
    assert [g.random() for g in cells] == [stream(SEED, r, 4, NOISE).random() for r in REPLICATES]


# Cell (PIN_SEED, TAIL, 7, NOISE) starts with a lane in the ziggurat's tail
# (layer 0) and cell (PIN_SEED, WEDGE, 7, NOISE) with one in the wedge of
# layer 12; a scan over replicates 2**63 + k found them.
PIN_SEED, TAIL, WEDGE = 2**64 - 59, 2**63 + 4955, 2**63 + 89


U64 = st.integers(0, 2**64 - 1)
BATCH_SIZES = [1, CROSSOVER - 1, CROSSOVER, CROSSOVER + 29]


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if got.dtype.kind == "f":
        assert np.array_equal(got.astype(np.float64).view(np.uint64), want.astype(np.float64).view(np.uint64))
    else:
        assert np.array_equal(got, want)


def words_used(gen) -> int:
    """uint64 words a fresh cell's generator has consumed."""
    state = gen.bit_generator.state
    return 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]


def counted(family):
    """The (replicate, round, purpose) of every cell `family.at` re-keys."""
    rekeyed = []
    at = family.at
    family.at = lambda r, t, p: rekeyed.append((r, t, p)) or at(r, t, p)
    return rekeyed


def decoder_pair(normals: int, uniforms: int):
    """The decoder against standard_normal(normals) then random(uniforms) on one generator."""
    return (
        lambda c: c.normals_then_uniforms(normals, uniforms),
        lambda g, k: [*g.standard_normal(normals), *g.random(uniforms)],
    )


def draw_pairs(width: int, n: int):
    """(Cells draw, per-cell generator draw of row k) for every method. The
    Generator-named methods are held to numpy's own method, and the decoder
    under them to standard_normal(normals) then random(uniforms)."""
    lo, hi = np.linspace(-2.0, 1.0, width), np.linspace(-1.0, 3.5, width)
    p = np.arange(1.0, width + 2)
    rows = np.random.default_rng(width).dirichlet(np.ones(width + 1), size=n)
    return {
        "random": (lambda c: c.random(), lambda g, k: g.random()),
        "standard_normal": (lambda c: c.standard_normal(width), lambda g, k: g.standard_normal(width)),
        "normal": (lambda c: c.normal(0.3, 1.7, width), lambda g, k: g.normal(0.3, 1.7, size=width)),
        "uniform": (lambda c: c.uniform(lo, hi), lambda g, k: g.uniform(lo, hi)),
        "uniform_scalar": (lambda c: c.uniform(-1.5, 2.0), lambda g, k: [g.uniform(-1.5, 2.0)]),
        "normals_then_uniforms_w_0": decoder_pair(width, 0),
        "normals_then_uniforms_0_w": decoder_pair(0, width),
        "normals_then_uniforms_w_1": decoder_pair(width, 1),
        "normals_then_uniforms_w_w": decoder_pair(width, width),
        "integers": (lambda c: c.integers(width + 3), lambda g, k: g.integers(width + 3)),
        "choice": (lambda c: c.choice(width + 1, p / p.sum()), lambda g, k: g.choice(width + 1, p=p / p.sum())),
        "choice_rows": (lambda c: c.choice(width + 1, rows), lambda g, k: g.choice(width + 1, p=rows[k])),
    }


@settings(max_examples=40, deadline=None)
@given(seed=U64, replicates=st.lists(U64, min_size=1, max_size=6), t=U64, purpose=U64, count=st.integers(1, 23),
       start=st.sampled_from([0, 4, 12]))
def test_philox_lanes_are_the_cells_words(seed, replicates, t, purpose, count, start):
    lanes = philox_lanes(seed, replicates, t, purpose, count, start)
    want = [stream(seed, r, t, purpose).bit_generator.random_raw(start + count)[start:] for r in replicates]
    assert lanes.dtype == np.uint64
    assert np.array_equal(lanes, np.array(want, dtype=np.uint64).reshape(len(replicates), count))


@pytest.mark.parametrize("method", sorted(draw_pairs(1, 1)))
@settings(max_examples=25, deadline=None)
@given(seed=U64, first=U64, t=U64, purpose=U64, n=st.sampled_from(BATCH_SIZES), width=st.integers(1, 9),
       pinned=st.booleans(), data=st.data())
def test_every_cells_method_matches_stream(method, seed, first, t, purpose, n, width, pinned, data):
    # a batch of consecutive replicates from a random 64-bit start (wrapping),
    # with a few arbitrary 64-bit replicates mixed in; or, pinned, a batch of
    # the tail and wedge cells' seed, round and purpose that holds them (the
    # tail alone in a batch of one) at random rows
    replicates = [(first + k) & (2**64 - 1) for k in range(n)]
    if pinned:
        seed, t, purpose = PIN_SEED, 7, NOISE
        for k, cell in zip(data.draw(st.permutations(range(n))), (TAIL, WEDGE)):
            replicates[k] = cell
    else:
        for k in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
            replicates[k] = data.draw(U64)
    cells_draw, gen_draw = draw_pairs(width, n)[method]
    got = cells_draw(StreamFamily(seed).cells(replicates, t, purpose))
    want = [gen_draw(stream(seed, r, t, purpose), k) for k, r in enumerate(replicates)]
    assert_same_bits(got, np.array(want).reshape(np.shape(got)))


BAD_ARGUMENTS = [
    ("uniform", (1.0, 0.0)), ("uniform", (0.0, -0.0)), ("uniform", (0.0, np.inf)),
    ("normal", (0.0, -1.0, 2)), ("normal", (0.0, -0.0, 2)),
]


@pytest.mark.parametrize("n", [CROSSOVER - 1, CROSSOVER])
@pytest.mark.parametrize("method, args", BAD_ARGUMENTS)
def test_bad_arguments_raise_as_numpy_on_both_paths(n, method, args):
    with pytest.raises((ValueError, OverflowError)) as numpy_error:
        getattr(stream(SEED, 0, 1, NOISE), method)(*args)
    with pytest.raises((ValueError, OverflowError)) as cells_error:
        getattr(StreamFamily(SEED).cells(range(n), 1, NOISE), method)(*args)
    assert type(cells_error.value) is type(numpy_error.value)


BAD_PROBABILITIES = [
    [np.nan, np.nan], [-0.5, 1.5], [0.3, 0.3], [np.inf, -np.inf], [np.inf, 0.0], [1e308, 1e308], [1.0 + 1e-7, 0.0],
]


@pytest.mark.parametrize("n", [CROSSOVER - 1, CROSSOVER])
@pytest.mark.parametrize("p", BAD_PROBABILITIES)
def test_bad_probabilities_raise_as_numpy_on_both_paths(n, p):
    with pytest.raises(ValueError) as numpy_error:
        stream(SEED, 0, 1, TYPE_DRAW).choice(2, p=p)
    cells = StreamFamily(SEED).cells(range(n), 1, TYPE_DRAW)
    with pytest.raises(ValueError) as cells_error:
        cells.choice(2, p)
    assert type(cells_error.value) is type(numpy_error.value)
    # a 2-d p is checked row by row: one bad row among good ones raises
    rows = np.tile([0.25, 0.75], (n, 1))
    rows[n // 2] = p
    with pytest.raises(type(numpy_error.value)):
        cells.choice(2, rows)


@pytest.mark.parametrize("n", [CROSSOVER - 1, CROSSOVER])
@pytest.mark.parametrize("scale", [np.nan, -np.nan])
def test_nan_scale_draws_nan_on_both_paths(n, scale):
    assert np.isnan(stream(SEED, 0, 1, NOISE).normal(0.0, scale, 2)).all()
    assert np.isnan(StreamFamily(SEED).cells(range(n), 1, NOISE).normal(0.0, scale, 2)).all()


def test_pinned_lanes_leave_the_fast_path():
    lanes = philox_lanes(PIN_SEED, [TAIL, WEDGE], 7, NOISE, 1)
    _, fast = _normals(lanes)
    assert (lanes[:, 0] & np.uint64(0xFF)).tolist() == [0, 12]
    assert not fast.any()
    for r in (TAIL, WEDGE):
        gen = stream(PIN_SEED, r, 7, NOISE)
        gen.standard_normal()
        assert words_used(gen) > 1


@pytest.mark.parametrize("eager, slack", [(streams._EAGER_CELLS, streams._SLACK), (0, 1)])
@pytest.mark.parametrize("position", [0, CROSSOVER // 2, CROSSOVER])
def test_rows_with_slow_lanes_decode_from_counters(position, eager, slack, monkeypatch):
    """Above `CROSSOVER`, rows whose normals leave the ziggurat's fast path,
    the pinned tail and wedge cells among them, are each cell's normals and
    then its uniform, and re-key no generator. With no block drawn up front
    and one slack word, the pinned rows (6 words each) run out of the 4
    words their batch drew, and then of one more, and read on twice."""
    monkeypatch.setattr(streams, "_EAGER_CELLS", eager)
    monkeypatch.setattr(streams, "_SLACK", slack)
    replicates = [2**63 + 10**6 + k for k in range(CROSSOVER - 1)]
    replicates[position:position] = [TAIL, WEDGE]
    family = StreamFamily(PIN_SEED)
    rekeyed = counted(family)
    got = family.cells(replicates, 7, NOISE).normals_then_uniforms(3, 1)
    want = [[*g.standard_normal(3), *g.random(1)] for g in (stream(PIN_SEED, r, 7, NOISE) for r in replicates)]
    assert_same_bits(got, want)
    assert rekeyed == []
    _, fast = _normals(philox_lanes(PIN_SEED, replicates, 7, NOISE, 3))
    fast = fast.all(axis=1)
    assert not fast[position:position + 2].any() and fast.sum() < len(replicates) - 2


def test_slow_lanes_decode_as_numpy_on_every_layer():
    """A normal that starts on a lane off the fast path is numpy's normal
    from that word on, and reads as many words as numpy: for the tail and
    the wedge of every layer 1..255, found by scanning 64 words of each of
    8,192 cells. The scan holds wedges that reject and start over on the
    next word, and tails whose first pair of doubles is rejected."""
    lanes = philox_lanes(SEED, range(8192), 3, POLICY, 64)
    layer = lanes & np.uint64(0xFF)
    _, fast = _normals(lanes)
    slow = ~fast
    slow[:, -16:] = False  # every lane kept has 16 words to read on
    words_read = {}
    for k, pos in zip(*np.nonzero(slow)):
        gen = stream(SEED, int(k), 3, POLICY)
        gen.random(pos)  # one word per double
        want = gen.standard_normal()
        got, end = _normal(lanes[k].tolist(), int(pos))
        assert_same_bits(got, want)
        assert end == words_used(gen)
        words_read.setdefault(int(layer[k, pos]), set()).add(end - pos)
    assert sorted(words_read) == list(range(256))
    assert max(words_read[0]) >= 5  # a tail of two rounds or more
    assert any(max(words_read[i]) > 2 for i in range(1, 256))  # a rejected wedge
    # FI_DOUBLE is numpy's table, whose entries are the density at each
    # layer's edge to within an ulp or two
    assert FI_DOUBLE[0] == 1.0
    np.testing.assert_array_max_ulp(FI_DOUBLE[1:], np.exp(-0.5 * (WI_DOUBLE[1:] * 2.0**52) ** 2), maxulp=2)


def lemire_rejects(lanes: np.ndarray, high: int) -> np.ndarray:
    """Rows whose first draw numpy's Lemire method rejects: 32-bit on the low
    half of word 0 for high <= 2**32, 64-bit on word 0 above."""
    bits = 32 if high <= 2**32 else 64
    words = [w & (2**bits - 1) for w in lanes[:, 0].tolist()]
    return np.array([(w * high) % 2**bits < (2**bits - high) % high for w in words])


@pytest.mark.parametrize("high", [1, 2, 3, 7, 10, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**62 + 1, 2**63])
def test_integers_draw_by_lemire_on_counters(high):
    """At any batch size, `integers(high)` is numpy's Lemire draw on
    counters: 32-bit on the low half of each cell's word 0 for high <=
    2**32, 64-bit on whole words above. A row it rejects (about half at
    2**31 + 1 and a quarter at 2**62 + 1, almost never for a small high)
    reads on from its cell's later words, so no cell is re-keyed."""
    family = StreamFamily(SEED)
    rekeyed = counted(family)
    for n in (1, CROSSOVER - 1, 4 * CROSSOVER):
        got = family.cells(range(n), 4, POLICY).integers(high)
        assert_same_bits(got, [stream(SEED, r, 4, POLICY).integers(high) for r in range(n)])
    assert rekeyed == []
    rejected = lemire_rejects(philox_lanes(SEED, range(4 * CROSSOVER), 4, POLICY, 1), high).sum()
    if high in (2**31 + 1, 2**62 + 1):
        assert 0 < rejected < 4 * CROSSOVER


@pytest.mark.parametrize("high", [2**31 + 1, 2**62 + 1])
def test_lemire_rejections_read_on_below_crossover(high):
    """Rows that Lemire rejects read on from their own words in a batch
    below `CROSSOVER`: every row of this batch, at 64-bit addresses, is
    rejected on its first draw, and at 2**31 + 1 some reject every half of
    their first block and read a longer one."""
    replicates = [2**64 - 1 - k for k in range(4000)]
    first = lemire_rejects(philox_lanes(SEED, replicates, 2**64 - 1, 2**64 - 1, 1), high)
    replicates = [r for r, hit in zip(replicates, first) if hit][:CROSSOVER - 1]
    family = StreamFamily(SEED)
    rekeyed = counted(family)
    got = family.cells(replicates, 2**64 - 1, 2**64 - 1).integers(high)
    gens = [stream(SEED, r, 2**64 - 1, 2**64 - 1) for r in replicates]
    assert_same_bits(got, [g.integers(high) for g in gens])
    assert rekeyed == [] and len(replicates) == CROSSOVER - 1
    if high == 2**31 + 1:
        # each generator has drawn its accepted half: past the first block for some
        assert max(words_used(g) for g in gens) > 4


BAD_BOUNDS = (0, -3, 2**63 + 1, 2**64)
BAD_BOUNDS_PROBE = ("import sys, numpy; bare = 'numpy.random' in sys.modules; "
                    "from ixplore.streams import StreamFamily\n"
                    "for high in sys.argv[1:]:\n"
                    "    try: StreamFamily(5).cells(range(2), 1, 2).integers(int(high))\n"
                    "    except ValueError as exc: print(exc)\n"
                    "print(bare, 'numpy.random' in sys.modules)")


def test_bad_integer_bounds_raise_as_numpy():
    """`integers` checks its bound before it draws: a bound outside [1, 2**63]
    raises numpy's own error without building a generator, so `numpy.random`
    stays unloaded."""
    messages = []
    for high in BAD_BOUNDS:
        with pytest.raises(ValueError) as numpy_error:
            stream(SEED, 0, 1, POLICY).integers(high)
        with pytest.raises(ValueError) as cells_error:
            StreamFamily(SEED).cells(range(2), 1, POLICY).integers(high)
        assert str(cells_error.value) == str(numpy_error.value)
        messages.append(str(numpy_error.value))
    env = {**os.environ, "PYTHONPATH": str(Path(streams.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", BAD_BOUNDS_PROBE, *map(str, BAD_BOUNDS)], env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[:-1] == messages
    bare, loaded = out[-1].split()
    if bare == "True":
        pytest.skip("this numpy loads numpy.random on import")
    assert loaded == "False"


ADDRESSES = [0, 1, 2**32, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed", [0, SEED, 2**64 - 1])
def test_spawn_seed_is_the_cells_63_bit_integer(seed, monkeypatch):
    """`spawn_seed` is the reference cell's `integers(0, 2**63)` at every
    address up to 2**64 - 1, read from counters without a generator."""
    monkeypatch.setattr(StreamFamily, "at", None)  # a re-key would fail
    got = [streams.spawn_seed(seed, r, t, p) for r in ADDRESSES for t in ADDRESSES for p in (AGENT, 2**64 - 1)]
    monkeypatch.undo()
    want = [int(stream(seed, r, t, p).integers(0, 2**63)) for r in ADDRESSES for t in ADDRESSES
            for p in (AGENT, 2**64 - 1)]
    assert got == want
    assert all(0 <= s < 2**63 for s in got)


def test_only_a_wide_draw_rekeys_every_cell():
    """At any batch size, a draw at most `BLOCK_LANES` wide and an integer
    come from counters, and a wider draw re-keys every cell once."""
    family = StreamFamily(SEED)
    rekeyed = counted(family)
    for n in (1, CROSSOVER - 1, CROSSOVER, 4 * CROSSOVER):
        family.cells(list(range(n)), 2, POLICY).random()
        family.cells(list(range(n)), 2, POLICY).normals_then_uniforms(BLOCK_LANES - 1, 1)
        family.cells(list(range(n)), 2, POLICY).integers(5)
        assert rekeyed == []
        family.cells(list(range(n)), 2, POLICY).standard_normal(BLOCK_LANES + 1)
        assert rekeyed == [(r, 2, POLICY) for r in range(n)]
        rekeyed.clear()


def test_ziggurat_tables_match_numpy_on_every_layer():
    """Each cell's first normal: a lane the counters keep is the value numpy
    draws from that one word, and a lane they reject makes numpy read more."""
    replicates = range(4096)
    lanes = philox_lanes(SEED, replicates, 3, POLICY, 1)
    z, fast = _normals(lanes)
    fast = fast[:, 0]
    assert set((lanes[:, 0] & np.uint64(0xFF)).tolist()) == set(range(256))
    for k, r in enumerate(replicates):
        gen = stream(SEED, r, 3, POLICY)
        x = gen.standard_normal()
        assert (words_used(gen) == 1) == fast[k]
        if fast[k]:
            assert_same_bits(z[k, 0], x)


@settings(max_examples=40, deadline=None)
@given(seed=U64, cells=st.lists(st.tuples(U64, U64), min_size=1, max_size=6), purpose=U64, count=st.integers(1, 23))
def test_philox_lanes_take_a_round_column(seed, cells, purpose, count):
    replicates, rounds = (np.array(column, dtype=np.uint64) for column in zip(*cells))
    lanes = philox_lanes(seed, replicates, rounds, purpose, count)
    want = [stream(seed, r, t, purpose).bit_generator.random_raw(count) for r, t in cells]
    assert np.array_equal(lanes, np.array(want, dtype=np.uint64).reshape(len(cells), count))


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_cells_follow_a_round_column(n):
    """Each row of a `Cells` with a column of rounds is its own round's cell,
    in every float draw, in iteration and after `take`."""
    replicates = [2**63 + 7 * k for k in range(n)]
    rounds = np.array([(2**64 - 1 - 3 * k) if k % 2 else 5 + k for k in range(n)], dtype=np.uint64)
    cells = StreamFamily(SEED).cells(replicates, rounds, NOISE)
    gens = lambda rows: [stream(SEED, replicates[k], int(rounds[k]), NOISE) for k in rows]  # noqa: E731
    want = [[*g.standard_normal(3), *g.random(2)] for g in gens(range(n))]
    assert_same_bits(cells.normals_then_uniforms(3, 2), want)
    assert [g.random() for g in cells] == [g.random() for g in gens(range(n))]
    rows = np.arange(n)[::-2]
    assert_same_bits(cells.take(rows).standard_normal(2), [g.standard_normal(2) for g in gens(rows)])


def test_grid_is_round_major():
    cells = StreamFamily(SEED).grid([4, 9], range(3, 6), POLICY)
    assert cells.replicates.tolist() == [4, 9] * 3
    assert cells.round_index.tolist() == [3, 3, 4, 4, 5, 5]


# draw shapes that repeat within a window, including empty and over-wide ones
SHAPES = [(3, 2), (3, 1), (2, 0), (3, 0), (0, 0), (3, 2), (2, 1), (0, 2), (4, 0), (BLOCK_LANES + 1, 0)]


@pytest.mark.parametrize("n", [1, 16, CROSSOVER - 1, CROSSOVER])
def test_windows_draw_each_round_as_its_cells(n):
    """Every draw of a `Windows` view is its round's `Cells` draw, whichever
    block serves it, across window boundaries and after `take`."""
    replicates, last = [2**40 + k for k in range(n)], 40
    windows = Windows(StreamFamily(SEED), replicates, last)
    rows = np.arange(n)[::-3]
    for t in range(1, last + 1, 3):
        for purpose in (POLICY, NOISE):
            for normals, uniforms in SHAPES:
                want = [[*g.standard_normal(normals), *g.random(uniforms)]
                        for g in (stream(SEED, r, t, purpose) for r in replicates)]
                assert_same_bits(windows.cells(t, purpose).normals_then_uniforms(normals, uniforms), want)
                assert_same_bits(windows.cells(t, purpose).take(rows).normals_then_uniforms(normals, uniforms),
                                 np.array(want)[rows])
        assert [g.random() for g in windows.cells(t, POLICY)] == [
            stream(SEED, r, t, POLICY).random() for r in replicates]


def test_a_window_draws_each_shape_once():
    """A window of a small batch draws a block per shape from counters and
    slices every later round of it; rows off the ziggurat's fast path are
    decoded from counters too, so no cell is re-keyed."""
    n, last = 16, 40
    family = StreamFamily(SEED)
    rekeyed = counted(family)
    windows = Windows(family, range(n), last)
    for t in range(1, last + 1):
        windows.cells(t, NOISE).standard_normal(2)
        windows.cells(t, POLICY).random()
    _, fast = _normals(philox_lanes(SEED, np.tile(range(n), last), np.repeat(np.arange(1, last + 1), n), NOISE, 2))
    assert not fast.all()  # some rows leave the fast path
    assert rekeyed == []


def test_a_block_is_never_wider_than_block_lanes(monkeypatch):
    """A draw wider than `BLOCK_LANES` takes its round's path, which
    re-keys each of a small batch's cells; a narrow one draws a block on
    counters however few cells it spans, a one-round window of 16 too."""
    n, width = 16, BLOCK_LANES + 1
    family = StreamFamily(SEED)
    rekeyed = counted(family)
    windows = Windows(family, range(n), 10)
    windows.cells(1, POLICY).random()
    windows.cells(1, POLICY).normals_then_uniforms(0, width)
    assert len(rekeyed) == n  # the wide draw took its round's path
    monkeypatch.setattr(streams, "WINDOW_CELLS", 1)
    windows = Windows(family, range(n), 10)
    for t in (1, 2):
        assert_same_bits(windows.cells(t, POLICY).random(), [stream(SEED, r, t, POLICY).random() for r in range(n)])
    assert len(rekeyed) == n  # one-round windows of 16 cells drew on counters
    assert [len(block[1]) for block in windows._blocks.values()] == [1]
