"""StreamFamily and Cells read the words of the reference `stream` cells.

Both sides run under whatever numpy is installed, so these checks hold on
any numpy version (the golden digests in test_parity.py only hold on the
one they were recorded with). The counter path of `Cells` reimplements
numpy's Philox, so the checks below reach it with batches of several
sizes, 64-bit addresses, word offsets and both word routes. Uniforms, a
box-prior row, `choice` and integers are held to numpy's own methods;
normals to the Box-Muller transform of each word, written out in
`conftest.word_normals`.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import cell_words, word_normals, word_uniforms
from hypothesis import given, settings
from hypothesis import strategies as st

import ixplore as ix
from ixplore import streams
from ixplore.priors import ball_points
from ixplore.streams import (
    AGENT, BLOCK_LANES, MODEL_DRAW, NOISE, POLICY, TYPE_DRAW, StreamFamily, Windows, as_normals, as_uniforms,
    philox_lanes, stream,
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
    assert np.array_equal(as_uniforms(cells.words(1))[:, 0], [g.random() for g in gens()])
    words = np.array([cell_words(SEED, r, t, purpose, 3) for r in REPLICATES])
    assert np.array_equal(as_normals(cells.words(3)), word_normals(words))
    assert np.array_equal(cells.integers(5), [g.integers(5) for g in gens()])
    lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([0.5, 1.0, 3.0])
    box = ix.sample_prior(ix.UniformBoxPrior(lo, hi), cells)
    assert np.array_equal(box, [g.uniform(lo, hi) for g in gens()])


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


U64 = st.integers(0, 2**64 - 1)
BATCH_SIZES = [1, 63, 64, 93]


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


def draw_pairs(width: int, n: int):
    """(draw from a `Cells`, per-cell reference of row k from the cell's
    generator `g` and its words `w`) for every decoding of words and every
    `Cells` method. Uniforms, box-prior rows, `choice` and integers are held
    to numpy's own method, normals to the transform of each word."""
    lo, hi = np.linspace(-2.0, 1.0, width), np.linspace(-1.0, 3.5, width)
    p = np.arange(1.0, width + 2)
    rows = np.random.default_rng(width).dirichlet(np.ones(width + 1), size=n)
    box = lambda lo, hi: lambda c: ix.sample_prior(ix.UniformBoxPrior(lo, hi), c)  # noqa: E731
    return {
        "random": (lambda c: as_uniforms(c.words(1))[:, 0], lambda g, w, k: g.random()),
        "as_uniforms": (lambda c: as_uniforms(c.words(width)), lambda g, w, k: g.random(width)),
        "as_normals": (lambda c: as_normals(c.words(width)), lambda g, w, k: word_normals(w[:width])),
        "uniform": (box(lo, hi), lambda g, w, k: g.uniform(lo, hi)),
        "uniform_scalar": (box([-1.5], [2.0]), lambda g, w, k: [g.uniform(-1.5, 2.0)]),
        "ball": (lambda c: ix.sample_prior(ix.UniformBallPrior(1.7, width), c),
                 lambda g, w, k: ball_points(1.7, word_normals(w[:width]), word_uniforms(w[width]))),
        "integers": (lambda c: c.integers(width + 3), lambda g, w, k: g.integers(width + 3)),
        "choice": (lambda c: c.choice(width + 1, p / p.sum()), lambda g, w, k: g.choice(width + 1, p=p / p.sum())),
        "choice_rows": (lambda c: c.choice(width + 1, rows), lambda g, w, k: g.choice(width + 1, p=rows[k])),
    }


@settings(max_examples=40, deadline=None)
@given(seed=U64, replicates=st.lists(U64, min_size=1, max_size=6), t=U64, purpose=U64, count=st.integers(1, 23),
       start=st.integers(0, 13))
def test_philox_lanes_are_the_cells_words(seed, replicates, t, purpose, count, start):
    lanes = philox_lanes(seed, replicates, t, purpose, count, start)
    want = [stream(seed, r, t, purpose).bit_generator.random_raw(start + count)[start:] for r in replicates]
    assert lanes.dtype == np.uint64
    assert np.array_equal(lanes, np.array(want, dtype=np.uint64).reshape(len(replicates), count))


@pytest.mark.parametrize("method", sorted(draw_pairs(1, 1)))
@settings(max_examples=25, deadline=None)
@given(seed=U64, first=U64, t=U64, purpose=U64, n=st.sampled_from(BATCH_SIZES), width=st.integers(1, 9),
       data=st.data())
def test_every_cells_method_matches_stream(method, seed, first, t, purpose, n, width, data):
    # a batch of consecutive replicates from a random 64-bit start (wrapping),
    # with a few arbitrary 64-bit replicates mixed in
    replicates = [(first + k) & (2**64 - 1) for k in range(n)]
    for k in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
        replicates[k] = data.draw(U64)
    cells_draw, reference = draw_pairs(width, n)[method]
    got = cells_draw(StreamFamily(seed).cells(replicates, t, purpose))
    want = [reference(stream(seed, r, t, purpose), cell_words(seed, r, t, purpose, 2 * width), k)
            for k, r in enumerate(replicates)]
    assert_same_bits(got, np.array(want).reshape(np.shape(got)))


@pytest.mark.parametrize("n", [1, 63, 64, 256])
@pytest.mark.parametrize("count", [1, BLOCK_LANES, BLOCK_LANES + 1])
@pytest.mark.parametrize("start", [0, 3, 4, 13])
def test_words_are_the_cells_raw_words(n, count, start):
    """`Cells.words` is each cell's `random_raw` slice on both routes: from
    counters up to `BLOCK_LANES` words, re-keying nothing, and from one
    re-keyed generator per cell above; with a fixed round or a column of
    rounds, and after `take`."""
    replicates = [2**63 + 5 * k for k in range(n)]
    rounds = np.array([2**64 - 1 - k if k % 2 else 3 + k for k in range(n)], dtype=np.uint64)
    family = StreamFamily(SEED)
    rekeyed = counted(family)
    for t in (7, rounds):
        got = family.cells(replicates, t, NOISE).words(count, start)
        ts = rounds.tolist() if t is rounds else [t] * n
        want = [cell_words(SEED, r, tk, NOISE, count, start) for r, tk in zip(replicates, ts)]
        assert_same_bits(got, np.array(want, dtype=np.uint64).reshape(n, count))
        rows = np.arange(n)[::-3]
        assert_same_bits(family.cells(replicates, t, NOISE).take(rows).words(count, start), got[rows])
    assert len(rekeyed) == (0 if count <= BLOCK_LANES else 2 * (n + len(range(0, n, 3))))


def test_normals_at_their_edge_words():
    """A word of 0 gives the largest normal, sqrt(64 ln 2); a high half of
    all ones gives u1 = 1 and so a zero of either sign, and a low half of
    2**31 turns the angle by pi."""
    words = np.array([0, 2**31, 0xFFFFFFFF << 32, (0xFFFFFFFF << 32) + 2**31], dtype=np.uint64)
    edge = as_normals(words)
    assert_same_bits(edge, word_normals(words))
    assert edge[0] == math.sqrt(64 * math.log(2)) and abs(edge[0] - 6.6604) < 1e-4
    assert edge[1] == -edge[0]
    assert edge[2] == 0.0 and edge[3] == 0.0


def test_normals_pass_kolmogorov_smirnov():
    """10^5 normals of a fixed seed, one per cell, against the standard
    normal cdf at level 0.001."""
    n = 10**5
    z = np.sort(as_normals(StreamFamily(2024).cells(range(n), 1, NOISE).words(1))[:, 0])
    cdf = 0.5 * (1.0 + np.array([math.erf(x / math.sqrt(2.0)) for x in z.tolist()]))
    i = np.arange(1, n + 1)
    ks = max((i / n - cdf).max(), (cdf - (i - 1) / n).max())
    assert ks < 1.95 / math.sqrt(n)
    assert np.abs(z).max() <= math.sqrt(64 * math.log(2))


BAD_PROBABILITIES = [
    [np.nan, np.nan], [-0.5, 1.5], [0.3, 0.3], [np.inf, -np.inf], [np.inf, 0.0], [1e308, 1e308], [1.0 + 1e-7, 0.0],
]


@pytest.mark.parametrize("n", [63, 64])
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


def lemire_rejects(lanes: np.ndarray, high: int) -> np.ndarray:
    """Rows whose first draw numpy's 32-bit Lemire method rejects, on the low
    half of word 0."""
    words = [w & (2**32 - 1) for w in lanes[:, 0].tolist()]
    return np.array([(w * high) % 2**32 < (2**32 - high) % high for w in words])


@pytest.mark.parametrize("high", [1, 2, 3, 7, 10, 2**31 + 1, 2**32 - 1, 2**32])
def test_integers_draw_by_lemire_on_counters(high):
    """At any batch size, `integers(high)` is numpy's 32-bit Lemire draw on
    counters, on the low half of each cell's word 0. A row it rejects
    (about half at 2**31 + 1, almost never for a small high) reads on from
    its cell's later words, so no cell is re-keyed."""
    family = StreamFamily(SEED)
    rekeyed = counted(family)
    for n in (1, 63, 256):
        got = family.cells(range(n), 4, POLICY).integers(high)
        assert_same_bits(got, [stream(SEED, r, 4, POLICY).integers(high) for r in range(n)])
    assert rekeyed == []
    rejected = lemire_rejects(philox_lanes(SEED, range(256), 4, POLICY, 1), high).sum()
    if high == 2**31 + 1:
        assert 0 < rejected < 256


@pytest.mark.parametrize("high", [2**31 + 1])
def test_lemire_rejections_read_on_below_crossover(high):
    """Rows that Lemire rejects read on from their own words: every row of
    this batch of 63, at 64-bit addresses, is rejected on its first draw,
    and some reject every half of their first block and read a longer
    one."""
    replicates = [2**64 - 1 - k for k in range(4000)]
    first = lemire_rejects(philox_lanes(SEED, replicates, 2**64 - 1, 2**64 - 1, 1), high)
    replicates = [r for r, hit in zip(replicates, first) if hit][:63]
    family = StreamFamily(SEED)
    rekeyed = counted(family)
    got = family.cells(replicates, 2**64 - 1, 2**64 - 1).integers(high)
    gens = [stream(SEED, r, 2**64 - 1, 2**64 - 1) for r in replicates]
    assert_same_bits(got, [g.integers(high) for g in gens])
    assert rekeyed == [] and len(replicates) == 63
    # each generator has drawn its accepted half: past the first block for some
    assert max(words_used(g) for g in gens) > 4


BAD_BOUNDS = (0, -3)
WIDE_BOUNDS = (2**32 + 1, 2**63, 2**64)  # numpy's 64-bit draw, which no draw site needs
BAD_BOUNDS_PROBE = ("import sys, numpy; bare = 'numpy.random' in sys.modules; "
                    "from ixplore.streams import StreamFamily\n"
                    "for high in sys.argv[1:]:\n"
                    "    try: StreamFamily(5).cells(range(2), 1, 2).integers(int(high))\n"
                    "    except ValueError as exc: print(exc)\n"
                    "print(bare, 'numpy.random' in sys.modules)")


def test_bad_integer_bounds_raise_as_numpy():
    """`integers` checks its bound before it draws: a bound below 1 raises
    numpy's own error, and one above 2**32 a ValueError of its own, without
    building a generator, so `numpy.random` stays unloaded."""
    messages = []
    for high in BAD_BOUNDS:
        with pytest.raises(ValueError) as numpy_error:
            stream(SEED, 0, 1, POLICY).integers(high)
        with pytest.raises(ValueError) as cells_error:
            StreamFamily(SEED).cells(range(2), 1, POLICY).integers(high)
        assert str(cells_error.value) == str(numpy_error.value)
        messages.append(str(numpy_error.value))
    for high in WIDE_BOUNDS:
        with pytest.raises(ValueError, match=r"at most 2\*\*32") as cells_error:
            StreamFamily(SEED).cells(range(2), 1, POLICY).integers(high)
        messages.append(str(cells_error.value))
    env = {**os.environ, "PYTHONPATH": str(Path(streams.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", BAD_BOUNDS_PROBE, *map(str, BAD_BOUNDS + WIDE_BOUNDS)], env=env,
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
    for n in (1, 63, 64, 256):
        family.cells(list(range(n)), 2, POLICY).choice(2, [0.5, 0.5])
        family.cells(list(range(n)), 2, POLICY).words(BLOCK_LANES)
        family.cells(list(range(n)), 2, POLICY).integers(5)
        assert rekeyed == []
        family.cells(list(range(n)), 2, POLICY).words(BLOCK_LANES + 1)
        assert rekeyed == [(r, 2, POLICY) for r in range(n)]
        rekeyed.clear()


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
    in every float draw and integer, and after `take`."""
    replicates = [2**63 + 7 * k for k in range(n)]
    rounds = np.array([(2**64 - 1 - 3 * k) if k % 2 else 5 + k for k in range(n)], dtype=np.uint64)
    cells = StreamFamily(SEED).cells(replicates, rounds, NOISE)
    words = np.array([cell_words(SEED, replicates[k], int(rounds[k]), NOISE, 5) for k in range(n)])
    assert_same_bits(cells.words(5), words)
    assert_same_bits(cells.integers(7), [stream(SEED, replicates[k], int(rounds[k]), NOISE).integers(7)
                                         for k in range(n)])
    assert_same_bits(cells.choice(2, [0.25, 0.75]), [stream(SEED, replicates[k], int(rounds[k]), NOISE).choice(
        2, p=[0.25, 0.75]) for k in range(n)])
    rows = np.arange(n)[::-2]
    assert_same_bits(cells.take(rows).words(2), words[rows, :2])


def test_grid_is_round_major():
    cells = StreamFamily(SEED).grid([4, 9], range(3, 6), POLICY)
    assert cells.replicates.tolist() == [4, 9] * 3
    assert cells.round_index.tolist() == [3, 3, 4, 4, 5, 5]


# word slices (count, start) that repeat within a window, including empty
# and over-wide ones and offsets
SLICES = [(5, 0), (4, 0), (2, 0), (3, 0), (0, 0), (5, 0), (3, 0), (3, 5), (4, 0), (BLOCK_LANES + 1, 0),
          (BLOCK_LANES + 1, 1)]


@pytest.mark.parametrize("n", [1, 16, 63, 64, 1000])
def test_windows_draw_each_round_as_its_cells(n):
    """Every draw of a `Windows` view is its round's `Cells` draw, whichever
    block serves it, across window boundaries, at word offsets and after
    `take`; at 1000 replicates a window spans two rounds."""
    replicates, last = [2**40 + k for k in range(n)], 40
    windows = Windows(StreamFamily(SEED), replicates, last)
    windows.cells(1, POLICY)
    assert windows.rounds == range(1, min(1 + 2048 // n, last + 1))
    rows = np.arange(n)[::-3]
    for t in range(1, last + 1, 3):
        for purpose in (POLICY, NOISE):
            words = np.array([cell_words(SEED, r, t, purpose, 2 * BLOCK_LANES + 2) for r in replicates])
            for count, start in SLICES:
                want = words[:, start:start + count]
                assert_same_bits(windows.cells(t, purpose).words(count, start), want)
                assert_same_bits(windows.cells(t, purpose).take(rows).words(count, start), want[rows])
        assert_same_bits(windows.cells(t, POLICY).integers(3),
                         [stream(SEED, r, t, POLICY).integers(3) for r in replicates])


def test_a_window_draws_each_shape_once():
    """A window of a small batch draws one block per word slice from
    counters and slices every later round of it, so no cell is re-keyed:
    two draws of 2 words read the same block, and `choice` the block of 1."""
    n, last = 16, 40
    family = StreamFamily(SEED)
    rekeyed = counted(family)
    windows = Windows(family, range(n), last)
    for t in range(1, last + 1):
        as_normals(windows.cells(t, NOISE).words(2))
        as_uniforms(windows.cells(t, NOISE).words(2))
        windows.cells(t, POLICY).choice(2, [0.5, 0.5])
        assert sorted(windows._blocks) == [(POLICY, 1, 0), (NOISE, 2, 0)]
    assert rekeyed == []


def test_a_block_is_never_wider_than_block_lanes(monkeypatch):
    """A draw wider than `BLOCK_LANES` takes its round's path, which
    re-keys each of a small batch's cells, and a one-round window keeps no
    block: its narrow draws come from counters directly."""
    n, width = 16, BLOCK_LANES + 1
    family = StreamFamily(SEED)
    rekeyed = counted(family)
    windows = Windows(family, range(n), 10)
    windows.cells(1, POLICY).words(1)
    windows.cells(1, POLICY).words(width)
    assert len(rekeyed) == n  # the wide draw took its round's path
    assert list(windows._blocks) == [(POLICY, 1, 0)]
    monkeypatch.setattr(streams, "WINDOW_CELLS", 1)
    windows = Windows(family, range(n), 10)
    for t in (1, 2):
        got = as_uniforms(windows.cells(t, POLICY).words(1))[:, 0]
        assert_same_bits(got, [stream(SEED, r, t, POLICY).random() for r in range(n)])
    assert len(rekeyed) == n  # the one-round windows drew on counters
    assert windows._blocks == {}
