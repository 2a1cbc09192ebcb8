"""StreamFamily and Cells give the same bits as the reference `stream`.

Both sides run under whatever numpy is installed, so these checks hold on
any numpy version (the golden digests in test_parity.py only hold on the
one they were recorded with).
"""

import numpy as np
import pytest

from ixplore.streams import AGENT, MODEL_DRAW, NOISE, POLICY, TYPE_DRAW, StreamFamily, stream

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
