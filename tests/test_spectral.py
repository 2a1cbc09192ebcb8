import numpy as np
import pytest

from ixplore.errors import NumericalError
from ixplore.spectral import GramAccumulator


def history(d, features=()):
    """A stack of one history of dimension d that absorbed `features` in order."""
    acc = GramAccumulator(d, 1)
    for f in features:
        acc.absorb(np.asarray(f, dtype=float)[None])
    return acc


def of_matrix(matrix):
    """A stack of one history whose Gram matrix is `matrix`."""
    acc = GramAccumulator(len(matrix), 1)
    acc.matrix = np.asarray(matrix, dtype=float)[None]
    return acc


def char_poly_min_root(matrix, tol=1e-12):
    """Bisection on det(M - lam I) for the smallest eigenvalue of a
    symmetric 3x3 PSD matrix with distinct eigenvalues."""

    def p(lam):
        return np.linalg.det(matrix - lam * np.eye(3))

    hi = np.trace(matrix)  # upper bound on every eigenvalue for PSD
    # find a point strictly between the two smallest roots: p < 0 there
    probe = None
    for lam in np.linspace(0.0, hi, 20001)[1:]:
        if p(lam) < 0:
            probe = lam
            break
    assert probe is not None, "matrix eigenvalues too close for the probe grid"
    lo, up = -1e-9, probe
    while up - lo > tol:
        mid = 0.5 * (lo + up)
        if p(mid) > 0:
            lo = mid
        else:
            up = mid
    return 0.5 * (lo + up)


class TestAbsorb:
    def test_diagonal_outer_products(self):
        acc = history(2, [np.array([1.0, 0.0])] * 3 + [np.array([0.0, 1.0])] * 2)
        assert np.array_equal(acc.matrix[0], np.diag([3.0, 2.0]))
        assert acc.count == 5

    def test_rank_one(self):
        acc = history(2, [[1.0, 1.0]])
        assert np.array_equal(acc.matrix[0], np.ones((2, 2)))

    def test_empty(self):
        acc = history(2)
        assert np.array_equal(acc.matrix[0], np.zeros((2, 2)))
        assert acc.count == 0
        assert acc.min_eigen().tolist() == [0.0]
        assert acc.diag_min().tolist() == [0.0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GramAccumulator(2, 1).absorb([[1.0, 0.0, 0.0]])


class TestMinEigen:
    def test_diag(self):
        acc = of_matrix(np.diag([3.0, 2.0]))
        assert acc.min_eigen()[0] == pytest.approx(2.0)

    def test_two_by_two(self):
        acc = of_matrix([[2.0, 1.0], [1.0, 2.0]])
        assert acc.min_eigen()[0] == pytest.approx(1.0)

    def test_matches_char_poly_bisection(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            b = rng.normal(size=(5, 3))
            acc = history(3, b)
            oracle = char_poly_min_root(acc.matrix[0])
            assert acc.min_eigen()[0] == pytest.approx(oracle, abs=1e-9)

    def test_single_direction_is_degenerate(self):
        acc = history(3, [np.array([0.0, 1.0, 0.0])] * 7)
        assert acc.min_eigen().tolist() == [0.0]

    def test_negative_matrix_raises(self):
        acc = of_matrix([[-1.0, 0.0], [0.0, 1.0]])  # not reachable via absorb
        with pytest.raises(NumericalError):
            acc.min_eigen()


class TestDiagMin:
    def test_rank_one_case(self):
        acc = history(2, [[1.0, 1.0]])
        assert acc.diag_min()[0] == pytest.approx(1.0)
        assert acc.min_eigen()[0] == pytest.approx(0.0)

    def test_diag(self):
        acc = of_matrix(np.diag([3.0, 2.0]))
        assert acc.diag_min()[0] == pytest.approx(2.0)

    def test_dominates_min_eigen_on_random_histories(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 30))
            acc = history(d, rng.normal(size=(n, d)))
            lam = acc.min_eigen()[0]
            if lam > 0:
                assert acc.diag_min()[0] >= lam - 1e-9


class TestMonotonicity:
    def test_prefix_vs_extension(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(40, 3))
        acc = history(3)
        previous = 0.0
        for f in feats:
            acc.absorb(f[None])
            lam = acc.min_eigen()[0]
            assert lam >= previous - 1e-9
            previous = lam

    def test_near_uniform_growth_smoke(self):
        # light version of the growth lemma: uniform arms over identity
        # types give slope about lambda0 = 1/d, well above lambda0 / 2
        d = 3
        lam0 = 1.0 / d
        passes = 0
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            acc = history(d)
            ts, lams = [], []
            for t in range(1, 601):
                arm = rng.integers(d)
                acc.absorb(np.eye(d)[arm][None])
                if t % 10 == 0 and t >= 100:
                    ts.append(t)
                    lams.append(acc.min_eigen()[0])
            slope = np.polyfit(ts, lams, 1)[0]
            passes += slope >= 0.5 * lam0
        assert passes >= 4

